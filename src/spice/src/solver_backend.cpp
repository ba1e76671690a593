#include "pf/spice/solver_backend.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "pf/spice/fault_injection.hpp"
#include "engine_internal.hpp"

namespace pf::spice {

using detail::MosEval;
using detail::eval_square_law;
using detail::kMinPivot;

const char* solver_backend_name(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kScalar: return "scalar";
    case SolverBackend::kBatched: return "batched";
  }
  return "?";
}

SolverBackend parse_solver_backend(const std::string& name) {
  if (name == "scalar") return SolverBackend::kScalar;
  if (name == "batched") return SolverBackend::kBatched;
  throw Error("unknown solver backend \"" + name +
              "\" (expected \"scalar\" or \"batched\")");
}

// ---------------------------------------------------------------------------
// BatchedTransient
// ---------------------------------------------------------------------------

BatchedTransient::BatchedTransient(const CompiledCircuit& donor, size_t lanes)
    : tpl_(donor.tpl_), options_(donor.options_), lanes_(lanes) {
  PF_CHECK_MSG(lanes_ > 0, "batched backend needs at least one lane");
  const CircuitTemplate& T = *tpl_;
  if (!T.sparse_)
    throw Error(
        "batched backend requires the compiled sparse path (the circuit has "
        "voltage sources); use the scalar backend");
  if (options_.max_wall_seconds > 0.0)
    throw Error(
        "batched backend refuses a wall-clock watchdog (which lane trips "
        "first would be nondeterministic); use the scalar backend");
  r_ohms_ = donor.r_ohms_;

  const size_t L = lanes_;
  const size_t n = T.n_node_unknowns_;
  g_static_.assign(T.nnz_, 0.0);
  g_rc_.assign(T.nnz_ * L, 0.0);
  a_.assign(T.nnz_ * L, 0.0);
  v_.assign(T.n_nodes_ * L, 0.0);
  v_prev_.assign(T.n_nodes_ * L, 0.0);
  v_cand_.assign(T.n_nodes_ * L, 0.0);
  x_.assign(n * L, 0.0);
  rhs_.assign(n * L, 0.0);
  rhs_base_.assign(n * L, 0.0);
  pivot_row_.assign(n * L, 0.0);
  rail_levels_.assign(T.n_nodes_, RampedLevel(0.0));

  t_lane_.assign(L, 0.0);
  dt_.assign(L, options_.dt_initial);
  cached_h_.assign(L, -1.0);
  stats_.assign(L, SimStats{});
  failed_.assign(L, 0);
  error_.assign(L, std::string());
  worst_node_.assign(L, kGround);
  worst_dv_.assign(L, 0.0);

  step_phase_.assign(L, StepPhase::kIdle);
  step_h_.assign(L, 0.0);
  step_t_new_.assign(L, 0.0);
  step_iter_.assign(L, 0);
  steps_since_check_.assign(L, 0);
  pivot_failed_.assign(L, 0);
}

size_t BatchedTransient::check_lane(size_t lane) const {
  PF_CHECK_MSG(lane < lanes_, "bad lane " << lane << " of " << lanes_);
  return lane;
}

void BatchedTransient::load_state(size_t lane,
                                  const CompiledCircuit::State& state) {
  check_lane(lane);
  const CircuitTemplate& T = *tpl_;
  PF_CHECK_MSG(state.v.size() == T.n_nodes_ &&
                   state.rails.size() == T.rail_nodes_.size() &&
                   state.branch_i.empty() && state.sources.empty(),
               "state snapshot does not match this batch's template");
  if (!time_seeded_) {
    t_ = state.t;
    for (size_t i = 0; i < T.rail_nodes_.size(); ++i)
      rail_levels_[T.rail_nodes_[i]] = state.rails[i];
    time_seeded_ = true;
  } else {
    PF_CHECK_MSG(state.t == t_,
                 "lanes must be seeded from the same phase time (lane "
                     << lane << " at t=" << state.t << " s, batch at t=" << t_
                     << " s)");
  }
  const size_t L = lanes_;
  for (size_t nd = 0; nd < T.n_nodes_; ++nd) v_[nd * L + lane] = state.v[nd];
  t_lane_[lane] = state.t;
  dt_[lane] = state.dt;
  stats_[lane] = state.stats;
  failed_[lane] = 0;
  error_[lane].clear();
  worst_node_[lane] = kGround;
  worst_dv_[lane] = 0.0;
}

double BatchedTransient::node_voltage(size_t lane, NodeId n) const {
  check_lane(lane);
  PF_CHECK_MSG(n >= 0 && static_cast<size_t>(n) < tpl_->n_nodes_,
               "bad node " << n);
  return v_[static_cast<size_t>(n) * lanes_ + lane];
}

void BatchedTransient::set_node_voltage(size_t lane, NodeId n, double volts) {
  check_lane(lane);
  PF_CHECK_MSG(n > 0 && static_cast<size_t>(n) < tpl_->n_nodes_,
               "cannot override node " << n);
  PF_CHECK_MSG(!tpl_->net_.is_rail(n),
               "cannot override rail " << tpl_->net_.node_name(n));
  v_[static_cast<size_t>(n) * lanes_ + lane] = volts;
}

void BatchedTransient::set_rail(NodeId rail, double volts) {
  set_rail(rail, volts, options_.default_slew);
}

void BatchedTransient::set_rail(NodeId rail, double volts, double slew) {
  PF_CHECK_MSG(rail > 0 && static_cast<size_t>(rail) < tpl_->n_nodes_ &&
                   tpl_->net_.is_rail(rail),
               "node " << rail << " is not a rail");
  rail_levels_[rail].retarget(t_, volts, slew);
}

bool BatchedTransient::check_lane_watchdogs(size_t lane) {
  if (options_.cancel.stop_requested()) {
    std::ostringstream os;
    os << "solve cancelled (" << options_.cancel.reason()
       << ") at t=" << t_lane_[lane] << " s";
    throw CancelledError(os.str());
  }
  if (options_.max_total_nr_iters > 0 &&
      stats_[lane].nr_iterations > options_.max_total_nr_iters) {
    std::ostringstream os;
    os << "Newton iteration watchdog: " << stats_[lane].nr_iterations
       << " iterations exceed the budget of " << options_.max_total_nr_iters
       << " at t=" << t_lane_[lane] << " s";
    fail_lane(lane, os.str());
    return false;
  }
  return true;
}

void BatchedTransient::fail_lane(size_t lane, std::string message) {
  failed_[lane] = 1;
  error_[lane] = std::move(message);
}

void BatchedTransient::ensure_static_stamps() {
  if (!static_dirty_) return;
  const CircuitTemplate& T = *tpl_;
  std::fill(g_static_.begin(), g_static_.end(), 0.0);
  for (size_t i = 0; i < T.res_plans_.size(); ++i) {
    const auto& rp = T.res_plans_[i];
    const double g = 1.0 / r_ohms_[i];
    if (rp.saa >= 0) g_static_[rp.saa] += g;
    if (rp.sab >= 0) g_static_[rp.sab] -= g;
    if (rp.sbb >= 0) g_static_[rp.sbb] += g;
    if (rp.sba >= 0) g_static_[rp.sba] -= g;
  }
  for (size_t p = 0; p < T.n_node_unknowns_; ++p)
    g_static_[T.diag_slot_[p]] += options_.gmin;
  static_dirty_ = false;
  std::fill(cached_h_.begin(), cached_h_.end(), -1.0);
}

void BatchedTransient::ensure_rc_stamps(size_t lane, double h) {
  if (h == cached_h_[lane]) return;
  const CircuitTemplate& T = *tpl_;
  const size_t L = lanes_;
  for (size_t s = 0; s < T.nnz_; ++s) g_rc_[s * L + lane] = g_static_[s];
  for (const auto& cp : T.cap_plans_) {
    const double geq = cp.farads / h;
    if (cp.saa >= 0) g_rc_[static_cast<size_t>(cp.saa) * L + lane] += geq;
    if (cp.sab >= 0) g_rc_[static_cast<size_t>(cp.sab) * L + lane] -= geq;
    if (cp.sbb >= 0) g_rc_[static_cast<size_t>(cp.sbb) * L + lane] += geq;
    if (cp.sba >= 0) g_rc_[static_cast<size_t>(cp.sba) * L + lane] -= geq;
  }
  cached_h_[lane] = h;
}

void BatchedTransient::build_rhs_base(size_t lane, double h) {
  const CircuitTemplate& T = *tpl_;
  const size_t L = lanes_;
  for (size_t p = 0; p < T.n_node_unknowns_; ++p) rhs_base_[p * L + lane] = 0.0;
  // Known-node resistor terms fold into the RHS; known-node voltages are
  // fixed for the whole step (the lane's v_cand_ already holds them at
  // t_new). Same arithmetic and order as the scalar build_rhs_base.
  for (const int32_t i : T.res_folds_) {
    const auto& rp = T.res_plans_[i];
    const double g = 1.0 / r_ohms_[static_cast<size_t>(i)];
    if (rp.pa >= 0)
      rhs_base_[static_cast<size_t>(rp.pa) * L + lane] +=
          g * v_cand_[static_cast<size_t>(rp.b) * L + lane];
    else
      rhs_base_[static_cast<size_t>(rp.pb) * L + lane] +=
          g * v_cand_[static_cast<size_t>(rp.a) * L + lane];
  }
  for (const auto& cp : T.cap_plans_) {
    const double geq = cp.farads / h;
    if (cp.pa >= 0 && cp.pb < 0)
      rhs_base_[static_cast<size_t>(cp.pa) * L + lane] +=
          geq * v_cand_[static_cast<size_t>(cp.b) * L + lane];
    if (cp.pb >= 0 && cp.pa < 0)
      rhs_base_[static_cast<size_t>(cp.pb) * L + lane] +=
          geq * v_cand_[static_cast<size_t>(cp.a) * L + lane];
    const double icomp = geq * (v_prev_[static_cast<size_t>(cp.a) * L + lane] -
                                v_prev_[static_cast<size_t>(cp.b) * L + lane]);
    if (cp.pb >= 0) rhs_base_[static_cast<size_t>(cp.pb) * L + lane] -= icomp;
    if (cp.pa >= 0) rhs_base_[static_cast<size_t>(cp.pa) * L + lane] += icomp;
  }
}

void BatchedTransient::begin_step(size_t lane, double h, double t_new) {
  const CircuitTemplate& T = *tpl_;
  const size_t L = lanes_;
  const size_t n = T.n_node_unknowns_;
  // Start Newton from the committed solution (elimination-order layout).
  for (size_t p = 0; p < n; ++p)
    x_[p * L + lane] = v_[static_cast<size_t>(T.node_of_pos_[p]) * L + lane];
  for (size_t nd = 0; nd < T.n_nodes_; ++nd)
    v_prev_[nd * L + lane] = v_[nd * L + lane];
  // Known-node candidate voltages are fixed for the whole step.
  v_cand_[static_cast<size_t>(kGround) * L + lane] = 0.0;
  for (const NodeId r : T.rail_nodes_)
    v_cand_[static_cast<size_t>(r) * L + lane] = rail_levels_[r].value(t_new);

  ensure_static_stamps();
  ensure_rc_stamps(lane, h);
  build_rhs_base(lane, h);
}

void BatchedTransient::resolve_accept(size_t lane, int iters) {
  const double h = step_h_[lane];
  stats_[lane].steps++;
  t_lane_[lane] = step_t_new_[lane];
  // Step-size control from Newton effort (scalar run_for's rule).
  if (iters <= 3)
    dt_[lane] = std::min(h * 1.5, options_.dt_max);
  else if (iters > 8)
    dt_[lane] = std::max(h * 0.6, options_.dt_min);
  else
    dt_[lane] = h;
  step_phase_[lane] = StepPhase::kIdle;
}

void BatchedTransient::resolve_reject(size_t lane, double /*t_stop*/,
                                      size_t& live) {
  const CircuitTemplate& T = *tpl_;
  const double h = step_h_[lane];
  stats_[lane].rejected_steps++;
  dt_[lane] = h / 4.0;
  if (dt_[lane] < options_.dt_min) {
    std::ostringstream os;
    os << "transient failed to converge at t=" << t_lane_[lane]
       << " s (step h=" << h << " s rejected, next dt " << dt_[lane]
       << " s below dt_min=" << options_.dt_min << " s; worst residual node '"
       << T.net_.node_name(worst_node_[lane]) << "', |dv|=" << worst_dv_[lane]
       << " V)";
    fail_lane(lane, os.str());
    step_phase_[lane] = StepPhase::kDone;
    --live;
    return;
  }
  step_phase_[lane] = StepPhase::kIdle;
}

void BatchedTransient::newton_wave(double t_stop, size_t& live) {
  const CircuitTemplate& T = *tpl_;
  const size_t L = lanes_;
  const size_t n = T.n_node_unknowns_;

  // Scatter candidates and reload matrices for ALL lanes, branchlessly:
  // lanes not in a Newton iteration carry stale values, but every buffer
  // written here is recomputed each wave and only read back for in-step
  // lanes, so the garbage is harmless and the loops stay vectorizable.
  for (size_t p = 0; p < n; ++p) {
    const size_t vb = static_cast<size_t>(T.node_of_pos_[p]) * L;
    const size_t xb = p * L;
    for (size_t l = 0; l < L; ++l) v_cand_[vb + l] = x_[xb + l];
  }
  std::copy(g_rc_.begin(), g_rc_.end(), a_.begin());
  std::copy(rhs_base_.begin(), rhs_base_.end(), rhs_.begin());

  // MOSFET linearization, per lane (the runtime drain/source swap is a
  // per-lane decision). Exact scalar arithmetic and stamp order.
  for (const auto& m : T.mos_plans_) {
    for (size_t l = 0; l < L; ++l) {
      if (step_phase_[l] != StepPhase::kInNewton) continue;
      NodeId nd = m.d;
      NodeId ns = m.s;
      bool swapped = false;
      if (m.sigma * (v_cand_[static_cast<size_t>(nd) * L + l] -
                     v_cand_[static_cast<size_t>(ns) * L + l]) < 0.0) {
        std::swap(nd, ns);
        swapped = true;
      }
      const double vg = v_cand_[static_cast<size_t>(m.g) * L + l];
      const double vd = v_cand_[static_cast<size_t>(nd) * L + l];
      const double vs = v_cand_[static_cast<size_t>(ns) * L + l];
      const double vgs_eff = m.sigma * (vg - vs);
      const double vds_eff = m.sigma * (vd - vs);
      const MosEval e = eval_square_law(vgs_eff, vds_eff, m.params);
      const double ieq =
          m.sigma * e.ids - e.gm * vg - e.gds * vd + (e.gm + e.gds) * vs;
      const NodeId coef_nodes[3] = {m.g, nd, ns};
      const double coefs[3] = {e.gm, e.gds, -(e.gm + e.gds)};
      const int prow[2] = {swapped ? 2 : 1, swapped ? 1 : 2};  // pu index
      const int srow[2] = {swapped ? 1 : 0, swapped ? 0 : 1};  // slot row
      const int scol[3] = {0, swapped ? 2 : 1, swapped ? 1 : 2};
      const double signs[2] = {+1.0, -1.0};
      for (int r = 0; r < 2; ++r) {
        const int ir = m.pu[prow[r]];
        if (ir < 0) continue;
        rhs_[static_cast<size_t>(ir) * L + l] -= signs[r] * ieq;
        for (int c = 0; c < 3; ++c) {
          const double cf = signs[r] * coefs[c];
          const int32_t sl = m.slot[srow[r]][scol[c]];
          if (sl >= 0)
            a_[static_cast<size_t>(sl) * L + l] += cf;
          else
            rhs_[static_cast<size_t>(ir) * L + l] -=
                cf * v_cand_[static_cast<size_t>(coef_nodes[c]) * L + l];
        }
      }
    }
  }

  // Factor + triangular solves over the shared schedule, lane-inner. All
  // lanes are computed (a tiny or zero pivot yields IEEE inf/NaN garbage in
  // lanes already flagged or idle — discarded below); pivot checks apply
  // only to in-step lanes, matching the scalar early-out semantics because
  // a failed factorization's numbers are never committed.
  const int32_t* upd = T.upd_slots_.data();
  std::fill(pivot_failed_.begin(), pivot_failed_.end(), 0);
  for (size_t k = 0; k < n; ++k) {
    const auto& st = T.steps_[k];
    const size_t db = static_cast<size_t>(T.diag_slot_[k]) * L;
    for (size_t l = 0; l < L; ++l) {
      if (step_phase_[l] == StepPhase::kInNewton &&
          std::abs(a_[db + l]) < kMinPivot)
        pivot_failed_[l] = 1;
    }
    const uint32_t ncols = st.col_end - st.col_begin;
    double* pivrow = pivot_row_.data();
    for (uint32_t c = 0; c < ncols; ++c) {
      const size_t sb = static_cast<size_t>(T.cols_[st.col_begin + c].kj_slot) * L;
      for (size_t l = 0; l < L; ++l) pivrow[c * L + l] = a_[sb + l];
    }
    for (uint32_t r = st.row_begin; r < st.row_end; ++r) {
      const auto& row = T.rows_[r];
      const size_t ikb = static_cast<size_t>(row.ik_slot) * L;
      for (size_t l = 0; l < L; ++l) a_[ikb + l] /= a_[db + l];
      const int32_t* ij = upd + row.upd_begin;
      for (uint32_t c = 0; c < ncols; ++c) {
        const size_t tb = static_cast<size_t>(ij[c]) * L;
        const size_t pb = static_cast<size_t>(c) * L;
        for (size_t l = 0; l < L; ++l)
          a_[tb + l] -= a_[ikb + l] * pivrow[pb + l];
      }
    }
  }
  for (size_t k = 0; k < n; ++k) {
    const auto& st = T.steps_[k];
    const size_t kb = k * L;
    for (uint32_t r = st.row_begin; r < st.row_end; ++r) {
      const size_t ib = static_cast<size_t>(T.rows_[r].i) * L;
      const size_t sb = static_cast<size_t>(T.rows_[r].ik_slot) * L;
      for (size_t l = 0; l < L; ++l) rhs_[ib + l] -= a_[sb + l] * rhs_[kb + l];
    }
  }
  for (size_t k = n; k-- > 0;) {
    const auto& st = T.steps_[k];
    const size_t kb = k * L;
    for (uint32_t c = st.col_begin; c < st.col_end; ++c) {
      const size_t sb = static_cast<size_t>(T.cols_[c].kj_slot) * L;
      const size_t jb = static_cast<size_t>(T.cols_[c].j) * L;
      for (size_t l = 0; l < L; ++l) rhs_[kb + l] -= a_[sb + l] * rhs_[jb + l];
    }
    const size_t db = static_cast<size_t>(T.diag_slot_[k]) * L;
    for (size_t l = 0; l < L; ++l) rhs_[kb + l] /= a_[db + l];
  }

  // Damped update + convergence decision, per in-step lane, replicating the
  // scalar order exactly: delta tracking, clamp, finiteness guard BEFORE the
  // iteration counts, then commit-or-continue.
  for (size_t l = 0; l < L; ++l) {
    if (step_phase_[l] != StepPhase::kInNewton) continue;
    if (pivot_failed_[l]) {
      resolve_reject(l, t_stop, live);
      continue;
    }
    double max_dv = 0.0;
    size_t worst_p = 0;
    bool clamped = false;
    for (size_t p = 0; p < n; ++p) {
      double delta = rhs_[p * L + l] - x_[p * L + l];
      if (std::abs(delta) > max_dv) {
        max_dv = std::abs(delta);
        worst_p = p;
      }
      if (std::abs(delta) > options_.v_step_limit) {
        delta = std::copysign(options_.v_step_limit, delta);
        clamped = true;
      }
      x_[p * L + l] += delta;
    }
    worst_node_[l] = T.node_of_pos_[worst_p];
    worst_dv_[l] = max_dv;
    if (!std::isfinite(max_dv)) {
      resolve_reject(l, t_stop, live);
      continue;
    }
    stats_[l].nr_iterations++;
    if (!clamped && max_dv < options_.vntol) {
      // Commit.
      for (size_t p = 0; p < n; ++p)
        v_[static_cast<size_t>(T.node_of_pos_[p]) * L + l] = x_[p * L + l];
      for (const NodeId r : T.rail_nodes_)
        v_[static_cast<size_t>(r) * L + l] =
            rail_levels_[r].value(step_t_new_[l]);
      resolve_accept(l, step_iter_[l]);
    } else if (step_iter_[l] >= options_.max_nr_iters) {
      resolve_reject(l, t_stop, live);
    }
  }
}

void BatchedTransient::run_for(double duration) {
  PF_CHECK(duration >= 0.0);
  PF_CHECK_MSG(!testing::armed(),
               "batched backend cannot run under solver fault injection; "
               "route the row through the scalar backend");
  PF_CHECK_MSG(time_seeded_, "no lane loaded");
  const CircuitTemplate& T = *tpl_;
  const size_t L = lanes_;
  const double t_stop = t_ + duration;

  size_t live = 0;
  for (size_t l = 0; l < L; ++l) {
    steps_since_check_[l] = 0;
    step_phase_[l] = StepPhase::kDone;
    if (failed_[l]) continue;
    // Scalar run_for checks the watchdogs once up front...
    if (!check_lane_watchdogs(l)) continue;
    // ...then seeds the first step of the segment.
    dt_[l] = std::min(options_.dt_initial, duration > 0 ? duration : dt_[l]);
    step_phase_[l] = StepPhase::kIdle;
    ++live;
  }

  while (live > 0) {
    // Open a step on every idle lane (a lane whose last step resolved, or
    // that just entered the segment).
    for (size_t l = 0; l < L; ++l) {
      if (step_phase_[l] != StepPhase::kIdle) continue;
      if (t_lane_[l] >= t_stop - 1e-18) {
        t_lane_[l] = t_stop;
        step_phase_[l] = StepPhase::kDone;
        --live;
        continue;
      }
      ++steps_since_check_[l];
      if (options_.cancel.stop_requested() ||
          options_.max_total_nr_iters > 0 ||
          steps_since_check_[l] % 512 == 0) {
        if (!check_lane_watchdogs(l)) {
          step_phase_[l] = StepPhase::kDone;
          --live;
          continue;
        }
      }
      double h = std::min({dt_[l], options_.dt_max, t_stop - t_lane_[l]});
      // Land exactly on rail ramp corners so edges are not stepped over.
      for (const NodeId rail : T.rail_nodes_) {
        const double corner = rail_levels_[rail].ramp_end();
        if (corner > t_lane_[l] + 1e-18 && corner < t_lane_[l] + h)
          h = corner - t_lane_[l];
      }
      step_h_[l] = h;
      step_t_new_[l] = t_lane_[l] + h;
      begin_step(l, h, step_t_new_[l]);
      step_iter_[l] = 0;
      step_phase_[l] = StepPhase::kInNewton;
    }
    if (live == 0) break;
    for (size_t l = 0; l < L; ++l)
      if (step_phase_[l] == StepPhase::kInNewton) ++step_iter_[l];
    newton_wave(t_stop, live);
  }
  t_ = t_stop;
}

void BatchedTransient::run_for_with_ceiling(double duration, double dt_max) {
  const SimOptions saved = options_;
  options_.dt_max = dt_max;
  options_.dt_initial = dt_max / 10;
  try {
    run_for(duration);
  } catch (...) {
    options_ = saved;
    throw;
  }
  options_ = saved;
}

}  // namespace pf::spice
