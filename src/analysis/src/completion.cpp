#include "pf/analysis/completion.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "pf/analysis/session_cache.hpp"
#include "pf/spice/fault_injection.hpp"
#include "pf/util/log.hpp"

namespace pf::analysis {

using faults::CellRole;
using faults::FaultPrimitive;
using faults::Op;
using faults::Sos;

std::vector<double> partial_rows(const RegionMap& base_map, faults::Ffm ffm) {
  const pf::Interval domain = base_map.u_domain();
  const auto& u = base_map.spec().u_axis;
  const double step =
      u.size() > 1 ? (u.back() - u.front()) / double(u.size() - 1) : 1.0;
  std::vector<double> rows;
  for (size_t iy = 0; iy < base_map.grid().height(); ++iy) {
    const pf::IntervalSet band = base_map.u_band(ffm, iy);
    if (!band.empty() && !band.covers(domain, step))
      rows.push_back(base_map.spec().r_axis[iy]);
  }
  return rows;
}

std::vector<double> choose_probe_rows(const RegionMap& base_map,
                                      faults::Ffm ffm, size_t max_rows) {
  std::vector<double> partial_rows = analysis::partial_rows(base_map, ffm);
  if (partial_rows.size() <= max_rows) return partial_rows;
  // Probe from the TOP of the partial region: at large R_def the defect
  // dominates and the floating line genuinely floats. Rows near the lower
  // boundary are marginal (and the paper's own completed faults only hold
  // above a threshold R_def — Figure 4(b)).
  const size_t n = partial_rows.size();
  std::vector<size_t> indices = {n - 1};
  if (max_rows >= 2) indices.push_back((3 * (n - 1)) / 4);
  if (max_rows >= 3) indices.push_back((n - 1) / 2);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<double> picked;
  for (size_t idx : indices) picked.push_back(partial_rows[idx]);
  return picked;
}

namespace {

/// Expected victim state just before the base SOS's operations (the value
/// the completing prefix must establish or preserve).
int required_entry_state(const Sos& base) { return base.initial_victim; }

struct Candidate {
  std::vector<Op> prefix;
  bool keeps_init = false;
};

/// Enumerate prefixes of exactly `len` operations over the vocabulary
/// {w0, w1} x {victim, same-BL aggressor}, ordered victim-first (prefer
/// lower #C among equals).
void enumerate_prefixes(int len, int required_state,
                        std::vector<Candidate>& out) {
  const Op vocab[4] = {
      {Op::Kind::kWrite0, CellRole::kVictim, true, -1},
      {Op::Kind::kWrite1, CellRole::kVictim, true, -1},
      {Op::Kind::kWrite0, CellRole::kAggressorBl, true, -1},
      {Op::Kind::kWrite1, CellRole::kAggressorBl, true, -1},
  };
  std::vector<int> idx(len, 0);
  while (true) {
    Candidate c;
    int last_victim_write = -1;
    for (int k = 0; k < len; ++k) {
      const Op& op = vocab[idx[k]];
      c.prefix.push_back(op);
      if (op.target == CellRole::kVictim) last_victim_write = op.write_value();
    }
    if (last_victim_write < 0) {
      // No victim write: the base initialization is kept (if it exists).
      c.keeps_init = true;
      out.push_back(std::move(c));
    } else if (required_state < 0 || last_victim_write == required_state) {
      // Prefix provides (and must match) the required entry state.
      c.keeps_init = false;
      out.push_back(std::move(c));
    }
    // Next combination.
    int k = len - 1;
    while (k >= 0 && ++idx[k] == 4) idx[k--] = 0;
    if (k < 0) break;
  }
}

/// The search's probe parameters: the spec's, with the search's
/// cancellation token, so the solver watchdog can abandon a probe
/// mid-transient.
dram::DramParams probe_params_of(const CompletionSpec& spec) {
  dram::DramParams params = spec.params;
  params.sim.cancel = spec.exec.cancel;
  return params;
}

/// The session a search runs on under CircuitMode::kReuse: the family's,
/// borrowed from exec.session_cache (post-initialization table included)
/// when the policy names a family, else one compiled here. Null under
/// kRebuild.
std::unique_ptr<SosSession> borrow_session(const CompletionSpec& spec,
                                           double r_def) {
  const ExecutionPolicy& policy = spec.exec;
  if (resolved_plan(policy).circuit_mode != CircuitMode::kReuse)
    return nullptr;
  dram::Defect defect = spec.defect;
  defect.resistance = r_def;
  if (policy.session_cache != nullptr && !policy.session_family.empty())
    return policy.session_cache->take(policy.session_family,
                                      probe_params_of(spec), defect);
  return std::make_unique<SosSession>(probe_params_of(spec), defect);
}

void return_session(const CompletionSpec& spec,
                    std::unique_ptr<SosSession> session) {
  if (spec.exec.session_cache != nullptr)
    spec.exec.session_cache->put(spec.exec.session_family, std::move(session));
}

/// The search proper on `family` (null: rebuild every probe).
CompletionResult search_on(const CompletionSpec& spec, SosSession* family) {
  PF_CHECK_MSG(!spec.probe_r.empty() && !spec.probe_u.empty(),
               "completion search needs probe rows and voltages");
  const ExecutionPolicy& policy = spec.exec;
  const EnginePlan plan = resolved_plan(policy);
  const ParallelGridRunner runner(policy);
  const Sos& base = spec.base.sos;
  const int entry_state = required_entry_state(base);
  const auto lines = dram::floating_lines_for(spec.defect, spec.params);
  PF_CHECK(spec.floating_line_index < lines.size());
  const dram::FloatingLine& line = lines[spec.floating_line_index];
  // State faults have no sensitizing operation; the candidate needs an idle
  // precharge cycle before observation (the mechanism that flips the cell).
  const bool is_state_fault = base.ops.empty();
  const dram::DramParams probe_params = probe_params_of(spec);

  // Compile-once pipeline: per-worker clones of the family session that
  // persist ACROSS candidates — every probe restamps its worker's column
  // and restores exactly keyed states, so the search never reconstructs a
  // netlist. Verdicts do not depend on probe order: a restore is
  // bit-identical to the solve it replaces.
  std::vector<std::unique_ptr<SosSession>> sessions(
      static_cast<size_t>(runner.workers()));
  const auto session_for = [&](int worker) -> SosSession& {
    std::unique_ptr<SosSession>& session =
        sessions[static_cast<size_t>(worker)];
    if (session == nullptr)
      session = std::make_unique<SosSession>(family->clone());
    return *session;
  };
  // Batched backend: a candidate's probes advance one probe-R row at a
  // time, all probe-U lanes in lockstep (resolved_plan guarantees kReuse),
  // unsolved lanes falling back to the scalar robust path. The verdict
  // predicate is identical to the scalar backend's.
  const spice::SimOptions attempt1 =
      tightened_sim_options(probe_params.sim, policy.retry, 1);
  const bool batch_rows = plan.backend == spice::SolverBackend::kBatched &&
                          attempt1.max_wall_seconds <= 0.0;

  std::vector<Candidate> candidates;
  for (int len = 1; len <= spec.max_prefix_ops; ++len)
    enumerate_prefixes(len, entry_state, candidates);
  const auto candidate_sos = [&](const Candidate& cand) {
    Sos sos;
    sos.initial_victim = cand.keeps_init ? base.initial_victim : -1;
    sos.initial_aggressor = base.initial_aggressor;
    sos.ops = cand.prefix;
    sos.ops.insert(sos.ops.end(), base.ops.begin(), base.ops.end());
    return sos;
  };

  // Completing prefixes shorter than max_prefix_ops are proper prefixes of
  // longer candidates: the state after them, per probe (R_def, U), goes
  // into a table private to this call and every later candidate starting
  // with the same writes (and the same initial states) restores it.
  const size_t shared_ops =
      static_cast<size_t>(std::max(spec.max_prefix_ops - 1, 0));
  std::unique_ptr<SnapshotTable> prefixes;
  if (family != nullptr) {
    std::vector<Sos> soses;
    std::set<std::tuple<int, int, uint64_t>> prefix_keys;
    for (const Candidate& cand : candidates) {
      soses.push_back(candidate_sos(cand));
      SnapshotKey key;
      for (size_t k = 0; k < std::min(shared_ops, cand.prefix.size()); ++k) {
        key.push_write(cand.prefix[k]);
        prefix_keys.emplace(soses.back().initial_victim, key.prefix_len,
                            key.prefix);
      }
    }
    prepare_post_init_states(policy, session_for, family->post_init_states(),
                             spec.probe_r, soses, attempt1);
    if (!prefix_keys.empty() && !spice::testing::armed())
      prefixes = std::make_unique<SnapshotTable>(
          prefix_keys.size() * spec.probe_r.size() * spec.probe_u.size(),
          family->column());
  }

  // The search fans out over whole candidates: each worker judges its
  // candidate's probes serially with the early exit, and the serial answer
  // is the lowest accepted index. `decided` is the lowest index known to
  // end a serial run (accepted, or thrown); candidates beyond it are
  // skipped or abandoned mid-probe, and their tallies never count — so
  // every CompletionResult field matches the serial run.
  struct Verdict {
    uint64_t runs = 0;
    uint64_t failures = 0;
    std::exception_ptr error;
  };
  std::vector<Verdict> verdicts(candidates.size());
  std::atomic<size_t> decided{candidates.size()};
  const auto decide = [&](size_t index) {
    size_t current = decided.load();
    while (index < current && !decided.compare_exchange_weak(current, index)) {
    }
  };
  const auto superseded = [&](size_t index) {
    return index > decided.load(std::memory_order_relaxed);
  };

  runner.run(candidates.size(), [&](size_t index, int worker) {
    if (superseded(index)) return;
    const Sos sos = candidate_sos(candidates[index]);
    const std::string sos_text = sos.to_string();
    const PrefixSharing sharing{
        prefixes.get(),
        std::min(shared_ops, candidates[index].prefix.size())};
    Verdict& verdict = verdicts[index];
    const auto scalar_probe = [&](double r, double u) {
      dram::Defect defect = spec.defect;
      defect.resistance = r;
      ExperimentContext ctx;
      ctx.key = completion_key(r, u);
      ctx.defect = dram::defect_name(spec.defect);
      ctx.line = line.label;
      ctx.r_def = r;
      ctx.u = u;
      ctx.sos = sos_text;
      if (family != nullptr)
        return run_sos_robust(session_for(worker), probe_params.sim, defect,
                              &line, u, sos, policy.retry, ctx,
                              is_state_fault, sharing);
      return run_sos_robust(probe_params, defect, &line, u, sos, policy.retry,
                            ctx, is_state_fault);
    };
    // The candidate is accepted iff it reproduces the base <F, R> at EVERY
    // probe point. An unsolvable probe cannot demonstrate the completion:
    // it rejects the candidate instead of aborting the whole search.
    const auto matches = [&](const SosOutcome& out) {
      return out.faulty && out.final_state == spec.base.faulty_state &&
             out.read_result == spec.base.read_result;
    };
    const auto judge = [&]() -> bool {
      for (const double r : spec.probe_r) {
        std::vector<SosSession::LaneOutcome> lanes;
        const bool lockstep = batch_rows && !spice::testing::armed();
        if (lockstep)
          lanes = session_for(worker).run_batch(r, attempt1, &line,
                                                spec.probe_u, sos,
                                                is_state_fault);
        for (size_t j = 0; j < spec.probe_u.size(); ++j) {
          if (superseded(index)) return false;
          ++verdict.runs;
          if (lockstep && lanes[j].solved) {
            if (!matches(lanes[j].outcome)) return false;
            continue;
          }
          const RobustOutcome ro = scalar_probe(r, spec.probe_u[j]);
          if (!ro.solved) {
            ++verdict.failures;
            return false;
          }
          if (!matches(ro.outcome)) return false;
        }
      }
      return true;
    };
    try {
      if (judge()) decide(index);
    } catch (const pf::CancelledError&) {
      throw;
    } catch (...) {
      // Rethrown below only if no lower candidate ends the serial run first.
      verdict.error = std::current_exception();
      decide(index);
    }
  });

  const size_t winner = decided.load();  // candidates.size(): none
  const size_t evaluated = std::min(winner + 1, candidates.size());
  CompletionResult result;
  result.candidates_evaluated = static_cast<int>(evaluated);
  for (size_t i = 0; i < evaluated; ++i) {
    result.sos_runs += verdicts[i].runs;
    result.solver_failures += verdicts[i].failures;
  }
  if (winner < candidates.size()) {
    if (verdicts[winner].error) std::rethrow_exception(verdicts[winner].error);
    result.possible = true;
    result.completed.sos = candidate_sos(candidates[winner]);
    result.completed.faulty_state = spec.base.faulty_state;
    result.completed.read_result = spec.base.read_result;
    PF_LOG_INFO("completed " << spec.base.to_string() << " as "
                             << result.completed.to_string() << " after "
                             << result.candidates_evaluated << " candidates");
    return result;
  }
  PF_LOG_INFO("no completing operations for " << spec.base.to_string()
                                              << " (not possible)");
  return result;
}

}  // namespace

CompletionResult search_completing_ops(const CompletionSpec& spec) {
  PF_CHECK_MSG(!spec.probe_r.empty() && !spec.probe_u.empty(),
               "completion search needs probe rows and voltages");
  std::unique_ptr<SosSession> session =
      borrow_session(spec, spec.probe_r.front());
  const CompletionResult result = search_on(spec, session.get());
  return_session(spec, std::move(session));
  return result;
}

CompletionResult search_completing_ops_with_fallback(
    const CompletionSpec& spec_template, const RegionMap& base_map,
    faults::Ffm ffm, size_t rows_per_window, size_t max_windows,
    double max_ratio_below_top) {
  CompletionResult total;
  std::vector<double> rows = partial_rows(base_map, ffm);
  if (rows.empty()) return total;
  // Stay within the genuinely-floating regime near the top partial row.
  const double r_floor = rows.back() / max_ratio_below_top;
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&](double r) { return r < r_floor; }),
             rows.end());
  const auto lines =
      dram::floating_lines_for(spec_template.defect, spec_template.params);
  PF_CHECK(spec_template.floating_line_index < lines.size());
  const dram::FloatingLine& line = lines[spec_template.floating_line_index];
  // One session (the family's, when the policy names one) serves every
  // window's re-observation and search.
  std::unique_ptr<SosSession> session =
      borrow_session(spec_template, rows.back());
  const dram::DramParams probe_params = probe_params_of(spec_template);

  size_t window = 0;
  for (size_t top = rows.size(); top > 0 && window < max_windows; ++window) {
    CompletionSpec spec = spec_template;
    spec.probe_r.clear();
    for (size_t k = 0; k < rows_per_window && top > 0; ++k)
      spec.probe_r.push_back(rows[--top]);

    // Re-observe the base <F, R> at this window's top row, at the centre of
    // the observation band there.
    {
      dram::Defect probe = spec.defect;
      probe.resistance = spec.probe_r.front();
      size_t iy = 0;
      for (size_t i = 0; i < base_map.spec().r_axis.size(); ++i)
        if (base_map.spec().r_axis[i] == probe.resistance) iy = i;
      const pf::IntervalSet band = base_map.u_band(ffm, iy);
      const pf::Interval hull = band.hull();
      const double u_mid = band.empty()
                               ? (line.min_v + line.max_v) / 2
                               : (hull.lo + hull.hi) / 2;
      ExperimentContext ctx;
      ctx.key = completion_key(probe.resistance, u_mid);
      ctx.defect = dram::defect_name(spec.defect);
      ctx.line = line.label;
      ctx.r_def = probe.resistance;
      ctx.u = u_mid;
      ctx.sos = spec.base.sos.to_string();
      const RobustOutcome ro =
          session != nullptr
              ? run_sos_robust(*session, probe_params.sim, probe, &line,
                               u_mid, spec.base.sos, spec.exec.retry, ctx)
              : run_sos_robust(probe_params, probe, &line, u_mid,
                               spec.base.sos, spec.exec.retry, ctx);
      ++total.sos_runs;
      if (!ro.solved) {
        ++total.solver_failures;
        continue;  // degrade to the next window
      }
      const SosOutcome& out = ro.outcome;
      if (!out.faulty || faults::classify(out.observed) != ffm) continue;
      spec.base.faulty_state = out.final_state;
      spec.base.read_result = out.read_result;
    }

    const CompletionResult attempt = search_on(spec, session.get());
    total.candidates_evaluated += attempt.candidates_evaluated;
    total.sos_runs += attempt.sos_runs;
    total.solver_failures += attempt.solver_failures;
    if (attempt.possible) {
      total.possible = true;
      total.completed = attempt.completed;
      break;
    }
  }
  return_session(spec_template, std::move(session));
  return total;
}

}  // namespace pf::analysis
