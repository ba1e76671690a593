#include "pf/analysis/sos_runner.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "pf/dram/batched_column.hpp"
#include "pf/spice/fault_injection.hpp"
#include "pf/util/error.hpp"

namespace pf::analysis {

using dram::DramColumn;
using faults::CellRole;
using faults::Op;
using faults::Sos;

namespace {

// Step 1 of the recipe: the SOS's initializing states, applied as ordinary
// (defective) operations. Runs BEFORE the floating-voltage injection, so
// the resulting column state depends only on (configuration, initial
// states) — the invariant behind SosSession's post-initialization table.
void apply_initial_states(DramColumn& column, const Sos& sos) {
  if (sos.initial_aggressor >= 0)
    column.write(DramColumn::kAggressorSameBl, sos.initial_aggressor);
  if (sos.initial_victim >= 0)
    column.write(DramColumn::kVictim, sos.initial_victim);
}

// Steps 3-4: the operations from `first_op` on, observation and
// classification. The column must already carry the initializing states,
// the floating-voltage injection (step 2) and operations [0, first_op),
// which are writes. `after_op(k)` runs once operations [0, k) are applied.
template <typename AfterOp>
SosOutcome observe_sos(DramColumn& column, const Sos& sos,
                       bool idle_before_observe, size_t first_op,
                       AfterOp&& after_op);

void inject(DramColumn& column, const dram::FloatingLine* line, double u) {
  if (line != nullptr) column.apply_floating_voltage(*line, u);
}

}  // namespace

SosOutcome run_sos_on(DramColumn& column, const dram::FloatingLine* line,
                      double u, const Sos& sos, bool idle_before_observe) {
  apply_initial_states(column, sos);
  inject(column, line, u);
  return observe_sos(column, sos, idle_before_observe, 0, [](size_t) {});
}

namespace {

// Step 4's bookkeeping, shared by the scalar and batched observers so the
// classification rules cannot drift: fills the outcome from the observed
// final state / last read and applies the state-fault causality rule.
SosOutcome classify_observation(const Sos& sos, int final_state,
                                int last_victim_read,
                                bool last_op_is_victim_read,
                                int pre_idle_state) {
  SosOutcome out;
  out.final_state = final_state;
  out.read_result = last_op_is_victim_read ? last_victim_read : -1;
  out.observed.sos = sos;
  out.observed.faulty_state = out.final_state;
  out.observed.read_result = out.read_result;
  out.faulty = out.observed.is_fault();
  // A state fault must be CAUSED by the memory during the idle cycle;
  // merely retaining the injected floating voltage is not a fault of the
  // cell's own dynamics (the injection itself encodes unknown history).
  if (sos.ops.empty() && out.final_state == pre_idle_state) out.faulty = false;
  if (out.faulty) out.ffm = faults::classify(out.observed);
  return out;
}

std::string non_finite_victim_message(double victim_v) {
  std::ostringstream os;
  os << "non-finite victim storage voltage (" << victim_v
     << ") before FFM classification";
  return os.str();
}

template <typename AfterOp>
SosOutcome observe_sos(DramColumn& column, const Sos& sos,
                       bool idle_before_observe, size_t first_op,
                       AfterOp&& after_op) {
  const int victim = DramColumn::kVictim;
  const int aggressor = DramColumn::kAggressorSameBl;

  // 3. Operations.
  int last_victim_read = -1;
  bool last_op_is_victim_read = false;
  for (size_t k = first_op; k < sos.ops.size(); ++k) {
    const Op& op = sos.ops[k];
    const int addr = op.target == CellRole::kVictim ? victim : aggressor;
    if (op.is_read()) {
      const int got = column.read(addr);
      if (op.target == CellRole::kVictim) last_victim_read = got;
    } else {
      column.write(addr, op.write_value());
    }
    last_op_is_victim_read =
        op.is_read() && op.target == CellRole::kVictim;
    after_op(k + 1);
  }
  // Operation-free SOS (state faults): give the floating line one precharge
  // cycle to act on the cell.
  int pre_idle_state = -1;
  if (sos.ops.empty() || idle_before_observe) {
    pre_idle_state = column.cell_logical(victim);
    column.idle_cycle();
  }

  // 4. Observation and classification. Guard first: a non-finite storage
  // voltage (silently diverged solve) must surface as a retryable solver
  // failure — thresholding NaN would classify a bogus fault primitive.
  const double victim_v = column.cell_voltage(victim);
  if (!std::isfinite(victim_v))
    throw ConvergenceError(non_finite_victim_message(victim_v));
  return classify_observation(sos, column.cell_logical(victim),
                              last_victim_read, last_op_is_victim_read,
                              pre_idle_state);
}

}  // namespace

SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u, const Sos& sos,
                   bool idle_before_observe) {
  DramColumn column(params, defect);
  return run_sos_on(column, line, u, sos, idle_before_observe);
}

namespace {

/// Default post-initialization slots of a new session; sweeps and searches
/// reserve() what their pre-pass needs.
constexpr size_t kSessionTableSlots = 8;

}  // namespace

SosSession::SosSession(const dram::DramParams& params,
                       const dram::Defect& defect,
                       std::shared_ptr<SnapshotTable::Counters> counters)
    : column_(params, defect),
      post_init_(std::make_shared<SnapshotTable>(kSessionTableSlots, column_,
                                                 std::move(counters))) {}

SosOutcome SosSession::run(double r_def, const spice::SimOptions& options,
                           const dram::FloatingLine* line, double u,
                           const Sos& sos, bool idle_before_observe,
                           const PrefixSharing& sharing) {
  // Reconfigure through the compiled template: both setters are cheap
  // no-ops when the value is already stamped.
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  if (spice::testing::armed()) {
    // The injection harness counts transient runs: re-solve everything from
    // a pristine column, exactly like a fresh build.
    column_.reset();
    return run_sos_on(column_, line, u, sos, idle_before_observe);
  }
  const SnapshotKey init_key = SnapshotKey::post_init(r_def, options, sos);

  // Completion prefixes: keys of the states after the first k shared
  // writes, k = 1..shared (writes only — a read's result is not a state).
  size_t shared = 0;
  std::vector<SnapshotKey> prefix_keys;
  if (sharing.table != nullptr) {
    SnapshotKey key = init_key;
    key.injected = line != nullptr;
    key.u = u;
    while (shared < std::min(sharing.ops, sos.ops.size()) &&
           sos.ops[shared].is_write()) {
      key.push_write(sos.ops[shared++]);
      prefix_keys.push_back(key);
    }
  }
  size_t first_op = shared;
  while (first_op > 0 &&
         !sharing.table->restore(prefix_keys[first_op - 1], column_))
    --first_op;
  if (first_op == 0) {
    ensure_post_init_state(init_key, sos);
    inject(column_, line, u);
  }
  return observe_sos(column_, sos, idle_before_observe, first_op,
                     [&](size_t done) {
                       if (done <= shared)
                         sharing.table->publish(prefix_keys[done - 1],
                                                column_);
                     });
}

void SosSession::prepare(double r_def, const spice::SimOptions& options,
                         const Sos& sos) {
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  ensure_post_init_state(SnapshotKey::post_init(r_def, options, sos), sos);
}

void SosSession::ensure_post_init_state(const SnapshotKey& key,
                                        const Sos& sos) {
  if (post_init_->restore(key, column_)) return;
  column_.reset();  // bit-identical to a freshly built column
  apply_initial_states(column_, sos);
  post_init_->publish(key, column_);  // not reached if a write throws
}

std::vector<SosSession::LaneOutcome> SosSession::run_batch(
    double r_def, const spice::SimOptions& options,
    const dram::FloatingLine* line, const std::vector<double>& us,
    const Sos& sos, bool idle_before_observe) {
  // Chunk wide rows: past ~32 lanes the SoA working set outgrows cache and
  // a single diverging lane holds up ever more neighbours.
  constexpr size_t kMaxLanes = 32;
  std::vector<LaneOutcome> results(us.size());
  if (us.empty()) return results;
  column_.set_defect_resistance(r_def);
  column_.set_sim_options(options);
  ensure_post_init_state(SnapshotKey::post_init(r_def, options, sos), sos);
  const DramColumn::State init_state = column_.save_state();
  const int victim = DramColumn::kVictim;
  const int aggressor = DramColumn::kAggressorSameBl;
  for (size_t base = 0; base < us.size(); base += kMaxLanes) {
    const size_t lanes = std::min(kMaxLanes, us.size() - base);
    dram::BatchedColumnRun batch(column_, lanes);
    // Every lane starts from the SAME post-init snapshot a cold scalar
    // run() would restore — identical starting stats, so per-lane watchdog
    // trajectories match the scalar ones exactly.
    for (size_t l = 0; l < lanes; ++l) batch.load_state(l, init_state);
    if (line != nullptr)
      for (size_t l = 0; l < lanes; ++l)
        batch.apply_floating_voltage(l, *line, us[base + l]);

    // Steps 3-4 of observe_sos, vectorized over lanes. The op sequence is
    // lane-invariant (one SOS per row), so control flow stays shared.
    std::vector<int> last_victim_read(lanes, -1);
    bool last_op_is_victim_read = false;
    for (const Op& op : sos.ops) {
      const int addr = op.target == CellRole::kVictim ? victim : aggressor;
      if (op.is_read()) {
        batch.read(addr);
        if (op.target == CellRole::kVictim)
          for (size_t l = 0; l < lanes; ++l)
            last_victim_read[l] = batch.read_value(l, addr);
      } else {
        batch.write(addr, op.write_value());
      }
      last_op_is_victim_read = op.is_read() && op.target == CellRole::kVictim;
    }
    std::vector<int> pre_idle_state(lanes, -1);
    if (sos.ops.empty() || idle_before_observe) {
      for (size_t l = 0; l < lanes; ++l)
        pre_idle_state[l] = batch.cell_logical(l, victim);
      batch.idle_cycle();
    }

    for (size_t l = 0; l < lanes; ++l) {
      LaneOutcome& lane = results[base + l];
      if (batch.lane_failed(l)) {
        lane.error = batch.lane_error(l);
        continue;
      }
      const double victim_v = batch.cell_voltage(l, victim);
      if (!std::isfinite(victim_v)) {
        lane.error = non_finite_victim_message(victim_v);
        continue;
      }
      lane.outcome = classify_observation(
          sos, batch.cell_logical(l, victim), last_victim_read[l],
          last_op_is_victim_read, pre_idle_state[l]);
      lane.solved = true;
    }
  }
  return results;
}

}  // namespace pf::analysis
