// Execution of a sensitizing operation sequence on the electrical DRAM
// column with floating-voltage injection — the measurement primitive of the
// paper's fault-analysis method (Section 3):
//
//   1. power the column up and apply the SOS's initializing states
//      (ordinary write operations),
//   2. override the defect's floating line to the probe voltage U,
//   3. apply the SOS's operations (completing prefix + sensitizing suffix),
//   4. observe the victim's final state F and the final read result R and
//      classify the deviation as a fault primitive / FFM.
//
// There is exactly ONE implementation of that recipe — run_sos_on — and two
// ways to hand it a column:
//
//   * run_sos builds a fresh DramColumn per call (netlist + compiled
//     template + power-up). Simple, stateless, and the reference semantics
//     every reuse path must reproduce bit for bit.
//   * SosSession keeps a per-worker column alive across experiments and
//     reconfigures it per point through the compile-once pipeline: restamp
//     the defect resistance via its ParamHandle, swap engine options in
//     place, then restore the post-initialization state from an exact
//     keyed table or reset() to the pristine post-power-up state and
//     replay the initializing writes. Because reset() is bit-identical to a
//     fresh construction (see pf/dram/column.hpp) and a restored snapshot
//     retraces the solved trajectory bit for bit, a session run and a
//     run_sos call with the same (R_def, options, U, SOS) return identical
//     SosOutcomes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pf/analysis/snapshot_table.hpp"
#include "pf/dram/column.hpp"
#include "pf/dram/defect.hpp"
#include "pf/faults/ffm.hpp"
#include "pf/faults/fp.hpp"

namespace pf::analysis {

struct SosOutcome {
  int final_state = -1;  ///< victim's logical content after the SOS
  int read_result = -1;  ///< result of the SOS's final victim read (-1: none)
  bool faulty = false;   ///< deviates from the SOS's fault-free expectation
  faults::FaultPrimitive observed;  ///< SOS + observed <F, R>
  faults::Ffm ffm = faults::Ffm::kUnknown;  ///< classification (when faulty)
};

/// How a sweep driver obtains the circuit for each grid point.
enum class CircuitMode {
  /// Per-worker compiled column, restamped + reset() per point. The compiled
  /// template is built once per sweep and shared by every worker; results
  /// are bit-identical to kRebuild at any thread count.
  kReuse,
  /// Fresh netlist + template + column per point (the pre-pipeline
  /// behaviour). Kept as the reference implementation and A/B escape hatch.
  kRebuild,
};

/// Run one (defect, floating-voltage, SOS) experiment on a fresh column.
/// `line` may be null (no override — nominal behaviour). For an
/// operation-free SOS (state faults) one idle precharge cycle runs between
/// the override and the observation, which is the paper's SF mechanism;
/// `idle_before_observe` forces that extra cycle for op-carrying SOSes too
/// (used when searching completing operations for state faults).
SosOutcome run_sos(const dram::DramParams& params, const dram::Defect& defect,
                   const dram::FloatingLine* line, double u,
                   const faults::Sos& sos, bool idle_before_observe = false);

/// The shared implementation behind run_sos and SosSession::run: executes
/// the SOS on `column`, which must be in the pristine post-power-up state
/// (fresh construction or reset()).
SosOutcome run_sos_on(dram::DramColumn& column, const dram::FloatingLine* line,
                      double u, const faults::Sos& sos,
                      bool idle_before_observe = false);

/// Completion-search prefix sharing for one SosSession::run: the first
/// `ops` operations of the SOS are completing writes whose end states (per
/// probe R_def, U and initial states) are looked up in and published to
/// `table`, a table private to one search call.
struct PrefixSharing {
  SnapshotTable* table = nullptr;
  size_t ops = 0;
};

/// A reusable experiment context for one worker of a sweep: one compiled
/// column whose topology is fixed at construction and whose swept values
/// (defect resistance, engine options, floating voltage) are restamped per
/// run. Not thread-safe — give each worker its own session via clone().
///
/// Sessions cloned from one another share a post-initialization
/// SnapshotTable (pf/analysis/snapshot_table.hpp): the SOS's initializing
/// writes (step 1) happen before the floating voltage is injected (step 2),
/// so every experiment with the same (R_def, numerics, initial states) —
/// a whole sweep row, and the same row of every later sweep or completion
/// search of the defect topology — restores that state instead of
/// re-solving power-up and the initializing writes. The table is the only
/// post-initialization cache, and it is bypassed while test-only fault
/// injection is armed.
class SosSession {
 public:
  /// Compiles the column once for (params, defect). The defect's
  /// `resistance` is only the initial stamp — each run() restamps it to
  /// that experiment's R_def through the template's ParamHandle. The
  /// session's post-initialization table reports into `counters` (a
  /// private set when null).
  SosSession(const dram::DramParams& params, const dram::Defect& defect,
             std::shared_ptr<SnapshotTable::Counters> counters = nullptr);

  /// A replica sharing the compiled template and the post-initialization
  /// table: a plain run-state copy, with no power-up replay — the per-worker
  /// fan-out hook of the parallel sweep engine.
  SosSession clone() const { return SosSession(column_.clone(), post_init_); }

  const dram::DramColumn& column() const { return column_; }

  /// The post-initialization table shared with every clone.
  SnapshotTable& post_init_states() const { return *post_init_; }

  /// One experiment, bit-identical to
  ///   run_sos(params{sim = options}, defect{resistance = r_def}, ...)
  /// on a fresh column. The post-initialization state comes from the
  /// shared table (solved and published on a miss); with `sharing`, the
  /// longest completing prefix already in sharing.table is restored instead
  /// and the states after the remaining shared writes are published.
  SosOutcome run(double r_def, const spice::SimOptions& options,
                 const dram::FloatingLine* line, double u,
                 const faults::Sos& sos, bool idle_before_observe = false,
                 const PrefixSharing& sharing = {});

  /// Bring the table to hold the post-initialization state of (r_def,
  /// options, sos initial states), solving it here on a miss — the
  /// pre-pass primitive (prepare_post_init_states) that makes solve counts
  /// independent of point scheduling. Throws on solver failure (nothing is
  /// published).
  void prepare(double r_def, const spice::SimOptions& options,
               const faults::Sos& sos);

  /// Swap the underlying column's engine options in place, exactly like a
  /// per-run `options` argument would. The override is part of the
  /// session's configuration: clone() carries it into the replica (the
  /// clone copies the column's parameter block, engine options included).
  void set_sim_options(const spice::SimOptions& options) {
    column_.set_sim_options(options);
  }

  /// One lane of run_batch: the experiment's outcome, or the solver error
  /// that kept the lockstep pass from completing it. An unsolved lane says
  /// nothing about the grid point — callers re-run it through the scalar
  /// robust path.
  struct LaneOutcome {
    SosOutcome outcome;
    bool solved = false;
    std::string error;
  };

  /// A whole grid row in one call: every lane shares (r_def, options, sos)
  /// and varies only the floating-line voltage us[lane] — the batched
  /// backend's unit of work. All lanes are seeded from the same post-
  /// initialization snapshot that a cold run() would use, then advanced in
  /// lockstep by the batched solver (pf/spice/solver_backend.hpp). Solved
  /// lanes are bit-identical to a cold scalar run() at the same U.
  ///
  /// Requires options the batched engine accepts (max_wall_seconds == 0)
  /// and no armed test-only fault injection; callers gate on both and fall
  /// back to scalar execution otherwise.
  std::vector<LaneOutcome> run_batch(double r_def,
                                     const spice::SimOptions& options,
                                     const dram::FloatingLine* line,
                                     const std::vector<double>& us,
                                     const faults::Sos& sos,
                                     bool idle_before_observe = false);

 private:
  SosSession(dram::DramColumn column, std::shared_ptr<SnapshotTable> table)
      : column_(std::move(column)), post_init_(std::move(table)) {}

  /// Brings column_ (already stamped with key's R_def and options) to the
  /// post-initialization state: a table restore, or a reset() + replayed
  /// initializing writes that are then published.
  void ensure_post_init_state(const SnapshotKey& key, const faults::Sos& sos);

  dram::DramColumn column_;
  std::shared_ptr<SnapshotTable> post_init_;
};

}  // namespace pf::analysis
