// Exact keyed snapshots of shared trajectory prefixes.
//
// The paper's measurement recipe (Section 3) runs, per experiment, the
// SOS's initializing writes, then the floating-line injection at U, then
// the completing prefix and the sensitizing operations. Many experiments
// share a bit-identical prefix of that trajectory:
//
//   * every point of a sweep row, and every row of every sweep of one defect
//     topology with the same initial states, shares the POST-INITIALIZATION
//     state — it depends only on (R_def, solver numerics, initial victim and
//     aggressor states), never on U;
//   * every completion-search candidate starting with the same completing
//     writes shares the state after those writes at each probe (R_def, U).
//
// A SnapshotTable holds such states under an exact key. Restoring an entry
// is bit-identical to re-solving it: the engine is deterministic and a
// DramColumn::State carries everything that evolves along a trajectory
// (time, step size, node voltages, rail ramps, output buffer and the solver
// statistics the Newton-budget watchdog counts against). Parameter values
// (R_def, options) are not part of a State; they are part of the key, and
// the caller stamps them before restoring.
//
// Rules:
//   * the key compares solver options with spice::same_numerics, so a state
//     never crosses numerics — a retry attempt (tightened options) can only
//     restore what an attempt with the same options published;
//   * callers publish only after the prefix solved successfully;
//   * callers bypass every table while test-only fault injection is armed
//     (injection is counted per transient run, so skipping runs would move
//     where faults land);
//   * capacity is fixed between reserve() calls and its storage is
//     allocated by the thread that constructs or reserves — workers only
//     copy into preallocated slots. When full, the oldest entry is replaced.
//
// Thread safety: lookups and publications are mutex-serialized and may run
// from any number of workers; reserve() must not overlap them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pf/dram/column.hpp"
#include "pf/faults/fp.hpp"
#include "pf/spice/sim_options.hpp"

namespace pf::analysis {

/// What a snapshot is the state of: the column after the initializing
/// writes of (r_def, options, initial states) and — for completion
/// prefixes — after injecting `u` and applying `prefix_len` writes.
struct SnapshotKey {
  double r_def = 0.0;
  spice::SimOptions options;  ///< compared with spice::same_numerics
  int initial_victim = -1;
  int initial_aggressor = -1;
  bool injected = false;  ///< false: the post-initialization state
  double u = 0.0;         ///< floating voltage (when injected)
  int prefix_len = 0;     ///< writes applied after the injection
  uint64_t prefix = 0;    ///< those writes, 2 bits each (see push_write)

  /// The post-initialization key of an SOS.
  static SnapshotKey post_init(double r_def, const spice::SimOptions& options,
                               const faults::Sos& sos);

  /// Extend the prefix by one write (victim or aggressor address).
  void push_write(const faults::Op& op);

  bool matches(const SnapshotKey& other) const;
};

class SnapshotTable {
 public:
  /// Counters, shareable by several tables (a SessionCache sums the tables
  /// of every family it served).
  struct Counters {
    std::atomic<uint64_t> solves{0};  ///< publications (states solved)
    std::atomic<uint64_t> hits{0};    ///< restores
  };

  /// `capacity` slots shaped like `shape`'s state, allocated here.
  SnapshotTable(size_t capacity, const dram::DramColumn& shape,
                std::shared_ptr<Counters> counters = nullptr);

  /// Restore the entry for `key` into `column` (a hit), or return false.
  bool restore(const SnapshotKey& key, dram::DramColumn& column);

  /// Store `column`'s current state under `key` and count one solve. A key
  /// already present keeps its entry (both are the same bits).
  void publish(const SnapshotKey& key, const dram::DramColumn& column);

  bool contains(const SnapshotKey& key) const;

  /// Grow to at least min(n, kMaxCapacity) slots. Owner thread only, with
  /// no concurrent restore/publish.
  void reserve(size_t n);

  size_t size() const;
  size_t capacity() const;
  const Counters& counters() const { return *counters_; }

  /// Hard bound on slots per table (a State is about 1 KB on the default
  /// column, so a full table holds about 0.5 MB).
  static constexpr size_t kMaxCapacity = 512;

 private:
  struct Slot {
    SnapshotKey key;
    dram::DramColumn::State state;
  };
  int find(const SnapshotKey& key) const;  // caller holds mu_

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  dram::DramColumn::State shape_;
  size_t used_ = 0;
  size_t next_victim_ = 0;  // FIFO replacement once full
  std::shared_ptr<Counters> counters_;
};

}  // namespace pf::analysis
