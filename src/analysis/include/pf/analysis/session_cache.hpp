// Cross-job SosSession reuse for campaign runners.
//
// Compiling a column (netlist, sparsity, elimination order, power-up) is
// the fixed cost of every sweep, and solving the post-initialization state
// of each (R_def, initial states) row is the fixed cost of every grid row.
// A SessionCache keyed by a caller-chosen "family" string hands one
// compiled session — and with it the post-initialization SnapshotTable its
// clones share (pf/analysis/snapshot_table.hpp) — from one sweep job or
// completion search of the family to the next, so each post-initialization
// state is solved once per family, not once per sweep.
//
// The family key is the caller's promise: two users in the same family
// must agree on everything that affects compilation — DramParams and
// defect topology (kind + site). Per-point state (defect resistance, SOS,
// engine options, initial voltages) is restamped by SosSession::run, so it
// does NOT belong in the key. Reuse is bit-identical by the same contract
// that makes CircuitMode::kReuse bit-identical to kRebuild: table entries
// are keyed on (R_def, numerics, initial states) and restores retrace the
// solved trajectory exactly.
//
// Memory: only the family last taken stays alive — take() drops every other
// family's session and table, which matches campaigns that run one defect
// topology's jobs back to back (Table 1 runs site by site).
//
// Thread safety: take()/put() are mutex-serialized. A taken session is
// owned exclusively by the caller until put() back; concurrent users of one
// family each get their own session (the second compiles).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pf/analysis/sos_runner.hpp"

namespace pf::analysis {

class SessionCache {
 public:
  struct Stats {
    size_t hits = 0;    ///< take() calls that found a session
    size_t misses = 0;  ///< take() calls that compiled one
    size_t stored = 0;  ///< put() calls (replacing an entry still counts)
    /// Post-initialization states solved and published into the tables of
    /// this cache's sessions (every family served so far).
    uint64_t snapshot_solves = 0;
    /// Post-initialization states restored from those tables.
    uint64_t snapshot_hits = 0;
  };

  /// Remove and return the cached session for `family`, or compile one for
  /// (params, defect) on a miss; either way its table reports into this
  /// cache's stats. Sessions of every other family are dropped. An empty
  /// family compiles and caches nothing.
  std::unique_ptr<SosSession> take(const std::string& family,
                                   const dram::DramParams& params,
                                   const dram::Defect& defect);

  /// Store `session` for later take(). A session already cached under the
  /// same family is replaced (last writer wins — both are equally valid).
  /// Null sessions and empty families are ignored.
  void put(const std::string& family, std::unique_ptr<SosSession> session);

  /// Drop every cached session.
  void clear();

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<SosSession>> by_family_;
  Stats stats_;
  std::shared_ptr<SnapshotTable::Counters> counters_ =
      std::make_shared<SnapshotTable::Counters>();
};

}  // namespace pf::analysis
