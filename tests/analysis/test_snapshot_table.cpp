// The keyed snapshot table behind SosSession (pf/analysis/snapshot_table.hpp):
// restores are bit-identical to re-solving, keys never cross numerics (a
// retry attempt cannot restore an attempt-1 state), armed fault injection
// bypasses every table, and completion-search prefix sharing leaves every
// CompletionResult field equal to the rebuild path's at any thread count.
#include <gtest/gtest.h>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/region.hpp"
#include "pf/analysis/robust.hpp"
#include "pf/analysis/session_cache.hpp"
#include "pf/spice/fault_injection.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramColumn;
using dram::DramParams;
using dram::OpenSite;
using faults::Sos;

const Defect kOpen4 = Defect::open(OpenSite::kBitLineOuter, 1e6);

SosOutcome fresh_run(const spice::SimOptions& options, double r, double u,
                     const Sos& sos) {
  DramParams params;
  params.sim = options;
  Defect defect = kOpen4;
  defect.resistance = r;
  const auto lines = dram::floating_lines_for(defect, params);
  return run_sos(params, defect, &lines[0], u, sos);
}

void expect_same_outcome(const SosOutcome& a, const SosOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.final_state, b.final_state) << what;
  EXPECT_EQ(a.read_result, b.read_result) << what;
  EXPECT_EQ(a.faulty, b.faulty) << what;
  EXPECT_EQ(a.ffm, b.ffm) << what;
}

TEST(SnapshotTable, RestoreRetracesTheSolvedTrajectoryBitForBit) {
  const DramParams params;
  DramColumn solved(params, kOpen4);
  solved.set_defect_resistance(3e6);
  solved.reset();
  solved.write(DramColumn::kVictim, 1);
  SnapshotTable table(2, solved);
  SnapshotKey key = SnapshotKey::post_init(3e6, params.sim, Sos::parse("1r1"));
  table.publish(key, solved);

  DramColumn restored = solved.clone();
  restored.write(DramColumn::kAggressorSameBl, 0);  // wander off
  ASSERT_TRUE(table.restore(key, restored));
  for (DramColumn* c : {&solved, &restored}) {
    c->apply_floating_voltage(dram::floating_lines_for(kOpen4, params)[0],
                              1.1);
    c->write(DramColumn::kAggressorSameBl, 1);
    c->read(DramColumn::kVictim);
  }
  for (int addr = 0; addr < solved.num_cells(); ++addr)
    EXPECT_EQ(solved.cell_voltage(addr), restored.cell_voltage(addr));
  EXPECT_EQ(solved.output_buffer(), restored.output_buffer());
  EXPECT_EQ(solved.sim_stats().steps, restored.sim_stats().steps);
  EXPECT_EQ(solved.sim_stats().nr_iterations,
            restored.sim_stats().nr_iterations);
  EXPECT_EQ(table.counters().solves.load(), 1u);
  EXPECT_EQ(table.counters().hits.load(), 1u);
}

TEST(SnapshotTable, KeysSeparateEveryTrajectoryInput) {
  const spice::SimOptions base;
  spice::SimOptions cancelled = base;  // a token is not numerics
  cancelled.cancel = pf::CancellationToken();
  spice::SimOptions tighter = base;
  tighter.dt_initial *= 0.25;
  const SnapshotKey key = SnapshotKey::post_init(1e6, base, Sos::parse("1r1"));
  EXPECT_TRUE(key.matches(
      SnapshotKey::post_init(1e6, cancelled, Sos::parse("1w0"))));
  EXPECT_FALSE(key.matches(
      SnapshotKey::post_init(1e6, tighter, Sos::parse("1r1"))));
  EXPECT_FALSE(key.matches(
      SnapshotKey::post_init(2e6, base, Sos::parse("1r1"))));
  EXPECT_FALSE(key.matches(
      SnapshotKey::post_init(1e6, base, Sos::parse("0r0"))));

  SnapshotKey prefixed = key;
  prefixed.injected = true;
  prefixed.u = 1.1;
  EXPECT_FALSE(prefixed.matches(key));
  const Sos w = Sos::parse("[w0BL w1] r1");
  SnapshotKey a = prefixed, b = prefixed;
  a.push_write(w.ops[0]);
  b.push_write(w.ops[1]);
  EXPECT_FALSE(a.matches(b));
  SnapshotKey other_u = a;
  other_u.u = 2.2;
  EXPECT_FALSE(a.matches(other_u));
}

TEST(SnapshotTable, FullTableReplacesItsOldestEntry) {
  const DramParams params;
  const DramColumn column(params, kOpen4);
  SnapshotTable table(2, column);
  const Sos sos = Sos::parse("1r1");
  for (const double r : {1e6, 2e6, 3e6})
    table.publish(SnapshotKey::post_init(r, params.sim, sos), column);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.contains(SnapshotKey::post_init(1e6, params.sim, sos)));
  EXPECT_TRUE(table.contains(SnapshotKey::post_init(3e6, params.sim, sos)));
  table.reserve(3);
  EXPECT_EQ(table.capacity(), 3u);
  EXPECT_TRUE(table.contains(SnapshotKey::post_init(2e6, params.sim, sos)));
  table.reserve(SnapshotTable::kMaxCapacity + 100);
  EXPECT_EQ(table.capacity(), SnapshotTable::kMaxCapacity);
}

TEST(SnapshotTable, SessionRowsShareOnePostInitSolve) {
  const DramParams params;
  SosSession session(params, kOpen4);
  SosSession replica = session.clone();
  const auto lines = dram::floating_lines_for(kOpen4, params);
  const Sos sos = Sos::parse("1r1");
  for (const double u : {0.0, 1.1, 2.2, 3.3}) {
    SosSession& s = u < 2.0 ? session : replica;  // clones share the table
    expect_same_outcome(s.run(5e6, params.sim, &lines[0], u, sos),
                        fresh_run(params.sim, 5e6, u, sos),
                        "u=" + std::to_string(u));
  }
  EXPECT_EQ(session.post_init_states().counters().solves.load(), 1u);
  EXPECT_EQ(session.post_init_states().counters().hits.load(), 3u);
}

TEST(SnapshotTable, RetryAttemptNeverRestoresAnAttemptOneState) {
  const DramParams params;
  const RetryPolicy retry;
  const spice::SimOptions attempt1 =
      tightened_sim_options(params.sim, retry, 1);
  const spice::SimOptions attempt2 =
      tightened_sim_options(params.sim, retry, 2);
  SosSession session(params, kOpen4);
  const auto lines = dram::floating_lines_for(kOpen4, params);
  const Sos sos = Sos::parse("1r1");
  const SnapshotTable::Counters& counters =
      session.post_init_states().counters();

  session.run(5e6, attempt1, &lines[0], 1.1, sos);
  ASSERT_EQ(counters.solves.load(), 1u);
  // Same (R_def, initial states), tightened numerics: a miss and a solve.
  const SosOutcome retried = session.run(5e6, attempt2, &lines[0], 1.1, sos);
  EXPECT_EQ(counters.solves.load(), 2u);
  EXPECT_EQ(counters.hits.load(), 0u);
  expect_same_outcome(retried, fresh_run(attempt2, 5e6, 1.1, sos),
                      "attempt 2");
  // Each attempt restores only its own numerics' state.
  session.run(5e6, attempt2, &lines[0], 2.2, sos);
  session.run(5e6, attempt1, &lines[0], 2.2, sos);
  EXPECT_EQ(counters.solves.load(), 2u);
  EXPECT_EQ(counters.hits.load(), 2u);
}

TEST(SnapshotTable, ArmedInjectionBypassesEveryTable) {
  using spice::testing::InjectedFault;
  using spice::testing::ScopedFaultPlan;
  SweepSpec spec;
  spec.defect = kOpen4;
  spec.sos = Sos::parse("1r1");
  spec.r_axis = pf::logspace(1e6, 10e6, 3);
  spec.u_axis = pf::linspace(0.0, 3.3, 4);
  ExecutionPolicy policy;
  policy.threads = 2;
  policy.session_cache = std::make_shared<SessionCache>();
  policy.session_family = "open4";
  const RegionMap clean = sweep_region(spec, policy);
  const uint64_t solves = policy.session_cache->stats().snapshot_solves;
  EXPECT_EQ(solves, spec.r_axis.size());

  policy.session_cache->clear();
  {
    // A plan on a key no experiment declares: armed, but nothing fires.
    ScopedFaultPlan plan({{"unused", {InjectedFault::kNonConvergence, 1}}});
    const RegionMap armed = sweep_region(spec, policy);
    EXPECT_EQ(armed.to_csv(), clean.to_csv());
  }
  const SessionCache::Stats stats = policy.session_cache->stats();
  EXPECT_EQ(stats.snapshot_solves, solves) << "armed runs must not publish";
  EXPECT_EQ(stats.snapshot_hits, clean.solve_stats().attempted)
      << "armed runs must not restore";
}

TEST(SnapshotTable, PrefixSharingMatchesRebuildAtAnyThreadCount) {
  // Open 9: exhaustive "Not possible" over every prefix up to #O = 3, so
  // every candidate runs and longer prefixes restore shorter ones' states.
  CompletionSpec exhaustive;
  exhaustive.defect = Defect::open(OpenSite::kWordLine, 1e9);
  exhaustive.base = faults::FaultPrimitive::parse("<0/1/->");
  exhaustive.probe_r = {1e9};
  exhaustive.probe_u = {0.0, DramParams{}.vpp};
  exhaustive.max_prefix_ops = 3;
  // Open 4: a completable base whose winner is not the first candidate.
  CompletionSpec completable;
  completable.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  completable.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  completable.probe_r = {10e6};
  completable.probe_u = pf::linspace(0.0, 3.3, 4);
  completable.max_prefix_ops = 2;

  for (CompletionSpec* spec : {&exhaustive, &completable}) {
    CompletionSpec rebuild = *spec;
    rebuild.exec.plan.circuit_mode = CircuitMode::kRebuild;
    const CompletionResult reference = search_completing_ops(rebuild);
    for (const int threads : {1, 2, 4, 8}) {
      spec->exec.threads = threads;
      const CompletionResult shared = search_completing_ops(*spec);
      const std::string what = spec->base.to_string() + " at " +
                               std::to_string(threads) + " threads";
      EXPECT_EQ(shared.possible, reference.possible) << what;
      EXPECT_EQ(shared.completed.to_string(), reference.completed.to_string())
          << what;
      EXPECT_EQ(shared.candidates_evaluated, reference.candidates_evaluated)
          << what;
      EXPECT_EQ(shared.sos_runs, reference.sos_runs) << what;
      EXPECT_EQ(shared.solver_failures, reference.solver_failures) << what;
    }
  }
}

}  // namespace
}  // namespace pf::analysis
