// The parallel sweep engine behind ExecutionPolicy: any thread count must
// produce BIT-IDENTICAL results to the serial engine (grids, stats totals,
// index-ordered failure logs, Table 1 rows), the checkpoint journal must
// stay correct under concurrent writers, and injected solver faults must
// stay scoped to the worker/point they target.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/execution.hpp"
#include "pf/analysis/region.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/dram/column.hpp"
#include "pf/spice/fault_injection.hpp"

namespace pf::analysis {
namespace {

using dram::Defect;
using dram::DramParams;
using dram::OpenSite;
using faults::Ffm;
using faults::Sos;
using spice::testing::InjectedFault;
using spice::testing::InjectionSpec;
using spice::testing::ScopedFaultPlan;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.params = DramParams{};
  spec.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  spec.sos = Sos::parse("1r1");
  spec.r_axis = pf::logspace(1e6, 10e6, 3);
  spec.u_axis = pf::linspace(0.0, 3.3, 4);
  return spec;
}

InjectionSpec non_convergence(int fail_attempts) {
  InjectionSpec s;
  s.kind = InjectedFault::kNonConvergence;
  s.fail_attempts = fail_attempts;
  return s;
}

std::string temp_journal(const char* name) {
  return ::testing::TempDir() + name;
}

void expect_same_stats(const SweepStats& a, const SweepStats& b) {
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.resumed, b.resumed);
  EXPECT_EQ(a.failure_log, b.failure_log);
}

TEST(ExecutionPolicy_, WorkerCountResolution) {
  EXPECT_EQ(resolve_worker_count(1), 1);
  EXPECT_EQ(resolve_worker_count(5), 5);
  EXPECT_GE(resolve_worker_count(0), 1);  // hardware concurrency, >= 1
  EXPECT_EQ(resolve_worker_count(-3), 1);
}

TEST(ParallelSweep, BitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = small_spec();
  const RegionMap serial = sweep_region(spec);
  for (const int threads : {1, 2, 8}) {
    ExecutionPolicy policy;
    policy.threads = threads;
    const RegionMap parallel = sweep_region(spec, policy);
    EXPECT_EQ(parallel.to_csv(), serial.to_csv()) << threads << " threads";
    EXPECT_EQ(parallel.render("t"), serial.render("t"));
    expect_same_stats(parallel.solve_stats(), serial.solve_stats());
  }
}

TEST(ParallelSweep, StatsAndFailureLogDeterministicUnderInjection) {
  // Mixed plan: one recoverable hiccup, two unrecoverable points. An
  // 8-thread run must agree with the serial run on every stats total and
  // on the ORDER of the failure log (index-ordered merge).
  const SweepSpec spec = small_spec();
  const auto plan = [] {
    return std::map<std::string, InjectionSpec>{
        {grid_point_key(1, 0), non_convergence(1)},
        {grid_point_key(0, 1), non_convergence(100)},
        {grid_point_key(3, 2), non_convergence(100)}};
  };
  SweepStats serial_stats;
  std::string serial_csv;
  {
    ScopedFaultPlan armed(plan());
    ExecutionPolicy policy;
    policy.retry.max_attempts = 2;
    const RegionMap map = sweep_region(spec, policy);
    serial_stats = map.solve_stats();
    serial_csv = map.to_csv();
  }
  EXPECT_EQ(serial_stats.failed, 2u);
  EXPECT_EQ(serial_stats.retries, 3u);  // 1 recovery + 2 x 1 failed retry
  {
    ScopedFaultPlan armed(plan());
    ExecutionPolicy policy;
    policy.retry.max_attempts = 2;
    policy.threads = 8;
    const RegionMap map = sweep_region(spec, policy);
    EXPECT_EQ(map.to_csv(), serial_csv);
    expect_same_stats(map.solve_stats(), serial_stats);
    ASSERT_EQ(map.solve_stats().failure_log.size(), 2u);
    // Index order: (iy=1, ix=0) before (iy=2, ix=3).
    EXPECT_NE(map.solve_stats().failure_log[0].find("R_def="),
              std::string::npos);
  }
}

TEST(ParallelSweep, InjectedFaultOnOneWorkerDegradesOnlyThatPoint) {
  // One unrecoverable point in an 8-thread run: the thread-local injection
  // context must scope the fault to the worker running that experiment —
  // every other point must match the clean serial map.
  const SweepSpec spec = small_spec();
  const RegionMap clean = sweep_region(spec);
  ScopedFaultPlan armed({{grid_point_key(2, 1), non_convergence(100)}});
  ExecutionPolicy policy;
  policy.threads = 8;
  policy.retry.max_attempts = 2;
  const RegionMap map = sweep_region(spec, policy);
  EXPECT_EQ(map.failed_points(), 1u);
  EXPECT_EQ(map.grid().at(2, 1), Ffm::kSolveFailed);
  for (size_t iy = 0; iy < map.grid().height(); ++iy)
    for (size_t ix = 0; ix < map.grid().width(); ++ix) {
      if (ix == 2 && iy == 1) continue;
      EXPECT_EQ(map.grid().at(ix, iy), clean.grid().at(ix, iy))
          << "point (" << ix << ", " << iy << ") contaminated";
    }
}

TEST(ParallelSweep, JournalWrittenByParallelRunResumesSerially) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("parallel_to_serial.csv");
  std::remove(path.c_str());
  const RegionMap clean = sweep_region(spec);

  // 8-thread run with two unrecoverable points, journal armed: concurrent
  // workers append 12 rows (10 solved + 2 FAIL) through the mutex.
  {
    ScopedFaultPlan armed({{grid_point_key(1, 0), non_convergence(100)},
                           {grid_point_key(2, 2), non_convergence(100)}});
    ExecutionPolicy policy;
    policy.threads = 8;
    policy.retry.max_attempts = 2;
    policy.journal_path = path;
    const RegionMap map = sweep_region(spec, policy);
    EXPECT_EQ(map.failed_points(), 2u);
  }

  // Serial resume, faults gone: the 10 solved points restore from the
  // journal, only the 2 FAIL rows re-run, and the map equals a clean sweep.
  {
    ExecutionPolicy policy;
    policy.journal_path = path;
    const RegionMap map = sweep_region(spec, policy);
    EXPECT_EQ(map.solve_stats().resumed, 10u);
    EXPECT_EQ(map.solve_stats().attempted, 2u);
    EXPECT_EQ(map.failed_points(), 0u);
    EXPECT_EQ(map.to_csv(), clean.to_csv());
  }
  std::remove(path.c_str());
}

TEST(ParallelSweep, JournalWrittenSeriallyResumesUnderEightThreads) {
  const SweepSpec spec = small_spec();
  const std::string path = temp_journal("serial_to_parallel.csv");
  std::remove(path.c_str());
  const RegionMap clean = sweep_region(spec);

  {
    ScopedFaultPlan armed({{grid_point_key(0, 0), non_convergence(100)},
                           {grid_point_key(3, 1), non_convergence(100)}});
    ExecutionPolicy policy;
    policy.retry.max_attempts = 2;
    policy.journal_path = path;
    sweep_region(spec, policy);
  }
  {
    ExecutionPolicy policy;
    policy.threads = 8;
    policy.journal_path = path;
    const RegionMap map = sweep_region(spec, policy);
    EXPECT_EQ(map.solve_stats().resumed, 10u);
    EXPECT_EQ(map.solve_stats().attempted, 2u);
    EXPECT_EQ(map.to_csv(), clean.to_csv());
  }
  std::remove(path.c_str());
}

TEST(ParallelSweep, ProgressCallbackReportsEveryPoint) {
  const SweepSpec spec = small_spec();
  for (const int threads : {1, 4}) {
    std::vector<size_t> seen_done;
    size_t seen_total = 0;
    ExecutionPolicy policy;
    policy.threads = threads;
    // Serialized by the runner: no synchronization needed in the callback.
    policy.progress = [&](size_t done, size_t total) {
      seen_done.push_back(done);
      seen_total = total;
    };
    sweep_region(spec, policy);
    EXPECT_EQ(seen_total, 12u);
    // One callback per point, counting each completion exactly once
    // (callbacks may arrive out of counter order under threads).
    std::sort(seen_done.begin(), seen_done.end());
    ASSERT_EQ(seen_done.size(), 12u) << threads << " threads";
    for (size_t i = 0; i < seen_done.size(); ++i)
      EXPECT_EQ(seen_done[i], i + 1);
  }
}

TEST(ParallelSweep, RecordFailuresOffStillThrowsUnderThreads) {
  const SweepSpec spec = small_spec();
  ScopedFaultPlan armed({{grid_point_key(1, 1), non_convergence(100)}});
  ExecutionPolicy policy;
  policy.threads = 8;
  policy.retry.max_attempts = 2;
  policy.record_failures = false;
  try {
    sweep_region(spec, policy);
    FAIL() << "must rethrow the unrecoverable point";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("attempt 2/2"), std::string::npos) << what;
    EXPECT_NE(what.find("R_def="), std::string::npos) << what;
  }
}

void expect_same_completion(const CompletionResult& a,
                            const CompletionResult& b, int threads) {
  EXPECT_EQ(a.possible, b.possible) << threads << " threads";
  EXPECT_EQ(a.completed.to_string(), b.completed.to_string())
      << threads << " threads";
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated)
      << threads << " threads";
  EXPECT_EQ(a.sos_runs, b.sos_runs) << threads << " threads";
  EXPECT_EQ(a.solver_failures, b.solver_failures) << threads << " threads";
}

TEST(ParallelCompletion, VerdictIndependentOfThreadCount) {
  // Candidates are judged in parallel, but the result — tallies included —
  // is the serial run's: work speculated past the winner is discarded.
  CompletionSpec completable;
  completable.params = DramParams{};
  completable.defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  completable.base = faults::FaultPrimitive::parse("<1r1/0/0>");
  completable.probe_r = {10e6};
  completable.probe_u = pf::linspace(0.0, 3.3, 4);
  completable.max_prefix_ops = 1;

  // Open 9: exhaustive "Not possible" over every prefix up to #O = 2.
  CompletionSpec exhaustive;
  exhaustive.params = DramParams{};
  exhaustive.defect = Defect::open(OpenSite::kWordLine, 1e9);
  exhaustive.base = faults::FaultPrimitive::parse("<0/1/->");
  exhaustive.probe_r = {1e9};
  exhaustive.probe_u = {0.0, DramParams{}.vpp};
  exhaustive.max_prefix_ops = 2;

  const CompletionResult won = search_completing_ops(completable);
  ASSERT_TRUE(won.possible);
  EXPECT_EQ(won.completed.to_string(), "<1v [w0BL] r1v/0/0>");
  EXPECT_GT(won.candidates_evaluated, 1);  // the winner is not candidate 0
  const CompletionResult lost = search_completing_ops(exhaustive);
  ASSERT_FALSE(lost.possible);
  EXPECT_GT(lost.candidates_evaluated, 4);

  for (const int threads : {1, 2, 4, 8}) {
    completable.exec.threads = threads;
    exhaustive.exec.threads = threads;
    expect_same_completion(search_completing_ops(completable), won, threads);
    expect_same_completion(search_completing_ops(exhaustive), lost, threads);
  }
}

TEST(ParallelTable1, RowsIdenticalAcrossThreadCounts) {
  Table1Options options;
  options.sites = {OpenSite::kBitLineOuter};
  options.r_points = 5;
  options.u_points = 5;
  options.max_prefix_ops = 1;
  options.fallback_windows = 2;
  options.probe_u_points = 4;

  const std::string serial =
      format_table1(generate_table1(DramParams{}, options));
  options.exec.threads = 8;
  const std::string parallel =
      format_table1(generate_table1(DramParams{}, options));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelColumns, DistinctClonedColumnsRunConcurrently) {
  // The per-worker state model of the engine: distinct columns built from
  // the same prototype (clone_fresh) must run concurrently without
  // interfering — every thread sees its own correct read-back.
  const dram::DramColumn prototype(DramParams{}, Defect::none());
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&prototype, &wrong, t] {
      dram::DramColumn column = prototype.clone_fresh();
      const int value = t % 2;
      column.write(dram::DramColumn::kVictim, value);
      if (column.read(dram::DramColumn::kVictim) != value) ++wrong;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace pf::analysis
