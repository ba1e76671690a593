// The batched whole-row engine against its own contract: a BatchedColumnRun
// advancing N lanes in lockstep must reproduce N independent scalar
// DramColumn runs BIT FOR BIT — node voltages, output buffers, read values
// and solver statistics. This is the foundation the batched sweep backend's
// map identity rests on (pf/analysis/region.hpp), checked here without the
// analysis engine in the loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pf/dram/batched_column.hpp"
#include "pf/dram/column.hpp"
#include "pf/util/error.hpp"

namespace pf::dram {
namespace {

DramParams params() { return DramParams{}; }

// One scalar reference trajectory: pristine clone, floating-line injection,
// w1 v / r1 v — the paper's Figure 1 scenario, whose outcome depends
// strongly on U (benign at high U, destructive RDF1 at low U).
struct ScalarRef {
  int read_value = -1;
  int buffer = -1;
  std::vector<double> cells;
  spice::SimStats stats;
};

ScalarRef scalar_reference(const DramColumn& donor, const FloatingLine& line,
                           double u) {
  DramColumn col = donor.clone();
  col.write(0, 1);
  col.apply_floating_voltage(line, u);
  ScalarRef ref;
  ref.read_value = col.read(0);
  ref.buffer = col.output_buffer();
  for (int addr = 0; addr < col.num_cells(); ++addr)
    ref.cells.push_back(col.cell_voltage(addr));
  ref.stats = col.sim_stats();
  return ref;
}

TEST(BatchedColumn, LockstepMatchesScalarBitForBit) {
  const auto defect = Defect::open(OpenSite::kBitLineOuter, 10e6);
  DramColumn donor(params(), defect);
  const auto lines = floating_lines_for(defect, params());
  ASSERT_EQ(lines.size(), 1u);
  // Lanes spanning the whole U range: fault and no-fault classes mixed, so
  // per-lane Newton trajectories genuinely diverge (different step counts).
  const std::vector<double> us = {0.0, 0.8, 1.65, 2.4, 3.3};

  std::vector<ScalarRef> refs;
  for (double u : us) refs.push_back(scalar_reference(donor, lines[0], u));

  // Same experiment, one lockstep batch. Lanes are seeded from the state
  // AFTER the shared initializing write (exactly how the sweep backend
  // seeds a row), so run the write on a scalar clone first.
  DramColumn seeded = donor.clone();
  seeded.write(0, 1);
  // A batch seeded pre-injection must replay the remaining ops identically;
  // the donor column passed to the constructor only provides the template
  // and phase schedule.
  BatchedColumnRun batch(donor, us.size());
  for (size_t l = 0; l < us.size(); ++l) {
    // Re-derive the post-write state per lane from the SAME snapshot.
    batch.load_state(l, seeded.save_state());
    batch.apply_floating_voltage(l, lines[0], us[l]);
  }
  batch.read(0);

  for (size_t l = 0; l < us.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l) + " u=" + std::to_string(us[l]));
    ASSERT_FALSE(batch.lane_failed(l)) << batch.lane_error(l);
    EXPECT_EQ(batch.read_value(l, 0), refs[l].read_value);
    EXPECT_EQ(batch.output_buffer(l), refs[l].buffer);
    for (int addr = 0; addr < donor.num_cells(); ++addr)
      EXPECT_EQ(batch.cell_voltage(l, addr), refs[l].cells[size_t(addr)])
          << "cell " << addr << " voltage must match bit for bit";
    EXPECT_EQ(batch.lane_stats(l).steps, refs[l].stats.steps);
    EXPECT_EQ(batch.lane_stats(l).nr_iterations, refs[l].stats.nr_iterations);
    EXPECT_EQ(batch.lane_stats(l).rejected_steps,
              refs[l].stats.rejected_steps);
  }
}

TEST(BatchedColumn, FullOperationSequenceMatchesScalar) {
  // A longer mixed sequence (write both polarities, aggressor ops, idle)
  // through a mid-resistance defect, checked against scalar clones.
  const auto defect = Defect::open(OpenSite::kCell, 1e6);
  DramParams p = params();
  DramColumn donor(p, defect);
  const auto lines = floating_lines_for(defect, p);
  ASSERT_FALSE(lines.empty());
  const std::vector<double> us = {0.3, 1.65, 3.0};

  std::vector<ScalarRef> refs;
  for (double u : us) {
    DramColumn col = donor.clone();
    col.apply_floating_voltage(lines[0], u);
    col.write(1, 0);
    col.write(0, 1);
    col.idle_cycle();
    ScalarRef ref;
    ref.read_value = col.read(0);
    ref.buffer = col.output_buffer();
    for (int addr = 0; addr < col.num_cells(); ++addr)
      ref.cells.push_back(col.cell_voltage(addr));
    ref.stats = col.sim_stats();
    refs.push_back(ref);
  }

  BatchedColumnRun batch(donor, us.size());
  for (size_t l = 0; l < us.size(); ++l) {
    batch.load_state(l, donor.save_state());
    batch.apply_floating_voltage(l, lines[0], us[l]);
  }
  batch.write(1, 0);
  batch.write(0, 1);
  batch.idle_cycle();
  batch.read(0);

  for (size_t l = 0; l < us.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    ASSERT_FALSE(batch.lane_failed(l)) << batch.lane_error(l);
    EXPECT_EQ(batch.read_value(l, 0), refs[l].read_value);
    EXPECT_EQ(batch.output_buffer(l), refs[l].buffer);
    for (int addr = 0; addr < donor.num_cells(); ++addr)
      EXPECT_EQ(batch.cell_voltage(l, addr), refs[l].cells[size_t(addr)]);
    EXPECT_EQ(batch.lane_stats(l).steps, refs[l].stats.steps);
    EXPECT_EQ(batch.lane_stats(l).nr_iterations, refs[l].stats.nr_iterations);
    EXPECT_EQ(batch.lane_stats(l).rejected_steps,
              refs[l].stats.rejected_steps);
  }
}

TEST(BatchedColumn, RefusesWallClockWatchdog) {
  // The batched engine is deterministic by construction; a wall-clock
  // watchdog would make lane failure timing-dependent, so the constructor
  // refuses it outright instead of silently ignoring it.
  DramColumn donor(params(), Defect::open(OpenSite::kBitLineOuter, 1e6));
  spice::SimOptions opts = donor.params().sim;
  opts.max_wall_seconds = 1.0;
  donor.set_sim_options(opts);
  EXPECT_THROW(BatchedColumnRun(donor, 2), pf::Error);
}

TEST(BatchedColumn, SolverBackendNamesRoundTrip) {
  using spice::SolverBackend;
  EXPECT_EQ(spice::parse_solver_backend("scalar"), SolverBackend::kScalar);
  EXPECT_EQ(spice::parse_solver_backend("batched"), SolverBackend::kBatched);
  EXPECT_STREQ(spice::solver_backend_name(SolverBackend::kScalar), "scalar");
  EXPECT_STREQ(spice::solver_backend_name(SolverBackend::kBatched), "batched");
  EXPECT_THROW(spice::parse_solver_backend("simd"), pf::Error);
}

}  // namespace
}  // namespace pf::dram
