// The EnginePlan API contract: resolved_plan pass-through and validation
// (EnginePlan is the only spelling), the batched-requires-reuse invariant,
// and the SosSession::set_sim_options override travelling through clone()
// (the per-worker fan-out path).
#include <gtest/gtest.h>

#include "pf/analysis/execution.hpp"
#include "pf/analysis/region.hpp"
#include "pf/analysis/sos_runner.hpp"
#include "pf/util/error.hpp"

namespace pf::analysis {
namespace {

using spice::SolverBackend;

TEST(EnginePlan, ResolvedPlanPassesThroughExplicitPlanFields) {
  ExecutionPolicy policy;
  EnginePlan plan = resolved_plan(policy);
  EXPECT_EQ(plan.backend, SolverBackend::kScalar);
  EXPECT_EQ(plan.circuit_mode, CircuitMode::kReuse);
  EXPECT_FALSE(plan.adaptive);

  policy.plan.backend = SolverBackend::kBatched;
  policy.plan.adaptive = true;
  plan = resolved_plan(policy);
  EXPECT_EQ(plan.backend, SolverBackend::kBatched);
  EXPECT_TRUE(plan.adaptive);
}

TEST(EnginePlan, ExplicitPlanIsPreservedVerbatim) {
  // With the deprecated loose fields gone, resolved_plan is pure
  // pass-through + validation: an explicit plan must come back verbatim.
  ExecutionPolicy planned;
  planned.plan.circuit_mode = CircuitMode::kRebuild;
  planned.plan.adaptive = true;
  EXPECT_EQ(resolved_plan(planned).circuit_mode, CircuitMode::kRebuild);
  EXPECT_TRUE(resolved_plan(planned).adaptive);
}

TEST(EnginePlan, BatchedBackendRequiresCircuitReuse) {
  // Lanes of a batched row are seeded from one shared compiled session;
  // there is no per-point rebuild to speak of, so the combination is an
  // error at plan-resolution time, before any circuit is built.
  ExecutionPolicy policy;
  policy.plan.backend = SolverBackend::kBatched;
  policy.plan.circuit_mode = CircuitMode::kRebuild;
  EXPECT_THROW(resolved_plan(policy), pf::Error);

  SweepSpec spec;
  spec.params = dram::DramParams{};
  spec.defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
  spec.sos = faults::Sos::parse("1r1");
  spec.r_axis = {1e6};
  spec.u_axis = {0.0, 3.3};
  EXPECT_THROW(sweep_region(spec, policy), pf::Error);
}

TEST(EnginePlan, SetSimOptionsIsCarriedIntoClones) {
  // The session-level options override must survive clone(): the parallel
  // sweep fans a configured prototype out to per-worker replicas, and a
  // replica solving with different numerics would silently break the
  // bit-identity contract.
  const dram::DramParams params;
  const auto defect = dram::Defect::open(dram::OpenSite::kBitLineOuter, 1e6);
  SosSession session(params, defect);

  spice::SimOptions tightened = params.sim;
  tightened.dt_initial *= 0.25;
  tightened.max_nr_iters += 40;
  session.set_sim_options(tightened);
  EXPECT_EQ(session.column().params().sim.dt_initial, tightened.dt_initial);
  EXPECT_EQ(session.column().params().sim.max_nr_iters, tightened.max_nr_iters);

  SosSession replica = session.clone();
  EXPECT_EQ(replica.column().params().sim.dt_initial, tightened.dt_initial);
  EXPECT_EQ(replica.column().params().sim.max_nr_iters, tightened.max_nr_iters);

  // And the override is semantically live: the replica's run under its
  // carried options equals a fresh run_sos under the same options.
  const auto lines = dram::floating_lines_for(defect, params);
  ASSERT_FALSE(lines.empty());
  const faults::Sos sos = faults::Sos::parse("1r1");
  const SosOutcome reused = replica.run(1e6, tightened, &lines[0], 1.1, sos);
  dram::DramParams fresh_params = params;
  fresh_params.sim = tightened;
  const SosOutcome fresh = run_sos(fresh_params, defect, &lines[0], 1.1, sos);
  EXPECT_EQ(reused.final_state, fresh.final_state);
  EXPECT_EQ(reused.read_result, fresh.read_result);
  EXPECT_EQ(reused.faulty, fresh.faulty);
  EXPECT_EQ(reused.ffm, fresh.ffm);
}

}  // namespace
}  // namespace pf::analysis
