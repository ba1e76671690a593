// Mutation-smoke: the harness is only trustworthy if it CATCHES defects.
// Plant classification mutations and solver faults through the
// pf::spice::testing injection hooks and require the differential oracle to
// convict them — and the shrinker to produce a minimal repro.
#include <gtest/gtest.h>

#include "pf/analysis/robust.hpp"
#include "pf/spice/fault_injection.hpp"
#include "pf/testing/oracle.hpp"
#include "pf/testing/shrink.hpp"

namespace pf::testing {
namespace {

namespace inj = pf::spice::testing;

FuzzCase fixed_case() {
  // First case of the default-seed stream: deterministic, known clean
  // (FuzzDifferential.ElectricalAndBehavioralLayersAgree covers the stream).
  Rng rng(kDefaultFuzzSeed);
  return random_case(rng, {});
}

TEST(FuzzMutation, CleanBaselinePasses) {
  const TrialResult r = run_differential_trial(fixed_case());
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.cells_checked, 0u);
}

TEST(FuzzMutation, PlantedCorruptionIsConvictedAndShrunk) {
  const FuzzCase c = fixed_case();
  // A silently WRONG solver on one grid point's experiment key: every
  // voltage mirrored, classification corrupted, nothing thrown. Only the
  // differential check can see it. The point sits in the upper R_def row:
  // in the lower row (89 kOhm) the defect is too weak for a mirrored solve
  // to change any cell's class, and an injected fault stays inside its own
  // experiment (no state leaks to neighbouring points).
  inj::ScopedFaultPlan plan(
      {{analysis::grid_point_key(0, 1),
        {inj::InjectedFault::kCorruptVoltage, 1 << 30, 0, 3.3}}});
  const TrialResult r = run_differential_trial(c);
  ASSERT_FALSE(r.ok) << "planted kCorruptVoltage survived the oracle";
  EXPECT_NE(r.failure.find("referee"), std::string::npos) << r.failure;
  EXPECT_GT(inj::injections_performed(), 0u);

  // The shrinker must reduce the case to a handful of grid points and emit
  // a copy-pasteable repro.
  const ShrinkResult shrunk = shrink_case(c, [](const FuzzCase& cand) {
    try {
      return !run_differential_trial(cand).ok;
    } catch (const std::exception&) {
      return true;
    }
  });
  EXPECT_LE(shrunk.minimal.r_axis.size() * shrunk.minimal.u_axis.size(), 2u)
      << shrunk.minimal.describe();
  EXPECT_EQ(shrunk.minimal.threads, 1);
  const std::string report = shrink_report(shrunk, kDefaultFuzzSeed);
  EXPECT_NE(report.find("PF_TEST_SEED"), std::string::npos);
  EXPECT_NE(report.find("defect_explorer"), std::string::npos);
  // The minimal case still fails under the plan...
  EXPECT_FALSE(run_differential_trial(shrunk.minimal).ok);
}

TEST(FuzzMutation, MinimalCasePassesOnceThePlanIsGone) {
  FuzzCase c = fixed_case();
  FuzzCase minimal;
  {
    inj::ScopedFaultPlan plan(
        {{analysis::grid_point_key(0, 1),
          {inj::InjectedFault::kCorruptVoltage, 1 << 30, 0, 3.3}}});
    minimal = shrink_case(c, [](const FuzzCase& cand) {
                return !run_differential_trial(cand).ok;
              }).minimal;
  }
  // Disarmed, the shrunk repro is clean: the failure was the mutation, not
  // the stack.
  EXPECT_TRUE(run_differential_trial(minimal).ok);
}

TEST(FuzzMutation, UnrecoverableNanVoltageIsConvicted) {
  // kNanVoltage past the retry budget degrades the sweep cell to FAIL; the
  // injection-free referee solves the point, and the disagreement convicts
  // the planted fault.
  const FuzzCase c = fixed_case();
  inj::ScopedFaultPlan plan({{analysis::grid_point_key(0, 0),
                              {inj::InjectedFault::kNanVoltage, 1 << 30}}});
  const TrialResult r = run_differential_trial(c);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("FAIL"), std::string::npos) << r.failure;
}

TEST(FuzzMutation, RecoverableInjectionStaysClean) {
  // A fault that recovers within the retry budget must NOT trip the oracle:
  // retry/backoff absorbs it and the final classification is sound.
  const FuzzCase c = fixed_case();
  inj::ScopedFaultPlan plan(
      {{analysis::grid_point_key(0, 0),
        {inj::InjectedFault::kNonConvergence, /*fail_attempts=*/1}}});
  const TrialResult r = run_differential_trial(c);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(inj::injections_performed(), 0u)
      << "the injection plan never fired — the smoke test is vacuous";
}

}  // namespace
}  // namespace pf::testing
