// CampaignRunner acceptance: the ISSUE's >= 8-job campaign with one
// deterministically-failing job (independents complete, the failure is
// quarantined with error context, only dependents are blocked), cross-job
// dedup, session reuse, bounded retry, interrupted-campaign resume with a
// byte-identical report, and the custom-job dependency contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "pf/analysis/region.hpp"
#include "pf/campaign/fault_injection.hpp"
#include "pf/campaign/runner.hpp"
#include "pf/util/cancellation.hpp"
#include "pf/util/error.hpp"

namespace pf::campaign {
namespace {

using service::Json;
using service::JsonObject;

CampaignJob sweep_job(const std::string& id, const std::string& sos,
                      std::vector<std::string> deps = {}) {
  CampaignJob job;
  job.id = id;
  job.kind = CampaignJob::Kind::kSweep;
  job.deps = std::move(deps);
  job.sweep.defect_kind = "open";
  job.sweep.open_site = 4;
  job.sweep.sos_text = sos;
  job.sweep.r_points = 3;
  job.sweep.u_points = 3;
  return job;
}

/// The acceptance campaign: 9 jobs, one of them ("flaky") made to fail
/// terminally by the job_fail_once site with a budget >= max_job_attempts.
///
///   s1 --+--> c1 (custom)         flaky --> d1 --> d2
///   s2 (dup of s1: dedup)
///   s3 (same row-family as s1: session reuse)
///   s4
CampaignSpec acceptance_spec() {
  CampaignSpec spec;
  spec.name = "acceptance";
  spec.jobs.push_back(sweep_job("s1", "1r1"));
  spec.jobs.push_back(sweep_job("s2", "1r1"));  // identical fingerprint
  spec.jobs.push_back(sweep_job("s3", "0w0"));
  spec.jobs.push_back(sweep_job("s4", "0r0"));
  spec.jobs.push_back(sweep_job("flaky", "1w1"));
  spec.jobs.push_back(sweep_job("d1", "1", {"flaky"}));
  spec.jobs.push_back(sweep_job("d2", "0", {"d1"}));

  CampaignJob c1;
  c1.id = "c1";
  c1.kind = CampaignJob::Kind::kCustom;
  c1.deps = {"s1"};
  c1.custom = [](const DepContext& ctx) {
    const analysis::RegionMap& map = ctx.map("s1");
    JsonObject obj;
    obj["cells"] = Json(map.spec().r_axis.size() * map.spec().u_axis.size());
    return Json(std::move(obj));
  };
  spec.jobs.push_back(c1);

  CampaignJob c2;
  c2.id = "c2";
  c2.kind = CampaignJob::Kind::kCustom;
  c2.deps = {"c1"};
  c2.custom = [](const DepContext& ctx) {
    return Json(ctx.payload("c1").number_or("cells", -1));
  };
  spec.jobs.push_back(c2);
  return spec;
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CampaignRunner, IsolatesFailureDedupsAndReusesSessions) {
  const std::string dir = fresh_dir("camp_acceptance");
  testing::ScopedCampaignFault fault("job_fail_once=flaky:2");

  const CampaignSpec spec = acceptance_spec();
  CampaignOptions options;
  options.store_root = dir + "/store";
  options.journal_path = dir + "/journal.csv";
  options.max_job_attempts = 2;
  const CampaignResult result = run_campaign(spec, options);

  // The failing job is terminally quarantined with its error context...
  const JobResult& flaky = result.jobs.at("flaky");
  EXPECT_EQ(flaky.state, JobState::kJobFailed);
  EXPECT_EQ(flaky.attempts, 2);
  EXPECT_NE(flaky.detail.string_or("error", "").find("injected"),
            std::string::npos);
  EXPECT_EQ(testing::faults_fired(), 2u);

  // ...only its dependents are blocked (transitively, each naming the
  // dependency that blocked it)...
  EXPECT_EQ(result.jobs.at("d1").state, JobState::kJobBlocked);
  EXPECT_EQ(result.jobs.at("d1").detail.string_or("blocked_by", ""), "flaky");
  EXPECT_EQ(result.jobs.at("d2").state, JobState::kJobBlocked);
  EXPECT_EQ(result.jobs.at("d2").detail.string_or("blocked_by", ""), "d1");

  // ...and every independent job ran to completion.
  for (const char* id : {"s1", "s2", "s3", "s4", "c1", "c2"})
    EXPECT_EQ(result.jobs.at(id).state, JobState::kJobDone) << id;
  EXPECT_EQ(result.stats.done, 6u);
  EXPECT_EQ(result.stats.failed, 1u);
  EXPECT_EQ(result.stats.blocked, 2u);
  EXPECT_FALSE(result.all_done());

  // Cross-job dedup: s2's fingerprint equals s1's, so it was served from
  // the memo/store, bit-identical.
  EXPECT_TRUE(result.jobs.at("s2").cached);
  EXPECT_GE(result.stats.dedup_hits, 1u);
  EXPECT_EQ(result.jobs.at("s2").sha256, result.jobs.at("s1").sha256);
  EXPECT_EQ(result.jobs.at("s2").key, result.jobs.at("s1").key);

  // Session reuse: s3/s4/flaky share s1's row-family (same defect and
  // temperature), so compiled sessions were handed across jobs.
  EXPECT_GE(result.stats.session_hits, 1u);

  // Custom chain: c1 saw s1's CSV-reconstructed map, c2 saw c1's payload.
  EXPECT_EQ(result.jobs.at("c1").detail.get("payload").number_or("cells", 0),
            9.0);
  EXPECT_EQ(result.jobs.at("c2").detail.get("payload").as_number(), 9.0);

  // Resume keeps the quarantine: no faults armed, yet flaky stays FAILED
  // and nothing recomputes.
  {
    testing::ScopedCampaignFault disarm("");
    const CampaignResult resumed = run_campaign(spec, options);
    EXPECT_EQ(resumed.jobs.at("flaky").state, JobState::kJobFailed);
    EXPECT_TRUE(resumed.jobs.at("flaky").resumed);
    EXPECT_EQ(resumed.jobs.at("s1").state, JobState::kJobDone);
    EXPECT_TRUE(resumed.jobs.at("s1").resumed);
    EXPECT_GE(resumed.stats.resumed, 7u);
    EXPECT_EQ(resumed.report(spec), result.report(spec))
        << "a resumed campaign must report byte-identically";

    // retry_failed lifts the quarantine: the whole DAG completes.
    CampaignOptions retry = options;
    retry.retry_failed = true;
    const CampaignResult healed = run_campaign(spec, retry);
    EXPECT_TRUE(healed.all_done());
    EXPECT_EQ(healed.jobs.at("d1").state, JobState::kJobDone);
    EXPECT_EQ(healed.jobs.at("d2").state, JobState::kJobDone);
  }
}

TEST(CampaignRunner, RetryRecoversFromTransientFailure) {
  testing::ScopedCampaignFault fault("job_fail_once=s1:1");
  CampaignSpec spec;
  spec.name = "transient";
  spec.jobs = {sweep_job("s1", "1r1")};
  CampaignOptions options;
  options.max_job_attempts = 2;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(result.jobs.at("s1").state, JobState::kJobDone);
  EXPECT_EQ(result.jobs.at("s1").attempts, 2);
  EXPECT_EQ(result.stats.retries, 1u);
  EXPECT_TRUE(result.all_done());
}

TEST(CampaignRunner, MemoDedupWorksWithoutStoreOrJournal) {
  CampaignSpec spec;
  spec.name = "memo";
  spec.jobs = {sweep_job("a", "1r1"), sweep_job("b", "1r1")};
  const CampaignResult result = run_campaign(spec, CampaignOptions{});
  EXPECT_TRUE(result.all_done());
  EXPECT_EQ(result.stats.dedup_hits, 1u);
  EXPECT_EQ(result.jobs.at("a").csv, result.jobs.at("b").csv);
}

TEST(CampaignRunner, SessionReuseIsBitIdentical) {
  // The same job computed alone (cold session) and after a same-family
  // predecessor (reused session) must hash identically.
  CampaignSpec alone;
  alone.name = "alone";
  alone.jobs = {sweep_job("x", "0w0")};
  const CampaignResult cold = run_campaign(alone, CampaignOptions{});
  ASSERT_TRUE(cold.all_done());

  CampaignSpec paired;
  paired.name = "paired";
  paired.jobs = {sweep_job("warmup", "1r1"), sweep_job("x", "0w0")};
  const CampaignResult warm = run_campaign(paired, CampaignOptions{});
  ASSERT_TRUE(warm.all_done());
  EXPECT_GE(warm.stats.session_hits, 1u);
  EXPECT_EQ(warm.jobs.at("x").sha256, cold.jobs.at("x").sha256);
  EXPECT_EQ(warm.jobs.at("x").csv, cold.jobs.at("x").csv);
}

TEST(CampaignRunner, InterruptedCampaignResumesByteIdentically) {
  CampaignSpec spec;
  spec.name = "interrupt";
  spec.jobs = {sweep_job("j1", "1r1"), sweep_job("j2", "0w0"),
               sweep_job("j3", "0r0"), sweep_job("j4", "1w1")};

  // Control: one uninterrupted run.
  const std::string control_dir = fresh_dir("camp_control");
  CampaignOptions control;
  control.store_root = control_dir + "/store";
  control.journal_path = control_dir + "/journal.csv";
  const std::string control_report =
      run_campaign(spec, control).report(spec);

  // Interrupted: cancel the campaign after two jobs finished; the journal
  // keeps them, the in-flight job re-runs on resume.
  const std::string dir = fresh_dir("camp_interrupt");
  CampaignOptions options;
  options.store_root = dir + "/store";
  options.journal_path = dir + "/journal.csv";
  pf::CancellationToken token;
  options.exec.cancel = token;
  options.on_event = [&token](const CampaignEvent& event) {
    if (event.kind == CampaignEvent::Kind::kDone && event.finished >= 2)
      token.request_cancellation();
  };
  EXPECT_THROW(run_campaign(spec, options), pf::CancelledError);

  CampaignOptions resume;
  resume.store_root = options.store_root;
  resume.journal_path = options.journal_path;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_TRUE(resumed.all_done());
  EXPECT_GE(resumed.stats.resumed, 2u);
  EXPECT_EQ(resumed.report(spec), control_report)
      << "kill + resume must be indistinguishable from an uninterrupted run";
}

TEST(CampaignRunner, CustomJobMustDeclareItsDependencies) {
  CampaignSpec spec;
  spec.name = "undeclared";
  spec.jobs = {sweep_job("s1", "1r1"), sweep_job("s2", "0w0")};
  CampaignJob sneaky;
  sneaky.id = "sneaky";
  sneaky.kind = CampaignJob::Kind::kCustom;
  sneaky.deps = {"s1"};
  sneaky.custom = [](const DepContext& ctx) {
    return Json(ctx.map("s2").to_csv());  // s2 is NOT a declared dependency
  };
  spec.jobs.push_back(sneaky);

  CampaignOptions options;
  options.max_job_attempts = 1;
  const CampaignResult result = run_campaign(spec, options);
  EXPECT_EQ(result.jobs.at("sneaky").state, JobState::kJobFailed);
  EXPECT_NE(result.jobs.at("sneaky").detail.string_or("error", "")
                .find("without declaring"),
            std::string::npos);
  EXPECT_EQ(result.jobs.at("s2").state, JobState::kJobDone)
      << "the custom job's failure must stay isolated";
}

TEST(CampaignRunner, CustomJobSeesTheCampaignPolicy) {
  CampaignSpec spec;
  spec.name = "policy";
  spec.jobs = {sweep_job("s1", "1r1")};
  CampaignJob probe;
  probe.id = "probe";
  probe.kind = CampaignJob::Kind::kCustom;
  probe.deps = {"s1"};
  probe.custom = [](const DepContext& ctx) {
    return Json(ctx.exec().threads);
  };
  spec.jobs.push_back(probe);

  CampaignOptions options;
  options.exec.threads = 3;
  const CampaignResult result = run_campaign(spec, options);
  ASSERT_TRUE(result.all_done());
  EXPECT_EQ(result.jobs.at("probe").detail.get("payload").as_number(), 3);
}

TEST(CampaignRunner, InvalidSpecThrowsBeforeAnythingRuns) {
  CampaignSpec spec;
  spec.name = "cyclic";
  spec.jobs = {sweep_job("a", "1r1", {"b"}), sweep_job("b", "1r1", {"a"})};
  EXPECT_THROW(run_campaign(spec, CampaignOptions{}), pf::Error);
}

}  // namespace
}  // namespace pf::campaign
