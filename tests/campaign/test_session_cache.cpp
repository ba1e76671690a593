// analysis::SessionCache as the campaign runner uses it: one compiled
// session and post-initialization table per row-family, handed from sweep
// job to sweep job and on to the family's completion searches, so each
// (family, R_def, initial states) key is solved exactly once per campaign
// whatever the thread count; only the running family's table stays alive.
#include <gtest/gtest.h>

#include "pf/analysis/session_cache.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/campaign/producers.hpp"

namespace pf::campaign {
namespace {

using analysis::SessionCache;
using analysis::SosSession;
using dram::Defect;
using dram::DramParams;
using dram::OpenSite;

analysis::Table1Options small_table1() {
  analysis::Table1Options opt;
  opt.sites = {OpenSite::kCell, OpenSite::kBitLineOuter};
  opt.r_points = 4;
  opt.u_points = 4;
  opt.max_prefix_ops = 2;
  opt.fallback_windows = 2;
  opt.probe_u_points = 3;
  return opt;
}

CampaignResult run_at(const CampaignSpec& spec, int threads) {
  CampaignOptions options;
  options.exec.threads = threads;
  CampaignResult result = run_campaign(spec, options);
  EXPECT_TRUE(result.all_done());
  return result;
}

TEST(SessionCache, Table1SolvesEachPostInitKeyOnce) {
  const analysis::Table1Options opt = small_table1();
  const CampaignSpec full = table1_campaign(opt);
  CampaignSpec sweeps = full;
  std::erase_if(sweeps.jobs, [](const CampaignJob& job) {
    return job.kind == CampaignJob::Kind::kCustom;
  });
  // Every site's sweeps share one R axis; the base SOSes initialize the
  // victim to 0 or 1 (no aggressor), so each family holds r_points x 2 keys.
  const uint64_t sweep_keys = opt.sites.size() * opt.r_points * 2;

  for (const int threads : {1, 4}) {
    const CampaignResult result = run_at(sweeps, threads);
    EXPECT_EQ(result.stats.snapshot_solves, sweep_keys) << threads;
    // Every grid point restores its row's state.
    EXPECT_EQ(result.stats.snapshot_hits,
              sweeps.jobs.size() * opt.r_points * opt.u_points)
        << threads;
  }

  const CampaignResult serial = run_at(full, 1);
  const CampaignResult parallel = run_at(full, 4);
  EXPECT_EQ(parallel.report(full), serial.report(full));
  // The completion searches add the keys of initial states the sweeps did
  // not cover (prefixes that overwrite the victim) — the same number at
  // any thread count, because pre-passes solve every missing key once.
  EXPECT_GT(serial.stats.snapshot_solves, sweep_keys);
  EXPECT_EQ(parallel.stats.snapshot_solves, serial.stats.snapshot_solves);
  // One compile per family: the analysis job borrows its sweeps' session.
  EXPECT_EQ(serial.stats.session_misses, opt.sites.size());
  EXPECT_EQ(parallel.stats.session_misses, opt.sites.size());
}

TEST(SessionCache, TakeHandsBackTheSameSessionAndTable) {
  SessionCache cache;
  const DramParams params;
  const Defect defect = Defect::open(OpenSite::kBitLineOuter, 1e6);
  std::unique_ptr<SosSession> first = cache.take("a", params, defect);
  ASSERT_NE(first, nullptr);
  const auto lines = dram::floating_lines_for(defect, params);
  first->run(2e6, params.sim, &lines[0], 1.1, faults::Sos::parse("1r1"));
  const SosSession* raw = first.get();
  cache.put("a", std::move(first));

  std::unique_ptr<SosSession> again = cache.take("a", params, defect);
  EXPECT_EQ(again.get(), raw);
  EXPECT_EQ(again->post_init_states().size(), 1u);
  again->run(2e6, params.sim, &lines[0], 2.2, faults::Sos::parse("1w0"));
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.snapshot_solves, 1u);
  EXPECT_EQ(stats.snapshot_hits, 1u);
}

TEST(SessionCache, OnlyTheRunningFamilyStaysAlive) {
  SessionCache cache;
  const DramParams params;
  const Defect open4 = Defect::open(OpenSite::kBitLineOuter, 1e6);
  const Defect open1 = Defect::open(OpenSite::kCell, 1e6);
  cache.put("open4", cache.take("open4", params, open4));
  cache.put("open1", cache.take("open1", params, open1));  // drops open4
  cache.put("open4", cache.take("open4", params, open4));  // recompiles
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.stored, 3u);
  // An empty family compiles and caches nothing.
  EXPECT_NE(cache.take("", params, open4), nullptr);
  EXPECT_EQ(cache.stats().misses, 3u);
}

}  // namespace
}  // namespace pf::campaign
