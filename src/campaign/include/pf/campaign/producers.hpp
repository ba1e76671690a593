// The repo's two multi-sweep drivers, rewritten as trivial CampaignSpec
// producers: instead of hand-rolled loops over sweeps (generate_table1's
// site x line x SOS nest, the completion example's sweep-then-search), each
// driver just DESCRIBES its jobs and lets the CampaignRunner own execution
// — journaling, kill -9 resume, retry/quarantine, cross-job dedup and
// session reuse come for free and behave identically for every driver.
//
// Both producers are golden-compatible: run through a campaign, the
// reassembled output is byte-identical to the pre-campaign implementation
// (generate_table1 / search_completing_ops_with_fallback) — sweeps restored
// from CSV reconstruct the exact RegionMap, analysis runs in a custom job
// with the same code path, and the final ordering is reproduced.
//
// The producers cover the wire JobSpec's parameter space: the reference
// DramParams (at the JobSpec temperature knob). Drivers needing bespoke
// parameter sets keep calling the analysis layer directly.
#pragma once

#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/table1.hpp"
#include "pf/campaign/runner.hpp"
#include "pf/campaign/spec.hpp"
#include "pf/march/coverage.hpp"
#include "pf/march/search.hpp"

namespace pf::campaign {

/// Table 1 as a campaign: one sweep job per (site, floating line, base SOS)
/// named "open{N}-line{L}-sos{S}", plus one custom analysis job per site
/// ("open{N}-analysis") depending on that site's sweeps — it identifies the
/// partial faults and runs the completion searches, exactly like the
/// matching slice of generate_table1. Sites/grid/ranges come from
/// `options`; execution — sweeps and completion searches alike — follows
/// CampaignOptions::exec (options.exec.threads only fills the sweep jobs'
/// JobSpec::threads, which a pf_served honours in socket mode).
CampaignSpec table1_campaign(const analysis::Table1Options& options = {});

/// Reassemble Table1Rows from a finished table1_campaign run. Byte-identical
/// to generate_table1(reference params, same options). Throws pf::Error when
/// an analysis job did not reach kJobDone.
std::vector<analysis::Table1Row> table1_rows_from_result(
    const CampaignSpec& spec, const CampaignResult& result);

/// Convenience wrapper: build the campaign, run it, reassemble the rows.
/// `result_out` (optional) receives the full campaign result (stats, per-job
/// states) for callers that want the robustness telemetry too.
std::vector<analysis::Table1Row> generate_table1_via_campaign(
    const analysis::Table1Options& options, const CampaignOptions& campaign,
    CampaignResult* result_out = nullptr);

struct CompletionCampaignOptions {
  faults::Ffm ffm = faults::Ffm::kUnknown;  ///< the partial FFM to complete
  size_t probe_u_points = 5;
  int max_prefix_ops = 3;
  size_t fallback_windows = 4;
};

/// Completion search as a two-job campaign: "base-map" (the sweep whose
/// region map seeds the search) and "completion" (a custom job running
/// search_completing_ops_with_fallback on the reconstructed map). Both run
/// under CampaignOptions::exec.
CampaignSpec completion_campaign(const service::JobSpec& sweep,
                                 const CompletionCampaignOptions& options);

/// Extract the CompletionResult from a finished completion_campaign run.
/// Identical to calling search_completing_ops_with_fallback on the same
/// map. Throws pf::Error when the completion job did not reach kJobDone.
analysis::CompletionResult completion_from_result(const CampaignResult& result);

struct CoverageCampaignOptions {
  memsim::Geometry geometry{8, 8};
  /// Engine the per-test jobs evaluate with (kPlane: the whole class
  /// catalogue costs one march pass per test).
  march::MemEngine engine = march::MemEngine::kPlane;
  /// Tests to evaluate; empty = naive {m(w1,r1)} plus the standard library.
  std::vector<march::MarchTest> tests;
  /// Fault classes; empty = the paper's Table 1 partial-fault catalogue.
  std::vector<march::PopulationClass> classes;
};

/// Behavioral coverage matrix as a campaign: one custom job per march test
/// ("coverage-{test}") evaluating the whole class catalogue against the
/// population engine, plus a "coverage-summary" job that aggregates the
/// detected_all counts. Crash-safe like every campaign: finished tests are
/// restored from the journal on resume.
CampaignSpec coverage_campaign(const CoverageCampaignOptions& options = {});

/// One test's slice of a finished coverage_campaign run.
struct CoverageCampaignEntry {
  std::string test;
  std::string engine;
  std::uint64_t march_passes = 0;
  std::uint64_t cell_steps = 0;
  struct ClassResult {
    std::string name;
    march::DetectionOutcome outcome;
  };
  std::vector<ClassResult> classes;
};

/// Reassemble the coverage matrix from a finished coverage_campaign run, in
/// the spec's test order. Throws pf::Error when a coverage job did not
/// reach kJobDone.
std::vector<CoverageCampaignEntry> coverage_from_result(
    const CampaignSpec& spec, const CampaignResult& result);

struct SearchCampaignOptions {
  memsim::Geometry geometry{4, 2};
  /// Engine scoring candidates inside each search job (kPlane: one march
  /// pass per candidate); the scalar oracle check stays in the tests.
  march::MemEngine engine = march::MemEngine::kPlane;
  std::uint64_t seed = 0x5EA12C4ULL;
  std::uint64_t max_evaluations = 20000;
  /// Target sets to optimize; empty = march::standard_target_sets().
  std::vector<march::NamedTargetSet> sets;
  /// When non-empty, every improvement of a job's best incumbent is
  /// journaled to "<incumbent_dir>/<set-slug>.incumbent" (tmp + rename,
  /// march notation) and a resumed job re-seeds its search from that file —
  /// a kill -9 mid-search loses at most the work since the last
  /// improvement, not the incumbent itself. Empty disables the side
  /// journal (the campaign's own DONE journal still makes finished jobs
  /// crash-safe).
  std::string incumbent_dir;
};

/// March-test search as a campaign: one resumable custom job per target set
/// ("search-{set}") running search_march seeded from greedy, March PF and
/// the job's journaled incumbent (if any), plus a "search-summary" job that
/// counts strictly-shorter-than-greedy wins and complete certificates.
CampaignSpec search_campaign(const SearchCampaignOptions& options = {});

/// One target set's slice of a finished search_campaign run.
struct SearchCampaignEntry {
  std::string set;
  march::MarchTest test;
  bool success = false;
  int ops_per_cell = 0;
  int greedy_ops_per_cell = 0;
  bool shorter_than_greedy = false;
  bool certificate_complete = false;
  std::size_t witnesses = 0;
  std::uint64_t evaluations = 0;  ///< search + certification march passes
};

/// Reassemble per-set results from a finished search_campaign run, in the
/// spec's set order. Throws pf::Error when a search job did not reach
/// kJobDone.
std::vector<SearchCampaignEntry> search_from_result(
    const CampaignSpec& spec, const CampaignResult& result);

}  // namespace pf::campaign
