// pf_campaign — run a campaign of sweep jobs with crash-safe orchestration.
//
//   pf_campaign --spec FILE   [run flags]     run a campaign spec file
//   pf_campaign --table1      [run flags]     run the Table 1 catalogue as
//                                             a campaign (in-process
//                                             analysis jobs cannot live in
//                                             a spec file)
//   pf_campaign --coverage    [run flags]     behavioral coverage matrix:
//                                             Table 1 partial-fault classes
//                                             x standard march tests, one
//                                             population job per test
//   pf_campaign --search      [run flags]     march-test search: one
//                                             resumable job per standard
//                                             target set, best incumbent
//                                             journaled per improvement
//     --cells N      array size for --coverage (default 4096)
//     --engine E     memory engine for --coverage: plane (default) | scalar
//     --seed S       search RNG seed (default 0x5EA12C4)
//     --budget N     search evaluation budget per set (default 20000)
//     --incumbents D incumbent journal dir for --search (defaults to
//                    "<store>/incumbents" when --store is set, else off)
//
// Run flags:
//   --store DIR        result store (pf_served layout): cross-job and
//                      cross-campaign dedup + per-job sweep journals
//   --journal FILE     campaign journal: kill -9 at any point, rerun the
//                      same command, and the campaign resumes — DONE jobs
//                      restored, FAILED jobs kept quarantined, the
//                      interrupted job re-run
//   --no-resume        ignore existing journal records (cold re-run)
//   --retry-failed     re-attempt journaled FAILED jobs on resume
//   --socket PATH      submit sweep jobs to a running pf_served instead of
//                      executing locally (busy rejections absorbed)
//   --threads N        worker threads per local sweep and per completion
//                      search (Table 1 analysis jobs)
//   --attempts N       max attempts per job (default 2)
//   --backoff-ms MS    base retry backoff (doubles per attempt)
//   --deadline S       wall-clock budget for the whole campaign
//   --report FILE      write the deterministic campaign report (the smoke
//                      test's A/B artifact); "-" = stdout
//   --quiet            no per-job progress on stderr
//
// On exit the campaign's counters (jobs, dedup, session and snapshot-table
// reuse) go to stderr as one "campaign stats {...}" JSON line.
//
// Exit status: 0 every job DONE, 4 campaign completed but some jobs
// FAILED/BLOCKED, 75 interrupted (resumable: rerun the same command),
// 2 usage/invalid spec, 1 error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "pf/campaign/fault_injection.hpp"
#include "pf/campaign/producers.hpp"
#include "pf/campaign/runner.hpp"
#include "pf/util/cancellation.hpp"
#include "pf/util/error.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --spec FILE | --table1 | --coverage | --search\n"
      "          [--cells N] [--engine plane|scalar]\n"
      "          [--seed S] [--budget N] [--incumbents DIR]\n"
      "          [--store DIR] [--journal FILE] [--no-resume]\n"
      "          [--retry-failed] [--socket PATH] [--threads N]\n"
      "          [--attempts N] [--backoff-ms MS] [--deadline S]\n"
      "          [--report FILE|-] [--quiet]\n",
      argv0);
  return 2;
}

const char* event_tag(pf::campaign::CampaignEvent::Kind kind) {
  using Kind = pf::campaign::CampaignEvent::Kind;
  switch (kind) {
    case Kind::kBegin: return "begin";
    case Kind::kRetry: return "retry";
    case Kind::kDone: return "done";
    case Kind::kFailed: return "FAILED";
    case Kind::kBlocked: return "blocked";
    case Kind::kResumed: return "resumed";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string report_path;
  bool table1 = false;
  bool coverage = false;
  bool search = false;
  bool quiet = false;
  double deadline_seconds = 0.0;
  long long coverage_cells = 4096;
  pf::march::MemEngine coverage_engine = pf::march::MemEngine::kPlane;
  pf::campaign::SearchCampaignOptions search_options;
  std::string incumbent_dir;
  pf::campaign::CampaignOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--spec" && has_value) spec_path = argv[++i];
    else if (arg == "--table1") table1 = true;
    else if (arg == "--coverage") coverage = true;
    else if (arg == "--search") search = true;
    else if (arg == "--seed" && has_value)
      search_options.seed = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--budget" && has_value)
      search_options.max_evaluations = std::strtoull(argv[++i], nullptr, 0);
    else if (arg == "--incumbents" && has_value) incumbent_dir = argv[++i];
    else if (arg == "--cells" && has_value)
      coverage_cells = std::atoll(argv[++i]);
    else if (arg == "--engine" && has_value) {
      const std::string engine = argv[++i];
      if (engine == "scalar") coverage_engine = pf::march::MemEngine::kScalar;
      else if (engine == "plane") coverage_engine = pf::march::MemEngine::kPlane;
      else return usage(argv[0]);
    }
    else if (arg == "--store" && has_value) options.store_root = argv[++i];
    else if (arg == "--journal" && has_value) options.journal_path = argv[++i];
    else if (arg == "--no-resume") options.resume = false;
    else if (arg == "--retry-failed") options.retry_failed = true;
    else if (arg == "--socket" && has_value) options.socket_path = argv[++i];
    else if (arg == "--threads" && has_value)
      options.exec.threads = std::atoi(argv[++i]);
    else if (arg == "--attempts" && has_value)
      options.max_job_attempts = std::atoi(argv[++i]);
    else if (arg == "--backoff-ms" && has_value)
      options.backoff_ms = std::atof(argv[++i]);
    else if (arg == "--deadline" && has_value)
      deadline_seconds = std::atof(argv[++i]);
    else if (arg == "--report" && has_value) report_path = argv[++i];
    else if (arg == "--quiet") quiet = true;
    else return usage(argv[0]);
  }
  const int modes =
      int(!spec_path.empty()) + int(table1) + int(coverage) + int(search);
  if (modes != 1) return usage(argv[0]);

  // Deterministic fault injection for the crash/robustness tests
  // (PF_CAMPAIGN_FAULTS="site[=job][:n],...").
  pf::campaign::testing::arm_from_env();

  pf::SignalCancellation signals;
  options.exec.cancel = signals.token();
  options.exec.deadline_seconds = deadline_seconds;

  if (!quiet)
    options.on_event = [](const pf::campaign::CampaignEvent& event) {
      std::fprintf(stderr, "[%zu/%zu] %s %s", event.finished, event.total,
                   event_tag(event.kind), event.job.c_str());
      if (event.kind == pf::campaign::CampaignEvent::Kind::kRetry)
        std::fprintf(stderr, " (attempt %d)", event.attempt);
      if (event.cached) std::fprintf(stderr, " (cached)");
      if (!event.message.empty())
        std::fprintf(stderr, ": %s", event.message.c_str());
      std::fprintf(stderr, "\n");
    };

  try {
    pf::campaign::CampaignSpec spec;
    pf::campaign::CoverageCampaignOptions coverage_options;
    if (table1) {
      spec = pf::campaign::table1_campaign();
    } else if (coverage) {
      const int columns = coverage_cells % 64 == 0 ? 64 : 8;
      if (coverage_cells < columns || coverage_cells % columns != 0) {
        std::fprintf(stderr, "--cells must be a positive multiple of %d\n",
                     columns);
        return 2;
      }
      coverage_options.geometry = {int(coverage_cells / columns), columns};
      coverage_options.engine = coverage_engine;
      spec = pf::campaign::coverage_campaign(coverage_options);
    } else if (search) {
      if (incumbent_dir.empty() && !options.store_root.empty())
        incumbent_dir = options.store_root + "/incumbents";
      search_options.incumbent_dir = incumbent_dir;
      spec = pf::campaign::search_campaign(search_options);
    } else {
      spec = pf::campaign::CampaignSpec::load_file(spec_path);
    }

    const pf::campaign::CampaignResult result =
        pf::campaign::run_campaign(spec, options);

    const pf::campaign::CampaignStats& s = result.stats;
    std::fprintf(stderr,
                 "campaign %s: %zu done (%zu resumed, %zu dedup hits), "
                 "%zu failed, %zu blocked\n",
                 spec.name.c_str(), s.done, s.resumed, s.dedup_hits, s.failed,
                 s.blocked);
    std::fprintf(stderr, "campaign stats %s\n", s.to_json().dump().c_str());

    if (table1 && result.all_done()) {
      const std::vector<pf::analysis::Table1Row> rows =
          pf::campaign::table1_rows_from_result(spec, result);
      std::printf("%s", pf::analysis::format_table1(rows).c_str());
    }
    if (coverage && result.all_done()) {
      const auto entries = pf::campaign::coverage_from_result(spec, result);
      std::printf("coverage matrix (%s engine, %dx%d array):\n",
                  pf::march::mem_engine_name(coverage_options.engine),
                  coverage_options.geometry.num_rows,
                  coverage_options.geometry.num_columns);
      for (const auto& entry : entries) {
        std::printf("  %-12s", entry.test.c_str());
        for (const auto& cls : entry.classes)
          std::printf(" %s:%s", cls.name.c_str(),
                      cls.outcome.detected_all
                          ? "X"
                          : (cls.outcome.detected_count > 0 ? "(x)" : "."));
        std::printf("  [%llu cell-steps, %llu march pass%s]\n",
                    static_cast<unsigned long long>(entry.cell_steps),
                    static_cast<unsigned long long>(entry.march_passes),
                    entry.march_passes == 1 ? "" : "es");
      }
    }
    if (search && result.all_done()) {
      const auto entries = pf::campaign::search_from_result(spec, result);
      std::printf("march search (seed 0x%llx, budget %llu per set):\n",
                  static_cast<unsigned long long>(search_options.seed),
                  static_cast<unsigned long long>(
                      search_options.max_evaluations));
      for (const auto& entry : entries)
        std::printf("  %-16s %2dN vs greedy %2dN  %s%s  %s\n",
                    entry.set.c_str(), entry.ops_per_cell,
                    entry.greedy_ops_per_cell,
                    entry.success ? "solved" : "open",
                    entry.shorter_than_greedy ? ", SHORTER" : "",
                    entry.certificate_complete
                        ? "certificate: 1-minimal"
                        : "certificate: incomplete");
    }
    if (!report_path.empty()) {
      const std::string report = result.report(spec);
      if (report_path == "-") {
        std::printf("%s", report.c_str());
      } else {
        std::ofstream out(report_path, std::ios::trunc);
        out << report;
        if (!out) {
          std::fprintf(stderr, "error: cannot write report %s\n",
                       report_path.c_str());
          return 1;
        }
      }
    }
    return result.all_done() ? 0 : 4;
  } catch (const pf::CancelledError& e) {
    std::fprintf(stderr, "interrupted: %s (rerun to resume)\n", e.what());
    return pf::kExitInterrupted;
  } catch (const pf::ParseError& e) {
    std::fprintf(stderr, "invalid campaign: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
