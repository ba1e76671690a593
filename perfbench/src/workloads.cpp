#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>

#include "pf/analysis/region.hpp"
#include "pf/analysis/sos_runner.hpp"
#include "pf/campaign/producers.hpp"
#include "pf/campaign/runner.hpp"
#include "pf/march/coverage.hpp"
#include "pf/march/library.hpp"
#include "pf/march/search.hpp"
#include "pf/march/synthesis.hpp"
#include "pf/memsim/memory.hpp"
#include "pf/service/client.hpp"
#include "pf/service/server.hpp"
#include "pf/util/cancellation.hpp"
#include "pf/util/grid.hpp"
#include "pf/util/sha256.hpp"
#include "stats.hpp"

namespace pfbench {

namespace {

using namespace pf;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-up repetitions before every pass. The cheap set-ups take
/// microseconds, so each pass records the median of many repetitions.
constexpr int kSetupRepeats = 200;

template <typename Setup>
void time_setup(WorkloadResult& r, Setup&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  r.setup_s.push_back(median(samples));
}

/// The pass's typical operation latency: the median of op_ms, or, when the
/// operations fall into groups of different kinds, the median over the
/// groups of each group's median. (The four maps of region_maps cost 0.4 to
/// 1.8 ms a point; a plain median would sit in the gap between them.)
double op_p50(const WorkloadResult& r) {
  if (r.op_group_end.empty()) return percentile(r.op_ms, 50);
  std::vector<double> group_p50;
  size_t begin = 0;
  for (const size_t end : r.op_group_end) {
    group_p50.push_back(percentile(
        std::vector<double>(r.op_ms.begin() + begin, r.op_ms.begin() + end),
        50));
    begin = end;
  }
  return median(group_p50);
}

/// Time-based pass loop: at least one pass, then stop before a pass that
/// would end after `seconds` (or after exactly fixed_passes when that is
/// set). Each pass's operation latencies are reduced to its p50 and p99
/// before the next pass reuses op_ms. The peak RSS is read after the last
/// pass, so memory that grows from pass to pass shows in it.
template <typename Pass>
void run_passes(const Options& options, WorkloadResult& r, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  for (int i = 0;; ++i) {
    const Clock::time_point pass_start = Clock::now();
    r.op_ms.clear();
    r.op_group_end.clear();
    r.unit_s.emplace_back();
    pass(i);
    if (r.unit_s.back().size() != r.unit_phase.size())
      throw std::logic_error(r.workload + ": a pass's units differ from pass 0's");
    r.op_ms_p50.push_back(op_p50(r));
    r.op_ms_p99.push_back(percentile(r.op_ms, 99));
    if (options.fixed_passes > 0) {
      if (i + 1 >= options.fixed_passes) break;
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (seconds_between(start, now) + seconds_between(pass_start, now) >
        options.seconds)
      break;
  }
  r.peak_rss_mb = peak_rss_mb();
}

std::string prefix(const Options& options) {
  return options.smoke ? "smoke." : "";
}

/// Metric-name-safe slug: letters, digits, '_', '.', '-' only.
std::string slug(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

bool Gate::check(const std::string& key, const std::string& actual) {
  if (record_) {
    goldens_[key] = actual;
    return true;
  }
  const auto it = goldens_.find(key);
  return it != goldens_.end() && it->second == actual;
}

void WorkloadResult::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void WorkloadResult::count(bool ok, const std::string& message) {
  ++attempted;
  if (!ok) fail(message);
}

void WorkloadResult::unit(Phase phase, double seconds) {
  std::vector<double>& pass = unit_s.back();
  if (unit_s.size() == 1) {
    unit_phase.push_back(phase);
  } else if (pass.size() >= unit_phase.size() ||
             unit_phase[pass.size()] != phase) {
    throw std::logic_error(workload + ": a pass's units differ from pass 0's");
  }
  pass.push_back(seconds);
}

double WorkloadResult::phase_s(Phase phase) const {
  double sum = 0.0;
  std::vector<double> column;
  for (size_t u = 0; u < unit_phase.size(); ++u) {
    if (unit_phase[u] != phase) continue;
    column.clear();
    for (const std::vector<double>& pass : unit_s) column.push_back(pass.at(u));
    sum += median(column);
  }
  return sum;
}

double WorkloadResult::wall_s() const {
  return phase_s(Phase::kA) + phase_s(Phase::kB) + phase_s(Phase::kOther);
}

// ---------------------------------------------------------------- table1 --

namespace {

/// A campaign on_event hook that times each job from kBegin to kDone or
/// kFailed, records it as a "campaign" span under `parent` and hands the job
/// id and its duration to `done`.
std::function<void(const campaign::CampaignEvent&)> job_timer(
    Tracer& tracer, std::uint64_t parent,
    std::function<void(const std::string&, double)> done) {
  auto begun = std::make_shared<std::map<std::string, Clock::time_point>>();
  return [&tracer, parent, done = std::move(done),
          begun](const campaign::CampaignEvent& event) {
    using Kind = campaign::CampaignEvent::Kind;
    const Clock::time_point now = Clock::now();
    if (event.kind == Kind::kBegin) {
      (*begun)[event.job] = now;
      return;
    }
    if (event.kind != Kind::kDone && event.kind != Kind::kFailed) return;
    const auto it = begun->find(event.job);
    if (it == begun->end()) return;
    tracer.record(event.job, "campaign", parent, it->second, now);
    done(event.job, seconds_between(it->second, now));
  };
}

}  // namespace

WorkloadResult run_table1(const Options& options, Gate& gate, Tracer& tracer) {
  WorkloadResult r;
  r.workload = "table1";
  r.seed_note = "deterministic: --seed does not change this workload";

  analysis::Table1Options t1;
  if (options.smoke) {
    t1.sites = {dram::OpenSite::kBitLineOuter};
    t1.r_points = 3;
    t1.u_points = 3;
  }
  campaign::CampaignSpec spec;
  const std::string golden_key = prefix(options) + "table1.report_sha256";

  // Per-layer accumulators (traced runs).
  std::map<std::string, std::vector<double>> analysis_job_s;
  std::vector<double> longest_s;
  campaign::CampaignStats last_stats;

  run_passes(options, r, [&](int pass) {
    time_setup(r, [&] { spec = campaign::table1_campaign(t1); });
    const std::uint64_t pass_span =
        tracer.begin("table1 pass " + std::to_string(pass), "bench", 0);
    std::map<std::string, double> job_s;

    campaign::CampaignOptions co;
    co.exec.threads = options.threads;
    co.on_event = job_timer(tracer, pass_span,
                            [&](const std::string& job, double s) {
                              job_s[job] = s;
                              r.op_ms.push_back(s * 1e3);
                            });

    const Clock::time_point t0 = Clock::now();
    campaign::CampaignResult result = campaign::run_campaign(spec, co);
    const double wall = seconds_between(t0, Clock::now());
    tracer.end(pass_span);

    // One unit per job, in job-id order (a job that never ran counts 0 s),
    // plus the orchestration time between jobs.
    double job_sum = 0.0, longest = 0.0;
    for (const auto& [id, job] : result.jobs) {
      const auto it = job_s.find(id);
      const double s = it == job_s.end() ? 0.0 : it->second;
      const bool is_analysis = id.ends_with("-analysis");
      r.unit(is_analysis ? Phase::kB : Phase::kA, s);
      if (is_analysis) analysis_job_s[id].push_back(s);
      job_sum += s;
      longest = std::max(longest, s);
    }
    r.unit(Phase::kOther, wall - job_sum);
    longest_s.push_back(longest);
    last_stats = result.stats;

    for (const auto& [id, job] : result.jobs)
      r.count(job.state == campaign::JobState::kJobDone,
              "job " + id + " ended " + campaign::job_state_name(job.state));
    std::string report = result.report(spec);
    if (options.mutation == Mutation::kReport) report += "corrupted";
    r.count(gate.check(golden_key, pf::sha256_hex(report)),
            "table1 report digest differs from the golden");
  });
  r.named.push_back({"table1_s", r.wall_s(), "s",
                     "per-job medians over " + std::to_string(r.passes()) +
                         " runs at " + std::to_string(options.threads) +
                         " threads"});

  if (tracer.enabled()) {
    r.layer.push_back({"campaign.sweep_jobs_s", r.phase_s(Phase::kA), "s",
                       "summed sweep-job time per run"});
    r.layer.push_back({"campaign.analysis_jobs_s", r.phase_s(Phase::kB), "s",
                       "summed completion-search job time per run"});
    for (const auto& [job, samples] : analysis_job_s)
      r.layer.push_back({"campaign.job_s." + job, median(samples), "s", ""});
    r.layer.push_back({"campaign.longest_job_s", median(longest_s), "s",
                       "floor under any concurrent dispatch"});
    r.layer.push_back({"campaign.idle_s", r.phase_s(Phase::kOther), "s",
                       "table1_s minus summed job time"});
    r.layer.push_back({"campaign.session_hits",
                       double(last_stats.session_hits), "count", "per run"});
    r.layer.push_back({"campaign.session_misses",
                       double(last_stats.session_misses), "count", "per run"});
    r.layer.push_back({"campaign.dedup_hits", double(last_stats.dedup_hits),
                       "count", "per run"});
    r.layer.push_back({"campaign.retries", double(last_stats.retries),
                       "count", "per run"});

    // The same catalogue at one thread: the base of campaign.speedup_vs_1t.
    campaign::CampaignOptions serial;
    serial.exec.threads = 1;
    const std::uint64_t span = tracer.begin("table1 at 1 thread", "bench", 0);
    serial.on_event = job_timer(tracer, span, [](const std::string&, double) {});
    const Clock::time_point t0 = Clock::now();
    const campaign::CampaignResult result = campaign::run_campaign(spec, serial);
    const double t1s = seconds_between(t0, Clock::now());
    tracer.end(span);
    r.count(gate.check(golden_key, pf::sha256_hex(result.report(spec))),
            "table1 report at 1 thread differs from the golden");
    r.layer.push_back({"campaign.table1_1t_s", t1s, "s", "one run"});
  }
  return r;
}

// ----------------------------------------------------------- region_maps --

namespace {

struct MapDef {
  const char* name;
  dram::OpenSite site;
  const char* sos;
  bool figure4;
};

const MapDef kMaps[] = {
    {"fig3a", dram::OpenSite::kBitLineOuter, "1r1", false},
    {"fig3b", dram::OpenSite::kBitLineOuter, "1v [w0BL] r1v", false},
    {"fig4a", dram::OpenSite::kCell, "0r0", true},
    {"fig4b", dram::OpenSite::kCell, "[w1 w1 w0] r0", true},
};

/// The figure benches' axes: Figure 3 spans 10k..10M, Figure 4 30k..10M.
analysis::SweepSpec map_spec(const MapDef& def, bool smoke) {
  const size_t r_points = smoke ? 5 : 25;
  const size_t u_points = smoke ? 4 : 24;
  analysis::SweepSpec spec;
  spec.params = dram::DramParams{};
  spec.defect = dram::Defect::open(def.site, 1e6);
  spec.sos = faults::Sos::parse(def.sos);
  spec.r_axis = def.figure4 ? pf::logspace(30e3, 10e6, r_points)
                            : analysis::default_r_axis(r_points);
  spec.u_axis = analysis::default_u_axis(spec.params, u_points);
  return spec;
}

}  // namespace

WorkloadResult run_region_maps(const Options& options, Gate& gate,
                               Tracer& tracer) {
  WorkloadResult r;
  r.workload = "region_maps";
  r.seed_note = "deterministic: --seed does not change this workload";

  std::vector<analysis::SweepSpec> specs;
  const auto setup = [&] {
    specs.clear();
    for (const MapDef& def : kMaps) specs.push_back(map_spec(def, options.smoke));
  };
  setup();
  size_t grid_points = 0;
  for (const auto& spec : specs)
    grid_points += spec.r_axis.size() * spec.u_axis.size();

  std::map<std::string, std::vector<double>> sweep_s;
  size_t points_attempted = 0, points_failed = 0, retries = 0;
  std::vector<analysis::RegionMap> maps;

  run_passes(options, r, [&](int pass) {
    time_setup(r, setup);
    const std::uint64_t pass_span =
        tracer.begin("region_maps pass " + std::to_string(pass), "bench", 0);
    maps.clear();
    for (size_t m = 0; m < specs.size(); ++m) {
      // One unit per grid row, cut at the progress callback that completes
      // the row (the first row also carries the sweep's set-up), plus the
      // time after the last callback.
      const Phase phase = kMaps[m].figure4 ? Phase::kB : Phase::kA;
      const size_t rows = specs[m].r_axis.size();
      const Clock::time_point t0 = Clock::now();
      Clock::time_point last = t0, row_start = t0;
      analysis::ExecutionPolicy policy;
      policy.threads = 1;
      policy.progress = [&](size_t done, size_t total) {
        const Clock::time_point now = Clock::now();
        r.op_ms.push_back(ms_between(last, now));
        last = now;
        if (done * rows % total == 0) {
          r.unit(phase, seconds_between(row_start, now));
          row_start = now;
        }
      };
      const std::uint64_t span =
          tracer.begin(std::string("sweep_region ") + kMaps[m].name,
                       "analysis", pass_span);
      maps.push_back(analysis::sweep_region(specs[m], policy));
      const Clock::time_point t1 = Clock::now();
      tracer.end(span);
      r.unit(phase, seconds_between(row_start, t1));
      r.op_group_end.push_back(r.op_ms.size());
      sweep_s[kMaps[m].name].push_back(seconds_between(t0, t1));
    }
    tracer.end(pass_span);

    for (size_t m = 0; m < maps.size(); ++m) {
      const analysis::RegionMap& map = maps[m];
      const size_t n = map.grid().width() * map.grid().height();
      const size_t failed = map.failed_points();
      r.attempted += n;
      for (size_t k = 0; k < failed; ++k)
        r.fail(std::string(kMaps[m].name) + ": a grid point failed to solve");
      r.count(gate.check(prefix(options) + "region_maps." + kMaps[m].name +
                             ".csv_sha256",
                         pf::sha256_hex(map.to_csv())),
              std::string(kMaps[m].name) + " CSV digest differs from the golden");
      points_attempted += map.solve_stats().attempted;
      points_failed += map.solve_stats().failed;
      retries += map.solve_stats().retries;
    }
  });

  const double points_per_s = double(grid_points) / r.wall_s();
  r.named.push_back({"sweep_points_per_s", points_per_s, "1/s",
                     std::to_string(grid_points) + " grid points / wall_s, "
                     "per-row medians over " + std::to_string(r.passes()) +
                         " runs"});

  if (tracer.enabled()) {
    r.layer.push_back({"analysis.points_attempted", double(points_attempted),
                       "count", "all traced runs"});
    r.layer.push_back({"analysis.points_failed", double(points_failed),
                       "count", "all traced runs"});
    r.layer.push_back({"analysis.retries", double(retries), "count",
                       "all traced runs"});
    r.layer.push_back({"analysis.point_ms_p50", median(r.op_ms_p50), "ms",
                       "n=" + std::to_string(r.op_ms.size()) + " per run"});
    r.layer.push_back({"analysis.point_ms_p99", median(r.op_ms_p99), "ms",
                       "n=" + std::to_string(r.op_ms.size()) + " per run"});
    for (const MapDef& def : kMaps)
      r.layer.push_back({std::string("analysis.sweep_s.") + def.name,
                         median(sweep_s[def.name]), "s", ""});

    // Replay every grid point through SosSession::run, the per-point engine
    // call under sweep_region, to read the column's solver counters. Within
    // a row the session restores its post-init snapshot, counters included,
    // so only a row's first point solves (and is timed for) everything the
    // counters count. That holds from the second row on: the constructor
    // already powered up at the first row's R_def.
    std::vector<double> compile_ms, run_us;
    std::uint64_t steps = 0, nr = 0, rejected = 0, cold_nr = 0;
    double cold_s = 0.0;
    for (size_t m = 0; m < specs.size(); ++m) {
      const analysis::SweepSpec& spec = specs[m];
      const std::uint64_t map_span = tracer.begin(
          std::string("replay ") + kMaps[m].name, "bench", 0);
      dram::Defect defect = spec.defect;
      defect.resistance = spec.r_axis.front();
      const std::vector<dram::FloatingLine> lines =
          dram::floating_lines_for(defect, spec.params);
      const dram::FloatingLine& line = lines.at(spec.floating_line_index);

      const std::uint64_t ctor_span =
          tracer.begin("SosSession()", "dram", map_span);
      Clock::time_point t0 = Clock::now();
      analysis::SosSession session(spec.params, defect);
      compile_ms.push_back(ms_between(t0, Clock::now()));
      tracer.end(ctor_span);

      for (size_t iy = 0; iy < spec.r_axis.size(); ++iy) {
        for (size_t ix = 0; ix < spec.u_axis.size(); ++ix) {
          const std::uint64_t span =
              tracer.begin("SosSession::run", "analysis", map_span);
          t0 = Clock::now();
          faults::Ffm ffm = faults::Ffm::kSolveFailed;
          try {
            const analysis::SosOutcome out =
                session.run(spec.r_axis[iy], spec.params.sim, &line,
                            spec.u_axis[ix], spec.sos);
            ffm = out.faulty ? out.ffm : faults::Ffm::kUnknown;
          } catch (const std::exception& e) {
            r.fail(std::string("replay ") + kMaps[m].name + ": " + e.what());
          }
          const Clock::time_point t1 = Clock::now();
          tracer.end(span);
          run_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                               .count());
          const spice::SimStats& st = session.column().sim_stats();
          steps += st.steps;
          nr += st.nr_iterations;
          rejected += st.rejected_steps;
          if (iy > 0 && ix == 0 && ffm != faults::Ffm::kSolveFailed) {
            cold_s += seconds_between(t0, t1);
            cold_nr += st.nr_iterations;
          }
          r.count(ffm == maps[m].grid().at(ix, iy),
                  std::string("replay ") + kMaps[m].name +
                      " disagrees with sweep_region");
        }
      }
      tracer.end(map_span);
    }
    const std::string caveat =
        "counters restore with the column snapshot: a cold experiment's "
        "solver work per point";
    r.layer.push_back({"analysis.session_run_us_p50", percentile(run_us, 50),
                       "us", "n=" + std::to_string(run_us.size())});
    r.layer.push_back({"dram.session_compile_ms", median(compile_ms), "ms",
                       "n=" + std::to_string(compile_ms.size())});
    r.layer.push_back({"spice.steps", double(steps), "count", caveat});
    r.layer.push_back({"spice.nr_iterations", double(nr), "count", caveat});
    r.layer.push_back({"spice.rejected_steps", double(rejected), "count",
                       caveat});
    r.layer.push_back({"spice.nr_per_step",
                       steps ? double(nr) / double(steps) : 0.0, "ratio",
                       caveat});
    r.layer.push_back({"spice.host_ns_per_nr_iteration",
                       cold_nr ? cold_s * 1e9 / double(cold_nr) : 0.0, "ns",
                       "wall time / nr_iterations over each row's first "
                       "point, from the second row on; " + caveat});
  }
  return r;
}

// ----------------------------------------------------------------- march --

namespace {

std::vector<march::PopulationClass> classes_for(
    const std::vector<march::TargetFault>& targets) {
  std::vector<march::PopulationClass> classes;
  for (const march::TargetFault& t : targets)
    classes.push_back(t.coupling.has_value()
                          ? march::PopulationClass::coupled(*t.coupling, t.guard)
                          : march::PopulationClass::single(t.ffm, t.guard));
  return classes;
}

memsim::Geometry coverage_geometry(bool smoke) {
  return smoke ? memsim::Geometry{8, 8} : memsim::Geometry{64, 64};
}

const memsim::Geometry kSearchGeometry{4, 2};

/// Every field of the detection matrix, per-victim bits included.
void append_coverage(std::string& digest, const march::MarchTest& test,
                     const march::PopulationCoverage& coverage) {
  digest += test.name + "\n";
  for (const march::PopulationOutcome& po : coverage.classes) {
    const march::DetectionOutcome& o = po.outcome;
    digest += po.cls.name() + " " + std::to_string(o.detected_all) + " " +
              std::to_string(o.detected_count) + "/" +
              std::to_string(o.total_victims) + " " +
              std::to_string(o.first_escape) + " ";
    for (size_t i = 0; i < po.detected.size(); i += 4) {
      int nibble = 0;
      for (size_t b = 0; b < 4 && i + b < po.detected.size(); ++b)
        nibble |= po.detected[i + b] ? (1 << b) : 0;
      digest += "0123456789abcdef"[nibble];
    }
    digest += "\n";
  }
}

/// Re-verify a search result on the scalar reference engine: its detection
/// matrix must equal the plane engine's, and full detection of every target
/// must hold exactly when the search claims success.
bool scalar_verified(const march::MarchTest& test,
                     const std::vector<march::TargetFault>& targets,
                     bool claimed_success) {
  const std::vector<march::PopulationClass> classes = classes_for(targets);
  const march::PopulationCoverage scalar = march::evaluate_population(
      test, kSearchGeometry, classes, march::MemEngine::kScalar);
  const march::PopulationCoverage plane = march::evaluate_population(
      test, kSearchGeometry, classes, march::MemEngine::kPlane);
  bool all = !scalar.classes.empty();
  for (size_t c = 0; c < scalar.classes.size(); ++c) {
    if (scalar.classes[c].detected != plane.classes[c].detected) return false;
    all = all && scalar.classes[c].outcome.detected_all;
  }
  return all == claimed_success;
}

}  // namespace

WorkloadResult run_march(const Options& options, Gate& gate, Tracer& tracer) {
  WorkloadResult r;
  r.workload = "march";
  r.seed_note = options.seed == kDefaultSeed
                    ? "--seed drives search_march; default seed: results "
                      "gated on golden equality"
                    : "--seed drives search_march; held-out seed: results "
                      "gated on the scalar oracle and no longer than greedy";

  std::vector<march::MarchTest> tests;
  std::vector<march::PopulationClass> classes;
  std::vector<march::NamedTargetSet> sets;
  const auto setup = [&] {
    tests = march::standard_tests();
    classes = march::table1_partial_classes();
    sets = march::standard_target_sets();
  };
  const memsim::Geometry geometry = coverage_geometry(options.smoke);
  const std::uint64_t budget = options.smoke ? 500 : 20000;

  std::uint64_t march_passes = 0, cell_steps = 0, search_passes = 0;
  std::vector<double> cell_steps_per_s, search_passes_per_s;
  std::vector<march::SearchResult> last_results;

  run_passes(options, r, [&](int pass) {
    time_setup(r, setup);
    const std::uint64_t pass_span =
        tracer.begin("march pass " + std::to_string(pass), "bench", 0);

    // (a) coverage matrix: one population pass per test.
    std::string digest;
    std::uint64_t pass_cell_steps = 0;
    double coverage_s = 0.0;
    for (const march::MarchTest& test : tests) {
      const std::uint64_t span = tracer.begin(
          "evaluate_population " + test.name, "memsim", pass_span);
      const Clock::time_point t0 = Clock::now();
      const march::PopulationCoverage coverage = march::evaluate_population(
          test, geometry, classes, march::MemEngine::kPlane);
      const Clock::time_point t1 = Clock::now();
      tracer.end(span);
      coverage_s += seconds_between(t0, t1);
      r.unit(Phase::kA, seconds_between(t0, t1));
      r.op_ms.push_back(ms_between(t0, t1));
      march_passes += coverage.march_passes;
      pass_cell_steps += coverage.cell_steps;
      append_coverage(digest, test, coverage);
    }
    cell_steps += pass_cell_steps;
    cell_steps_per_s.push_back(double(pass_cell_steps) / coverage_s);

    // (b) search over the standard target sets.
    std::vector<march::SearchResult> results;
    double search_s = 0.0;
    std::uint64_t pass_search_passes = 0;
    for (const march::NamedTargetSet& set : sets) {
      march::SearchOptions so;
      so.synthesis.geometry = kSearchGeometry;
      so.synthesis.budget.seed = options.seed;
      so.synthesis.budget.max_evaluations = budget;
      const std::uint64_t span =
          tracer.begin("search_march " + set.name, "march", pass_span);
      const Clock::time_point t0 = Clock::now();
      results.push_back(march::search_march(set.targets, so));
      const Clock::time_point t1 = Clock::now();
      tracer.end(span);
      search_s += seconds_between(t0, t1);
      r.unit(Phase::kB, seconds_between(t0, t1));
      r.op_ms.push_back(ms_between(t0, t1));
      pass_search_passes +=
          results.back().evaluations + results.back().greedy.evaluations;
    }
    tracer.end(pass_span);
    search_passes += pass_search_passes;
    search_passes_per_s.push_back(double(pass_search_passes) / search_s);

    // Gates (untimed).
    r.count(gate.check(prefix(options) + "march.coverage_sha256",
                       pf::sha256_hex(digest)),
            "coverage matrix digest differs from the golden");
    if (options.mutation == Mutation::kSearch)
      results.back().test = march::MarchTest::parse("m(w0)", "corrupted");
    for (size_t s = 0; s < sets.size(); ++s) {
      const march::SearchResult& res = results[s];
      const std::string key =
          prefix(options) + "march.search." + slug(sets[s].name);
      r.count(scalar_verified(res.test, sets[s].targets, res.success),
              sets[s].name + ": search result fails the scalar oracle");
      const std::string ops = std::to_string(res.test.ops_per_cell());
      if (options.seed == kDefaultSeed) {
        r.count(gate.check(key + ".ops_per_cell", ops),
                sets[s].name + ": ops_per_cell " + ops + " differs from golden");
        r.count(gate.check(key + ".test", res.test.to_string()),
                sets[s].name + ": search test differs from golden");
      } else {
        r.count(!res.greedy.success ||
                    (res.success && res.test.ops_per_cell() <=
                                        res.greedy.test.ops_per_cell()),
                sets[s].name + ": search result longer than greedy");
      }
    }
    last_results = std::move(results);
  });

  const std::string per_unit =
      "per-call medians over " + std::to_string(r.passes()) + " runs";
  r.named.push_back({"coverage_s", r.phase_s(Phase::kA), "s", per_unit});
  r.named.push_back({"search_s", r.phase_s(Phase::kB), "s", per_unit});

  if (tracer.enabled()) {
    const double passes = double(r.passes());
    r.layer.push_back({"memsim.march_passes", double(march_passes) / passes,
                       "count", "per run"});
    r.layer.push_back({"memsim.cell_steps", double(cell_steps) / passes,
                       "count", "per run"});
    r.layer.push_back({"memsim.cell_steps_per_s", median(cell_steps_per_s),
                       "1/s", ""});
    r.layer.push_back({"march.search_passes", double(search_passes) / passes,
                       "count", "search + greedy evaluations per run"});
    r.layer.push_back({"march.search_passes_per_s",
                       median(search_passes_per_s), "1/s", ""});

    // Greedy synthesis alone, timed separately from the search it seeds.
    double greedy_s = 0.0;
    for (size_t s = 0; s < sets.size(); ++s) {
      const march::NamedTargetSet& set = sets[s];
      march::SynthesisOptions so;
      so.geometry = kSearchGeometry;
      so.strategy = march::SearchStrategy::kGreedy;
      const std::uint64_t span =
          tracer.begin("synthesize_march " + set.name, "march", 0);
      const Clock::time_point t0 = Clock::now();
      const march::SynthesisResult greedy =
          march::synthesize_march(set.targets, so);
      greedy_s += seconds_between(t0, Clock::now());
      tracer.end(span);
      r.count(greedy.success == last_results[s].greedy.success &&
                  greedy.test == last_results[s].greedy.test,
              set.name + ": greedy synthesis differs from search's seed");
    }
    r.layer.push_back({"march.greedy_s", greedy_s, "s", "six sets, one run"});
    int certified = 0;
    for (size_t s = 0; s < sets.size(); ++s) {
      r.layer.push_back({"march.ops_per_cell." + slug(sets[s].name),
                         double(last_results[s].test.ops_per_cell()), "count",
                         ""});
      certified += last_results[s].certificate.complete ? 1 : 0;
    }
    r.layer.push_back({"march.certified_sets", double(certified), "count", ""});
  }
  return r;
}

std::uint64_t coverage_scalar_crosscheck(bool smoke, std::uint64_t* checked) {
  const memsim::Geometry geometry = coverage_geometry(smoke);
  const std::vector<march::PopulationClass> classes =
      march::table1_partial_classes();
  const std::int64_t n = geometry.num_cells();
  // Corners, the first column's neighbours and a fixed stride through the
  // array: guards depend on bit-line and buffer state, so victims at the
  // edges and in the middle of a column are sampled alike.
  std::vector<std::int64_t> victims = {0, 1, geometry.num_columns - 1, n / 2, n - 1};
  for (std::int64_t v = 7; v < n; v += std::max<std::int64_t>(1, n / 8))
    victims.push_back(v);
  std::uint64_t mismatches = 0;
  *checked = 0;
  for (const march::MarchTest& test : march::standard_tests()) {
    const march::PopulationCoverage plane = march::evaluate_population(
        test, geometry, classes, march::MemEngine::kPlane);
    for (size_t c = 0; c < classes.size(); ++c) {
      for (const std::int64_t v : victims) {
        memsim::Memory memory(geometry);
        memory.inject({v, classes[c].ffm, classes[c].guard});
        const bool scalar = march::run_march(test, memory, memory.size()).detected;
        mismatches += scalar != plane.classes[c].detected[size_t(v)] ? 1 : 0;
        ++*checked;
      }
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------- served --

namespace {

/// K distinct small sweeps: four sites with a floating line, two R sizes.
std::vector<service::JobSpec> served_jobs(bool smoke) {
  std::vector<service::JobSpec> jobs;
  const int sites[] = {4, 6, 1, 9};
  const int count = smoke ? 2 : 8;
  for (int i = 0; i < count; ++i) {
    service::JobSpec job;
    job.defect_kind = "open";
    job.open_site = sites[i % 4];
    job.r_points = 2 + size_t(i / 4) % 2;
    job.u_points = 2;
    job.threads = 1;
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace

WorkloadResult run_served(const Options& options, Gate& gate, Tracer& tracer) {
  WorkloadResult r;
  r.workload = "served";
  r.seed_note = "deterministic: --seed does not change this workload";

  const std::vector<service::JobSpec> jobs = served_jobs(options.smoke);
  const size_t min_hits = options.smoke ? 20 : 1000;
  std::vector<double> miss_ms;
  service::ServerStats totals;
  size_t quarantined = 0;

  // The socket and store live in the current directory; run.py starts each
  // workload in its own directory under .bench_work/.
  const std::string socket_path = "pf_bench.sock";
  const std::string store = "pf_bench_store";

  run_passes(options, r, [&](int pass) {
    // Set-up: a fresh store, server start with cache recovery. Each run
    // starts cold so its first K submits are misses.
    std::filesystem::remove_all(store);
    std::filesystem::remove(socket_path);
    service::ServerConfig config;
    config.socket_path = socket_path;
    config.store_root = store;
    config.job_workers = 2;
    config.queue_limit = 16;
    pf::CancellationToken token;
    const Clock::time_point s0 = Clock::now();
    auto server = std::make_unique<service::SweepServer>(config, token);
    server->start();
    r.setup_s.push_back(seconds_between(s0, Clock::now()));

    const std::uint64_t pass_span =
        tracer.begin("served pass " + std::to_string(pass), "bench", 0);
    const auto submit = [&](const service::JobSpec& job, double* ms) {
      const std::uint64_t span =
          tracer.begin("submit_job " + job.describe(), "service", pass_span);
      const Clock::time_point t0 = Clock::now();
      service::SubmitOutcome out = service::submit_job(socket_path, job);
      *ms = ms_between(t0, Clock::now());
      tracer.end(span);
      return out;
    };

    // Units: each miss, then each round of one hit per job.
    std::vector<std::string> miss_sha(jobs.size());
    for (size_t k = 0; k < jobs.size(); ++k) {
      double ms = 0.0;
      const service::SubmitOutcome out = submit(jobs[k], &ms);
      miss_ms.push_back(ms);
      r.unit(Phase::kA, ms / 1e3);
      miss_sha[k] = out.sha256;
      r.count(out.status == service::SubmitStatus::kResult && !out.cached,
              "miss " + jobs[k].describe() + ": not a fresh result (" +
                  out.error_message + ")");
      r.count(gate.check(prefix(options) + "served.job" + std::to_string(k) +
                             ".sha256",
                         out.sha256),
              "miss " + jobs[k].describe() + ": digest differs from golden");
    }
    size_t hits = 0;
    while (hits < min_hits) {
      double round_s = 0.0;
      for (size_t k = 0; k < jobs.size(); ++k, ++hits) {
        service::JobSpec job = jobs[k];
        if (options.mutation == Mutation::kReply && hits == 0)
          job.r_points = 100;  // over the admission bound: kInvalid reply
        double ms = 0.0;
        const service::SubmitOutcome out = submit(job, &ms);
        r.op_ms.push_back(ms);
        round_s += ms / 1e3;
        r.count(out.status == service::SubmitStatus::kResult && out.cached &&
                    out.sha256 == miss_sha[k],
                "hit " + jobs[k].describe() + ": not the verified cached "
                "result (" + out.error_message + ")");
      }
      r.unit(Phase::kB, round_s);
    }
    tracer.end(pass_span);

    const service::ServerStats stats = server->stats();
    totals.completed += stats.completed;
    totals.cache_hits_served += stats.cache_hits_served;
    totals.rejected_queue_full += stats.rejected_queue_full;
    quarantined += server->cache().stats().quarantined;
    server->stop();
  });
  std::filesystem::remove_all(store);
  std::filesystem::remove(socket_path);

  const std::string hits_note = "median of " +
                                std::to_string(r.op_ms_p50.size()) +
                                " runs, n=" + std::to_string(r.op_ms.size()) +
                                " per run";
  r.named.push_back({"hit_ms_p50", median(r.op_ms_p50), "ms", hits_note});
  r.named.push_back({"hit_ms_p99", median(r.op_ms_p99), "ms", hits_note});
  r.named.push_back({"miss_ms_p50", percentile(miss_ms, 50), "ms",
                     "n=" + std::to_string(miss_ms.size())});

  if (tracer.enabled()) {
    const double submits =
        double(totals.completed + totals.cache_hits_served);
    r.layer.push_back({"service.completed", double(totals.completed), "count",
                       "all traced runs"});
    r.layer.push_back({"service.cache_hits_served",
                       double(totals.cache_hits_served), "count",
                       "all traced runs"});
    r.layer.push_back({"service.rejected_queue_full",
                       double(totals.rejected_queue_full), "count",
                       "all traced runs"});
    r.layer.push_back({"service.cache_quarantined", double(quarantined),
                       "count", "all traced runs"});
    r.layer.push_back({"service.hit_ms_p99", median(r.op_ms_p99), "ms",
                       hits_note});
    r.layer.push_back({"service.miss_ms_p50", percentile(miss_ms, 50), "ms",
                       "n=" + std::to_string(miss_ms.size())});
    r.layer.push_back({"service.hit_rate",
                       submits > 0 ? double(totals.cache_hits_served) / submits
                                   : 0.0,
                       "ratio", ""});
  }
  return r;
}

}  // namespace pfbench
