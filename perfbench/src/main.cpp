// pf_perfbench: the repository benchmark program (see perfbench/README.md).
//
//   pf_perfbench --workload W --seed N --seconds S --trace 0|1
//                --goldens FILE [--trace-out FILE] [--smoke]
//                [--mutate report|search|reply]
//                [--source-digest HEX] [--git-commit HEX]
//   pf_perfbench --generate-goldens FILE
//
// Prints provenance, every metric by name with its unit, then as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every output matched its golden, 1 on any failed
// operation, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "provenance.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace pfbench;

using WorkloadFn = WorkloadResult (*)(const Options&, Gate&, Tracer&);

struct WorkloadDef {
  const char* name;
  WorkloadFn fn;
  int traced_passes;  ///< passes per side (untraced, traced) in --trace 1
};

const WorkloadDef kWorkloads[] = {
    {"table1", run_table1, 1},
    {"region_maps", run_region_maps, 1},
    {"march", run_march, 1},
    {"served", run_served, 3},
};

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::map<std::string, std::string> load_goldens(const std::string& path,
                                                bool* ok) {
  std::map<std::string, std::string> goldens;
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) continue;
    goldens[line.substr(0, eq)] = line.substr(eq + 3);
  }
  return goldens;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

void print_metric(const std::string& scope, const Metric& m) {
  std::printf("metric %-12s %-36s %14s %-6s %s\n", scope.c_str(),
              m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str(),
              m.note.c_str());
}

void print_failures(const WorkloadResult& r) {
  for (const std::string& f : r.failures)
    std::printf("FAIL %s: %s\n", r.workload.c_str(), f.c_str());
  if (r.failed > r.failures.size())
    std::printf("FAIL %s: ... %llu failures in total\n", r.workload.c_str(),
                static_cast<unsigned long long>(r.failed));
}

/// The end-to-end metrics every workload reports (BENCHMARK.json's
/// end_to_end list); what each means per workload is in README.md.
std::vector<Metric> end_to_end(const WorkloadResult& r) {
  const std::string passes = std::to_string(r.passes()) + " runs";
  const std::string units = "sum of " + std::to_string(r.unit_phase.size()) +
                            " per-unit medians over " + passes;
  return {
      {"setup_s", median(r.setup_s), "s", "median of " + passes},
      {"wall_s", r.wall_s(), "s", units},
      {"phase_a_s", r.phase_s(Phase::kA), "s", units},
      {"phase_b_s", r.phase_s(Phase::kB), "s", units},
      {"op_ms_p50", median(r.op_ms_p50), "ms",
       "median of " + passes + ", n=" + std::to_string(r.op_ms.size()) +
           " per run"},
      {"peak_rss_mb", r.peak_rss_mb, "MB", "process peak at the end"},
  };
}

void print_result_line(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << fmt(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void report_workload(const WorkloadResult& r) {
  std::printf("workload %s: %s\n", r.workload.c_str(), r.seed_note.c_str());
  for (const Metric& m : end_to_end(r)) print_metric(r.workload, m);
  for (const Metric& m : r.named) print_metric(r.workload, m);
  const double error_rate =
      r.attempted ? double(r.failed) / double(r.attempted) : 0.0;
  print_metric(r.workload,
               {"error_rate", error_rate, "ratio",
                std::to_string(r.failed) + " failed of " +
                    std::to_string(r.attempted) + " attempted"});
  print_failures(r);
}

int generate_goldens(const std::string& path) {
  Gate gate({}, /*record=*/true);
  Tracer off(false);
  for (const bool smoke : {false, true}) {
    Options options;
    options.fixed_passes = 1;
    options.smoke = smoke;
    options.threads = 1;
    for (const WorkloadDef& w : kWorkloads) {
      std::fprintf(stderr, "generating %s%s goldens\n", smoke ? "smoke " : "",
                   w.name);
      const WorkloadResult r = w.fn(options, gate, off);
      if (r.failed > 0) {
        print_failures(r);
        return 1;
      }
    }
  }
  std::uint64_t checked = 0;
  const std::uint64_t mismatches = coverage_scalar_crosscheck(false, &checked);
  std::fprintf(stderr, "coverage cross-check vs scalar engine: %llu of %llu "
               "sampled victims disagree\n",
               static_cast<unsigned long long>(mismatches),
               static_cast<unsigned long long>(checked));
  if (mismatches != 0) return 1;

  std::ofstream out(path);
  out << "# Goldens for pf_perfbench, generated by\n"
      << "#   python3 perfbench/run.py --generate-goldens\n"
      << "# (Release build, table1 at 1 thread; every output is thread-count\n"
      << "# independent). march.coverage_sha256 was cross-checked against\n"
      << "# the scalar engine on " << checked
      << " sampled (test, class, victim) triples: 0 disagree.\n";
  for (const auto& [key, value] : gate.values())
    out << key << " = " << value << "\n";
  return out ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table1|region_maps|march|served|all "
               "--seed N --seconds S --trace 0|1 --goldens FILE\n"
               "          [--trace-out FILE] [--smoke] "
               "[--mutate report|search|reply]\n"
               "          [--source-digest HEX] [--git-commit HEX]\n"
               "       %s --generate-goldens FILE\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, goldens_path, trace_out, digest, commit;
  Options options;
  int trace = 0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool value = i + 1 < argc;
    if (arg == "--workload" && value) {
      workload = argv[++i];
    } else if (arg == "--seed" && value) {
      options.seed = std::strtoull(argv[++i], nullptr, 0);
      have_seed = true;
    } else if (arg == "--seconds" && value) {
      options.seconds = std::atof(argv[++i]);
      have_seconds = true;
    } else if (arg == "--trace" && value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--goldens" && value) {
      goldens_path = argv[++i];
    } else if (arg == "--trace-out" && value) {
      trace_out = argv[++i];
    } else if (arg == "--source-digest" && value) {
      digest = argv[++i];
    } else if (arg == "--git-commit" && value) {
      commit = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--mutate" && value) {
      const std::string m = argv[++i];
      options.mutation = m == "report"   ? Mutation::kReport
                         : m == "search" ? Mutation::kSearch
                         : m == "reply"  ? Mutation::kReply
                                         : Mutation::kNone;
      if (options.mutation == Mutation::kNone) return usage(argv[0]);
    } else if (arg == "--generate-goldens" && value) {
      return generate_goldens(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || goldens_path.empty() || !have_seed ||
      !have_seconds || options.seconds <= 0 || (trace != 0 && trace != 1))
    return usage(argv[0]);
  if (workload != "all" && find_workload(workload) == nullptr)
    return usage(argv[0]);

  bool goldens_ok = false;
  Gate gate(load_goldens(goldens_path, &goldens_ok), /*record=*/false);
  if (!goldens_ok) {
    std::fprintf(stderr, "cannot read goldens %s\n", goldens_path.c_str());
    return 2;
  }

  // Thread counts are always explicit and >= 1: a count <= 0 would be
  // resolved to the hardware thread count by the library.
  const Provenance prov = collect_provenance(digest, commit);
  options.threads = std::clamp(prov.nproc, 1, 4);
  std::printf("provenance %s\n", to_json(prov).c_str());
  if (!prov.release)
    std::printf("WARNING: build type '%s' is not Release; timings are not "
                "comparable\n", prov.build_type.c_str());
  std::printf("seed %llu (drives march search_march only; table1, "
              "region_maps and served are deterministic)\n",
              static_cast<unsigned long long>(options.seed));

  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;

  if (trace == 0 && workload != "all") {
    Tracer off(false);
    const WorkloadResult r = find_workload(workload)->fn(options, gate, off);
    report_workload(r);
    attempted = r.attempted;
    failed = r.failed;
    metrics = end_to_end(r);
  } else if (trace == 0) {
    // Every workload in turn, each for --seconds: the one-command view of
    // every workload's own end-to-end metrics.
    for (const WorkloadDef& w : kWorkloads) {
      Tracer off(false);
      const WorkloadResult r = w.fn(options, gate, off);
      report_workload(r);
      attempted += r.attempted;
      failed += r.failed;
      for (const Metric& m : r.named) metrics.push_back(m);
      metrics.push_back({r.workload + ".setup_s", median(r.setup_s), "s", ""});
      metrics.push_back({r.workload + ".error_rate",
                         r.attempted ? double(r.failed) / double(r.attempted)
                                     : 0.0,
                         "ratio", ""});
    }
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "process peak"});
  } else {
    // The traced run covers every layer, so it runs all four workloads
    // (the named one first): each once untraced and once traced with the
    // same pass count, which gives trace_overhead per workload.
    std::vector<const WorkloadDef*> order = {find_workload(workload == "all"
                                                               ? "table1"
                                                               : workload)};
    for (const WorkloadDef& w : kWorkloads)
      if (&w != order.front()) order.push_back(&w);

    Tracer tracer(true);
    for (const WorkloadDef* w : order) {
      Options fixed = options;
      fixed.fixed_passes = options.smoke ? 1 : w->traced_passes;
      Tracer off(false);
      const WorkloadResult plain = w->fn(fixed, gate, off);
      const WorkloadResult traced = w->fn(fixed, gate, tracer);
      report_workload(traced);
      for (const Metric& m : traced.layer) {
        print_metric(w->name, m);
        metrics.push_back(m);
      }
      const double base = plain.wall_s();
      const Metric overhead{std::string("trace_overhead.") + w->name,
                            traced.wall_s() / base, "ratio",
                            "traced / untraced wall_s, base " + fmt(base) +
                                " s"};
      print_metric(w->name, overhead);
      metrics.push_back(overhead);
      if (std::string(w->name) == "table1") {
        const auto t1 = std::find_if(
            traced.layer.begin(), traced.layer.end(),
            [](const Metric& m) { return m.name == "campaign.table1_1t_s"; });
        const Metric speedup{"campaign.speedup_vs_1t",
                             t1 == traced.layer.end() ? 0.0 : t1->value / base,
                             "ratio",
                             "1-thread table1_s / " +
                                 std::to_string(options.threads) +
                                 "-thread table1_s " + fmt(base) + " s"};
        print_metric(w->name, speedup);
        metrics.push_back(speedup);
      }
      attempted += plain.attempted + traced.attempted;
      failed += plain.failed + traced.failed;
      print_failures(plain);
    }
    for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
      const Metric self{"self_s." + layer, seconds, "s",
                        "span time minus child spans"};
      print_metric("trace", self);
      metrics.push_back(self);
    }
    if (!trace_out.empty()) {
      if (tracer.write_trace_events(trace_out)) {
        std::printf("trace events: %s (%zu spans)\n", trace_out.c_str(),
                    tracer.spans().size());
      } else {
        std::printf("FAIL trace: cannot write %s\n", trace_out.c_str());
        ++failed;
      }
    }
  }

  print_result_line(failed == 0, std::max<std::uint64_t>(attempted, 1), failed,
                    metrics);
  return failed == 0 ? 0 : 1;
}
