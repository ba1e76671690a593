// The benchmark's four workloads. Each drives the libraries only through
// their public functions and times those calls from outside:
//
//   table1       campaign::run_campaign(table1_campaign()) at min(4, nproc)
//                threads: campaign dispatch, session reuse, parallel sweeps
//                and the completion search.
//   region_maps  the Figure 3 and Figure 4 maps, 25 x 24 each, through
//                analysis::sweep_region at 1 thread: pure per-point solver
//                work.
//   march        (a) the coverage matrix of the 13 standard march tests x
//                the Table 1 partial classes on a 64 x 64 array (plane
//                engine) and (b) search_march over the six standard target
//                sets: few passes over a large population against many
//                passes over tiny ones.
//   served       an in-process SweepServer driven by one closed-loop client:
//                distinct jobs once (misses), then verified cache hits.
//
// Every pass checks its outputs against goldens (Gate); a mismatch is a
// failed operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pfbench {

/// Deliberate corruptions for the benchmark's own self-test: each must be
/// counted as a failure by the matching gate.
enum class Mutation { kNone, kReport, kSearch, kReply };

/// The seed the search goldens were generated with.
constexpr std::uint64_t kDefaultSeed = 0x5EA12C4ULL;

struct Options {
  std::uint64_t seed = kDefaultSeed;  ///< drives search_march only
  double seconds = 10.0;  ///< time-based passes: stop once this has elapsed
  int fixed_passes = 0;   ///< > 0: run exactly this many passes instead
  bool smoke = false;     ///< tiny sizes (self-test)
  int threads = 1;        ///< table1 sweep workers, always >= 1
  Mutation mutation = Mutation::kNone;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, base of a ratio, caveat
};

/// Golden store: check() compares against the loaded value, or records the
/// actual value when generating goldens.
class Gate {
 public:
  Gate(std::map<std::string, std::string> goldens, bool record)
      : goldens_(std::move(goldens)), record_(record) {}

  /// True when `actual` matches the golden for `key` (always true while
  /// recording). A missing golden is a mismatch.
  bool check(const std::string& key, const std::string& actual);
  const std::map<std::string, std::string>& values() const { return goldens_; }

 private:
  std::map<std::string, std::string> goldens_;
  bool record_;
};

/// The part of a pass a timed unit belongs to: the workload's two phases
/// (phase_a_s, phase_b_s) or neither (counted in wall_s only).
enum class Phase { kA, kB, kOther };

struct WorkloadResult {
  std::string workload;
  std::string seed_note;  ///< whether --seed changes this workload
  // Every pass is cut into the same sequence of timed units: a campaign
  // job, a grid row, a march test or target set, a request round. A timing
  // is composed unit by unit (see phase_s), so a host stall that slows one
  // unit in one pass does not move it.
  std::vector<std::vector<double>> unit_s;  ///< [pass][unit] seconds
  std::vector<Phase> unit_phase;            ///< [unit], fixed by pass 0
  std::vector<double> setup_s;    ///< per pass: median of its set-ups
  // Samples are kept per pass, never per operation across passes, so the
  // benchmark's own memory barely grows with the number of passes.
  std::vector<double> op_ms;      ///< the current pass's unit operations
  /// Where the current pass's operations fall into groups of different
  /// kinds (op_ms indices one past each group); empty for one group.
  std::vector<size_t> op_group_end;
  std::vector<double> op_ms_p50;  ///< per pass: see run_passes
  std::vector<double> op_ms_p99;  ///< per pass: 99th percentile of op_ms
  double peak_rss_mb = 0.0;       ///< process peak at the end of the run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> named;  ///< the workload's own end-to-end metrics
  std::vector<Metric> layer;  ///< per-layer metrics (traced runs only)

  void fail(const std::string& message);
  /// Count one checked operation; `ok` false counts it as failed.
  void count(bool ok, const std::string& message);
  /// Record the current pass's next unit.
  void unit(Phase phase, double seconds);
  /// Sum over the units of `phase` of each unit's median over the passes.
  double phase_s(Phase phase) const;
  /// The same over every unit: the time of a typical pass.
  double wall_s() const;
  size_t passes() const { return unit_s.size(); }
};

WorkloadResult run_table1(const Options& options, Gate& gate, Tracer& tracer);
WorkloadResult run_region_maps(const Options& options, Gate& gate,
                               Tracer& tracer);
WorkloadResult run_march(const Options& options, Gate& gate, Tracer& tracer);
WorkloadResult run_served(const Options& options, Gate& gate, Tracer& tracer);

/// Golden generation only: cross-check the plane-engine coverage matrix
/// against the scalar reference engine on sampled victims. Returns the
/// number of disagreeing (test, class, victim) samples; `checked` receives
/// the number compared.
std::uint64_t coverage_scalar_crosscheck(bool smoke, std::uint64_t* checked);

}  // namespace pfbench
