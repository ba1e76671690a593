// Generator for the paper's Table 1: "Partial faults observed in DRAM
// simulation" — one row per (FFM, open defect, floating line) whose fault
// analysis found a partial fault, with the completed FP (or "Not possible")
// and the complementary FFM the complementary defect would produce.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "pf/analysis/completion.hpp"
#include "pf/analysis/partial.hpp"

namespace pf::analysis {

struct Table1Row {
  faults::Ffm sim_ffm = faults::Ffm::kUnknown;  ///< simulated partial FFM
  faults::Ffm com_ffm = faults::Ffm::kUnknown;  ///< complementary-defect FFM
  dram::OpenSite site = dram::OpenSite::kNone;
  std::string initialized_voltage;  ///< the floating line's label
  bool completable = false;
  faults::FaultPrimitive completed; ///< valid when completable
  double min_r_def = 0.0;
  double band_coverage = 0.0;       ///< widest partial band / domain
};

struct Table1Options {
  /// Opens to analyze (the paper's simulated subset by default; Open 2 was
  /// not simulated there and Open 6 produced no Table 1 rows).
  std::vector<dram::OpenSite> sites = {
      dram::OpenSite::kCell,         dram::OpenSite::kPrecharge,
      dram::OpenSite::kBitLineOuter, dram::OpenSite::kBitLineMid,
      dram::OpenSite::kSenseAmp,     dram::OpenSite::kIoPath,
      dram::OpenSite::kWordLine};
  size_t r_points = 9;
  size_t u_points = 9;
  int max_prefix_ops = 3;
  size_t probe_u_points = 5;
  size_t fallback_windows = 4;

  /// Analyzed R_def ranges, mirroring the paper's per-defect figure axes
  /// and the capacitance each open isolates: cell-internal opens are
  /// analyzed up to 1 MOhm (paper Figure 4, 30 fF storage node);
  /// array/periphery opens up to 10 MOhm (90 fF bit line); the word-line
  /// open up to 1 GOhm — its gate node is a few fF, so the genuinely
  /// floating regime (no DC re-drive within a test) only starts near a
  /// gigaohm, matching the paper's "cannot be manipulated by operations".
  double r_min = 10e3;
  double r_max_cell = 1e6;
  double r_max_default = 10e6;
  double r_min_wordline = 100e3;
  double r_max_wordline = 1e9;

  /// Execution of generate_table1's sweeps and completion searches:
  /// exec.threads workers per sweep grid and per search, which splits over
  /// candidate prefixes (Table 1 rows are thread-count independent),
  /// exec.retry for every experiment, failed grid points
  /// degrading to Ffm::kSolveFailed cells (never classified as FFMs), and
  /// unsolvable completion probes rejecting candidates instead of aborting
  /// the catalogue. `exec.journal_path` is used as a path *prefix* here —
  /// one journal per (site, line, SOS) sweep. `exec.progress` reports each
  /// sweep's points individually. `exec.cancel` / `exec.deadline_seconds`
  /// bound the whole catalogue: the deadline is armed once on the token's
  /// shared state, so every sweep and completion probe shares one budget.
  /// campaign::table1_campaign runs everything under the campaign's own
  /// policy instead and reads only exec.threads (its sweep jobs' wire
  /// JobSpec::threads, honoured in socket mode).
  ExecutionPolicy exec;
};

/// The eight base sensitizing operation sequences of the #O <= 1 FP space.
std::vector<faults::Sos> base_soses();

/// Run the full analysis and return the table rows (ordered by FFM, then
/// open number).
std::vector<Table1Row> generate_table1(const dram::DramParams& params,
                                       const Table1Options& options);

/// Render in the paper's layout.
std::string format_table1(const std::vector<Table1Row>& rows);

}  // namespace pf::analysis
