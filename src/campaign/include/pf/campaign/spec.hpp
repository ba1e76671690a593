// A campaign: a DAG of sweep jobs plus in-process analysis jobs, the unit
// the CampaignRunner executes, journals and resumes. The ROADMAP's
// pf::campaign layer — the Table 1 driver, the completion search and
// every planned scenario item (corner matrices, fault populations) are
// expressed as producers of this one spec type.
//
// Two job kinds:
//
//   kSweep   a pf::service::JobSpec — the same wire-validated unit
//            pf_served runs — producing a RegionMap CSV, content-addressed
//            by JobSpec::cache_key() for cross-job dedup.
//   kCustom  an in-process function consuming its dependencies' results
//            (RegionMaps reconstructed from their canonical CSV, or
//            upstream custom payloads) and returning a JSON payload. Used
//            for analysis stages (partial-fault classification, completion
//            search). Not serializable: a spec FILE can only contain sweep
//            jobs; producers build custom jobs programmatically.
//
// Determinism note: a custom job always sees dependency maps
// reconstructed from their CSV bytes — never the richer in-memory map of
// a sweep that happened to run in the same process — so its output is
// identical whether the dependency was computed, deduped from the cache,
// or restored by a resume.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "pf/analysis/execution.hpp"
#include "pf/analysis/region.hpp"
#include "pf/service/job.hpp"
#include "pf/service/json.hpp"

namespace pf::campaign {

/// What a custom job sees of its dependencies.
class DepContext {
 public:
  virtual ~DepContext() = default;
  /// The RegionMap of a SWEEP dependency (CSV-reconstructed; empty solve
  /// stats). Throws pf::Error for an id that is not a declared dependency
  /// or not a sweep job.
  virtual const analysis::RegionMap& map(const std::string& job_id) const = 0;
  /// The payload of a CUSTOM dependency (what its function returned).
  /// Throws pf::Error for an id that is not a declared custom dependency.
  virtual const service::Json& payload(const std::string& job_id) const = 0;
  /// The campaign's one ExecutionPolicy (CampaignOptions::exec): threads,
  /// solver retry, engine plan, cancellation token and deadline for the
  /// experiments a job runs itself, e.g. a completion search. When the
  /// job's sweep dependencies share one row-family, session_family names
  /// it, so those experiments reuse the family's compiled session.
  virtual const analysis::ExecutionPolicy& exec() const = 0;
};

/// Body of a custom job. The returned JSON is the job's result: journaled
/// in its DONE record (so a resume restores it without re-running) and
/// visible to dependents via DepContext::payload. Throw to fail the job
/// (bounded retry, then terminal quarantine like any other job).
using CustomJobFn = std::function<service::Json(const DepContext&)>;

struct CampaignJob {
  enum class Kind { kSweep, kCustom };

  std::string id;  ///< unique, [A-Za-z0-9._-]{1,64} (journal/filename safe)
  Kind kind = Kind::kSweep;
  std::vector<std::string> deps;  ///< ids that must be kJobDone first

  service::JobSpec sweep;  ///< kSweep payload
  CustomJobFn custom;      ///< kCustom payload
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<CampaignJob> jobs;

  /// Reject malformed campaigns before anything runs: empty/duplicate/
  /// ill-formed ids, unknown or self dependencies, a custom job without a
  /// function, and dependency cycles (the error names the jobs on the
  /// cycle). Consults the dep_cycle injection site. Throws pf::Error.
  void validate() const;

  /// Indices of `jobs` in a deterministic topological order: among ready
  /// jobs, declaration order wins. Calls validate().
  std::vector<size_t> topo_order() const;

  /// Identity of this campaign for the journal header: folds every job's
  /// id, kind, dependencies and (for sweeps) result cache key. Custom
  /// jobs fold as opaque "custom" — the function itself cannot be
  /// fingerprinted, so a producer must keep a custom job's body
  /// deterministic for a given id if journals are to be resumed across
  /// processes (ours are: they are pure functions of their declared
  /// dependencies).
  uint64_t fingerprint() const;

  /// JSON encoding of a sweep-only campaign:
  ///   {"name": ..., "jobs": [{"id":..., "deps":[...], "job":{JobSpec}}]}
  /// Throws pf::Error if any job is kCustom (not serializable).
  service::Json to_json() const;

  /// Parse + validate a campaign document. JobSpec objects go through the
  /// same admission bounds as the wire (service::JobSpec::from_json).
  /// Throws pf::ParseError on malformed input; also runs validate().
  static CampaignSpec from_json(const service::Json& json,
                                const service::JobLimits& limits = {});

  /// from_json over a file's contents. Throws pf::Error when unreadable.
  static CampaignSpec load_file(const std::string& path,
                                const service::JobLimits& limits = {});
};

}  // namespace pf::campaign
