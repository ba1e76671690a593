// CampaignRunner: executes a CampaignSpec's job DAG with robustness as
// the design center.
//
//   * One resumable campaign journal (pf/campaign/journal.hpp): per-job
//     BEGIN / DONE / FAILED records, so kill -9 at any point resumes
//     exactly where it died — DONE jobs are restored (sweeps from the
//     result cache by key, custom jobs from the journaled payload),
//     FAILED jobs stay quarantined, the interrupted job re-runs (its own
//     sweep journal resumes its completed grid points).
//   * Per-job failure isolation: a failing job gets max_job_attempts
//     bounded retries with exponential backoff; exhausting them records
//     kJobFailed with the error context, its transitive dependents are
//     skipped as kJobBlocked, and every independent job still runs to
//     completion. Only pf::CancelledError aborts the whole campaign.
//   * Cross-job dedup: two jobs with the same result fingerprint
//     (JobSpec::cache_key) compute once — via the persistent ResultCache
//     when a store is configured, via an in-memory memo always — and the
//     hit is journaled as such ("cached": true).
//   * Shared-prefix session reuse: sweep jobs in the same row-family
//     (defect topology + temperature) hand their compiled SosSession from
//     job to job through an analysis::SessionCache, snapshot cache intact.
//
// Jobs are dispatched in deterministic topological order, one at a time —
// per-job parallelism comes from the campaign's ExecutionPolicy::threads:
// inside sweep_region for sweep jobs, and inside the completion searches
// that custom jobs run under DepContext::exec() (split over candidates).
// That keeps the journal order and every result bit-identical run to run.
// With a socket_path configured, sweep jobs are instead submitted to a
// running pf_served (absorbing busy rejections via submit_job_wait);
// custom jobs always run in-process.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "pf/analysis/execution.hpp"
#include "pf/campaign/spec.hpp"
#include "pf/service/json.hpp"

namespace pf::campaign {

/// Failure-isolation state machine (DESIGN.md §12):
///
///   kJobPending -> kJobRunning -> kJobDone
///                       |    \-> (retry, bounded) -> kJobFailed
///   kJobPending -> kJobBlocked   (a dependency is kJobFailed/kJobBlocked)
enum class JobState { kJobPending, kJobRunning, kJobDone, kJobFailed,
                      kJobBlocked };

const char* job_state_name(JobState state);

struct JobResult {
  JobState state = JobState::kJobPending;
  std::string key;     ///< sweep jobs: 16-hex result cache key
  std::string sha256;  ///< sweep jobs: result content hash
  std::string csv;     ///< sweep jobs: the RegionMap CSV
  service::Json detail;  ///< DONE detail / FAILED error context (journaled)
  bool cached = false;   ///< deduped from the result cache / memo
  bool resumed = false;  ///< restored from the campaign journal
  int attempts = 0;      ///< execution attempts this run (0 when restored)
};

struct CampaignStats {
  size_t done = 0;
  size_t failed = 0;
  size_t blocked = 0;
  size_t dedup_hits = 0;     ///< sweep results served without computing
  size_t resumed = 0;        ///< jobs restored from the campaign journal
  size_t retries = 0;        ///< attempts beyond the first, over all jobs
  size_t journal_dropped = 0;      ///< corrupt journal rows dropped
  size_t journal_quarantined = 0;  ///< unreadable journals moved aside
  size_t session_hits = 0;   ///< SessionCache take() hits (shared prefix)
  size_t session_misses = 0;
};

/// Job-level progress event (the CLI's watch output).
struct CampaignEvent {
  enum class Kind { kBegin, kRetry, kDone, kFailed, kBlocked, kResumed };
  Kind kind = Kind::kBegin;
  std::string job;
  int attempt = 0;       ///< on kBegin/kRetry
  bool cached = false;   ///< on kDone
  std::string message;   ///< error context on kRetry/kFailed/kBlocked
  size_t finished = 0;   ///< jobs in a terminal state so far
  size_t total = 0;
};

struct CampaignOptions {
  /// Result store root (the pf_served layout: cache/ + jobs/). Empty: no
  /// persistent cache — dedup falls back to the in-memory memo and
  /// interrupted sweep jobs lose their point-level progress.
  std::string store_root;

  /// Campaign journal path. Empty: no job-level checkpointing.
  std::string journal_path;

  /// Restore journaled results instead of recomputing (on by default; off
  /// forces a cold re-run into the same journal).
  bool resume = true;

  /// Re-attempt journaled FAILED jobs on resume instead of keeping them
  /// terminally quarantined.
  bool retry_failed = false;

  /// The one ExecutionPolicy every local sweep job runs under (threads,
  /// solver retry, engine plan, cancellation, deadline), also handed to
  /// custom jobs as DepContext::exec() — the producers' completion searches
  /// run under it. Job-level wire knobs (JobSpec::threads etc.) apply only
  /// in socket mode, where the server owns execution. The policy's
  /// cancel/deadline bound the WHOLE campaign, custom jobs included
  /// (first-arm-wins, like generate_table1's multi-sweep budget).
  analysis::ExecutionPolicy exec;

  /// Bounded per-job retry: total attempts per job (>= 1) and the backoff
  /// before attempt k, backoff_ms * 2^(k-2) milliseconds.
  int max_job_attempts = 2;
  double backoff_ms = 0.0;

  /// Non-empty: submit sweep jobs to the pf_served at this socket instead
  /// of running them in-process (busy rejections absorbed with capped
  /// backoff). Custom jobs still run locally.
  std::string socket_path;

  /// Job-level progress hook.
  std::function<void(const CampaignEvent&)> on_event;
};

struct CampaignResult {
  std::map<std::string, JobResult> jobs;  ///< by job id
  CampaignStats stats;

  /// Every job reached kJobDone.
  bool all_done() const;

  /// Deterministic human/machine-readable summary: one line per job in
  /// topological order (id, state, key, sha / failure context), then the
  /// stats. Byte-identical for byte-identical outcomes — the smoke test's
  /// A/B artifact.
  std::string report(const CampaignSpec& spec) const;
};

/// Execute the campaign. Throws pf::Error on an invalid spec (including
/// dependency cycles), pf::CancelledError when the policy's token trips
/// (the journal keeps everything finished so far). Per-job failures do
/// NOT throw — they are isolated into kJobFailed/kJobBlocked states.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options);

}  // namespace pf::campaign
