#include "pf/campaign/runner.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "pf/analysis/session_cache.hpp"
#include "pf/campaign/fault_injection.hpp"
#include "pf/campaign/journal.hpp"
#include "pf/service/cache.hpp"
#include "pf/service/client.hpp"
#include "pf/util/error.hpp"
#include "pf/util/log.hpp"
#include "pf/util/sha256.hpp"

namespace pf::campaign {
namespace {

using service::Json;
using service::JsonObject;

Json stats_to_json(const analysis::SweepStats& stats) {
  JsonObject obj;
  obj["attempted"] = Json(stats.attempted);
  obj["solved"] = Json(stats.solved);
  obj["failed"] = Json(stats.failed);
  obj["retries"] = Json(stats.retries);
  obj["resumed"] = Json(stats.resumed);
  obj["journal_dropped"] = Json(stats.journal_dropped);
  obj["journal_quarantined"] = Json(stats.journal_quarantined);
  return Json(std::move(obj));
}

/// Row-family of a sweep job: everything that affects circuit COMPILATION
/// (defect topology + process parameters), nothing that is restamped per
/// experiment (resistance, SOS, engine options, initial voltages). Jobs
/// in the same family hand one compiled SosSession to each other.
std::string session_family(const service::JobSpec& job) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@T%.6f", job.temperature_c);
  return job.defect_kind + "#" + std::to_string(job.open_site) + buf;
}

/// One campaign execution. A class only to share state between the
/// per-job helpers; lifetime is the run_campaign call.
class Runner {
 public:
  Runner(const CampaignSpec& spec, const CampaignOptions& options)
      : spec_(spec), options_(options) {}

  CampaignResult run() {
    const std::vector<size_t> order = spec_.topo_order();  // validates

    if (!options_.store_root.empty()) {
      store_ = std::make_unique<service::ResultCache>(options_.store_root);
      store_->recover();
    }

    uint64_t next_seq = 1;
    std::map<std::string, CampaignJournal::Record> restored;
    if (!options_.journal_path.empty()) {
      if (options_.resume) {
        const CampaignJournal::LoadResult loaded =
            CampaignJournal::load(options_.journal_path, spec_);
        restored = loaded.terminal;
        next_seq = loaded.max_seq + 1;
        result_.stats.journal_dropped = loaded.dropped;
        if (loaded.quarantined) ++result_.stats.journal_quarantined;
        journal_was_clean_ = loaded.clean_end;
        if (loaded.dropped > 0)
          PF_LOG_WARN("campaign journal " << options_.journal_path
                                          << ": dropped " << loaded.dropped
                                          << " corrupt row(s); affected jobs "
                                          << "re-run");
        for (const std::string& job : loaded.interrupted)
          PF_LOG_INFO("campaign: job " << job
                                       << " was interrupted; re-running");
      }
      journal_ = std::make_unique<CampaignJournal>(options_.journal_path,
                                                   spec_, next_seq);
    }

    exec_ = options_.exec;
    if (!exec_.session_cache)
      exec_.session_cache = std::make_shared<analysis::SessionCache>();

    total_ = spec_.jobs.size();
    for (const size_t ji : order) run_one(spec_.jobs[ji], restored);

    const analysis::SessionCache::Stats ss = exec_.session_cache->stats();
    result_.stats.session_hits = ss.hits;
    result_.stats.session_misses = ss.misses;
    // Mark the journal cleanly complete — unless this was a fully restored
    // rerun of an already-clean journal (don't stack duplicate trailers).
    if (journal_ && !(journal_was_clean_ && journal_->records_appended() == 0))
      journal_->finalize();
    return std::move(result_);
  }

 private:
  void emit(CampaignEvent::Kind kind, const std::string& job, int attempt,
            bool cached, const std::string& message) {
    if (!options_.on_event) return;
    CampaignEvent event;
    event.kind = kind;
    event.job = job;
    event.attempt = attempt;
    event.cached = cached;
    event.message = message;
    event.finished = finished_;
    event.total = total_;
    options_.on_event(event);
  }

  void run_one(const CampaignJob& job,
               const std::map<std::string, CampaignJournal::Record>& restored) {
    JobResult& jr = result_.jobs[job.id];

    // Failure isolation: a dependency that is not kJobDone blocks this job
    // (and, transitively, its own dependents) — nothing else is touched.
    for (const std::string& dep : job.deps) {
      const JobResult& dr = result_.jobs[dep];
      if (dr.state == JobState::kJobDone) continue;
      jr.state = JobState::kJobBlocked;
      JsonObject detail;
      detail["blocked_by"] = Json(dep);
      jr.detail = Json(std::move(detail));
      ++result_.stats.blocked;
      ++finished_;
      emit(CampaignEvent::Kind::kBlocked, job.id, 0, false,
           "dependency " + dep + " is " + job_state_name(dr.state));
      return;
    }

    // Resume: restore the journaled terminal state when possible.
    const auto it = restored.find(job.id);
    if (it != restored.end()) {
      const CampaignJournal::Record& rec = it->second;
      if (rec.event == CampaignJournal::Event::kFailed &&
          !options_.retry_failed) {
        jr.state = JobState::kJobFailed;  // terminal quarantine survives
        jr.detail = rec.detail;
        jr.resumed = true;
        ++result_.stats.failed;
        ++result_.stats.resumed;
        ++finished_;
        emit(CampaignEvent::Kind::kFailed, job.id, 0, false,
             "quarantined (journaled failure: " +
                 rec.detail.string_or("error", "?") + ")");
        return;
      }
      if (rec.event == CampaignJournal::Event::kDone &&
          restore_done(job, rec, jr)) {
        jr.state = JobState::kJobDone;
        jr.resumed = true;
        ++result_.stats.done;
        ++result_.stats.resumed;
        ++finished_;
        emit(CampaignEvent::Kind::kResumed, job.id, 0, jr.cached, "");
        return;
      }
      // DONE but not restorable (e.g. the store is gone): fall through and
      // recompute — the journal is a checkpoint, not an oracle.
    }

    jr.state = JobState::kJobRunning;
    if (journal_) journal_->begin(job.id);
    const int max_attempts = std::max(1, options_.max_job_attempts);
    std::string last_error;
    bool ok = false;
    Json done_detail;
    for (int attempt = 1; attempt <= max_attempts && !ok; ++attempt) {
      jr.attempts = attempt;
      if (attempt > 1) {
        ++result_.stats.retries;
        emit(CampaignEvent::Kind::kRetry, job.id, attempt, false, last_error);
        if (options_.backoff_ms > 0) {
          const double ms =
              options_.backoff_ms * double(1 << (attempt - 2 > 30 ? 30 : attempt - 2));
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
        }
      } else {
        emit(CampaignEvent::Kind::kBegin, job.id, attempt, false, "");
      }
      try {
        // Deterministic fault injection: fail a matching attempt before
        // any real work — the retry/quarantine path under test.
        if (testing::should_fail(testing::kJobFailOnce, job.id))
          throw pf::Error("injected job failure (job_fail_once)");
        done_detail = job.kind == CampaignJob::Kind::kSweep
                          ? execute_sweep(job, jr)
                          : execute_custom(job, jr);
        ok = true;
      } catch (const pf::CancelledError&) {
        // Campaign-level abort: the BEGIN record (no terminal) marks this
        // job interrupted; everything finished earlier is journaled.
        throw;
      } catch (const std::exception& e) {
        last_error = e.what();
      }
    }
    if (ok) {
      if (journal_) journal_->done(job.id, done_detail);
      jr.state = JobState::kJobDone;
      jr.detail = done_detail;
      ++result_.stats.done;
      ++finished_;
      emit(CampaignEvent::Kind::kDone, job.id, jr.attempts, jr.cached, "");
    } else {
      // Retry budget exhausted: terminal quarantine with error context.
      JsonObject detail;
      detail["error"] = Json(last_error);
      detail["attempts"] = Json(jr.attempts);
      Json failed_detail(std::move(detail));
      if (journal_) journal_->failed(job.id, failed_detail);
      jr.state = JobState::kJobFailed;
      jr.detail = std::move(failed_detail);
      ++result_.stats.failed;
      ++finished_;
      emit(CampaignEvent::Kind::kFailed, job.id, jr.attempts, false,
           last_error);
    }
  }

  /// Restore a journaled DONE job. Sweeps need the result bytes back
  /// (memo, then the store); custom jobs carry their payload in the
  /// record itself. Returns false when the bytes are gone — recompute.
  bool restore_done(const CampaignJob& job, const CampaignJournal::Record& rec,
                    JobResult& jr) {
    if (job.kind == CampaignJob::Kind::kCustom) {
      jr.detail = rec.detail;
      return true;
    }
    const uint64_t key = job.sweep.cache_key();
    jr.key = service::key_hex(key);
    jr.cached = rec.detail.bool_or("cached", false);
    const auto mit = memo_.find(key);
    if (mit != memo_.end()) {
      jr.csv = mit->second.first;
      jr.sha256 = mit->second.second;
      jr.detail = rec.detail;
      return true;
    }
    if (store_) {
      std::string csv;
      Json manifest;
      if (store_->get(key, &csv, &manifest)) {
        jr.sha256 = pf::sha256_hex(csv);
        jr.csv = std::move(csv);
        jr.detail = rec.detail;
        memo_[key] = {jr.csv, jr.sha256};
        return true;
      }
    }
    return false;
  }

  /// Run (or dedup) one sweep job; returns the DONE detail.
  Json execute_sweep(const CampaignJob& job, JobResult& jr) {
    const uint64_t key = job.sweep.cache_key();
    jr.key = service::key_hex(key);

    // Cross-job dedup: identical fingerprints compute once per campaign.
    // The in-memory memo covers store-less runs and saves the disk read;
    // the store covers previous campaigns and crashed runs.
    const auto mit = memo_.find(key);
    if (mit != memo_.end()) {
      jr.csv = mit->second.first;
      jr.sha256 = mit->second.second;
      jr.cached = true;
      ++result_.stats.dedup_hits;
      return done_detail(jr);
    }
    if (store_) {
      std::string csv;
      Json manifest;
      if (store_->get(key, &csv, &manifest)) {
        jr.sha256 = pf::sha256_hex(csv);
        jr.csv = std::move(csv);
        jr.cached = true;
        ++result_.stats.dedup_hits;
        memo_[key] = {jr.csv, jr.sha256};
        return done_detail(jr);
      }
    }

    if (!options_.socket_path.empty()) {
      // Remote mode: the pf_served owns execution (and its own cache);
      // absorb busy rejections instead of failing the job on a full queue.
      service::WaitPolicy wait;
      wait.max_wait_seconds = 3600.0;
      const service::SubmitOutcome outcome =
          service::submit_job_wait(options_.socket_path, job.sweep, wait);
      if (outcome.status != service::SubmitStatus::kResult)
        throw pf::Error("pf_served at " + options_.socket_path +
                        " did not produce a result: " +
                        (outcome.error_message.empty() ? "rejected busy"
                                                       : outcome.error_message));
      jr.csv = outcome.csv;
      jr.sha256 = outcome.sha256;
      jr.cached = outcome.cached;
      if (outcome.cached) ++result_.stats.dedup_hits;
      memo_[key] = {jr.csv, jr.sha256};
      return done_detail(jr);
    }

    // Local mode: one ExecutionPolicy for the whole campaign, plus the
    // per-job journal (point-level resume) and the session row-family.
    const analysis::SweepSpec sweep_spec = job.sweep.to_sweep_spec();
    analysis::ExecutionPolicy policy = exec_;
    policy.journal_path = store_ ? store_->journal_path(key) : std::string();
    policy.resume = true;
    policy.session_family = session_family(job.sweep);
    const double throttle_ms = job.sweep.throttle_ms;
    if (throttle_ms > 0) {
      const auto inner = exec_.progress;
      policy.progress = [throttle_ms, inner](size_t done, size_t total) {
        // Test hook: widen the kill -9 window, exactly like the server.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(throttle_ms));
        if (inner) inner(done, total);
      };
    }
    const analysis::RegionMap map = analysis::sweep_region(sweep_spec, policy);
    jr.csv = map.to_csv();
    jr.sha256 = pf::sha256_hex(jr.csv);
    jr.cached = false;
    if (store_) {
      try {
        store_->commit(job.sweep, jr.csv, stats_to_json(map.solve_stats()));
        store_->discard_journal(key);
      } catch (const pf::Error& e) {
        // A torn commit must not fail the job — the result is in hand and
        // the invalid entry is quarantined by the next get().
        PF_LOG_WARN("campaign: commit failed for " << jr.key << ": "
                                                   << e.what());
      }
    }
    memo_[key] = {jr.csv, jr.sha256};
    return done_detail(jr);
  }

  static Json done_detail(const JobResult& jr) {
    JsonObject detail;
    detail["key"] = Json(jr.key);
    detail["sha256"] = Json(jr.sha256);
    detail["cached"] = Json(jr.cached);
    return Json(std::move(detail));
  }

  /// Run one custom job; returns the DONE detail ({"payload": ...}).
  Json execute_custom(const CampaignJob& job, JobResult& jr) {
    (void)jr;
    class Ctx : public DepContext {
     public:
      Ctx(Runner& runner, const CampaignJob& job)
          : runner_(runner), job_(job) {}

      const analysis::RegionMap& map(const std::string& job_id) const override {
        const CampaignJob& dep = dep_job(job_id, CampaignJob::Kind::kSweep);
        auto& slot = runner_.parsed_maps_[job_id];
        if (!slot) {
          // Always reconstruct from the canonical CSV — computed, deduped
          // and resumed dependencies look identical to the consumer.
          const JobResult& dr = runner_.result_.jobs.at(job_id);
          slot = std::make_unique<analysis::RegionMap>(
              analysis::region_map_from_csv(dep.sweep.to_sweep_spec(),
                                            dr.csv));
        }
        return *slot;
      }

      const Json& payload(const std::string& job_id) const override {
        const CampaignJob& dep = dep_job(job_id, CampaignJob::Kind::kCustom);
        (void)dep;
        return runner_.result_.jobs.at(job_id).detail.get("payload");
      }

      const analysis::ExecutionPolicy& exec() const override {
        return runner_.exec_;
      }

     private:
      const CampaignJob& dep_job(const std::string& job_id,
                                 CampaignJob::Kind kind) const {
        bool declared = false;
        for (const std::string& dep : job_.deps)
          if (dep == job_id) {
            declared = true;
            break;
          }
        PF_CHECK_MSG(declared, "campaign job \""
                                   << job_.id << "\" accessed \"" << job_id
                                   << "\" without declaring the dependency");
        for (const CampaignJob& candidate : runner_.spec_.jobs)
          if (candidate.id == job_id) {
            PF_CHECK_MSG(candidate.kind == kind,
                         "campaign job \"" << job_.id << "\": dependency \""
                                           << job_id
                                           << "\" is not of the kind "
                                           << "requested");
            return candidate;
          }
        throw pf::Error("campaign: unknown job \"" + job_id + "\"");
      }

      Runner& runner_;
      const CampaignJob& job_;
    };

    const Ctx ctx(*this, job);
    Json payload = job.custom(ctx);
    JsonObject detail;
    detail["payload"] = std::move(payload);
    return Json(std::move(detail));
  }

  const CampaignSpec& spec_;
  const CampaignOptions& options_;
  CampaignResult result_;
  analysis::ExecutionPolicy exec_;
  std::unique_ptr<service::ResultCache> store_;
  std::unique_ptr<CampaignJournal> journal_;
  bool journal_was_clean_ = false;
  std::map<uint64_t, std::pair<std::string, std::string>> memo_;  ///< key ->
                                                                  ///< csv,sha
  std::map<std::string, std::unique_ptr<analysis::RegionMap>> parsed_maps_;
  size_t finished_ = 0;
  size_t total_ = 0;
};

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kJobPending: return "PENDING";
    case JobState::kJobRunning: return "RUNNING";
    case JobState::kJobDone: return "DONE";
    case JobState::kJobFailed: return "FAILED";
    case JobState::kJobBlocked: return "BLOCKED";
  }
  return "?";
}

bool CampaignResult::all_done() const {
  for (const auto& [id, job] : jobs)
    if (job.state != JobState::kJobDone) return false;
  return stats.done == jobs.size() && !jobs.empty();
}

std::string CampaignResult::report(const CampaignSpec& spec) const {
  // Deterministic A/B artifact: everything that identifies the OUTCOME
  // (states, result hashes, payloads, error context) and nothing that
  // describes the JOURNEY (cached/resumed flags, attempt counts differ
  // between a cold run and a kill-9-resumed one by design).
  std::ostringstream os;
  os << "# pf-campaign report " << spec.name << "\n";
  for (const CampaignJob& job : spec.jobs) {
    const auto it = jobs.find(job.id);
    os << "job " << job.id << " ";
    if (it == jobs.end()) {
      os << "PENDING\n";
      continue;
    }
    const JobResult& jr = it->second;
    os << job_state_name(jr.state);
    switch (jr.state) {
      case JobState::kJobDone:
        if (job.kind == CampaignJob::Kind::kSweep)
          os << " key " << jr.key << " sha256 " << jr.sha256;
        else
          os << " payload " << jr.detail.get("payload").dump();
        break;
      case JobState::kJobFailed:
        os << " error " << jr.detail.string_or("error", "?");
        break;
      case JobState::kJobBlocked:
        os << " by " << jr.detail.string_or("blocked_by", "?");
        break;
      default:
        break;
    }
    os << "\n";
  }
  return os.str();
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  Runner runner(spec, options);
  return runner.run();
}

}  // namespace pf::campaign
