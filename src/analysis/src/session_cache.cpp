#include "pf/analysis/session_cache.hpp"

namespace pf::analysis {

std::unique_ptr<SosSession> SessionCache::take(const std::string& family,
                                               const dram::DramParams& params,
                                               const dram::Defect& defect) {
  if (!family.empty()) {
    std::unique_ptr<SosSession> session;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = by_family_.find(family);
      if (it != by_family_.end()) session = std::move(it->second);
      // Only the running family's table stays alive.
      by_family_.clear();
      ++(session ? stats_.hits : stats_.misses);
    }
    if (session) return session;
  }
  return std::make_unique<SosSession>(params, defect, counters_);
}

void SessionCache::put(const std::string& family,
                       std::unique_ptr<SosSession> session) {
  if (family.empty() || !session) return;
  std::lock_guard<std::mutex> lock(mu_);
  by_family_[family] = std::move(session);
  ++stats_.stored;
}

void SessionCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  by_family_.clear();
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.snapshot_solves = counters_->solves.load();
  out.snapshot_hits = counters_->hits.load();
  return out;
}

}  // namespace pf::analysis
