#include "pf/analysis/snapshot_table.hpp"

#include <algorithm>

#include "pf/util/error.hpp"

namespace pf::analysis {

SnapshotKey SnapshotKey::post_init(double r_def,
                                   const spice::SimOptions& options,
                                   const faults::Sos& sos) {
  SnapshotKey key;
  key.r_def = r_def;
  key.options = options;
  key.initial_victim = sos.initial_victim;
  key.initial_aggressor = sos.initial_aggressor;
  return key;
}

void SnapshotKey::push_write(const faults::Op& op) {
  PF_CHECK_MSG(op.is_write() && prefix_len < 32,
               "snapshot prefixes hold at most 32 writes");
  // The column addresses every non-victim role as the same-BL aggressor.
  const uint64_t code =
      (op.target == faults::CellRole::kVictim ? 0u : 2u) |
      static_cast<uint64_t>(op.write_value());
  prefix |= code << (2 * prefix_len);
  ++prefix_len;
}

bool SnapshotKey::matches(const SnapshotKey& other) const {
  return r_def == other.r_def && initial_victim == other.initial_victim &&
         initial_aggressor == other.initial_aggressor &&
         injected == other.injected &&
         (!injected || u == other.u) && prefix_len == other.prefix_len &&
         prefix == other.prefix &&
         spice::same_numerics(options, other.options);
}

SnapshotTable::SnapshotTable(size_t capacity, const dram::DramColumn& shape,
                             std::shared_ptr<Counters> counters)
    : shape_(shape.save_state()),
      counters_(counters ? std::move(counters)
                         : std::make_shared<Counters>()) {
  reserve(capacity);
}

int SnapshotTable::find(const SnapshotKey& key) const {
  for (size_t i = 0; i < used_; ++i)
    if (slots_[i].key.matches(key)) return static_cast<int>(i);
  return -1;
}

bool SnapshotTable::restore(const SnapshotKey& key, dram::DramColumn& column) {
  std::lock_guard<std::mutex> lock(mu_);
  const int i = find(key);
  if (i < 0) return false;
  column.restore_state(slots_[static_cast<size_t>(i)].state);
  counters_->hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SnapshotTable::publish(const SnapshotKey& key,
                            const dram::DramColumn& column) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_->solves.fetch_add(1, std::memory_order_relaxed);
  if (slots_.empty() || find(key) >= 0) return;
  size_t i = used_;
  if (used_ < slots_.size()) {
    ++used_;
  } else {
    i = next_victim_;
    next_victim_ = (next_victim_ + 1) % slots_.size();
  }
  slots_[i].key = key;
  column.save_state(slots_[i].state);
}

bool SnapshotTable::contains(const SnapshotKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find(key) >= 0;
}

void SnapshotTable::reserve(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  n = std::min(n, kMaxCapacity);
  if (n <= slots_.size()) return;
  // Keep FIFO order simple: a grown table fills its new slots first.
  if (used_ == slots_.size()) next_victim_ = 0;
  slots_.reserve(n);
  while (slots_.size() < n) slots_.push_back(Slot{SnapshotKey{}, shape_});
}

size_t SnapshotTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

size_t SnapshotTable::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace pf::analysis
