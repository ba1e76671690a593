// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the
// libraries (nothing inside src/ is instrumented): each span has a name, a
// layer, a start, an end and the id of the span that caused it. Spans stay
// in memory until the run ends; write_trace_events() then dumps them in the
// Chrome trace-event format and self_seconds_by_layer() computes each
// layer's self time (span duration minus its children's durations).
//
// Every span is recorded on the benchmark's own thread: campaign jobs run
// one after another and report through on_event from that loop, and the
// other workloads call the libraries directly. So a span's children never
// overlap, and the tracer needs no locking.
//
// When the tracer is disabled every call is a no-op that records nothing,
// so the untraced end-to-end run pays only a branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::string name;
  std::string layer;
  Clock::time_point start;
  Clock::time_point end;
  bool closed = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 when disabled). `parent` 0 = root.
  std::uint64_t begin(const std::string& name, const std::string& layer,
                      std::uint64_t parent);
  /// Close span `id` (ignored when id is 0).
  void end(std::uint64_t id);
  /// Record an already-finished span.
  std::uint64_t record(const std::string& name, const std::string& layer,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end);

  /// Every closed span, in the order they were opened.
  std::vector<Span> spans() const;

  /// Self time per layer over every closed span [s].
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Write every closed span as trace-event JSON ("ph":"X" complete
  /// events, microseconds since the tracer was created). Returns false when
  /// the file cannot be written.
  bool write_trace_events(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;  // span id k is spans_[k - 1]
};

}  // namespace pfbench
