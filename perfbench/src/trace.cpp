#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace pfbench {

std::uint64_t Tracer::begin(const std::string& name, const std::string& layer,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  spans_.push_back({spans_.size() + 1, parent, name, layer, now, now, false});
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  span.closed = true;
}

std::uint64_t Tracer::record(const std::string& name, const std::string& layer,
                             std::uint64_t parent, Clock::time_point start,
                             Clock::time_point end) {
  if (!enabled_) return 0;
  spans_.push_back({spans_.size() + 1, parent, name, layer, start, end, true});
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> closed;
  for (const Span& s : spans_)
    if (s.closed) closed.push_back(s);
  return closed;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children are sequential, so each one's duration is subtracted from its
  // parent's.
  std::vector<double> self(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (!s.closed) continue;
    const double dur = std::chrono::duration<double>(s.end - s.start).count();
    self[s.id - 1] += dur;
    if (s.parent != 0) self[s.parent - 1] -= dur;
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_)
    if (s.closed) by_layer[s.layer] += self[s.id - 1];
  return by_layer;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool Tracer::write_trace_events(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - epoch_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f", ts, dur);
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(s.layer) << "\",\"ph\":\"X\"," << times
        << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace pfbench
