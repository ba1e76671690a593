#include "provenance.hpp"

#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace pfbench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cache_summary() {
  std::ostringstream out;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int i = 0; i < 8; ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    const std::string type = read_line(dir + "type");
    const std::string size = read_line(dir + "size");
    if (out.tellp() > 0) out << ", ";
    out << "L" << level
        << (type == "Data" ? "d" : type == "Instruction" ? "i" : "") << " "
        << size;
  }
  const std::string text = out.str();
  return text.empty() ? "unknown" : text;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return CPU_COUNT(&set);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

Provenance collect_provenance(const std::string& source_digest,
                              const std::string& git_commit) {
  Provenance p;
  p.nproc = affinity_cpus();
  p.hardware_concurrency = std::thread::hardware_concurrency();
  p.build_type = PF_BENCH_BUILD_TYPE;
  p.release = p.build_type == "Release";
  p.compiler = PF_BENCH_COMPILER;
  p.caches = cache_summary();
  p.source_digest = source_digest.empty() ? "unknown" : source_digest;
  p.git_commit = git_commit.empty() ? "unknown" : git_commit;
  return p;
}

std::string to_json(const Provenance& p) {
  std::ostringstream out;
  out << "{\"nproc\": " << p.nproc
      << ", \"hardware_concurrency\": " << p.hardware_concurrency
      << ", \"build_type\": " << quoted(p.build_type)
      << ", \"release_build\": " << (p.release ? "true" : "false")
      << ", \"compiler\": " << quoted(p.compiler)
      << ", \"caches\": " << quoted(p.caches)
      << ", \"source_digest\": " << quoted(p.source_digest)
      << ", \"git_commit\": " << quoted(p.git_commit) << "}";
  return out.str();
}

}  // namespace pfbench
