// Kill-and-resume on the real pf_campaign binary (the campaign analog of
// test_interrupt_resume): run a throttled multi-job campaign, kill it
// mid-campaign — SIGKILL for the crash path, SIGINT for the cooperative
// drain (exit 75) — then rerun the same command and require the final
// report byte-identical to an uninterrupted control run.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "pf/util/cancellation.hpp"

namespace {

/// Four distinct throttled jobs (20 ms x 16 points each widens the kill
/// window) plus a duplicate of the first for a cross-job dedup hit.
const char* kSpecJson = R"({"name":"killtest","jobs":[
  {"id":"j1","job":{"open_site":4,"sos":"1r1","r_points":4,"u_points":4,"throttle_ms":20}},
  {"id":"j2","job":{"open_site":4,"sos":"0w0","r_points":4,"u_points":4,"throttle_ms":20}},
  {"id":"j3","job":{"open_site":4,"sos":"0r0","r_points":4,"u_points":4,"throttle_ms":20}},
  {"id":"j4","job":{"open_site":4,"sos":"1w1","r_points":4,"u_points":4,"throttle_ms":20}},
  {"id":"j1-again","deps":["j1"],"job":{"open_site":4,"sos":"1r1","r_points":4,"u_points":4,"throttle_ms":20}}
]})";

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_spec(const std::string& dir) {
  const std::string path = dir + "/spec.json";
  std::ofstream out(path, std::ios::trunc);
  out << kSpecJson;
  return path;
}

pid_t spawn_campaign(const std::string& spec, const std::string& dir,
                     const std::string& report_path) {
  const pid_t pid = fork();
  if (pid == 0) {
    setpgid(0, 0);  // own process group: signals hit only the child
    const int devnull = open("/dev/null", O_WRONLY);
    dup2(devnull, STDOUT_FILENO);
    dup2(devnull, STDERR_FILENO);
    const std::string store = dir + "/store";
    const std::string journal = dir + "/journal.csv";
    execl(PF_CAMPAIGN_PATH, PF_CAMPAIGN_PATH, "--spec", spec.c_str(),
          "--store", store.c_str(), "--journal", journal.c_str(), "--report",
          report_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

size_t count_done_records(const std::string& journal) {
  std::ifstream in(journal);
  size_t done = 0;
  std::string line;
  while (std::getline(in, line))
    if (line.find(",DONE,") != std::string::npos) ++done;
  return done;
}

/// Block until the campaign journal records at least `n` DONE jobs (the
/// child is demonstrably mid-campaign) or the deadline passes.
bool wait_for_done_jobs(const std::string& journal, size_t n,
                        double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (count_done_records(journal) >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

int wait_status(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// An uninterrupted run of the spec. Each test gets its own directory:
/// ctest runs the tests of this file as concurrent processes, and a shared
/// one let one test's fresh_dir() delete the other's store mid-run.
std::string control_report(const std::string& tag) {
  const std::string dir = fresh_dir((tag + "_control").c_str());
  const std::string spec = write_spec(dir);
  const pid_t pid = spawn_campaign(spec, dir, dir + "/report.txt");
  const int status = wait_status(pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "uninterrupted control run must succeed";
  return read_file(dir + "/report.txt");
}

void kill_resume_roundtrip(const char* tag, int signal_to_send) {
  const std::string control = control_report(tag);
  ASSERT_FALSE(control.empty());

  const std::string dir = fresh_dir(tag);
  const std::string spec = write_spec(dir);
  const std::string journal = dir + "/journal.csv";
  const std::string report_path = dir + "/report.txt";

  // Phase 1: kill the campaign once at least one job is DONE and (by
  // throttle arithmetic) later jobs are still pending.
  const pid_t pid = spawn_campaign(spec, dir, report_path);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_done_jobs(journal, 1, 60.0))
      << "child never journaled a DONE job";
  ASSERT_EQ(kill(pid, signal_to_send), 0);
  const int status = wait_status(pid);
  if (signal_to_send == SIGKILL) {
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  } else {
    // Cooperative drain: pf_campaign flushes and exits "interrupted,
    // resumable".
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), pf::kExitInterrupted);
  }
  ASSERT_FALSE(std::ifstream(report_path).is_open())
      << "a killed campaign must not have written its report";

  // Phase 2: rerun the same command; the journal restores the finished
  // jobs and the interrupted one re-runs from its sweep journal.
  const pid_t resume_pid = spawn_campaign(spec, dir, report_path);
  const int resume_status = wait_status(resume_pid);
  ASSERT_TRUE(WIFEXITED(resume_status) && WEXITSTATUS(resume_status) == 0);

  EXPECT_EQ(read_file(report_path), control)
      << "resumed campaign must report byte-identically to an "
         "uninterrupted run";
}

TEST(CampaignKillResume, Sigkill) { kill_resume_roundtrip("campaign_sigkill", SIGKILL); }

TEST(CampaignKillResume, Sigint) { kill_resume_roundtrip("campaign_sigint", SIGINT); }

}  // namespace
