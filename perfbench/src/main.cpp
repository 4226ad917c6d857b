// perfbench: the repository benchmark binary.
//
//   perfbench --workload svc-read|native-prmw --seed N --seconds S
//             --trace 0|1
//
// Runs one workload, checks its outputs, and prints one JSON object as
// the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ledger instead (see README.md). A
// run whose correctness checks fail prints "correct": false, names the
// failed checks on standard error, and exits 1.
//
// Scratch files (replica state, sockets) live under .bench_run/<pid>
// relative to the working directory, which is removed at exit. A traced run leaves its spans in
// .bench_run/spans-<workload>.jsonl.
#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

constexpr int kExitUsage = 64;

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(std::FILE* out_file, const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::fprintf(out_file, "%s\n", out.c_str());
  std::fflush(out_file);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "svc-read|native-prmw --seed N --seconds S --trace 0|1\n",
               why);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("missing flag value");
    const char* flag = argv[i];
    const char* val = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      opt.workload = val;
    } else if (!std::strcmp(flag, "--seed")) {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      opt.seconds = std::atoi(val);
    } else if (!std::strcmp(flag, "--trace")) {
      opt.trace = std::atoi(val) != 0;
    } else {
      return usage("unknown flag");
    }
  }
  if (opt.seconds < 1 || opt.seconds > 600) return usage("bad --seconds");
  const bool service = opt.workload == "svc-read";
  if (!service && opt.workload != "native-prmw") {
    return usage("unknown --workload");
  }
  opt.run_dir = ".bench_run/" + std::to_string(::getpid());
  opt.server_bin = self_dir() + "/compreg_server";
  opt.span_path = ".bench_run/spans-" + opt.workload + ".jsonl";

  // Children (the daemon, the replicas) inherit file descriptor 1 and
  // print to it; point it at stderr so the result line printed through
  // `result_out` is the last line of the real standard output.
  std::fflush(stdout);
  const int result_fd = ::fcntl(STDOUT_FILENO, F_DUPFD_CLOEXEC, 0);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  std::FILE* result_out = result_fd >= 0 ? ::fdopen(result_fd, "w") : nullptr;
  if (result_out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot duplicate standard output\n");
    return 1;
  }

  std::error_code ec;
  std::filesystem::remove_all(opt.run_dir, ec);
  std::filesystem::create_directories(opt.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 opt.run_dir.c_str());
    return 1;
  }

  perfbench::Result r =
      service ? perfbench::run_service(opt) : perfbench::run_native(opt);
  for (const perfbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.findings.push_back("metric " + m.name + " is not a finite number");
    }
  }
  for (const std::string& f : r.findings) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }

  std::filesystem::remove_all(opt.run_dir, ec);

  // The human-readable ledger, then the machine-readable last line.
  std::fprintf(result_out, "workload %s seed %llu seconds %d trace %d\n",
               opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? 1 : 0);
  for (const perfbench::Metric& m : r.metrics) {
    std::fprintf(result_out, "  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_result(result_out, r);
  return r.correct() ? 0 : 1;
}
