// Shared pieces of the benchmark binary: run options, the result record
// printed as the final JSON line, exact percentiles, process memory and
// CPU readings, and a fixed-capacity latency sampler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string run_dir;     // scratch directory inside the checkout
  std::string server_bin;  // absolute path of the compreg_server binary
  std::string span_path;   // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> findings;  // failed correctness checks

  bool correct() const { return findings.empty(); }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

// Exact nearest-rank quantile of `xs` (reordered in place); 0 if empty.
double quantile(std::vector<double>& xs, double q);
double median(std::vector<double> xs);

// A measured window cut into equal slices of about kSliceS seconds. Each
// end-to-end figure is computed per slice and a run reports the median
// over its slices, so a burst of contention from outside the benchmark
// (a stalled disk, a busy neighbour on the host) that spoils a slice or
// two does not move the run's figure.
class Slices {
 public:
  static constexpr double kSliceS = 2.0;

  Slices(std::int64_t begin_ns, std::int64_t end_ns);

  int count() const { return n_; }
  double seconds() const { return static_cast<double>(len_ns_) * 1e-9; }
  // Slice holding time `t_ns`, or -1 outside the window.
  int index(std::int64_t t_ns) const;

  // Median over slices of the per-slice q-quantile; empty slices skipped.
  static double median_quantile(std::vector<std::vector<double>>& per_slice,
                                double q);
  // Median over slices of events per second.
  double median_rate(const std::vector<std::uint64_t>& per_slice) const;

 private:
  std::int64_t begin_ns_;
  int n_;
  std::int64_t len_ns_;
};

// Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable.
double peak_rss_mb(int pid);
double self_peak_rss_mb();

// CPU seconds this process has used, all threads.
double process_cpu_s();

// Nanoseconds on the steady clock since an arbitrary fixed origin.
std::int64_t now_ns();

inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  return base ^ (0x9e3779b97f4a7c15ull * (salt + 1));
}

// Uniform sample of at most `capacity` values from a stream of unknown
// length (reservoir sampling, Algorithm R). The buffer is allocated and
// touched up front, so the memory it takes does not depend on how many
// values arrive — and so not on how fast the program under test runs.
class Sampler {
 public:
  Sampler(std::size_t capacity, std::uint64_t seed);

  void add(double v) {
    ++seen_;
    if (kept_ < buf_.size()) {
      buf_[kept_++] = v;
      return;
    }
    const std::uint64_t j = rng_() % seen_;
    if (j < buf_.size()) buf_[j] = v;
  }

  std::vector<double> values() const {
    return std::vector<double>(buf_.begin(), buf_.begin() + kept_);
  }

 private:
  std::vector<double> buf_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
  compreg::Rng rng_;
};

// The two workloads. Each returns the run's result; `failed` and the
// findings are filled in by the workload's own checks.
Result run_service(const Options& opt);
Result run_native(const Options& opt);

}  // namespace perfbench
