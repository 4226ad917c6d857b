#include "common.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(xs.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

Slices::Slices(std::int64_t begin_ns, std::int64_t end_ns)
    : begin_ns_(begin_ns),
      n_(std::max(1, static_cast<int>(std::lround(
                         static_cast<double>(end_ns - begin_ns) * 1e-9 /
                         kSliceS)))),
      len_ns_((end_ns - begin_ns) / n_) {}

int Slices::index(std::int64_t t_ns) const {
  if (t_ns < begin_ns_) return -1;
  const std::int64_t i = (t_ns - begin_ns_) / len_ns_;
  return i < n_ ? static_cast<int>(i) : -1;
}

double Slices::median_quantile(std::vector<std::vector<double>>& per_slice,
                               double q) {
  std::vector<double> qs;
  for (std::vector<double>& xs : per_slice) {
    if (!xs.empty()) qs.push_back(quantile(xs, q));
  }
  return median(std::move(qs));
}

double Slices::median_rate(const std::vector<std::uint64_t>& per_slice) const {
  std::vector<double> rates;
  for (const std::uint64_t n : per_slice) {
    rates.push_back(static_cast<double>(n) / seconds());
  }
  return median(std::move(rates));
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb(int pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Sampler::Sampler(std::size_t capacity, std::uint64_t seed)
    : buf_(capacity, 0.0), rng_(seed) {}

}  // namespace perfbench
