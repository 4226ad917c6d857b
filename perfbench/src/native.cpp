// The native-prmw workload: the paper's construction in one process.
//
// Four threads share one prmw::Counter backed by the Anderson composite
// register with C = 4 components and R = 4 readers. Thread t owns
// component t and reader slot t; each op is, by the seeded coin, an
// increment of its own component (PRMW apply) or a read (one atomic
// scan, folded), 50/50. No network, no other process.
//
// Checks: each thread's reads never decrease, each read is at least the
// number of applies the thread itself has completed, and a final read
// equals the total number of applies.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "prmw/prmw.h"
#include "stack.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
// setup_s: the median over kSetupBursts bursts, kBurstGap apart, of
// each burst's median over kBurstSetups set-ups.
constexpr int kSetupBursts = 50;
constexpr int kBurstSetups = 20;
constexpr auto kBurstGap = std::chrono::milliseconds(100);
constexpr double kWarmupS = 0.5;    // driven but not measured
constexpr std::size_t kSamples = 1 << 13;  // latency samples per thread,
                                           // slice and op kind
constexpr std::size_t kSpans = 1 << 14;    // spans kept per thread

struct Span {
  bool apply = false;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t value = 0;  // the read's result; 0 for applies
};

struct ThreadOut {
  ThreadOut(int slices, int traced_slices, std::uint64_t seed)
      : done(static_cast<std::size_t>(slices), 0),
        traced_done(static_cast<std::size_t>(traced_slices), 0) {
    for (int i = 0; i < slices; ++i) {
      read_us.emplace_back(kSamples, mix_seed(seed, 2 * i));
      apply_us.emplace_back(kSamples, mix_seed(seed, 2 * i + 1));
    }
    spans.reserve(kSpans);
  }

  // Per slice of the measured (in a traced run: its untraced) window.
  std::vector<Sampler> read_us;
  std::vector<Sampler> apply_us;
  std::vector<std::uint64_t> done;
  std::vector<std::uint64_t> traced_done;  // per slice of the traced half
  std::uint64_t ops = 0;          // ops started, warm-up included
  std::uint64_t applies = 0;      // all applies (the final-read check)
  std::int64_t busy_ns = 0;       // time inside PRMW calls, measured only
  std::uint64_t decreasing = 0;   // reads below the previous read
  std::uint64_t below_own = 0;    // reads below the thread's own applies
  std::vector<Span> spans;
};

void worker(compreg::prmw::Counter& counter, int t, std::uint64_t seed,
            const Slices& untraced, const Slices& traced, std::int64_t t_end,
            ThreadOut& out) {
  compreg::Rng rng(mix_seed(seed, static_cast<std::uint64_t>(t)));
  std::int64_t last = 0;
  while (true) {
    const bool apply = (rng() & 1) != 0;
    const std::int64_t t0 = now_ns();
    if (t0 >= t_end) break;
    std::int64_t v = 0;
    if (apply) {
      counter.increment(t);
      ++out.applies;
    } else {
      v = counter.read(t);
    }
    const std::int64_t t1 = now_ns();
    ++out.ops;
    if (!apply) {
      if (v < last) ++out.decreasing;
      if (v < static_cast<std::int64_t>(out.applies)) ++out.below_own;
      last = v;
    }
    if (const int i = untraced.index(t0); i >= 0) {
      const auto slice = static_cast<std::size_t>(i);
      ++out.done[slice];
      out.busy_ns += t1 - t0;
      (apply ? out.apply_us : out.read_us)[slice].add(
          static_cast<double>(t1 - t0) / 1000.0);
    } else if (const int j = traced.index(t0); j >= 0) {
      ++out.traced_done[static_cast<std::size_t>(j)];
      out.busy_ns += t1 - t0;
      if (out.spans.size() < kSpans) {
        out.spans.push_back(Span{apply, t0, t1, v});
      }
    }
  }
}

// Spans of the traced half, times relative to its start.
void write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<ThreadOut>>& outs,
                 std::int64_t origin_ns) {
  std::ofstream f(path);
  for (std::size_t t = 0; t < outs.size(); ++t) {
    for (const Span& s : outs[t]->spans) {
      f << "{\"thread\": " << t << ", \"kind\": \""
        << (s.apply ? "apply" : "read")
        << "\", \"begin_ns\": " << s.begin_ns - origin_ns
        << ", \"end_ns\": " << s.end_ns - origin_ns << ", \"value\": " << s.value
        << "}\n";
    }
  }
}

// Set-up time in seconds: building the counter and taking the first
// read of each reader slot.
//
// How fast the host runs this microsecond-scale work switches between two
// levels (about 8 and 16 us on the 4-vCPU virtual machine the benchmark
// was tuned on), in episodes from a tenth of a second to several seconds
// long. So the set-ups are spread over about 5 s: between runs, the
// median of back-to-back set-ups spread 72%, that of bursts spread over
// 1 s about 30%, and that of bursts spread over 5 s 7%.
double time_setups(Result& r) {
  std::vector<double> bursts;
  for (int b = 0; b < kSetupBursts; ++b) {
    if (b > 0) std::this_thread::sleep_for(kBurstGap);
    std::vector<double> setups;
    for (int k = 0; k < kBurstSetups; ++k) {
      const std::int64_t t0 = now_ns();
      compreg::prmw::Counter fresh(kThreads, kThreads);
      std::int64_t first = 0;
      for (int t = 0; t < kThreads; ++t) first |= fresh.read(t);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (first != 0) r.findings.push_back("a fresh counter read nonzero");
    }
    bursts.push_back(median(std::move(setups)));
  }
  return median(std::move(bursts));
}

}  // namespace

Result run_native(const Options& opt) {
  Result r;
  const double setup_s = time_setups(r);
  auto counter = std::make_unique<compreg::prmw::Counter>(kThreads, kThreads);

  // Sample and span buffers are allocated and touched before the load
  // and are the same size on every run.
  const std::int64_t measure_ns = static_cast<std::int64_t>(opt.seconds) * 1000000000;
  const std::int64_t untraced_ns = opt.trace ? measure_ns / 2 : measure_ns;
  const int untraced_slices = Slices(0, untraced_ns).count();
  const int traced_slices = Slices(untraced_ns, measure_ns).count();
  std::vector<std::unique_ptr<ThreadOut>> outs;
  for (int t = 0; t < kThreads; ++t) {
    outs.push_back(std::make_unique<ThreadOut>(
        untraced_slices, traced_slices, mix_seed(opt.seed, 50 + t)));
  }

  const std::int64_t t_measure = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t t_mid = t_measure + untraced_ns;
  const std::int64_t t_end = t_measure + measure_ns;
  const Slices untraced(t_measure, t_mid);
  const Slices traced(t_mid, t_end);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        worker(*counter, t, opt.seed, untraced, traced, t_end,
               *outs[static_cast<std::size_t>(t)]);
      });
    }
    for (std::thread& th : threads) th.join();
  }

  std::uint64_t applies = 0;
  std::int64_t busy_ns = 0;
  const auto n = static_cast<std::size_t>(untraced.count());
  std::vector<std::uint64_t> done(n, 0);
  std::vector<std::uint64_t> traced_done(static_cast<std::size_t>(traced.count()), 0);
  std::vector<std::vector<double>> reads(n);
  std::vector<std::vector<double>> writes(n);
  for (const auto& out : outs) {
    r.attempted += out->ops;
    applies += out->applies;
    busy_ns += out->busy_ns;
    if (out->decreasing != 0) {
      r.findings.push_back(std::to_string(out->decreasing) +
                           " reads went below an earlier read of the same "
                           "thread");
    }
    if (out->below_own != 0) {
      r.findings.push_back(std::to_string(out->below_own) +
                           " reads went below the thread's own applies");
    }
    for (std::size_t i = 0; i < n; ++i) {
      done[i] += out->done[i];
      const std::vector<double> rs = out->read_us[i].values();
      const std::vector<double> ws = out->apply_us[i].values();
      reads[i].insert(reads[i].end(), rs.begin(), rs.end());
      writes[i].insert(writes[i].end(), ws.begin(), ws.end());
    }
    for (std::size_t i = 0; i < traced_done.size(); ++i) {
      traced_done[i] += out->traced_done[i];
    }
  }
  const std::int64_t final_read = counter->read(0);
  if (final_read != static_cast<std::int64_t>(applies)) {
    r.findings.push_back("the final read " + std::to_string(final_read) +
                         " differs from the " + std::to_string(applies) +
                         " applies");
  }
  if (r.attempted == 0) r.attempted = 1;

  const double thr = untraced.median_rate(done);
  if (!opt.trace) {
    r.add("throughput_ops_s", thr, "1/s");
    r.add("read_p50_us", Slices::median_quantile(reads, 0.50), "us");
    r.add("read_p90_us", Slices::median_quantile(reads, 0.90), "us");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return r;
  }

  // Traced run: spans of the traced half, the fleet probes on a fleet of
  // its own (this workload runs no daemon), and the core probes.
  write_spans(opt.span_path, outs, t_mid);
  const double traced_thr = traced.median_rate(traced_done);
  FleetLayers fl;
  {
    Stack stack(opt.server_bin, opt.run_dir + "/fleet", opt.seed);
    if (stack.start_fleet(std::chrono::milliseconds(15000))) {
      fl = probe_fleet_layers(stack, 0);
    }
  }
  if (!fl.ok) r.findings.push_back("the fleet layer probes failed");
  const double window_ns =
      static_cast<double>(measure_ns) * static_cast<double>(kThreads);
  add_ledger(r,
             Ledger{
                 .lin_check_s = 0,
                 .loadgen_cpu_frac =
                     1.0 - static_cast<double>(busy_ns) / window_ns,
                 .loadgen_read_p99_us = Slices::median_quantile(reads, 0.99),
                 .loadgen_write_p50_us = Slices::median_quantile(writes, 0.50),
                 .loadgen_write_p99_us = Slices::median_quantile(writes, 0.99),
                 .loadgen_error_rate = 0,
                 .trace_overhead_frac = thr > 0 ? 1.0 - traced_thr / thr : 0,
             },
             fl);
  return r;
}

}  // namespace perfbench
