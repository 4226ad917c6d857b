// The per-layer ledger of a traced run. Every probe times calls into
// one layer's public functions from outside the library; nothing inside
// src/ is traced.
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

class Stack;

// Probes of the fleet layers, run on a stack whose daemon has stopped
// (the ABD probe becomes the fleet's single writer, continuing the
// timestamp sequence above `ts_floor`):
//   abd.read_us / abd.write_us  RealAbdClient::try_read / try_write p50
//   durable.persist_us          FileDurable::persist p50 in the fleet's
//                               data directory (write, fsync, rename,
//                               directory fsync)
//   transport.echo_rtt_us       SocketTransport send -> echo -> poll p50
//                               between two in-process UDS endpoints
struct FleetLayers {
  bool ok = false;
  double abd_read_us = 0;
  double abd_write_us = 0;
  double persist_us = 0;
  double echo_rtt_us = 0;
};
FleetLayers probe_fleet_layers(const Stack& stack, std::uint64_t ts_floor);

// Ledger entries that come from the workload itself. The server and lin
// entries are 0 on a workload that does not run the daemon.
struct Ledger {
  double server_read_overhead_us = 0;
  double server_batch_occupancy_mean = 0;
  double server_write_queue_depth_mean = 0;
  double server_quorum_rounds_per_op = 0;
  double server_retries_per_op = 0;
  double abd_writeback_skip_ratio = 0;
  double lin_check_s = 0;
  double loadgen_cpu_frac = 0;
  double loadgen_read_p99_us = 0;
  double loadgen_write_p50_us = 0;
  double loadgen_write_p99_us = 0;
  double loadgen_error_rate = 0;
  double trace_overhead_frac = 0;
};

// Adds every per-layer metric to `r`: the workload's `ledger`, the
// `fleet` probes, and the single-threaded probes of the paper's
// construction at C = 4, R = 4, run here. Those include the base-
// register operation counts of one Read and one 0-Write, which must
// equal the paper's TR(4,4) = 43 and TW(4,4) = 25 exactly; a mismatch
// is a failed check.
void add_ledger(Result& r, const Ledger& ledger, const FleetLayers& fleet);

}  // namespace perfbench
