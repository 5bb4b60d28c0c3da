// The four benchmark workloads and the pass that runs one of them: build an
// installation, create and warm its objects, run closed-loop clients through
// a virtual warm-up and then a fixed virtual-time window, and check the
// outputs. Every input is generated from the seed, so a pass is a pure
// function of (workload, seed) in virtual time; only host time varies.
#ifndef EDENBENCH_WORKLOADS_H_
#define EDENBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "edenbench/bench_spans.h"
#include "src/kernel/eden_system.h"
#include "src/metrics/metrics.h"

namespace edenbench {

struct WorkloadSpec {

  std::string name;
  size_t nodes = 16;
  size_t shards = 0;  // 0 = shared CSMA/CD Ethernet, >= 1 = switched + sharded
  // Virtual time by which object creation, initial checkpoints and cache
  // warming must have finished; warming starts at half of it. Clients start
  // exactly here, so the window's position never depends on how the shards
  // happened to stop.
  eden::SimDuration setup_until = 0;
  eden::SimDuration warmup = 0;  // virtual warm-up before the window
  eden::SimDuration window = 0;  // measured virtual-time window
  eden::SimDuration think = 0;   // mean exponential think time, 0 = none
  bool lease_reads = false;
  size_t objects = 0;
  size_t payload_bytes = 0;  // put size (data workloads)
  // Ring workloads: when nonzero, each client's put size is drawn once per
  // seed, uniformly from payload_bytes +- payload_spread.
  size_t payload_spread = 0;
  double write_fraction = 0;  // zipf_lease: share of increments
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

struct PassOptions {
  uint64_t seed = 1;
  bool spans = false;      // attach a SpanCollector for the whole pass
  bool telemetry = false;  // TelemetryConfig::enabled at the default cadence
  int shards = -1;         // sharded workloads: override the shard count
  // Sharded workloads: run the window's shards on worker threads. Off, the
  // engine's round-robin loop runs the same events on the calling thread.
  bool threaded = false;
  BenchTracer* tracer = nullptr;
};

// What one pass measured. Counts and latencies cover invocations issued
// inside the window; `before`/`after` are Rollup() snapshots at the window's
// start and end, so window deltas of any instrument can be taken.
struct PassResult {
  double setup_s = 0;   // host: process state -> start of the window
  double window_s = 0;  // host: the window, including its drain
  // The same in reference seconds: wall seconds x the host speed sampled
  // (calibrate.h) around setup and after every slice.
  double setup_ref_s = 0;
  double window_ref_s = 0;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;            // read-class invocations attempted
  uint64_t all_invocations = 0;  // warm-up included
  std::vector<int64_t> latencies;        // ns virtual, ascending
  std::vector<int64_t> write_latencies;  // write-class only, ascending
  eden::SimDuration window_virtual = 0;

  uint64_t model_digest = 0;    // fold of every node's digest()
  uint64_t counter_digest = 0;  // fold of every model counter after the window
  uint64_t latency_digest = 0;  // fold of every window latency, client order
  std::vector<uint64_t> node_digests;

  eden::MetricsRegistry before;
  eden::MetricsRegistry after;
  uint64_t events = 0;  // simulation events in the window, all shards
  std::vector<uint64_t> shard_events;
  double pending_events_mean = 0;  // live events, sampled at slice ends
  eden::SimDuration lan_busy = 0;
  size_t lan_stations = 0;
  eden::SimDuration store_busy = 0;  // summed over nodes
  uint64_t spans_started = 0;        // whole pass, when spans are on
  eden::LanConfig lan_config;
  eden::DiskConfig disk_config;
  eden::Capability sample_target;  // a typical target, for codec probes
  std::string sample_operation;

  std::string error;  // empty when every output check passed

  uint64_t Delta(const std::string& counter) const {
    return after.CounterValue(counter) - before.CounterValue(counter);
  }
  eden::Histogram HistogramDelta(const std::string& name) const;
};

PassResult RunPass(const WorkloadSpec& spec, const PassOptions& options);

}  // namespace edenbench

#endif  // EDENBENCH_WORKLOADS_H_
