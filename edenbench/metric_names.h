// Every metric the benchmark reports, with its unit. BENCHMARK.json at the
// repository root lists the same names: the end-to-end set is what a run
// with --trace 0 prints, the per-layer set what a run with --trace 1 prints.
#ifndef EDENBENCH_METRIC_NAMES_H_
#define EDENBENCH_METRIC_NAMES_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/trace/span.h"

namespace edenbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

inline const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sim_inv_per_s", "1/s"},       {"setup_s", "s"},
      {"peak_rss_mb", "MB"},          {"vt_inv_per_s", "1/s"},
      {"vt_latency_p50_us", "us"},    {"vt_latency_p99_us", "us"},
  };
  return kMetrics;
}

// trace.phase.<kind>.share for every span kind, in SpanKind order.
inline std::string PhaseShareName(size_t kind) {
  return "trace.phase." +
         std::string(eden::SpanKindName(static_cast<eden::SpanKind>(kind))) +
         ".share";
}

inline const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        {"sim.events_per_inv", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.pending_events_mean", "count"},
        {"sim.probe.schedule_step_ns", "ns"},
        {"shard.speedup_2v1", "ratio"},
        {"shard.event_imbalance", "ratio"},
        {"lan.frames_per_inv", "count"},
        {"lan.bytes_per_inv", "B"},
        {"lan.collisions_per_inv", "count"},
        {"lan.transmit_failures_per_kinv", "count"},
        {"lan.utilization", "ratio"},
        {"lan.queue_delay_p99_us", "us"},
        {"lan.probe.ns_per_frame", "ns"},
        {"transport.msgs_per_inv", "count"},
        {"transport.standalone_acks_per_msg", "ratio"},
        {"transport.retransmits_per_kmsg", "count"},
        {"transport.fragments_per_msg", "ratio"},
        {"transport.probe.ns_per_msg", "ns"},
        {"codec.probe.invoke_req_encode_ns", "ns"},
        {"codec.probe.invoke_req_decode_ns", "ns"},
        {"codec.probe.invoke_reply_roundtrip_ns", "ns"},
        {"codec.probe.crc32_ns_per_kb", "ns"},
        {"kernel.dispatches_per_inv", "count"},
        {"kernel.remote_inv_ratio", "ratio"},
        {"kernel.queue_refusals", "count"},
        {"kernel.probe.local_invoke_ns", "ns"},
        {"location.cache_hit_ratio", "ratio"},
        {"location.queries_per_kinv", "count"},
        {"location.directory_lookups_per_kinv", "count"},
        {"location.fallbacks", "count"},
        {"lease.local_read_ratio", "ratio"},
        {"lease.grants_per_kinv", "count"},
        {"lease.recalls_per_kinv", "count"},
        {"lease.write_p99_us", "us"},
        {"store.ops_per_inv", "count"},
        {"store.batched_write_ratio", "ratio"},
        {"store.bytes_per_ckpt", "B"},
        {"store.utilization", "ratio"},
        {"store.write_p99_us", "us"},
        {"store.probe.put_ns", "ns"},
        {"trace.overhead_pct", "%"},
        {"trace.spans_per_inv", "count"},
    };
    for (size_t k = 0; k < eden::kSpanKindCount; k++) {
      m.push_back({PhaseShareName(k), "ratio"});
    }
    m.push_back({"telemetry.overhead_pct", "%"});
    for (const char* layer : {"sim", "lan", "transport", "codec", "store"}) {
      m.push_back({std::string("ledger.") + layer + ".share_est", "ratio"});
    }
    m.push_back({"ledger.unexplained", "ratio"});
    m.push_back({"ops_failed_ratio", "ratio"});
    return m;
  }();
  return kMetrics;
}

}  // namespace edenbench

#endif  // EDENBENCH_METRIC_NAMES_H_
