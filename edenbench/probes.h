// Isolated host-time probes of single layers, each sized from the workload's
// own counters. A probe drives one layer's public functions on a bare
// instance (no kernel above it) and reports nanoseconds per unit of work,
// including the event-queue work it triggers. The *_net_ns figures take that
// event-queue work out (the probe's events x a bare-depth event cost; the
// transport figure also its frames' net lan cost), floored at zero, so the
// ledger charges the event queue once, to `sim`.
#ifndef EDENBENCH_PROBES_H_
#define EDENBENCH_PROBES_H_

#include <cstddef>
#include <string>

#include "edenbench/bench_spans.h"
#include "src/kernel/capability.h"
#include "src/net/lan.h"
#include "src/storage/stable_store.h"

namespace edenbench {

struct ProbeInputs {
  size_t pending_events = 0;  // mean live events in the workload's queue
  size_t frame_payload_bytes = 0;
  size_t message_bytes = 0;
  size_t record_bytes = 0;
  eden::LanConfig lan;
  eden::DiskConfig disk;
  eden::Capability target;
  std::string operation;
};

struct ProbeResults {
  // Host ns per executed event (Schedule + Step, a Schedule + Cancel pair
  // every 8 events) at the workload's mean depth.
  double schedule_step_ns = 0;
  double lan_ns_per_frame = 0;
  double lan_net_ns = 0;
  double transport_ns_per_msg = 0;
  double transport_net_ns = 0;
  double invoke_req_encode_ns = 0;
  double invoke_req_decode_ns = 0;
  double invoke_reply_roundtrip_ns = 0;
  double crc32_ns_per_kb = 0;
  double local_invoke_ns = 0;
  double store_put_ns = 0;
  double store_net_ns = 0;
};

ProbeResults RunProbes(const ProbeInputs& inputs, BenchTracer* tracer);

}  // namespace edenbench

#endif  // EDENBENCH_PROBES_H_
