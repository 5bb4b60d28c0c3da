#include "edenbench/probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "edenbench/helpers.h"
#include "src/common/log.h"
#include "src/kernel/eden_system.h"
#include "src/kernel/message.h"
#include "src/net/transport.h"
#include "src/types/standard_types.h"

namespace edenbench {

using eden::Bytes;
using eden::SimDuration;

namespace {

constexpr int kBatches = 5;
// Live events in a bare layer probe's queue (a few timers and deliveries).
constexpr size_t kBareProbeDepth = 4;

// Keeps probe results observable so the timed work cannot be optimized away.
volatile uint64_t g_sink = 0;

using HostClock = std::chrono::steady_clock;

double NsSince(HostClock::time_point start) {
  return std::chrono::duration<double, std::nano>(HostClock::now() - start)
      .count();
}

// Median over kBatches of `batch()`, which returns ns per unit of work.
template <typename Fn>
double MedianOfBatches(Fn batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; b++) {
    samples.push_back(batch());
  }
  return Median(samples);
}

// Host ns per executed event at a live depth of `depth`: one Schedule and one
// Step per event, plus a Schedule + Cancel pair every kCancelEvery events (a
// remote invocation cancels about two timers per ~15 events).
double ProbeEventCost(size_t depth) {
  constexpr int kCancelEvery = 8;
  eden::Simulation sim(1);
  eden::Rng rng(7);
  auto delay = [&rng] {
    return static_cast<SimDuration>(1 + rng.NextBelow(1000000));
  };
  for (size_t i = 0; i < std::max<size_t>(depth, 1); i++) {
    sim.Schedule(delay(), [] {});
  }
  return MedianOfBatches([&] {
    constexpr int kEvents = 100000;
    auto start = HostClock::now();
    for (int i = 0; i < kEvents; i++) {
      sim.Schedule(delay(), [] {});
      if (i % kCancelEvery == 0) {
        sim.Cancel(sim.Schedule(delay(), [] {}));
      }
      sim.Step();
    }
    return NsSince(start) / kEvents;
  });
}

// A bare copy of the workload's LAN: same medium, no loss.
std::unique_ptr<eden::Lan> BareLan(eden::Simulation& sim,
                                   const eden::LanConfig& workload_lan) {
  eden::LanConfig config = workload_lan;
  config.switched = false;
  config.loss_probability = 0;
  auto lan = std::make_unique<eden::Lan>(sim, config);
  if (workload_lan.switched) {
    lan->EnableSwitched();
  }
  return lan;
}

// Gross and net ns per unit of work.
struct Cost {
  double gross = 0;
  double net = 0;
};

Cost ProbeLanFrame(const ProbeInputs& in, double event_ns) {
  eden::Simulation sim(1);
  auto lan = BareLan(sim, in.lan);
  eden::Station* a = lan->AttachStation();
  eden::Station* b = lan->AttachStation();
  b->SetReceiveHandler([](const eden::Frame& f) { g_sink = g_sink + f.wire_size(); });
  size_t payload = std::min(std::max<size_t>(in.frame_payload_bytes, 1),
                            in.lan.max_payload_bytes);
  double events_per_frame = 0;
  double gross = MedianOfBatches([&] {
    constexpr int kFrames = 4000;
    std::vector<eden::Frame> frames(kFrames);
    for (eden::Frame& f : frames) {
      f.dst = b->id();
      f.header = Bytes(payload, 0x5a);
    }
    uint64_t events0 = sim.events_executed();
    auto start = HostClock::now();
    for (eden::Frame& f : frames) {
      a->Send(std::move(f));
    }
    sim.Run();
    double ns = NsSince(start);
    events_per_frame = static_cast<double>(sim.events_executed() - events0) / kFrames;
    return ns / kFrames;
  });
  return {gross, std::max(0.0, gross - events_per_frame * event_ns)};
}

Cost ProbeTransportMsg(const ProbeInputs& in, double event_ns,
                       double lan_net_ns) {
  eden::Simulation sim(1);
  auto lan = BareLan(sim, in.lan);
  eden::Transport a(sim, *lan);
  eden::Transport b(sim, *lan);
  b.SetHandler([](eden::StationId, eden::BytesView m) { g_sink = g_sink + m.size(); });
  size_t bytes = std::max<size_t>(in.message_bytes, 1);
  // One message at a time, each run to its ACK: a burst would queue behind
  // the wire past the retransmit timeout and time retransmissions instead.
  double events_per_msg = 0;
  double frames_per_msg = 0;
  double gross = MedianOfBatches([&] {
    constexpr int kMessages = 2000;
    std::vector<Bytes> messages(kMessages, Bytes(bytes, 0x42));
    uint64_t events0 = sim.events_executed();
    uint64_t frames0 = lan->stats().frames_sent;
    auto start = HostClock::now();
    for (Bytes& m : messages) {
      a.SendReliable(b.station_id(), std::move(m));
      sim.Run();
    }
    double ns = NsSince(start);
    events_per_msg = static_cast<double>(sim.events_executed() - events0) / kMessages;
    frames_per_msg =
        static_cast<double>(lan->stats().frames_sent - frames0) / kMessages;
    return ns / kMessages;
  });
  return {gross, std::max(0.0, gross - events_per_msg * event_ns -
                                   frames_per_msg * lan_net_ns)};
}

void ProbeCodec(const ProbeInputs& in, ProbeResults* out) {
  eden::InvokeRequestMsg request;
  request.invocation_id = 0x1234567;
  request.reply_to = 1;
  request.target = in.target;
  request.operation = in.operation;
  size_t header = request.Encode().size();
  size_t args = in.message_bytes > header ? in.message_bytes - header : 0;
  request.args.AddBytes(Bytes(args, 0x5a));
  constexpr int kOps = 20000;
  out->invoke_req_encode_ns = MedianOfBatches([&] {
    auto start = HostClock::now();
    for (int i = 0; i < kOps; i++) {
      g_sink = g_sink + request.Encode().size();
    }
    return NsSince(start) / kOps;
  });
  Bytes encoded = request.Encode();
  out->invoke_req_decode_ns = MedianOfBatches([&] {
    auto start = HostClock::now();
    for (int i = 0; i < kOps; i++) {
      g_sink = g_sink + eden::InvokeRequestMsg::Decode(encoded).ok();
    }
    return NsSince(start) / kOps;
  });
  eden::InvokeReplyMsg reply;
  reply.invocation_id = request.invocation_id;
  reply.result = eden::InvokeResult::Ok(eden::InvokeArgs{}.AddBytes(Bytes(args, 0x5a)));
  out->invoke_reply_roundtrip_ns = MedianOfBatches([&] {
    auto start = HostClock::now();
    for (int i = 0; i < kOps; i++) {
      g_sink = g_sink + eden::InvokeReplyMsg::Decode(reply.Encode()).ok();
    }
    return NsSince(start) / kOps;
  });
  Bytes block(64 * 1024, 0xa7);
  out->crc32_ns_per_kb = MedianOfBatches([&] {
    constexpr int kBlocks = 64;
    auto start = HostClock::now();
    for (int i = 0; i < kBlocks; i++) {
      block[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
      g_sink = g_sink + eden::Crc32(block);
    }
    return NsSince(start) / (kBlocks * 64.0);
  });
}

double ProbeLocalInvoke() {
  eden::SystemConfig config;
  config.seed = 1;
  eden::EdenSystem system(config);
  eden::RegisterStandardTypes(system);
  system.AddNodes(1);
  auto cap = system.node(0).CreateObject("std.counter", eden::Representation{});
  if (!cap.ok()) {
    eden::FatalError("edenbench: probe counter creation failed");
  }
  system.RunFor(eden::Milliseconds(5));
  return MedianOfBatches([&] {
    constexpr int kInvokes = 2000;
    auto start = HostClock::now();
    for (int i = 0; i < kInvokes; i++) {
      g_sink = g_sink + system.Await(system.node(0).Invoke(*cap, "increment")).ok();
    }
    return NsSince(start) / kInvokes;
  });
}

Cost ProbeStorePut(const ProbeInputs& in, double event_ns) {
  eden::Simulation sim(1);
  eden::StableStore store(sim, in.disk);
  eden::SharedBytes record(Bytes(std::max<size_t>(in.record_bytes, 1), 0x3c));
  std::vector<std::string> keys;
  for (int k = 0; k < 64; k++) {
    keys.push_back("ckpt/probe" + std::to_string(k));
  }
  // Puts arrive a few at a time, as checkpoint writes do, so the elevator
  // scans a short queue and group commit still batches.
  double events_per_put = 0;
  double gross = MedianOfBatches([&] {
    constexpr int kPuts = 2000;
    constexpr int kBurst = 8;
    uint64_t events0 = sim.events_executed();
    auto start = HostClock::now();
    for (int i = 0; i < kPuts; i++) {
      store.Put(keys[static_cast<size_t>(i) % keys.size()], record);
      if (i % kBurst == kBurst - 1) {
        sim.Run();
      }
    }
    sim.Run();
    double ns = NsSince(start);
    events_per_put = static_cast<double>(sim.events_executed() - events0) / kPuts;
    return ns / kPuts;
  });
  return {gross, std::max(0.0, gross - events_per_put * event_ns)};
}

}  // namespace

ProbeResults RunProbes(const ProbeInputs& in, BenchTracer* tracer) {
  ProbeResults out;
  // The bare layer probes keep only a few events live; their event-queue
  // work is netted out at that depth, not at the workload's.
  double bare_event_ns = 0;
  {
    SpanScope span(tracer, "probe.sim");
    out.schedule_step_ns = ProbeEventCost(in.pending_events);
    bare_event_ns = ProbeEventCost(kBareProbeDepth);
  }
  {
    SpanScope span(tracer, "probe.lan");
    Cost lan = ProbeLanFrame(in, bare_event_ns);
    out.lan_ns_per_frame = lan.gross;
    out.lan_net_ns = lan.net;
  }
  {
    SpanScope span(tracer, "probe.transport");
    Cost transport = ProbeTransportMsg(in, bare_event_ns, out.lan_net_ns);
    out.transport_ns_per_msg = transport.gross;
    out.transport_net_ns = transport.net;
  }
  {
    SpanScope span(tracer, "probe.codec");
    ProbeCodec(in, &out);
  }
  {
    SpanScope span(tracer, "probe.kernel");
    out.local_invoke_ns = ProbeLocalInvoke();
  }
  {
    SpanScope span(tracer, "probe.store");
    Cost store = ProbeStorePut(in, bare_event_ns);
    out.store_put_ns = store.gross;
    out.store_net_ns = store.net;
  }
  return out;
}

}  // namespace edenbench
