#include "edenbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "edenbench/calibrate.h"
#include "edenbench/helpers.h"
#include "src/common/log.h"
#include "src/sim/task.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"

namespace edenbench {

using eden::Bytes;
using eden::Capability;
using eden::EdenSystem;
using eden::InvokeArgs;
using eden::InvokeResult;
using eden::Milliseconds;
using eden::Seconds;
using eden::SimDuration;
using eden::SimTime;

namespace {

// Window lengths are sized so one pass costs 0.7 to 2 host seconds on a
// 4-core x86 host (Release build) and every window holds well over 1,000
// invocations, so its p99 has at least ten samples beyond it. zipf_lease's
// p99 rides on rare lease recalls and needs the longest window to be steady
// across seeds.
const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "ring_csma",
     .nodes = 16,
     .setup_until = Milliseconds(200),
     .warmup = Seconds(2),
     .window = Seconds(16),
     .objects = 16,
     .payload_bytes = 128},
    {.name = "zipf_lease",
     .nodes = 16,
     .setup_until = Milliseconds(50),
     .warmup = Seconds(2),
     .window = Seconds(48),
     .think = Milliseconds(8),
     .lease_reads = true,
     .objects = 256,
     .write_fraction = 0.05},
    {.name = "durable_mirror",
     .nodes = 16,
     .setup_until = Seconds(2),
     .warmup = Seconds(4),
     .window = Seconds(48),
     .objects = 64,
     .payload_bytes = 1024},
    {.name = "sharded_ring",
     .nodes = 256,
     .shards = 2,
     .setup_until = Milliseconds(50),
     .warmup = Milliseconds(20),
     .window = Milliseconds(100),
     .objects = 256,
     .payload_bytes = 128,
     .payload_spread = 64},
};

constexpr SimDuration kRequestTimeout = Seconds(10);
// RunUntil slices the window is cut into (live-event samples, bench spans).
constexpr int kSlices = 8;

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

// A put payload that names its writer: client, sequence number, then filler
// derived from both, so any two puts differ.
Bytes Payload(size_t client, uint64_t seq, size_t size) {
  eden::BufferWriter writer;
  writer.WriteU64(client);
  writer.WriteU64(seq);
  Bytes out = writer.Take();
  out.resize(std::max(size, out.size()));
  for (size_t i = 16; i < out.size(); i++) {
    out[i] = static_cast<uint8_t>(client * 31 + seq * 7 + i);
  }
  return out;
}

Capability CreateData(EdenSystem& system, size_t node, size_t bytes,
                      eden::CreateOptions options = {}) {
  eden::Representation rep;
  rep.set_data(0, Bytes(bytes, 0));
  auto cap = system.node(node).CreateObject("std.data", rep, options);
  if (!cap.ok()) {
    eden::FatalError("edenbench: cannot create std.data object");
  }
  return *cap;
}

std::string GetBytes(EdenSystem& system, size_t from, const Capability& target,
                     Bytes* out) {
  InvokeResult r = system.Await(system.node(from).Invoke(target, "get"));
  if (!r.ok()) {
    return "get failed: " + r.status.ToString();
  }
  auto bytes = r.results.BytesAt(0);
  if (!bytes.ok()) {
    return "get returned no bytes";
  }
  *out = std::move(*bytes);
  return "";
}

struct Op {
  Capability target;
  std::string operation;
  InvokeArgs args;
  bool write = false;
  size_t object = 0;  // workload-local object index
  Bytes payload;      // what a put writes, kept for the output checks
};

// A workload's objects, request stream and output checks. Next and Done run
// on the issuing client's shard thread and touch only that client's state.
class Workload {
 public:
  virtual ~Workload() = default;
  // Creates the objects and launches their initial checkpoints, all at once.
  virtual std::vector<eden::Future<InvokeResult>> Create(EdenSystem& system) = 0;
  // Launches the cache-warming invocations, once creation has settled.
  virtual std::vector<eden::Future<InvokeResult>> Warm(EdenSystem& system) {
    return {};
  }
  virtual Op Next(size_t client, uint64_t seq, eden::Rng& rng) = 0;
  virtual void Done(size_t client, const Op& op, const InvokeResult& result) = 0;
  // Runs after the window has drained; returns "" when every check passes.
  virtual std::string Check(EdenSystem& system) = 0;
  virtual Capability Sample() const = 0;
};

// ring_csma / sharded_ring: client i puts to a std.data object homed on node
// i+1; the final get of every target must return the last acknowledged put.
// With payload_spread, client i's put size is fixed per seed: on the switched
// LAN nothing else varies an invocation's virtual latency.
class RingWorkload : public Workload {
 public:
  RingWorkload(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec),
        payload_bytes_(spec.nodes, spec.payload_bytes),
        last_acked_(spec.nodes),
        unacked_(spec.nodes, 0) {
    eden::Rng rng(seed ^ 0x5bd1e9955bd1e995ULL);
    for (size_t& bytes : payload_bytes_) {
      if (spec.payload_spread > 0) {
        bytes += rng.NextBelow(2 * spec.payload_spread + 1);
        bytes -= spec.payload_spread;
      }
    }
  }

  std::vector<eden::Future<InvokeResult>> Create(EdenSystem& system) override {
    size_t n = spec_.nodes;
    for (size_t i = 0; i < n; i++) {
      targets_.push_back(CreateData(system, (i + 1) % n, payload_bytes_[i]));
      last_acked_[i] = Bytes(payload_bytes_[i], 0);
    }
    return {};
  }

  std::vector<eden::Future<InvokeResult>> Warm(EdenSystem& system) override {
    std::vector<eden::Future<InvokeResult>> warm;
    for (size_t i = 0; i < spec_.nodes; i++) {
      warm.push_back(system.node(i).Invoke(targets_[i], "size"));
    }
    return warm;
  }

  Op Next(size_t client, uint64_t seq, eden::Rng&) override {
    Op op;
    op.target = targets_[client];
    op.operation = "put";
    op.write = true;
    op.object = client;
    op.payload = Payload(client, seq, payload_bytes_[client]);
    op.args.AddBytes(op.payload);
    return op;
  }

  void Done(size_t client, const Op& op, const InvokeResult& result) override {
    if (result.ok()) {
      last_acked_[client] = op.payload;
      unacked_[client] = 0;
    } else {
      unacked_[client]++;
    }
  }

  std::string Check(EdenSystem& system) override {
    for (size_t i = 0; i < spec_.nodes; i++) {
      Bytes got;
      std::string error = GetBytes(system, i, targets_[i], &got);
      if (!error.empty()) {
        return "ring target " + std::to_string(i) + ": " + error;
      }
      // A put that failed after the last ack may still have been applied.
      if (got != last_acked_[i] && unacked_[i] == 0) {
        return "ring target " + std::to_string(i) +
               " does not hold the last acknowledged put";
      }
    }
    return "";
  }

  Capability Sample() const override { return targets_.front(); }

 private:
  WorkloadSpec spec_;
  std::vector<size_t> payload_bytes_;  // by client
  std::vector<Capability> targets_;
  std::vector<Bytes> last_acked_;
  std::vector<uint64_t> unacked_;  // failed puts since the last ack
};

// zipf_lease: std.counter objects homed round-robin, Zipf(1) targets, a
// read/increment mix. The counters must sum to the acknowledged increments.
class ZipfLeaseWorkload : public Workload {
 public:
  explicit ZipfLeaseWorkload(const WorkloadSpec& spec)
      : spec_(spec),
        zipf_(spec.objects, 1.0),
        acked_(spec.nodes, 0),
        unacked_(spec.nodes, 0) {}

  std::vector<eden::Future<InvokeResult>> Create(EdenSystem& system) override {
    for (size_t j = 0; j < spec_.objects; j++) {
      auto cap = system.node(j % spec_.nodes)
                     .CreateObject("std.counter", eden::Representation{});
      if (!cap.ok()) {
        eden::FatalError("edenbench: cannot create std.counter object");
      }
      counters_.push_back(*cap);
    }
    return {};
  }

  Op Next(size_t, uint64_t, eden::Rng& rng) override {
    Op op;
    op.object = zipf_.Sample(rng);
    op.target = counters_[op.object];
    op.write = rng.NextDouble() < spec_.write_fraction;
    op.operation = op.write ? "increment" : "read";
    return op;
  }

  void Done(size_t client, const Op& op, const InvokeResult& result) override {
    if (op.write) {
      (result.ok() ? acked_ : unacked_)[client]++;
    }
  }

  std::string Check(EdenSystem& system) override {
    uint64_t sum = 0;
    for (size_t j = 0; j < counters_.size(); j++) {
      InvokeResult r = system.Await(
          system.node(j % spec_.nodes).Invoke(counters_[j], "read"));
      if (!r.ok()) {
        return "counter read failed: " + r.status.ToString();
      }
      sum += r.results.U64At(0).value_or(0);
    }
    uint64_t acked = 0;
    uint64_t unacked = 0;
    for (size_t c = 0; c < acked_.size(); c++) {
      acked += acked_[c];
      unacked += unacked_[c];
    }
    // Exactly once: every acknowledged increment applied once; a failed one
    // at most once.
    if (sum < acked || sum > acked + unacked) {
      return "counters sum to " + std::to_string(sum) + ", acknowledged " +
             std::to_string(acked) + " increments";
    }
    return "";
  }

  Capability Sample() const override { return counters_.front(); }

 private:
  WorkloadSpec spec_;
  ZipfSampler zipf_;
  std::vector<Capability> counters_;
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> unacked_;
};

// durable_mirror: objects_per_node std.data objects per node, mirrored to the
// next node. Client i cycles put -> checkpoint -> get over node i+1's
// objects. Every get must return the preceding put; after the window one
// primary site crashes and restarts, and each of its objects must
// reincarnate holding its last checkpointed put.
class DurableMirrorWorkload : public Workload {
 public:
  explicit DurableMirrorWorkload(const WorkloadSpec& spec)
      : spec_(spec),
        per_node_(spec.objects / spec.nodes),
        last_put_(spec.objects),
        last_ckpt_(spec.objects),
        errors_(spec.nodes) {}

  std::vector<eden::Future<InvokeResult>> Create(EdenSystem& system) override {
    size_t n = spec_.nodes;
    std::vector<eden::Future<InvokeResult>> checkpoints;
    for (size_t k = 0; k < spec_.objects; k++) {
        size_t host = k / per_node_;
      eden::CheckpointPolicy policy;
      policy.primary_site = system.node(host).station();
      policy.level = eden::ReliabilityLevel::kMirrored;
      policy.mirror_site = system.node((host + 1) % n).station();
      eden::CreateOptions options;
      options.policy = policy;
      objects_.push_back(CreateData(system, host, spec_.payload_bytes, options));
      last_put_[k] = Bytes(spec_.payload_bytes, 0);
      last_ckpt_[k] = last_put_[k];
      checkpoints.push_back(system.node(host).Invoke(objects_[k], "checkpoint"));
    }
    return checkpoints;
  }

  std::vector<eden::Future<InvokeResult>> Warm(EdenSystem& system) override {
    std::vector<eden::Future<InvokeResult>> warm;
    for (size_t i = 0; i < spec_.nodes; i++) {
      for (size_t j = 0; j < per_node_; j++) {
        warm.push_back(system.node(i).Invoke(objects_[ObjectOf(i, j)], "size"));
      }
    }
    return warm;
  }

  Op Next(size_t client, uint64_t seq, eden::Rng&) override {
    Op op;
    op.object = ObjectOf(client, (seq / 3) % per_node_);
    op.target = objects_[op.object];
    switch (seq % 3) {
      case 0:
        op.operation = "put";
        op.write = true;
        op.payload = Payload(client, seq, spec_.payload_bytes);
        op.args.AddBytes(op.payload);
        break;
      case 1:
        op.operation = "checkpoint";
        break;
      default:
        op.operation = "get";
        break;
    }
    return op;
  }

  void Done(size_t client, const Op& op, const InvokeResult& result) override {
    if (!result.ok()) {
      return;  // counted as failed by the client loop
    }
    if (op.operation == "put") {
      last_put_[op.object] = op.payload;
    } else if (op.operation == "checkpoint") {
      last_ckpt_[op.object] = last_put_[op.object];
    } else if (result.results.BytesAt(0).value_or(Bytes{}) !=
                   last_put_[op.object] &&
               errors_[client].empty()) {
      errors_[client] = "get of object " + std::to_string(op.object) +
                        " did not return the preceding put";
    }
  }

  std::string Check(EdenSystem& system) override {
    for (const std::string& e : errors_) {
      if (!e.empty()) {
        return e;
      }
    }
    // Crash node 1, the primary site of the objects client 0 writes, and
    // restart it: each object must come back from its checkpoint.
    const size_t site = 1 % spec_.nodes;
    const size_t reader = 0;
    system.RunFor(Milliseconds(50));
    system.node(site).FailNode();
    system.RunFor(Milliseconds(10));
    system.node(site).RestartNode();
    for (size_t j = 0; j < per_node_; j++) {
      size_t k = site * per_node_ + j;
      Bytes got;
      std::string error = GetBytes(system, reader, objects_[k], &got);
      if (!error.empty()) {
        return "reincarnated object " + std::to_string(k) + ": " + error;
      }
      if (got != last_ckpt_[k]) {
        return "object " + std::to_string(k) +
               " did not reincarnate holding its last checkpointed put";
      }
    }
    return "";
  }

  Capability Sample() const override { return objects_.front(); }

 private:
  // The j-th object client `client` works on: those homed on its neighbour.
  size_t ObjectOf(size_t client, size_t j) const {
    return ((client + 1) % spec_.nodes) * per_node_ + j;
  }

  WorkloadSpec spec_;
  size_t per_node_;
  std::vector<Capability> objects_;
  std::vector<Bytes> last_put_;
  std::vector<Bytes> last_ckpt_;
  std::vector<std::string> errors_;  // first failed in-window check, per client
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.name == "zipf_lease") {
    return std::make_unique<ZipfLeaseWorkload>(spec);
  }
  if (spec.name == "durable_mirror") {
    return std::make_unique<DurableMirrorWorkload>(spec);
  }
  return std::make_unique<RingWorkload>(spec, seed);
}

struct ClientState {
  size_t index = 0;
  eden::Rng rng{1};
  bool done = false;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t all = 0;
  std::vector<int64_t> latencies;
  std::vector<int64_t> write_latencies;
};

// One closed-loop client: one outstanding invocation, then an exponential
// think time. Clocked by its node's shard simulation; records only into its
// own ClientState. Invocations issued before `window_start` are warm-up.
eden::Task<void> RunClient(eden::NodeKernel* node, Workload* workload,
                           ClientState* state, SimTime window_start,
                           SimTime deadline, SimDuration mean_think) {
  eden::Simulation& clock = node->sim();
  // Named local, not an inline temporary: see kDefaultInvokeOptions.
  eden::InvokeOptions options = eden::InvokeOptions::WithTimeout(kRequestTimeout);
  uint64_t seq = 0;
  while (clock.now() < deadline) {
    Op op = workload->Next(state->index, seq++, state->rng);
    SimTime start = clock.now();
    InvokeResult result = co_await node->Invoke(op.target, op.operation,
                                                std::move(op.args), options);
    state->all++;
    if (start >= window_start) {
      state->attempted++;
      state->reads += op.write ? 0 : 1;
      if (result.ok()) {
        state->completed++;
        state->latencies.push_back(clock.now() - start);
        if (op.write) {
          state->write_latencies.push_back(clock.now() - start);
        }
      } else {
        state->failed++;
      }
    }
    workload->Done(state->index, op, result);
    if (mean_think > 0) {
      auto think = static_cast<SimDuration>(
          state->rng.NextExponential(static_cast<double>(mean_think)));
      co_await eden::SleepFor(clock, think);
    }
  }
  state->done = true;
}

uint64_t StoreBusy(EdenSystem& system) {
  uint64_t busy = 0;
  for (size_t i = 0; i < system.node_count(); i++) {
    busy += static_cast<uint64_t>(system.node(i).store().stats().busy_time);
  }
  return busy;
}

size_t PendingEvents(EdenSystem& system) {
  size_t pending = 0;
  for (size_t s = 0; s < system.shard_count(); s++) {
    pending += system.shard_sim(s).pending_events();
  }
  return pending;
}

// Advances every shard to `deadline`. A sharded system runs its shards on
// worker threads only when `threaded`; otherwise the engine's single-threaded
// round-robin loop executes the identical event sequence.
void RunWindowTo(EdenSystem& system, SimTime deadline, bool threaded) {
  if (system.sharded()) {
    system.engine()->RunUntil(deadline, threaded);
  } else {
    system.RunUntil(deadline);
  }
}

bool ModelCounter(const std::string& name) {
  // Tracing and telemetry add their own counters; everything else is the
  // modelled installation's and must not move when they are switched on.
  return name.rfind("trace.", 0) != 0 && name.rfind("telemetry.", 0) != 0;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

eden::Histogram PassResult::HistogramDelta(const std::string& name) const {
  const eden::Histogram* end = after.FindHistogram(name);
  if (end == nullptr) {
    return eden::Histogram();
  }
  const eden::Histogram* start = before.FindHistogram(name);
  return start == nullptr ? *end : end->DeltaSince(*start);
}

PassResult RunPass(const WorkloadSpec& spec, const PassOptions& options) {
  PassResult out;
  BenchTracer* tracer = options.tracer;
  SpanScope pass_span(tracer, "pass");
  double speed_before = HostSpeedNow();
  auto t0 = HostClock::now();

  // Declared before the system, which holds a pointer to it.
  eden::SpanCollector collector;
  eden::SystemConfig config;
  config.seed = options.seed;
  config.shards = spec.shards == 0 ? 0
                  : options.shards > 0 ? static_cast<size_t>(options.shards)
                                       : spec.shards;
  config.kernel.lease_reads = spec.lease_reads;
  config.telemetry.enabled = options.telemetry;
  std::unique_ptr<EdenSystem> system;
  {
    SpanScope span(tracer, "build_system");
    system = std::make_unique<EdenSystem>(config);
    if (options.spans) {
      system->set_span_collector(&collector);
    }
    eden::RegisterStandardTypes(*system);
    system->AddNodes(spec.nodes);
  }
  std::unique_ptr<Workload> workload = MakeWorkload(spec, options.seed);
  std::vector<eden::Future<InvokeResult>> warm;
  {
    SpanScope span(tracer, "create_objects");
    warm = workload->Create(*system);
    // Creation publishes residences to the directory and writes the initial
    // checkpoints; warming starts once that traffic has cleared.
    RunWindowTo(*system, spec.setup_until / 2, options.threaded);
  }
  {
    SpanScope span(tracer, "warm_caches");
    for (auto& f : workload->Warm(*system)) {
      warm.push_back(std::move(f));
    }
    RunWindowTo(*system, spec.setup_until, options.threaded);
  }
  for (size_t i = 0; i < warm.size(); i++) {
    if (!warm[i].ready()) {
      out.error = "setup did not finish by its virtual deadline";
    } else if (!warm[i].Get().ok() && out.error.empty()) {
      out.error = "setup invocation " + std::to_string(i) +
                  " failed: " + warm[i].Get().status.ToString();
    }
  }

  const SimTime window_start = spec.setup_until + spec.warmup;
  const SimTime deadline = window_start + spec.window;
  std::vector<ClientState> clients(spec.nodes);
  for (size_t c = 0; c < clients.size(); c++) {
    clients[c].index = c;
    // Per-client streams: draws are independent of the shard layout.
    clients[c].rng = eden::Rng(options.seed * 0x2545f4914f6cdd1dULL ^
                               (0x9e3779b97f4a7c15ULL * (c + 1)));
  }
  for (size_t c = 0; c < clients.size(); c++) {
    eden::Spawn(RunClient(&system->node(c), workload.get(), &clients[c],
                          window_start, deadline, spec.think));
  }
  {
    SpanScope span(tracer, "warmup");
    RunWindowTo(*system, window_start, options.threaded);
  }

  out.before = system->Rollup();
  const uint64_t events0 = system->total_events();
  std::vector<uint64_t> shard_events0;
  for (size_t s = 0; s < system->shard_count(); s++) {
    shard_events0.push_back(system->shard_sim(s).events_executed());
  }
  const SimDuration lan_busy0 = system->lan().stats().busy_time;
  const uint64_t store_busy0 = StoreBusy(*system);
  out.setup_s = SecondsSince(t0);
  speed_before = (speed_before + HostSpeedNow()) / 2;
  out.setup_ref_s = out.setup_s * speed_before;

  // Each slice is timed alone and weighted by the host speed sampled on
  // either side of it; the samples themselves are not in the window.
  auto timed = [&](auto&& run) {
    auto t = HostClock::now();
    run();
    double wall = SecondsSince(t);
    double after = HostSpeedNow();
    out.window_s += wall;
    out.window_ref_s += wall * (speed_before + after) / 2;
    speed_before = after;
  };
  double pending_sum = 0;
  for (int k = 1; k <= kSlices; k++) {
    SpanScope span(tracer, "run_until_slice");
    timed([&] { RunWindowTo(*system, window_start + spec.window * k / kSlices,
                            options.threaded); });
    pending_sum += static_cast<double>(PendingEvents(*system));
  }
  {
    SpanScope span(tracer, "drain");
    timed([&] {
      system->DriveWhile([&clients] {
        for (const ClientState& c : clients) {
          if (!c.done) {
            return true;
          }
        }
        return false;
      });
    });
  }
  out.window_virtual = spec.window;
  out.pending_events_mean = pending_sum / kSlices;

  out.after = system->Rollup();
  out.events = system->total_events() - events0;
  for (size_t s = 0; s < system->shard_count(); s++) {
    out.shard_events.push_back(system->shard_sim(s).events_executed() -
                               shard_events0[s]);
  }
  out.lan_busy = system->lan().stats().busy_time - lan_busy0;
  out.lan_stations = system->lan().station_count();
  out.store_busy = static_cast<SimDuration>(StoreBusy(*system) - store_busy0);
  out.lan_config = system->lan().config();
  out.disk_config = system->config().disk;
  out.sample_target = workload->Sample();
  out.sample_operation = spec.name == "zipf_lease" ? "read" : "put";

  eden::Digest latencies;
  for (const ClientState& c : clients) {
    for (int64_t ns : c.latencies) {
      latencies.Mix(static_cast<uint64_t>(ns));
    }
    out.attempted += c.attempted;
    out.completed += c.completed;
    out.failed += c.failed;
    out.reads += c.reads;
    out.all_invocations += c.all;
    out.latencies.insert(out.latencies.end(), c.latencies.begin(),
                         c.latencies.end());
    out.write_latencies.insert(out.write_latencies.end(),
                               c.write_latencies.begin(),
                               c.write_latencies.end());
  }
  out.latency_digest = latencies.value();
  std::sort(out.latencies.begin(), out.latencies.end());
  std::sort(out.write_latencies.begin(), out.write_latencies.end());

  eden::Digest model;
  for (size_t i = 0; i < system->node_count(); i++) {
    uint64_t d = system->node(i).digest().value();
    out.node_digests.push_back(d);
    model.Mix(d);
  }
  out.model_digest = model.value();
  eden::Digest counters;
  for (const auto& [name, counter] : out.after.counters()) {
    if (ModelCounter(name)) {
      counters.Mix(name);
      counters.Mix(counter->value());
    }
  }
  out.counter_digest = counters.value();

  if (out.error.empty()) {
    SpanScope span(tracer, "output_checks");
    out.error = workload->Check(*system);
  }
  if (options.spans) {
    system->MergeSpans();
    out.spans_started = collector.stats().spans_started;
  }
  {
    SpanScope span(tracer, "teardown");
    system.reset();
  }
  return out;
}

}  // namespace edenbench
