// edenbench: the Eden benchmark program.
//
//   edenbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>] [--spans-out <path>]
//
// --trace 0 repeats an untraced pass of the workload (fresh installation,
// warm-up, fixed virtual window, output checks) until --seconds of host time
// have passed, and reports the end-to-end metrics: host-time medians over the
// passes, virtual-time figures from the first pass (every pass must
// reproduce them exactly). --trace 1 alternates untraced, span-traced and
// telemetry passes for the same time, runs the layer probes, and reports the
// per-layer metrics and the host-time ledger. Host times are in reference
// seconds (calibrate.h). The second-to-last stdout line is a self-describing
// report; the last line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "edenbench/calibrate.h"
#include "edenbench/helpers.h"
#include "edenbench/metric_names.h"
#include "edenbench/probes.h"
#include "edenbench/workloads.h"
#include "src/common/log.h"
#include "src/metrics/json_writer.h"

#ifndef EDENBENCH_BUILD_TYPE
#define EDENBENCH_BUILD_TYPE "unknown"
#endif

namespace edenbench {
namespace {

using eden::JsonWriter;

constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 200;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && args->trace >= 0 &&
         !args->workload.empty();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

std::string HexDigest(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// What a run reports: its metrics, the first failed check, and the fields of
// the self-describing report line (an open JSON object).
struct Outcome {
  Outcome() { report.BeginObject(); }

  std::map<std::string, double> metrics;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int passes = 0;
  JsonWriter report;

  void Fail(const std::string& why) {
    if (error.empty()) {
      error = why;
    }
  }
  void List(const char* key, const std::vector<double>& values) {
    report.Key(key).BeginArray();
    for (double v : values) {
      report.Double(v);
    }
    report.EndArray();
  }
};

void CheckPass(const PassResult& pass, Outcome* out) {
  if (!pass.error.empty()) {
    out->Fail(pass.error);
  }
  out->attempted += pass.attempted;
  out->failed += pass.failed;
  out->passes++;
}

// A later pass of the same seed must reproduce the reference pass's model:
// every model counter and every invocation's virtual latency. Node digests
// hash message payloads, which carry span contexts when spans are on, so a
// span-traced pass is exempt from the node-digest comparison.
void CheckSameModel(const PassResult& ref, const PassResult& pass,
                    const std::string& what, Outcome* out,
                    bool compare_node_digests = true) {
  CheckPass(pass, out);
  if (pass.counter_digest != ref.counter_digest) {
    out->Fail(what + " pass did not reproduce the reference counters");
  }
  if (pass.latency_digest != ref.latency_digest || pass.completed != ref.completed ||
      pass.failed != ref.failed) {
    out->Fail(what + " pass did not reproduce the reference invocation latencies");
  }
  if (compare_node_digests && pass.model_digest != ref.model_digest) {
    out->Fail(what + " pass did not reproduce the reference node digests");
  }
}

// Sharded workloads: the same seed at one shard must give identical per-node
// digests.
void CheckShardInvariance(const PassResult& sharded, const PassResult& one,
                          Outcome* out) {
  if (one.node_digests != sharded.node_digests) {
    out->Fail("per-node digests differ between 1 shard and the sharded run");
  }
  if (!one.error.empty()) {
    out->Fail("1-shard pass: " + one.error);
  }
}

void AddModelReport(const PassResult& ref, Outcome* out) {
  Percentile tail = TailPercentile(ref.latencies.size());
  out->report.Key("model_digest").String(HexDigest(ref.model_digest));
  out->report.Key("counter_digest").String(HexDigest(ref.counter_digest));
  out->report.Key("latency_samples").U64(ref.latencies.size());
  out->report.Key("tail_percentile").String(tail.label);
  out->report.Key("vt_latency_tail_us")
      .Double(Us(PercentileOfSorted(ref.latencies, tail.fraction)));
  out->report.Key("ops_failed_ratio")
      .Double(Ratio(static_cast<double>(ref.failed), static_cast<double>(ref.attempted)));
  if (ref.latencies.size() < 1000) {
    out->Fail("fewer than 1000 latency samples: p99 has under ten beyond it");
  }
}

Outcome RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  Outcome out;
  auto start = std::chrono::steady_clock::now();
  PassOptions options;
  options.seed = args.seed;
  std::vector<double> inv_per_s;
  std::vector<double> wall_inv_per_s;
  std::vector<double> setup_s;
  PassResult ref;
  for (int i = 0; i < kMaxPasses; i++) {
    if (i >= kMinPasses && SecondsSince(start) >= args.seconds) {
      break;
    }
    PassResult pass = RunPass(spec, options);
    inv_per_s.push_back(Ratio(static_cast<double>(pass.completed), pass.window_ref_s));
    wall_inv_per_s.push_back(Ratio(static_cast<double>(pass.completed), pass.window_s));
    setup_s.push_back(pass.setup_ref_s);
    if (i == 0) {
      CheckPass(pass, &out);
      ref = std::move(pass);
    } else {
      CheckSameModel(ref, pass, "repeated", &out);
    }
  }
  if (spec.shards > 0) {
    PassOptions one = options;
    one.shards = 1;
    CheckShardInvariance(ref, RunPass(spec, one), &out);
  }
  double window_vs = eden::ToSeconds(ref.window_virtual);
  out.metrics["sim_inv_per_s"] = Median(inv_per_s);
  out.metrics["setup_s"] = Median(setup_s);
  out.metrics["peak_rss_mb"] = PeakRssMb();
  out.metrics["vt_inv_per_s"] = Ratio(static_cast<double>(ref.completed), window_vs);
  out.metrics["vt_latency_p50_us"] = Us(PercentileOfSorted(ref.latencies, 0.5));
  out.metrics["vt_latency_p99_us"] = Us(PercentileOfSorted(ref.latencies, 0.99));
  AddModelReport(ref, &out);
  out.List("sim_inv_per_s_passes", inv_per_s);
  out.List("sim_inv_per_s_wall_passes", wall_inv_per_s);
  out.List("setup_s_passes", setup_s);
  return out;
}

// Mean bytes of one kernel message, from the window's wire counters: wire
// bytes less per-frame Ethernet overhead and transport fragment headers.
size_t MeanMessageBytes(const PassResult& p) {
  double frames = static_cast<double>(p.Delta("lan.frames_sent"));
  double msgs = static_cast<double>(p.Delta("transport.messages_sent"));
  double bytes = static_cast<double>(p.Delta("lan.bytes_on_wire")) -
                 frames * static_cast<double>(p.lan_config.frame_overhead_bytes + 28);
  return msgs > 0 && bytes > 0 ? static_cast<size_t>(bytes / msgs) : 16;
}

ProbeInputs ProbeInputsFrom(const PassResult& ref) {
  double frames = static_cast<double>(ref.Delta("lan.frames_sent"));
  ProbeInputs in;
  in.pending_events = static_cast<size_t>(
      ref.pending_events_mean / static_cast<double>(ref.shard_events.size()));
  in.frame_payload_bytes = static_cast<size_t>(
      std::max(1.0, Ratio(static_cast<double>(ref.Delta("lan.bytes_on_wire")), frames) -
                        static_cast<double>(ref.lan_config.frame_overhead_bytes)));
  in.message_bytes = MeanMessageBytes(ref);
  in.record_bytes = static_cast<size_t>(
      Ratio(static_cast<double>(ref.Delta("store.written_bytes")),
            static_cast<double>(ref.Delta("store.writes"))));
  in.lan = ref.lan_config;
  in.disk = ref.disk_config;
  in.target = ref.sample_target;
  in.operation = ref.sample_operation;
  return in;
}

Outcome RunPerLayer(const WorkloadSpec& spec, const Args& args,
                    BenchTracer* tracer) {
  Outcome out;
  auto start = std::chrono::steady_clock::now();
  PassOptions base_opts;
  base_opts.seed = args.seed;
  base_opts.tracer = tracer;
  PassOptions span_opts = base_opts;
  span_opts.spans = true;
  PassOptions tele_opts = base_opts;
  tele_opts.telemetry = true;

  // Alternate the three passes so host drift hits each alike.
  std::vector<double> base_s, span_s, tele_s;
  PassResult ref;
  PassResult traced;
  for (int round = 0; round < kMaxPasses; round++) {
    if (round >= 1 && SecondsSince(start) >= args.seconds) {
      break;
    }
    PassResult base = RunPass(spec, base_opts);
    PassResult spans = RunPass(spec, span_opts);
    PassResult tele = RunPass(spec, tele_opts);
    base_s.push_back(base.window_ref_s);
    span_s.push_back(spans.window_ref_s);
    tele_s.push_back(tele.window_ref_s);
    if (round == 0) {
      CheckPass(base, &out);
      ref = std::move(base);
    } else {
      CheckSameModel(ref, base, "repeated", &out);
    }
    CheckSameModel(ref, spans, "span-traced", &out, /*compare_node_digests=*/false);
    CheckSameModel(ref, tele, "telemetry", &out);
    if (round == 0) {
      traced = std::move(spans);
    }
  }
  const double base_window = Median(base_s);
  std::map<std::string, double>& m = out.metrics;

  // The engine's threaded mode, against the same window at one shard.
  double speedup = 0;
  double imbalance = 0;
  if (spec.shards > 0) {
    PassOptions threaded = base_opts;
    threaded.threaded = true;
    PassOptions one = base_opts;
    one.shards = 1;
    PassResult parallel = RunPass(spec, threaded);
    PassResult single = RunPass(spec, one);
    CheckSameModel(ref, parallel, "threaded", &out);
    CheckShardInvariance(ref, single, &out);
    speedup = Ratio(single.window_ref_s, parallel.window_ref_s);
    auto [lo, hi] = std::minmax_element(ref.shard_events.begin(), ref.shard_events.end());
    imbalance = Ratio(static_cast<double>(*hi), static_cast<double>(*lo));
  }

  const double inv = static_cast<double>(ref.completed);
  auto count = [&ref](const char* counter) {
    return static_cast<double>(ref.Delta(counter));
  };
  auto per_inv = [&](const char* counter) { return Ratio(count(counter), inv); };
  const double window_ns = static_cast<double>(ref.window_virtual);
  const double msgs = count("transport.messages_sent");

  ProbeInputs in = ProbeInputsFrom(ref);
  double probe_speed = HostSpeedNow();
  ProbeResults probe = RunProbes(in, tracer);
  probe_speed = (probe_speed + HostSpeedNow()) / 2;
  // Probe costs in reference nanoseconds, like the pass times.
  for (double* ns : {&probe.schedule_step_ns, &probe.lan_ns_per_frame,
                     &probe.lan_net_ns, &probe.transport_ns_per_msg,
                     &probe.transport_net_ns, &probe.invoke_req_encode_ns,
                     &probe.invoke_req_decode_ns, &probe.invoke_reply_roundtrip_ns,
                     &probe.crc32_ns_per_kb, &probe.local_invoke_ns,
                     &probe.store_put_ns, &probe.store_net_ns}) {
    *ns *= probe_speed;
  }

  m["sim.events_per_inv"] = Ratio(static_cast<double>(ref.events), inv);
  m["sim.host_ns_per_event"] = Ratio(base_window * 1e9, static_cast<double>(ref.events));
  m["sim.pending_events_mean"] = ref.pending_events_mean;
  m["sim.probe.schedule_step_ns"] = probe.schedule_step_ns;
  m["shard.speedup_2v1"] = speedup;
  m["shard.event_imbalance"] = imbalance;

  m["lan.frames_per_inv"] = per_inv("lan.frames_sent");
  m["lan.bytes_per_inv"] = per_inv("lan.bytes_on_wire");
  m["lan.collisions_per_inv"] = per_inv("lan.collisions");
  m["lan.transmit_failures_per_kinv"] = 1000 * per_inv("lan.transmit_failures");
  double lan_capacity = window_ns * (ref.lan_config.switched
                                         ? static_cast<double>(ref.lan_stations)
                                         : 1.0);
  m["lan.utilization"] = Ratio(static_cast<double>(ref.lan_busy), lan_capacity);
  m["lan.queue_delay_p99_us"] = Us(ref.HistogramDelta("lan.queue_delay").Percentile(0.99));
  m["lan.probe.ns_per_frame"] = probe.lan_ns_per_frame;

  m["transport.msgs_per_inv"] = Ratio(msgs, inv);
  m["transport.standalone_acks_per_msg"] = Ratio(count("transport.acks_sent"), msgs);
  m["transport.retransmits_per_kmsg"] = 1000 * Ratio(count("transport.retransmits"), msgs);
  m["transport.fragments_per_msg"] = Ratio(count("transport.fragments_sent"), msgs);
  m["transport.probe.ns_per_msg"] = probe.transport_ns_per_msg;

  m["codec.probe.invoke_req_encode_ns"] = probe.invoke_req_encode_ns;
  m["codec.probe.invoke_req_decode_ns"] = probe.invoke_req_decode_ns;
  m["codec.probe.invoke_reply_roundtrip_ns"] = probe.invoke_reply_roundtrip_ns;
  m["codec.probe.crc32_ns_per_kb"] = probe.crc32_ns_per_kb;

  m["kernel.dispatches_per_inv"] = per_inv("kernel.dispatches");
  m["kernel.remote_inv_ratio"] =
      Ratio(count("kernel.invoke.remote"), count("kernel.invoke.started"));
  m["kernel.queue_refusals"] = count("kernel.queue_refusals");
  m["kernel.probe.local_invoke_ns"] = probe.local_invoke_ns;

  double queries =
      count("kernel.locate.queries.broadcast") + count("kernel.locate.queries.directory");
  double hits = count("kernel.locate.cache_hits");
  m["location.cache_hit_ratio"] = Ratio(hits, hits + queries);
  m["location.queries_per_kinv"] = 1000 * Ratio(queries, inv);
  m["location.directory_lookups_per_kinv"] = 1000 * per_inv("kernel.directory.lookups");
  m["location.fallbacks"] = count("kernel.directory.fallbacks");

  m["lease.local_read_ratio"] =
      Ratio(count("kernel.lease.local_reads"), static_cast<double>(ref.reads));
  m["lease.grants_per_kinv"] = 1000 * per_inv("kernel.lease.grants");
  m["lease.recalls_per_kinv"] = 1000 * per_inv("kernel.lease.recalls");
  m["lease.write_p99_us"] =
      spec.lease_reads ? Us(PercentileOfSorted(ref.write_latencies, 0.99)) : 0;

  double store_ops =
      count("store.reads") + count("store.writes") + count("store.deletes");
  m["store.ops_per_inv"] = Ratio(store_ops, inv);
  m["store.batched_write_ratio"] =
      Ratio(count("store.batched_writes"), count("store.writes"));
  m["store.bytes_per_ckpt"] =
      Ratio(count("store.written_bytes"), count("kernel.checkpoints"));
  m["store.utilization"] = Ratio(static_cast<double>(ref.store_busy),
                                 window_ns * static_cast<double>(spec.nodes));
  m["store.write_p99_us"] = Us(ref.HistogramDelta("store.write.latency").Percentile(0.99));
  m["store.probe.put_ns"] = probe.store_put_ns;

  m["trace.overhead_pct"] = 100 * (Ratio(Median(span_s), base_window) - 1);
  m["trace.spans_per_inv"] = Ratio(static_cast<double>(traced.spans_started),
                                   static_cast<double>(traced.all_invocations));
  double phase_total = 0;
  std::vector<double> phase(eden::kSpanKindCount);
  for (size_t k = 0; k < eden::kSpanKindCount; k++) {
    std::string name = "trace.phase." +
                       std::string(eden::SpanKindName(static_cast<eden::SpanKind>(k))) +
                       ".latency";
    phase[k] = static_cast<double>(traced.HistogramDelta(name).sum());
    phase_total += phase[k];
  }
  for (size_t k = 0; k < eden::kSpanKindCount; k++) {
    m[PhaseShareName(k)] = Ratio(phase[k], phase_total);
  }
  m["telemetry.overhead_pct"] = 100 * (Ratio(Median(tele_s), base_window) - 1);

  double host_ns_per_inv = Ratio(base_window * 1e9, inv);
  Ledger ledger = BuildLedger(
      host_ns_per_inv,
      {{"sim", probe.schedule_step_ns * m["sim.events_per_inv"]},
       {"lan", probe.lan_net_ns * m["lan.frames_per_inv"]},
       {"transport", probe.transport_net_ns * m["transport.msgs_per_inv"]},
       {"codec", (probe.invoke_req_encode_ns + probe.invoke_req_decode_ns +
                  probe.invoke_reply_roundtrip_ns) *
                     per_inv("kernel.invoke.remote")},
       {"store", probe.store_net_ns * m["store.ops_per_inv"]}});
  for (const LedgerEntry& e : ledger.entries) {
    m["ledger." + e.layer + ".share_est"] = e.share;
  }
  m["ledger.unexplained"] = ledger.unexplained;
  m["ops_failed_ratio"] = Ratio(static_cast<double>(ref.failed),
                                static_cast<double>(ref.attempted));

  AddModelReport(ref, &out);
  out.report.Key("host_ns_per_inv").Double(host_ns_per_inv);
  out.report.Key("probe_inputs")
      .BeginObject()
      .Key("pending_events").U64(in.pending_events)
      .Key("frame_payload_bytes").U64(in.frame_payload_bytes)
      .Key("message_bytes").U64(in.message_bytes)
      .Key("record_bytes").U64(in.record_bytes)
      .EndObject();
  return out;
}

void WriteParams(const WorkloadSpec& spec, JsonWriter& json) {
  json.BeginObject()
      .Key("nodes").U64(spec.nodes)
      .Key("clients").U64(spec.nodes)
      .Key("shards").U64(spec.shards)
      .Key("medium").String(spec.shards > 0 ? "switched" : "csma")
      .Key("setup_until_vs").Double(eden::ToSeconds(spec.setup_until))
      .Key("warmup_vs").Double(eden::ToSeconds(spec.warmup))
      .Key("window_vs").Double(eden::ToSeconds(spec.window))
      .Key("think_ms").Double(eden::ToSeconds(spec.think) * 1e3)
      .Key("lease_reads").Bool(spec.lease_reads)
      .Key("objects").U64(spec.objects)
      .Key("payload_bytes").U64(spec.payload_bytes)
      .Key("payload_spread").U64(spec.payload_spread)
      .Key("write_fraction").Double(spec.write_fraction)
      .EndObject();
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "edenbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // CSMA/CD gives up on a frame after 16 collisions and logs each one; the
  // count is reported as lan.transmit_failures_per_kinv instead.
  eden::Logger::Get().set_level(eden::LogLevel::kError);
  BenchTracer tracer;
  Outcome out = args.trace == 1 ? RunPerLayer(*spec, args, &tracer)
                                : RunEndToEnd(*spec, args);
  const std::vector<MetricDef>& defs =
      args.trace == 1 ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : defs) {
    if (out.metrics.count(d.name) == 0) {
      out.Fail("metric " + d.name + " was not computed");
    }
  }

  JsonWriter& report = out.report;
  report.Key("workload").String(spec->name);
  report.Key("seed").U64(args.seed);
  report.Key("trace").U64(static_cast<uint64_t>(args.trace));
  report.Key("params");
  WriteParams(*spec, report);
  report.Key("nproc").U64(std::thread::hardware_concurrency());
  report.Key("build_type").String(EDENBENCH_BUILD_TYPE);
  report.Key("compiler").String(std::string("gcc ") + __VERSION__);
  report.Key("git_sha").String(args.git_sha);
  report.Key("source_digest").String(args.source_digest);
  report.Key("passes").U64(static_cast<uint64_t>(out.passes));
  report.Key("host_time_unit")
      .String("reference seconds: wall seconds x host speed relative to the "
              "calibration kernel's reference rate");
  report.Key("model_validation")
      .String("unvalidated: the paper publishes no measurements, so no error "
              "figure is given");
  if (args.trace == 1) {
    report.Key("bench_self_ms").BeginObject();
    for (const auto& [name, ns] : tracer.SelfTimeByName()) {
      report.Key(name).Double(static_cast<double>(ns) / 1e6);
    }
    report.EndObject();
    if (!args.spans_out.empty()) {
      std::ofstream file(args.spans_out);
      file << tracer.ToJson() << "\n";
      report.Key("bench_spans_file").String(args.spans_out);
    }
  }
  report.Key("checks").String(out.error.empty() ? "ok" : out.error);
  report.EndObject();

  JsonWriter line;
  line.BeginObject().Key("edenbench_report").Raw(report.str()).EndObject();
  JsonWriter result;
  result.BeginObject()
      .Key("correct").Bool(out.error.empty())
      .Key("attempted").U64(out.attempted)
      .Key("failed").U64(out.failed)
      .Key("metrics")
      .BeginObject();
  for (const MetricDef& d : defs) {
    double v = out.metrics[d.name];
    result.Key(d.name)
        .BeginObject()
        .Key("value").Double(std::isfinite(v) ? v : 0)
        .Key("unit").String(d.unit)
        .EndObject();
  }
  result.EndObject().EndObject();
  std::printf("%s\n%s\n", line.str().c_str(), result.str().c_str());
  std::fflush(stdout);
  return out.error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace edenbench

int main(int argc, char** argv) {
  edenbench::Args args;
  if (!edenbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: edenbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>] [--source-digest <hex>] "
                 "[--spans-out <path>]\n");
    return 2;
  }
  return edenbench::Run(args);
}
