// Gates for the always-on telemetry pipeline (DESIGN.md §17): scrapes must
// be bit-identical per seed and across shard layouts, enabling telemetry
// must not perturb the execution it observes (node digests and wire bytes
// unchanged), SLO burn-rate violations must fire with the right class/kind
// and latch over sustained burns, tail-based trace retention must bound span
// memory while keeping the interesting traces, and a seeded chaos storm must
// produce deterministic fault-triggered diagnostic bundles.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/kernel/eden_system.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeseries.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"
#include "src/workload/workload.h"
#include "tests/test_util.h"

namespace eden {
namespace {

// ---------------------------------------------------------------------------
// SeriesBuffer
// ---------------------------------------------------------------------------

TEST(SeriesBuffer, RingKeepsNewestAndSumsWindows) {
  SeriesBuffer series(4);
  EXPECT_EQ(series.size(), 0u);
  EXPECT_EQ(series.SumLast(8), 0.0);
  for (int i = 1; i <= 3; i++) {
    series.Push(i);
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.at(0), 1.0);
  EXPECT_EQ(series.back(), 3.0);
  EXPECT_EQ(series.SumLast(2), 5.0);  // 2 + 3
  // Overflow the ring: 1 and 2 fall out, the newest four remain in order.
  series.Push(4);
  series.Push(5);
  series.Push(6);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total(), 6u);
  EXPECT_EQ(series.at(0), 3.0);
  EXPECT_EQ(series.at(3), 6.0);
  EXPECT_EQ(series.back(), 6.0);
  EXPECT_EQ(series.SumLast(4), 18.0);   // 3+4+5+6
  EXPECT_EQ(series.SumLast(100), 18.0); // clamped to what is retained
}

// ---------------------------------------------------------------------------
// Scrape determinism and zero-perturbation
// ---------------------------------------------------------------------------

struct ScenarioResult {
  std::vector<uint64_t> digests;
  uint64_t frames_sent = 0;
  uint64_t frames_delivered = 0;
  uint64_t bytes_on_wire = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t ticks = 0;
  std::string window_json;
  std::vector<std::string> node_series_json;
};

// Six nodes, closed-loop clients everywhere, remote targets on nodes 0 and 4
// so traffic crosses every shard boundary under every tested layout. Every
// invocation carries metrics_class "user" so the per-class series exist.
ScenarioResult RunScenario(uint64_t seed, size_t shards, bool telemetry) {
  SystemConfig config;
  config.seed = seed;
  config.shards = shards;
  config.telemetry.enabled = telemetry;
  config.telemetry.scrape_interval = Milliseconds(5);
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(6);
  Capability low = *system.node(0).CreateObject("std.counter", Representation{});
  Capability high =
      *system.node(4).CreateObject("std.counter", Representation{});
  WorkFactory factory = [low, high](size_t client, uint64_t seq) {
    WorkItem item{((client + seq) % 2 == 0) ? low : high, "increment",
                  InvokeArgs{}.AddU64(1)};
    item.metrics_class = "user";
    return item;
  };
  WorkloadStats stats = RunClosedLoop(system, {0, 1, 2, 3, 4, 5}, factory,
                                      Milliseconds(60), Microseconds(200));
  ScenarioResult result;
  for (size_t n = 0; n < system.node_count(); n++) {
    result.digests.push_back(system.node(n).digest().value());
  }
  LanStats lan = system.lan().stats();
  result.frames_sent = lan.frames_sent;
  result.frames_delivered = lan.frames_delivered;
  result.bytes_on_wire = lan.bytes_on_wire;
  result.completed = stats.completed;
  result.failed = stats.failed;
  if (telemetry) {
    Telemetry* t = system.telemetry();
    result.ticks = t->ticks();
    result.window_json = t->WindowJson(16);
    for (size_t n = 0; n < system.node_count(); n++) {
      JsonWriter series;
      t->NodeSampler(n)->WriteJson(series, 16);
      result.node_series_json.push_back(series.str());
    }
  }
  return result;
}

TEST(Telemetry, ScrapesAreBitIdenticalPerSeed) {
  for (uint64_t seed : {7u, 23u}) {
    ScenarioResult a = RunScenario(seed, 0, true);
    ScenarioResult b = RunScenario(seed, 0, true);
    EXPECT_GT(a.ticks, 0u);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.window_json, b.window_json) << "seed " << seed;
    // The export carries the per-node sections, the system registry (this is
    // an unsharded run) and the cross-node rollup.
    EXPECT_NE(a.window_json.find("\"nodes\""), std::string::npos);
    EXPECT_NE(a.window_json.find("\"system\""), std::string::npos);
    EXPECT_NE(a.window_json.find("\"rollup\""), std::string::npos);
    EXPECT_NE(a.window_json.find("kernel.dispatches.delta"), std::string::npos);
    EXPECT_NE(a.window_json.find("kernel.invoke.latency.class.user.p99_us"),
              std::string::npos);
  }
}

TEST(Telemetry, NodeSeriesIdenticalAcrossShardCounts) {
  const uint64_t seed = 11;
  ScenarioResult oracle = RunScenario(seed, 1, true);
  ASSERT_GT(oracle.ticks, 0u);
  for (size_t shards : {2u, 4u}) {
    ScenarioResult sharded = RunScenario(seed, shards, true);
    EXPECT_EQ(sharded.ticks, oracle.ticks) << shards << " shards";
    ASSERT_EQ(sharded.node_series_json.size(), oracle.node_series_json.size());
    for (size_t n = 0; n < oracle.node_series_json.size(); n++) {
      EXPECT_EQ(sharded.node_series_json[n], oracle.node_series_json[n])
          << "node " << n << " series diverged on " << shards << " shards";
    }
  }
}

TEST(Telemetry, EnablingTelemetryLeavesExecutionUntouched) {
  // Scrape ticks ride a reserved event domain ordered after all same-instant
  // work and consume no simulation randomness, so the observed system must
  // be bit-identical with the pipeline on or off: same per-node message
  // digests, same wire traffic, same workload outcome. Checked in both the
  // single-threaded world and under the parallel sharded engine.
  for (size_t shards : {0u, 2u}) {
    ScenarioResult off = RunScenario(17, shards, false);
    ScenarioResult on = RunScenario(17, shards, true);
    EXPECT_EQ(on.digests, off.digests) << shards << " shards";
    EXPECT_EQ(on.frames_sent, off.frames_sent) << shards << " shards";
    EXPECT_EQ(on.frames_delivered, off.frames_delivered) << shards << " shards";
    EXPECT_EQ(on.bytes_on_wire, off.bytes_on_wire) << shards << " shards";
    EXPECT_EQ(on.completed, off.completed) << shards << " shards";
    EXPECT_EQ(on.failed, off.failed) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// LAN counts: one record, published alike in both media
// ---------------------------------------------------------------------------

// Expects `registry` to hold exactly the six lan.* counters, each equal to
// the LanStats field it publishes.
void ExpectLanCountersMatch(const MetricsRegistry& registry,
                            const LanStats& stats) {
  const std::map<std::string, uint64_t> fields = {
      {"lan.frames_sent", stats.frames_sent},
      {"lan.frames_delivered", stats.frames_delivered},
      {"lan.frames_lost", stats.frames_lost},
      {"lan.collisions", stats.collisions},
      {"lan.transmit_failures", stats.transmit_failures},
      {"lan.bytes_on_wire", stats.bytes_on_wire},
  };
  size_t published = 0;
  for (const auto& [name, counter] : registry.counters()) {
    if (name.rfind("lan.", 0) != 0) {
      continue;
    }
    auto field = fields.find(name);
    ASSERT_NE(field, fields.end()) << name << " has no LanStats field";
    EXPECT_EQ(counter->value(), field->second) << name;
    published++;
  }
  EXPECT_EQ(published, fields.size());
}

TEST(LanCounts, RollupPublishesLanStatsInBothMedia) {
  for (size_t shards : {0u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    SystemConfig config;
    config.seed = 29;
    config.shards = shards;
    config.lan.loss_probability = 0.05;
    EdenSystem system(config);
    RegisterStandardTypes(system);
    system.AddNodes(6);
    Capability low =
        *system.node(0).CreateObject("std.counter", Representation{});
    Capability high =
        *system.node(4).CreateObject("std.counter", Representation{});
    WorkFactory factory = [low, high](size_t client, uint64_t seq) {
      return WorkItem{((client + seq) % 2 == 0) ? low : high, "increment",
                      InvokeArgs{}.AddU64(1)};
    };
    RunClosedLoop(system, {0, 1, 2, 3, 4, 5}, factory, Milliseconds(40));
    LanStats stats = system.lan().stats();
    EXPECT_GT(stats.frames_sent, 0u);
    EXPECT_GT(stats.frames_lost, 0u);
    ExpectLanCountersMatch(system.Rollup(), stats);
  }
}

TEST(LanCounts, ScrapePublishesTheLanCountsOfItsInstant) {
  // The LAN counts per station and publishes to lan.* only when synced, so
  // an unsharded scrape must sync it first: stopped right after a scrape,
  // mid-traffic, the raw system registry (no Rollup) matches the LAN.
  SystemConfig config;
  config.seed = 29;
  config.lan.loss_probability = 0.05;
  config.telemetry.enabled = true;
  config.telemetry.scrape_interval = Milliseconds(1);
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(6);
  Capability target =
      *system.node(0).CreateObject("std.counter", Representation{});
  std::vector<Future<InvokeResult>> calls;
  for (size_t n = 1; n < system.node_count(); n++) {
    for (int i = 0; i < 8; i++) {
      calls.push_back(
          system.node(n).Invoke(target, "increment", InvokeArgs{}.AddU64(1)));
    }
  }
  Telemetry* telemetry = system.telemetry();
  uint64_t scrape = telemetry->ticks() + 3;
  system.sim().RunWhile([&] { return telemetry->ticks() < scrape; });

  size_t finished = 0;
  for (const Future<InvokeResult>& call : calls) {
    finished += call.ready() ? 1 : 0;
  }
  EXPECT_LT(finished, calls.size()) << "the scrape should land mid-traffic";
  uint64_t sent = system.lan().stats().frames_sent;
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(system.metrics().CounterValue("lan.frames_sent"), sent);

  // Finish the traffic: no invocation may be left suspended at teardown.
  for (const Future<InvokeResult>& call : calls) {
    EXPECT_TRUE(system.Await(call).ok());
  }
}

// ---------------------------------------------------------------------------
// SLO burn-rate engine
// ---------------------------------------------------------------------------

// A type whose "fail" operation always errors — drives the error-burn path.
std::shared_ptr<TypeManager> MakeFlakyType() {
  auto type = std::make_shared<TypeManager>("flaky");
  size_t ops = type->AddClass("ops", 4);
  type->AddOperation(OperationSpec{
      .name = "ok",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        (void)ctx;
        co_return InvokeResult::Ok();
      },
      .required_rights = Rights(Rights::kInvoke),
      .invocation_class = ops,
  });
  type->AddOperation(OperationSpec{
      .name = "fail",
      .handler = [](InvokeContext& ctx) -> Task<InvokeResult> {
        (void)ctx;
        co_return InvokeResult::Error(
            Status(StatusCode::kUnavailable, "induced failure"));
      },
      .required_rights = Rights(Rights::kInvoke),
      .invocation_class = ops,
  });
  return type;
}

TEST(TelemetrySlo, LatencyBurnFiresOnceAndDumpsABundle) {
  SystemConfig config;
  config.seed = 5;
  config.telemetry.enabled = true;
  config.telemetry.scrape_interval = Milliseconds(5);
  config.telemetry.window_ticks = 4;
  SloObjective objective;
  objective.metrics_class = "user";
  // Unattainable target: every completed invocation lands over it, so the
  // burn is budget-limited (~1/(1-goal)) and must latch exactly once.
  objective.latency_target = Microseconds(1);
  objective.min_requests = 16;
  config.telemetry.objectives.push_back(objective);
  EdenSystem system(config);
  RegisterStandardTypes(system);
  system.AddNodes(4);
  Capability target =
      *system.node(0).CreateObject("std.counter", Representation{});
  WorkFactory factory = [target](size_t, uint64_t) {
    WorkItem item{target, "increment", InvokeArgs{}.AddU64(1)};
    item.metrics_class = "user";
    return item;
  };
  WorkloadStats stats =
      RunClosedLoop(system, {1, 2, 3}, factory, Milliseconds(200));
  ASSERT_GT(stats.completed, 100u);

  Telemetry* telemetry = system.telemetry();
  ASSERT_NE(telemetry, nullptr);
  ASSERT_FALSE(telemetry->violations().empty());
  const SloViolation& v = telemetry->violations().front();
  EXPECT_EQ(v.metrics_class, "user");
  EXPECT_EQ(v.kind, "latency");
  EXPECT_GE(v.burn, 1.0);
  EXPECT_GE(v.window_requests, 16u);
  EXPECT_GE(v.window_requests, v.window_bad);
  EXPECT_FALSE(v.dominant_phase.empty());
  // The burn stays saturated for the whole run, so the rising-edge latch
  // admits exactly one latency violation.
  size_t latency_violations = 0;
  for (const SloViolation& each : telemetry->violations()) {
    if (each.kind == "latency") {
      latency_violations++;
    }
  }
  EXPECT_EQ(latency_violations, 1u);

  ASSERT_FALSE(telemetry->bundles().empty());
  const DiagnosticBundle& bundle = telemetry->bundles().front();
  EXPECT_EQ(bundle.trigger, "slo:user:latency");
  EXPECT_NE(bundle.json.find("\"violation\""), std::string::npos);
  EXPECT_NE(bundle.json.find("\"dominant_phase\""), std::string::npos);
  EXPECT_NE(bundle.json.find("\"series\""), std::string::npos);

  // Telemetry's own health counters fold into Rollup().
  MetricsRegistry rollup = system.Rollup();
  const Counter* scrapes = rollup.FindCounter("telemetry.scrapes");
  ASSERT_NE(scrapes, nullptr);
  EXPECT_GT(scrapes->value(), 0u);
  const Counter* violations = rollup.FindCounter("telemetry.slo.violations");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->value(), telemetry->violations().size());
  const Counter* bundles = rollup.FindCounter("telemetry.bundles");
  ASSERT_NE(bundles, nullptr);
  EXPECT_EQ(bundles->value(), telemetry->bundles().size());
}

TEST(TelemetrySlo, ErrorBurnFiresOnInducedFailures) {
  SystemConfig config;
  config.seed = 9;
  config.telemetry.enabled = true;
  config.telemetry.scrape_interval = Milliseconds(5);
  config.telemetry.window_ticks = 4;
  SloObjective objective;
  objective.metrics_class = "batch";
  // Generous latency target so only the error budget can burn.
  objective.latency_target = Seconds(1);
  objective.max_error_rate = 0.01;
  objective.min_requests = 16;
  config.telemetry.objectives.push_back(objective);
  EdenSystem system(config);
  system.RegisterType(MakeFlakyType());
  system.AddNodes(3);
  Capability target = *system.node(0).CreateObject("flaky", Representation{});
  WorkFactory factory = [target](size_t, uint64_t seq) {
    WorkItem item{target, (seq % 2 == 0) ? "fail" : "ok", InvokeArgs{}};
    item.metrics_class = "batch";
    return item;
  };
  WorkloadStats stats =
      RunClosedLoop(system, {1, 2}, factory, Milliseconds(200));
  ASSERT_GT(stats.failed, 16u);

  Telemetry* telemetry = system.telemetry();
  ASSERT_NE(telemetry, nullptr);
  bool saw_error_violation = false;
  for (const SloViolation& v : telemetry->violations()) {
    if (v.kind == "error") {
      saw_error_violation = true;
      EXPECT_EQ(v.metrics_class, "batch");
      EXPECT_GE(v.burn, 1.0);
      EXPECT_GT(v.window_bad, 0u);
    }
  }
  EXPECT_TRUE(saw_error_violation);
}

// ---------------------------------------------------------------------------
// Flight recorder: tail retention
// ---------------------------------------------------------------------------

TEST(TelemetryTail, RetentionBoundsSpanMemoryAndKeepsTheTail) {
  SpanCollectorConfig trace_config;
  trace_config.tail.enabled = true;
  trace_config.tail.top_p = 0.05;
  trace_config.tail.one_in_n = 8;
  trace_config.tail.warmup = 16;
  SpanCollector spans(trace_config);

  SystemConfig config;
  config.seed = 3;
  EdenSystem system(config);
  system.set_span_collector(&spans);
  RegisterStandardTypes(system);
  system.AddNodes(4);
  Capability target =
      *system.node(0).CreateObject("std.counter", Representation{});
  WorkFactory factory = [target](size_t, uint64_t) {
    return WorkItem{target, "increment", InvokeArgs{}.AddU64(1)};
  };
  WorkloadStats stats =
      RunClosedLoop(system, {1, 2, 3}, factory, Milliseconds(120));
  spans.Flush(system.sim().now());

  const SpanCollectorStats& st = spans.stats();
  ASSERT_GT(stats.completed, 200u);
  EXPECT_GT(st.traces_completed, 200u);
  // Every finalized root trace was either retained or recycled — the policy
  // never loses count — and the steady state recycles the bulk of them.
  EXPECT_EQ(st.traces_retained + st.traces_discarded, st.traces_completed);
  EXPECT_GT(st.traces_retained, 0u);
  EXPECT_GT(st.traces_discarded, st.traces_retained);
  // Bounded span memory: the high-water mark is a small multiple of the
  // retained windows, not of the trace count.
  EXPECT_GT(st.spans_held_high_water, 0u);
  EXPECT_GE(st.spans_held_high_water, spans.spans_held());
  size_t window_bound =
      (trace_config.retain_completed + trace_config.slow_exemplars +
       trace_config.max_live_traces / 4) *
      trace_config.max_spans_per_trace;
  EXPECT_LT(st.spans_held_high_water, window_bound);
  // The e2e histogram stays complete even though most trees are recycled.
  MetricsRegistry rollup = system.Rollup();
  const Counter* retained = rollup.FindCounter("trace.tail.retained");
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(retained->value(), st.traces_retained);
}

// ---------------------------------------------------------------------------
// Seeded chaos: fault-triggered bundles, deterministically
// ---------------------------------------------------------------------------

struct ChaosResult {
  std::vector<std::string> triggers;
  std::vector<std::string> bundle_json;
  std::vector<std::string> violation_kinds;
  std::vector<std::string> violation_phases;
  uint64_t completed = 0;
};

// The standard fault storm under closed-loop classified traffic, with tail
// retention and SLO objectives armed: the flight recorder must capture
// fault-triggered bundles whose contents are a pure function of the seed.
ChaosResult RunChaosScenario(uint64_t seed) {
  SystemConfig config;
  config.seed = seed;
  config.lan.loss_probability = 0.02;
  config.telemetry.enabled = true;
  config.telemetry.scrape_interval = Milliseconds(5);
  config.telemetry.window_ticks = 4;
  SloObjective objective;
  objective.metrics_class = "user";
  objective.latency_target = Milliseconds(2);
  objective.min_requests = 16;
  config.telemetry.objectives.push_back(objective);

  SpanCollectorConfig trace_config;
  trace_config.tail.enabled = true;
  trace_config.tail.one_in_n = 4;
  trace_config.tail.warmup = 32;
  SpanCollector spans(trace_config);

  EdenSystem system(config);
  system.set_span_collector(&spans);
  system.RegisterType(MakeCounterType());
  constexpr size_t kNodes = 6;
  system.AddNodes(kNodes);
  system.EnableFaults(
      FaultPlan::StandardStorm(kNodes, 3, Milliseconds(50), Seconds(2)));

  Capability target = *system.node(0).CreateObject("counter", CounterRep());
  auto object = system.node(0).FindActive(target.name());
  object->policy = CheckpointPolicy{system.node(0).station(),
                                    ReliabilityLevel::kMirrored,
                                    system.node(4).station()};
  EXPECT_TRUE(
      system.Await(system.node(0).CheckpointObject(target.name())).ok());

  WorkFactory factory = [target](size_t, uint64_t) {
    WorkItem item{target, "increment", InvokeArgs{}.AddU64(1)};
    item.metrics_class = "user";
    return item;
  };
  WorkloadStats stats = RunClosedLoop(system, {3, 4, 5}, factory, Seconds(1),
                                      Microseconds(500), Seconds(5));

  ChaosResult result;
  result.completed = stats.completed;
  Telemetry* telemetry = system.telemetry();
  for (const DiagnosticBundle& bundle : telemetry->bundles()) {
    result.triggers.push_back(bundle.trigger);
    result.bundle_json.push_back(bundle.json);
  }
  for (const SloViolation& v : telemetry->violations()) {
    result.violation_kinds.push_back(v.kind);
    result.violation_phases.push_back(v.dominant_phase);
  }
  return result;
}

TEST(TelemetryChaos, FaultStormProducesDeterministicBundles) {
  ChaosResult a = RunChaosScenario(31);
  ChaosResult b = RunChaosScenario(31);

  // The recorder fired, and at least one bundle was opened by an injected
  // fault (as opposed to an SLO violation).
  ASSERT_FALSE(a.triggers.empty());
  bool fault_triggered = false;
  for (const std::string& trigger : a.triggers) {
    if (trigger.rfind("fault:", 0) == 0) {
      fault_triggered = true;
    }
  }
  EXPECT_TRUE(fault_triggered);

  // Bundles carry the windowed series and the tail-retained traces; under a
  // storm the retained window must include fault-annotated traces.
  bool saw_retained = false;
  bool saw_annotated = false;
  for (const std::string& json : a.bundle_json) {
    if (json.find("\"retained_traces\"") != std::string::npos) {
      saw_retained = true;
    }
    if (json.find("\"annotated\":true") != std::string::npos) {
      saw_annotated = true;
    }
  }
  EXPECT_TRUE(saw_retained);
  EXPECT_TRUE(saw_annotated);

  // Chaos latencies blow the 2ms objective: the SLO engine attributes each
  // violation to a phase learned from the retained traces.
  ASSERT_FALSE(a.violation_kinds.empty());
  for (const std::string& phase : a.violation_phases) {
    EXPECT_FALSE(phase.empty());
  }

  // Same seed, same storm, same bundles — byte for byte.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.bundle_json, b.bundle_json);
  EXPECT_EQ(a.violation_kinds, b.violation_kinds);
  EXPECT_EQ(a.violation_phases, b.violation_phases);
}

// ---------------------------------------------------------------------------
// Load-aware spread (rebalancer satellite)
// ---------------------------------------------------------------------------

TEST(TelemetrySpread, SpreadByLoadMovesHotWorkWhenEnabled) {
  // Node 1 holds one hot object and node 2 holds many cold ones; the
  // count-based pass would move work *to* node 1, the rate-based pass moves
  // the cold-but-countless node's... nothing: it must instead shed from the
  // hot node. With the flag off the pass must stay count-based.
  for (bool by_load : {false, true}) {
    SystemConfig config;
    config.seed = 13;
    config.telemetry.enabled = true;
    config.telemetry.scrape_interval = Milliseconds(5);
    config.membership.rebalance.spread_gap = 4;
    config.membership.rebalance.spread_by_load = by_load;
    config.membership.rebalance.spread_rate_gap = 32.0;
    EdenSystem system(config);
    RegisterStandardTypes(system);
    system.AddNodes(3);
    Capability hot =
        *system.node(1).CreateObject("std.counter", Representation{});
    for (int k = 0; k < 12; k++) {
      ASSERT_TRUE(
          system.node(2).CreateObject("std.counter", Representation{}).ok());
    }
    system.rebalancer().EnsureRunning();
    WorkFactory factory = [hot](size_t, uint64_t) {
      WorkItem item{hot, "increment", InvokeArgs{}.AddU64(1)};
      item.metrics_class = "user";
      return item;
    };
    RunClosedLoop(system, {0}, factory, Milliseconds(300));
    // Let any spread move that straddles the workload cutoff finish: an
    // object torn down mid-transfer still holds its parked dispatches, and
    // those coroutine frames keep the object alive in a cycle.
    system.sim().RunFor(Milliseconds(100));
    MetricsRegistry rollup = system.Rollup();
    const Counter* by_load_moves =
        rollup.FindCounter("rebalance.spread_moves_by_load");
    uint64_t moves = by_load_moves == nullptr ? 0 : by_load_moves->value();
    if (by_load) {
      EXPECT_GT(moves, 0u) << "rate-ranked spread never engaged";
    } else {
      EXPECT_EQ(moves, 0u) << "flag off must keep the count-based pass";
    }
  }
}

}  // namespace
}  // namespace eden
