#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <map>

#include "src/kernel/eden_system.h"
#include "src/metrics/json_writer.h"
#include "src/trace/span.h"

namespace eden {

namespace {

// Scrape ticks are keyed into a reserved domain above every station id and
// above domain 0, so at any shared timestamp the sampler runs after all the
// work of that instant — an end-of-instant snapshot, identically placed on
// every shard layout.
constexpr uint32_t kTelemetryDomain = 0xffffffffu;

// How many recently retained traces feed dominant-phase attribution and the
// bundle's trace summaries.
constexpr size_t kBundleTraceWindow = 16;

bool IsQuantileSeries(const std::string& name) {
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           std::string_view(name).substr(name.size() - suffix.size()) ==
               suffix;
  };
  return ends_with(".p50_us") || ends_with(".p99_us") || ends_with(".max_us");
}

}  // namespace

Telemetry::Telemetry(EdenSystem* system, TelemetryConfig config)
    : system_(system), config_(config) {
  if (config_.scrape_interval <= 0) {
    config_.scrape_interval = Milliseconds(10);
  }
  if (config_.window_ticks == 0) {
    config_.window_ticks = 1;
  }
  slo_.reserve(config_.objectives.size());
  for (size_t i = 0; i < config_.objectives.size(); i++) {
    slo_.emplace_back(config_.window_ticks);
    const std::string& cls = config_.objectives[i].metrics_class;
    slo_.back().hist_name = "kernel.invoke.latency.class." + cls;
    slo_.back().completed_name = "kernel.invoke.class." + cls + ".completed";
    slo_.back().errors_name = "kernel.invoke.class." + cls + ".errors";
  }
  system_sampler_ =
      std::make_unique<RegistrySampler>(&system->metrics(), config_.ring_capacity);
  for (size_t i = 0; i < system->node_count(); i++) {
    OnNodeAdded(i);
  }
}

void Telemetry::Start() {
  size_t shards = system_->shard_count();
  if (chain_started_.size() < shards) {
    chain_started_.resize(shards, false);
    chain_origin_.resize(shards, 0);
    shard_scrapes_.resize(shards, 0);
  }
  for (size_t s = 0; s < shards; s++) {
    if (chain_started_[s]) {
      continue;
    }
    chain_started_[s] = true;
    chain_origin_[s] = system_->shard_sim(s).now();
    ScheduleTick(s, 0);
  }
}

void Telemetry::OnNodeAdded(size_t index) {
  while (node_samplers_.size() <= index) {
    size_t i = node_samplers_.size();
    node_samplers_.push_back(std::make_unique<RegistrySampler>(
        &system_->node(i).metrics(), config_.ring_capacity));
  }
  for (SloState& state : slo_) {
    state.prev_bad.resize(node_samplers_.size(), 0);
    state.prev_requests.resize(node_samplers_.size(), 0);
    state.prev_completed.resize(node_samplers_.size(), 0);
    state.prev_errors.resize(node_samplers_.size(), 0);
    state.hist.resize(node_samplers_.size(), nullptr);
    state.completed_ctr.resize(node_samplers_.size(), nullptr);
    state.errors_ctr.resize(node_samplers_.size(), nullptr);
  }
}

void Telemetry::Prime() {
  for (auto& sampler : node_samplers_) {
    sampler->Prime();
  }
  if (!system_->sharded()) {
    // Mirrors Tick(): the system registry is only scraped in the
    // single-threaded world, so only that world pre-registers its series.
    system_sampler_->Prime();
  }
}

void Telemetry::ScheduleTick(size_t shard, uint64_t k) {
  SimTime when = chain_origin_[shard] +
                 static_cast<SimTime>(k + 1) * config_.scrape_interval;
  system_->shard_sim(shard).ScheduleAtKeyed(
      when, kTelemetryDomain, /*stream=*/0, /*seq=*/k,
      [this, shard, k] { Tick(shard, k); });
}

void Telemetry::Tick(size_t shard, uint64_t k) {
  // Each shard samples only the registries its thread owns; node_samplers_
  // never grows during a run, so concurrent shard ticks read a stable vector.
  for (size_t i = 0; i < node_samplers_.size(); i++) {
    if (system_->node_shard(i) == shard) {
      node_samplers_[i]->Sample();
    }
  }
  shard_scrapes_[shard]++;
  if (shard == 0) {
    ticks_ = k + 1;
    if (!system_->sharded()) {
      // The system registry (lan.*, fault.*) is only sampled in the
      // single-threaded world: under the sharded engine the LAN's counts can
      // be published only at Rollup, with the shards quiescent.
      system_->PublishLanCounts();
      system_sampler_->Sample();
      EvaluateSlos(system_->sim().now());
    }
  }
  ScheduleTick(shard, k + 1);
}

void Telemetry::EvaluateSlos(SimTime now) {
  for (size_t oi = 0; oi < config_.objectives.size(); oi++) {
    const SloObjective& obj = config_.objectives[oi];
    SloState& state = slo_[oi];
    uint64_t bad_tick = 0;
    uint64_t requests_tick = 0;
    uint64_t completed_tick = 0;
    uint64_t errors_tick = 0;
    for (size_t i = 0; i < node_samplers_.size(); i++) {
      const MetricsRegistry& reg = system_->node(i).metrics();
      // Lazily resolve instrument pointers: the name lookups only repeat
      // while the class has not yet touched this node; once created the
      // instruments are pointer-stable for the registry's lifetime, so the
      // steady-state tick does no string work and no map lookups.
      if (state.hist[i] == nullptr) {
        state.hist[i] = reg.FindHistogram(state.hist_name);
      }
      if (state.completed_ctr[i] == nullptr) {
        state.completed_ctr[i] = reg.FindCounter(state.completed_name);
      }
      if (state.errors_ctr[i] == nullptr) {
        state.errors_ctr[i] = reg.FindCounter(state.errors_name);
      }
      uint64_t bad = 0;
      uint64_t requests = 0;
      if (const Histogram* hist = state.hist[i]) {
        bad = hist->CountAbove(obj.latency_target);
        requests = hist->count();
      }
      uint64_t completed = 0;
      if (const Counter* c = state.completed_ctr[i]) {
        completed = c->value();
      }
      uint64_t errors = 0;
      if (const Counter* c = state.errors_ctr[i]) {
        errors = c->value();
      }
      bad_tick += bad - state.prev_bad[i];
      requests_tick += requests - state.prev_requests[i];
      completed_tick += completed - state.prev_completed[i];
      errors_tick += errors - state.prev_errors[i];
      state.prev_bad[i] = bad;
      state.prev_requests[i] = requests;
      state.prev_completed[i] = completed;
      state.prev_errors[i] = errors;
    }
    state.bad.Push(static_cast<double>(bad_tick));
    state.requests.Push(static_cast<double>(requests_tick));
    state.completed.Push(static_cast<double>(completed_tick));
    state.errors.Push(static_cast<double>(errors_tick));

    const size_t w = config_.window_ticks;
    double bad_w = state.bad.SumLast(w);
    double requests_w = state.requests.SumLast(w);
    double completed_w = state.completed.SumLast(w);
    double errors_w = state.errors.SumLast(w);

    // Latency burn: the fraction of budget (1 - goal) consumed by requests
    // over the target, per unit of budget.
    if (requests_w >= static_cast<double>(obj.min_requests)) {
      double budget = std::max(1.0 - obj.latency_goal, 1e-9);
      double burn = (bad_w / requests_w) / budget;
      if (burn >= obj.burn_threshold) {
        if (!state.latency_latched) {
          state.latency_latched = true;
          SloViolation v;
          v.when = now;
          v.metrics_class = obj.metrics_class;
          v.kind = "latency";
          v.burn = burn;
          v.window_requests = static_cast<uint64_t>(requests_w);
          v.window_bad = static_cast<uint64_t>(bad_w);
          v.dominant_phase = DominantPhase();
          violations_.push_back(v);
          MaybeBundle(now, "slo:" + obj.metrics_class + ":latency",
                      &violations_.back());
        }
      } else {
        state.latency_latched = false;
      }
    }

    // Error burn: observed error rate per unit of allowed error rate.
    if (completed_w >= static_cast<double>(obj.min_requests) &&
        obj.max_error_rate > 0) {
      double burn = (errors_w / completed_w) / obj.max_error_rate;
      if (burn >= obj.burn_threshold) {
        if (!state.error_latched) {
          state.error_latched = true;
          SloViolation v;
          v.when = now;
          v.metrics_class = obj.metrics_class;
          v.kind = "error";
          v.burn = burn;
          v.window_requests = static_cast<uint64_t>(completed_w);
          v.window_bad = static_cast<uint64_t>(errors_w);
          v.dominant_phase = DominantPhase();
          violations_.push_back(v);
          MaybeBundle(now, "slo:" + obj.metrics_class + ":error",
                      &violations_.back());
        }
      } else {
        state.error_latched = false;
      }
    }
  }
}

std::string Telemetry::DominantPhase() const {
  SpanCollector* collector = system_->span_collector();
  if (collector == nullptr) {
    return "invoke";
  }
  PhaseBreakdown agg;
  size_t counted = 0;
  const std::deque<TraceTree>& done = collector->completed();
  for (auto it = done.rbegin(); it != done.rend() && counted < kBundleTraceWindow;
       ++it) {
    // Rooted traces only: a fragment has no span 0 rooted here, and its
    // critical path would attribute a partial tree.
    if (it->spans.empty() || it->spans[0].parent_span_id != 0) {
      continue;
    }
    PhaseBreakdown one = SpanCollector::CriticalPath(*it);
    for (size_t k = 0; k < kSpanKindCount; k++) {
      agg.by_kind[k] += one.by_kind[k];
    }
    counted++;
  }
  // The invocation phase is the residue (client-side waiting) — attribute to
  // the dominant *cause* phase instead, unless nothing else registered.
  size_t best = static_cast<size_t>(SpanKind::kInvocation);
  SimDuration best_time = 0;
  for (size_t k = 0; k < kSpanKindCount; k++) {
    if (k == static_cast<size_t>(SpanKind::kInvocation)) {
      continue;
    }
    if (agg.by_kind[k] > best_time) {
      best_time = agg.by_kind[k];
      best = k;
    }
  }
  if (counted == 0 || best_time == 0) {
    return "invoke";
  }
  return std::string(SpanKindName(static_cast<SpanKind>(best)));
}

void Telemetry::OnFault(const char* kind, uint32_t site) {
  (void)site;
  MaybeBundle(system_->sim().now(), std::string("fault:") + kind, nullptr);
}

void Telemetry::MaybeBundle(SimTime now, const std::string& trigger,
                            const SloViolation* violation) {
  if (bundles_.size() >= config_.max_bundles) {
    return;
  }
  if (!bundles_.empty() &&
      now - bundles_.back().when < config_.min_bundle_spacing) {
    return;
  }
  DiagnosticBundle bundle;
  bundle.when = now;
  bundle.trigger = trigger;
  bundle.json = BuildBundleJson(now, trigger, violation);
  bundles_.push_back(std::move(bundle));
}

std::string Telemetry::BuildBundleJson(SimTime now, const std::string& trigger,
                                       const SloViolation* violation) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("trigger").String(trigger);
  json.Key("when_ns").I64(now);
  if (violation != nullptr) {
    json.Key("violation").BeginObject();
    json.Key("class").String(violation->metrics_class);
    json.Key("kind").String(violation->kind);
    json.Key("burn").Double(violation->burn);
    json.Key("window_requests").U64(violation->window_requests);
    json.Key("window_bad").U64(violation->window_bad);
    json.Key("dominant_phase").String(violation->dominant_phase);
    json.EndObject();
  }
  json.Key("series").Raw(WindowJson(config_.bundle_series_ticks));
  SpanCollector* collector = system_->span_collector();
  if (collector != nullptr) {
    json.Key("retained_traces").BeginArray();
    const std::deque<TraceTree>& done = collector->completed();
    size_t first =
        done.size() > kBundleTraceWindow ? done.size() - kBundleTraceWindow : 0;
    for (size_t i = first; i < done.size(); i++) {
      const TraceTree& tree = done[i];
      if (tree.spans.empty()) {
        continue;
      }
      bool annotated = false;
      for (const Span& span : tree.spans) {
        if (!span.status.empty() || !span.notes.empty()) {
          annotated = true;
          break;
        }
      }
      json.BeginObject();
      json.Key("trace_id").U64(tree.trace_id);
      json.Key("label").String(tree.spans[0].label);
      json.Key("spans").U64(tree.spans.size());
      json.Key("duration_ns").I64(tree.spans[0].duration());
      json.Key("annotated").Bool(annotated);
      json.EndObject();
    }
    json.EndArray();
    json.Key("slow_exemplars").BeginArray();
    for (const TraceTree& tree : collector->slow_exemplars()) {
      if (tree.spans.empty()) {
        continue;
      }
      json.BeginObject();
      json.Key("trace_id").U64(tree.trace_id);
      json.Key("label").String(tree.spans[0].label);
      json.Key("duration_ns").I64(tree.spans[0].duration());
      json.EndObject();
    }
    json.EndArray();
    json.Key("chrome_trace").Raw(collector->ExportChromeTrace());
  }
  json.EndObject();
  return json.Take();
}

double Telemetry::WindowSum(size_t node, const std::string& series,
                            size_t last_ticks) const {
  const RegistrySampler* sampler = NodeSampler(node);
  return sampler == nullptr ? 0.0 : sampler->WindowSum(series, last_ticks);
}

std::string Telemetry::WindowJson(size_t last_ticks) const {
  JsonWriter json;
  json.BeginObject();
  json.Key("when_ns").I64(system_->sim().now());
  json.Key("interval_ns").I64(config_.scrape_interval);
  json.Key("ticks").U64(ticks_);
  json.Key("nodes").BeginObject();
  for (size_t i = 0; i < node_samplers_.size(); i++) {
    json.Key(std::to_string(i)).BeginObject();
    json.Key("name").String(system_->node(i).node_name());
    JsonWriter series;
    node_samplers_[i]->WriteJson(series, last_ticks);
    json.Key("series").Raw(series.str());
    json.EndObject();
  }
  json.EndObject();
  if (!system_->sharded()) {
    JsonWriter series;
    system_sampler_->WriteJson(series, last_ticks);
    json.Key("system").Raw(series.str());
  }

  // Cross-node rollup, aligned at the newest tick: counter deltas and counts
  // sum element-wise; quantile estimates (.p50_us/.p99_us/.max_us) take the
  // element-wise max (summing percentiles is meaningless).
  std::map<std::string, size_t> lengths;
  for (const auto& sampler : node_samplers_) {
    for (const auto& [name, series] : sampler->series()) {
      size_t n = std::min(last_ticks, series.size());
      size_t& len = lengths[name];
      len = std::max(len, n);
    }
  }
  std::map<std::string, std::vector<double>> rollup;
  for (const auto& [name, len] : lengths) {
    rollup[name].assign(len, 0.0);
  }
  for (const auto& sampler : node_samplers_) {
    for (const auto& [name, series] : sampler->series()) {
      size_t n = std::min(last_ticks, series.size());
      std::vector<double>& out = rollup[name];
      bool quantile = IsQuantileSeries(name);
      for (size_t j = 0; j < n; j++) {
        double v = series.at(series.size() - n + j);
        size_t slot = out.size() - n + j;
        if (quantile) {
          out[slot] = std::max(out[slot], v);
        } else {
          out[slot] += v;
        }
      }
    }
  }
  json.Key("rollup").BeginObject();
  for (const auto& [name, values] : rollup) {
    json.Key(name).BeginArray();
    for (double v : values) {
      json.Double(v);
    }
    json.EndArray();
  }
  json.EndObject();
  json.EndObject();
  return json.Take();
}

void Telemetry::ContributeTo(MetricsRegistry& rollup) const {
  uint64_t scrapes = 0;
  for (uint64_t s : shard_scrapes_) {
    scrapes += s;
  }
  rollup.counter("telemetry.scrapes").Increment(scrapes);
  rollup.counter("telemetry.slo.violations").Increment(violations_.size());
  rollup.counter("telemetry.bundles").Increment(bundles_.size());
}

}  // namespace eden
