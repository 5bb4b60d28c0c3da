// E9 — The Ethernet substrate (paper section 3; the authors separately
// validated Experimental Ethernet behaviour in [Almes & Lazowska 1979],
// "The Behavior of Ethernet-Like Computer Communications Networks").
//
// Workload: `stations` stations offer Poisson traffic of 512-byte frames at
// an aggregate rate swept from 10% to 120% of the 10 Mb/s channel.
//   BM_EthernetLoad/offered%/stations
//
// Reported per run: delivered utilization (fraction of 10 Mb/s), mean frame
// delay (queueing + access + transmission) in microseconds, and collisions.
//
// Expected shape (the classic Ethernet curves): delivered utilization tracks
// offered load until ~90%+, then saturates near (but below) 1.0; mean delay
// stays near the 0.44 ms transmission time at low load and knees sharply as
// offered load approaches saturation; collisions rise with both load and
// station count.
#include "bench/bench_util.h"
#include "src/net/lan.h"

namespace eden {
namespace {

constexpr size_t kFrameBytes = 512;
constexpr SimDuration kWindow = Seconds(5);

void BM_EthernetLoad(benchmark::State& state) {
  int offered_percent = static_cast<int>(state.range(0));
  size_t stations = static_cast<size_t>(state.range(1));

  for (auto _ : state) {
    Simulation sim(1000 + offered_percent + stations);
    Lan lan(sim);

    // Aggregate frame rate to hit the offered load.
    double wire_bits_per_frame =
        static_cast<double>(kFrameBytes + lan.config().frame_overhead_bytes) * 8;
    double offered_bps = lan.config().bandwidth_bits_per_sec *
                         static_cast<double>(offered_percent) / 100.0;
    double frames_per_sec_per_station =
        offered_bps / wire_bits_per_frame / static_cast<double>(stations);
    double mean_interarrival_ns = 1e9 / frames_per_sec_per_station;

    struct Tracking {
      uint64_t delivered = 0;
      uint64_t bytes = 0;
      SimDuration total_delay = 0;
    };
    auto tracking = std::make_shared<Tracking>();

    std::vector<Station*> senders;
    for (size_t s = 0; s < stations; s++) {
      Station* station = lan.AttachStation();
      station->SetReceiveHandler([tracking, &sim](const Frame& frame) {
        BufferReader reader(frame.header);
        auto sent_at = reader.ReadI64();
        if (sent_at.ok()) {
          tracking->delivered++;
          tracking->bytes += frame.wire_size();
          tracking->total_delay += sim.now() - *sent_at;
        }
      });
      senders.push_back(station);
    }

    // Poisson sources: each station sends to a uniformly random other
    // station; the payload carries the enqueue timestamp.
    Rng arrivals(sim.rng().Fork());
    std::function<void(size_t)> schedule_next = [&](size_t s) {
      SimDuration gap = static_cast<SimDuration>(
          arrivals.NextExponential(mean_interarrival_ns));
      sim.Schedule(gap, [&, s] {
        if (sim.now() > kWindow) {
          return;
        }
        BufferWriter writer;
        writer.WriteI64(sim.now());
        Bytes payload = writer.Take();
        payload.resize(kFrameBytes, 0);
        size_t dst = (s + 1 + arrivals.NextBelow(stations - 1)) % stations;
        senders[s]->Send(
            Frame{.dst = senders[dst]->id(), .header = std::move(payload)});
        schedule_next(s);
      });
    };
    for (size_t s = 0; s < stations; s++) {
      schedule_next(s);
    }

    // Measure utilization over the offered-load window only; then drain the
    // backlog so delay statistics cover every delivered frame.
    sim.RunUntil(kWindow);
    uint64_t window_wire_bytes = lan.stats().bytes_on_wire;
    sim.Run();
    SetVirtualTime(state, kWindow);

    double delivered_bps =
        static_cast<double>(window_wire_bytes) * 8 / ToSeconds(kWindow);
    state.counters["utilization"] =
        delivered_bps / lan.config().bandwidth_bits_per_sec;
    state.counters["mean_delay_us"] =
        tracking->delivered == 0
            ? 0
            : ToMicroseconds(tracking->total_delay) /
                  static_cast<double>(tracking->delivered);
    state.counters["collisions"] = static_cast<double>(lan.stats().collisions);
    state.counters["drops"] = static_cast<double>(lan.stats().transmit_failures);
  }
}

BENCHMARK(BM_EthernetLoad)
    ->ArgsProduct({{10, 30, 50, 70, 90, 110}, {5, 20}})
    ->UseManualTime()
    ->Iterations(1);

}  // namespace
}  // namespace eden

EDEN_BENCH_MAIN(bench_ethernet);
