// Host-speed calibration. The benchmark's host may change speed by tens of
// percent within seconds (shared hardware: a fixed loop's speed was seen to
// swing between 3.3M and 6.1M ops/s on the 4-core x86 host the benchmark was
// tuned on). Timed sections are bracketed by a fixed reference kernel that
// uses none of the simulator's code -- a heap, a hash map and small shared
// allocations, the simulator's instruction mix -- and host times are
// reported in reference seconds: wall seconds times the kernel's speed
// relative to kReferenceOpsPerSec. A slow or fast moment of the host cancels
// out; a change to the simulator's own code does not.
#ifndef EDENBENCH_CALIBRATE_H_
#define EDENBENCH_CALIBRATE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace edenbench {

// Reference speed of the calibration kernel, in operations per second: about
// its median on the 4-core x86 host the benchmark was tuned on.
constexpr double kReferenceOpsPerSec = 4.0e6;

// Keeps the calibration kernel's result observable.
inline volatile uint64_t calibration_sink = 0;

// Runs the calibration kernel once (about 12 ms at the reference speed) and
// returns the host's speed relative to the reference.
inline double HostSpeedNow() {
  constexpr int kOps = 50000;
  auto start = std::chrono::steady_clock::now();
  std::priority_queue<std::pair<uint64_t, uint32_t>,
                      std::vector<std::pair<uint64_t, uint32_t>>,
                      std::greater<std::pair<uint64_t, uint32_t>>>
      queue;
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint32_t i = 0; i < 4096; i++) {
    queue.push({next() % 100000, i});
  }
  for (int i = 0; i < kOps; i++) {
    auto top = queue.top();
    queue.pop();
    uint64_t r = next();
    queue.push({top.first + r % 1000, top.second});
    uint64_t& slot = table[r & 8191];
    slot += top.first;
    acc += slot;
    auto block = std::make_shared<std::vector<uint8_t>>(64 + (r & 127),
                                                        static_cast<uint8_t>(i));
    acc += (*block)[0];
  }
  calibration_sink = acc;
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return kOps / seconds / kReferenceOpsPerSec;
}

}  // namespace edenbench

#endif  // EDENBENCH_CALIBRATE_H_
