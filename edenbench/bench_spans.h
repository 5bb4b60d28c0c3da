// The benchmark's own spans: one around each call the benchmark makes into a
// layer (system build, object creation, warm-up, each RunUntil slice, each
// probe), timed on the host clock. Kept in memory and written out as JSON
// when the run ends. Spans inside src/ are the simulator's own SpanCollector.
#ifndef EDENBENCH_BENCH_SPANS_H_
#define EDENBENCH_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edenbench {

class BenchTracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // host ns since the tracer was created
    int64_t end_ns = 0;
    int parent = -1;  // index of the parent span, -1 for a root
  };

  BenchTracer() : origin_(std::chrono::steady_clock::now()) {}

  void Open(const std::string& name) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Now(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  // Closes the innermost open span (spans nest strictly).
  void Close() {
    if (!open_.empty()) {
      spans_[static_cast<size_t>(open_.back())].end_ns = Now();
      open_.pop_back();
    }
  }

  // Host self time per span name: duration minus the part its children cover.
  std::map<std::string, int64_t> SelfTimeByName() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, int64_t> self;
    for (size_t i = 0; i < spans_.size(); i++) {
      self[spans_[i].name] += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
    return self;
  }

  std::string ToJson() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      out += (i == 0 ? "" : ",");
      out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
             "\",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) +
             ",\"parent\":" + std::to_string(s.parent) + "}";
    }
    return out + "]";
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the enclosing scope; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(BenchTracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  BenchTracer* tracer_;
};

}  // namespace edenbench

#endif  // EDENBENCH_BENCH_SPANS_H_
