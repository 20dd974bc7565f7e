// Span recording and summary statistics for the end-to-end benchmark.
//
// Every op gets a root span; with tracing on, every call the benchmark
// makes into a simulator module gets a child span carrying the heap
// allocations the calling thread made inside it. Spans stay in memory
// until the run ends. All timing is taken here, around public calls —
// nothing inside the simulator is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Heap allocations made by the calling thread so far (operator new
/// overrides in alloc_count.cpp).
std::uint64_t ThreadAllocs();

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< Layer name; "op" for the root.
  std::uint32_t op = 0;        ///< Op id the span belongs to.
  bool root = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0;
};

/// Records root spans for every op and, for ops it traces, child spans
/// around layer calls. Child spans of one op never overlap, so a
/// layer's self time is its span duration.
class Tracer {
 public:
  /// `enabled` = the traced run.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens an op's root span; `traced` (ignored unless enabled) also
  /// records child spans for its layer calls.
  void BeginOp(bool traced = true);
  /// Closes the current op's root span and returns its duration (ms).
  double EndOp();

  template <class F>
  decltype(auto) Layer(const char* name, F&& call) {
    if (!tracing_op_) return call();
    Span span;
    span.name = name;
    span.op = op_;
    const std::uint64_t allocs_before = ThreadAllocs();
    span.start_ns = NowNs();
    struct Close {
      Tracer* tracer;
      Span* span;
      std::uint64_t allocs_before;
      ~Close() {
        span->end_ns = NowNs();
        span->allocs = ThreadAllocs() - allocs_before;
        tracer->spans_.push_back(*span);
      }
    } close{this, &span, allocs_before};
    return call();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Latency (ms) of every op, in op order, and whether it was traced.
  const std::vector<double>& op_ms() const { return op_ms_; }
  const std::vector<bool>& op_traced() const { return op_traced_; }

  /// Writes spans as TSV (op, root, name, start_ns, end_ns, allocs).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  bool tracing_op_ = false;
  std::uint32_t op_ = 0;
  std::size_t root_index_ = 0;
  std::vector<Span> spans_;
  std::vector<double> op_ms_;
  std::vector<bool> op_traced_;
};

/// Per-layer aggregates over traced ops.
struct LayerStats {
  std::size_t calls = 0;
  std::vector<double> us;  ///< Per-call duration.
  double self_ns = 0.0;
  std::uint64_t allocs = 0;
};

struct TraceSummary {
  std::map<std::string, LayerStats> layers;
  double traced_op_ns = 0.0;   ///< Summed root duration of traced ops.
  double covered_ns = 0.0;     ///< Summed child spans of traced ops.
};

TraceSummary Summarize(const Tracer& tracer);

/// Nearest-rank percentile (p in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double p);

/// The highest of 99.9/99/95/90/80/75/50 that leaves at least ten samples
/// above it in `n`; 100 (the maximum) when n < 20.
double TailPercentile(std::size_t n);

/// Median of the values.
double Median(std::vector<double> values);

/// 64-bit FNV-1a accumulator for output digests.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n);
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v);
  template <class T>
  void Seq(const std::vector<T>& v) {
    U64(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// A named metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench
