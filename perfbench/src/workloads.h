// The benchmark's workloads. Each one builds its inputs from the seed
// during setup, runs a closed loop of ops until the time budget is
// spent, checks the simulated outputs and reports what it measured.
#pragma once

#include <ctime>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
};

inline double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A stretch of consecutive whole ops of the timed phase. Throughput
/// metrics are medians over segments, so a burst of load from other
/// processes on the host skews one segment, not the run.
struct Segment {
  std::size_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;    ///< Process CPU time, all threads.
  double onair_s = 0.0;  ///< Simulated airtime of the segment's ops.
};

/// What a workload hands back to main.
struct RunResult {
  std::int64_t first_op_ns = 0;  ///< Start of the first timed op.
  std::vector<Segment> segments;
  /// Consecutive segments pooled into one window for the tail latency.
  std::size_t tail_window = 1;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Per-op latency (ms). Defaults to the tracer's root spans; the
  /// sweep workload substitutes per-task times.
  std::vector<double> op_ms;
  std::uint64_t digest = 0;      ///< Over the workload's fixed check window.
  std::size_t digest_ops = 0;    ///< Ops the digest covers.
  /// Human-readable reasons for failed checks (empty = all passed).
  std::vector<std::string> problems;
  /// Per-layer metrics measured directly (not from spans).
  std::vector<Metric> layer_metrics;
};

// The workloads (link_workloads.cpp, sim_workloads.cpp). Each runs its
// setup and, unless `setup_only`, its timed loop.
RunResult RunWifiLink(const RunOptions& options, Tracer& tracer);
RunResult RunNarrowbandLink(const RunOptions& options, Tracer& tracer);
RunResult RunMultitagRounds(const RunOptions& options, Tracer& tracer);
RunResult RunCampaignSweep(const RunOptions& options, Tracer& tracer);

/// Splits the timed phase into segments.
class SegmentClock {
 public:
  /// Setup ends and the timed phase, with its first segment, begins.
  void Start(RunResult& run) {
    run.first_op_ns = NowNs();
    start_ns_ = run.first_op_ns;
    start_cpu_s_ = ProcessCpuS();
  }
  void Add(std::size_t ops, double onair_s) {
    current_.ops += ops;
    current_.onair_s += onair_s;
  }
  double elapsed_s() const {
    return static_cast<double>(NowNs() - start_ns_) * 1e-9;
  }
  /// Ends the current segment (if it holds ops) and starts the next.
  void Close(RunResult& run) {
    const std::int64_t now_ns = NowNs();
    const double now_cpu_s = ProcessCpuS();
    if (current_.ops > 0) {
      current_.wall_s = static_cast<double>(now_ns - start_ns_) * 1e-9;
      current_.cpu_s = now_cpu_s - start_cpu_s_;
      run.segments.push_back(current_);
    }
    current_ = {};
    start_ns_ = now_ns;
    start_cpu_s_ = now_cpu_s;
  }

 private:
  Segment current_;
  std::int64_t start_ns_ = 0;
  double start_cpu_s_ = 0.0;
};

/// True once the timed phase that started at `start_ns` has run for
/// `seconds`.
inline bool TimeUp(std::int64_t start_ns, double seconds) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9 >= seconds;
}

}  // namespace perfbench
