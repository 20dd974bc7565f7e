// freerider_perf — the end-to-end benchmark binary.
//
//   freerider_perf --workload NAME --seed N --seconds S [--trace 0|1]
//                  [--threads N] [--setup-only] [--t0-ns NS]
//                  [--spans-out PATH]
//
// Prints one JSON object on stdout: the environment record, op counts,
// the output digest, failed checks, the end-to-end metrics and the
// per-layer metrics (see perfbench/README.md). run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/executor.h"
#include "workloads.h"

namespace perfbench {
namespace {

RunResult RunWorkload(const RunOptions& options, Tracer& tracer) {
  if (options.workload == "wifi_link") return RunWifiLink(options, tracer);
  if (options.workload == "narrowband_link") {
    return RunNarrowbandLink(options, tracer);
  }
  if (options.workload == "multitag_rounds") {
    return RunMultitagRounds(options, tracer);
  }
  if (options.workload == "campaign_sweep") {
    return RunCampaignSweep(options, tracer);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

/// Each of these selects a different program than the one measured.
constexpr const char* kForbiddenEnv[] = {
    "FREERIDER_PHY_SCALAR", "FREERIDER_RNG_LEGACY_MODULO", "FREERIDER_CHAOS",
    "FREERIDER_CRASH_AFTER_N_TASKS"};

/// Every per-layer metric, in output order. Metrics of layers a
/// workload does not exercise read 0.
constexpr const char* kLayerMetrics[][2] = {
    {"phy80211.rx.calls", "count"},
    {"phy80211.rx.us_p50", "us"},
    {"phy80211.rx.us_tail", "us"},
    {"phy80211.rx.share", "ratio"},
    {"phy80211.rx.allocs_per_call", "count"},
    {"phy80211.rx.sync_ratio", "ratio"},
    {"phy80211.tx.us_p50", "us"},
    {"phy80211.tx.share", "ratio"},
    {"phy80211.tx.allocs_per_call", "count"},
    {"channel.noise.us_p50", "us"},
    {"channel.noise.share", "ratio"},
    {"channel.noise.allocs_per_call", "count"},
    {"channel.scale.us_p50", "us"},
    {"channel.scale.share", "ratio"},
    {"core.translate.us_p50", "us"},
    {"core.translate.share", "ratio"},
    {"core.translate.allocs_per_call", "count"},
    {"core.xor_decode.us_p50", "us"},
    {"core.xor_decode.share", "ratio"},
    {"core.tag_bit_ok_ratio", "ratio"},
    {"phy802154.tx.us_p50", "us"},
    {"phy802154.tx.share", "ratio"},
    {"phy802154.tx.allocs_per_call", "count"},
    {"phy802154.rx.us_p50", "us"},
    {"phy802154.rx.share", "ratio"},
    {"phy802154.rx.allocs_per_call", "count"},
    {"phy802154.rx.detect_ratio", "ratio"},
    {"phyble.tx.us_p50", "us"},
    {"phyble.tx.share", "ratio"},
    {"phyble.tx.allocs_per_call", "count"},
    {"phyble.rx.us_p50", "us"},
    {"phyble.rx.share", "ratio"},
    {"phyble.rx.allocs_per_call", "count"},
    {"phyble.rx.detect_ratio", "ratio"},
    {"sim.step_round.us_p50", "us"},
    {"sim.step_round.us_tail", "us"},
    {"sim.step_round.allocs_per_call", "count"},
    {"sim.distance_sweep.share", "ratio"},
    {"mac.slots_per_round", "slots"},
    {"mac.max_slots_per_round", "slots"},
    {"mac.delivery_ratio", "ratio"},
    {"mac.collision_ratio", "ratio"},
    {"transport.retx_per_delivery", "ratio"},
    {"transport.expired", "count"},
    {"health.quarantines", "count"},
    {"health.probes_sent", "count"},
    {"policing.evidence", "count"},
    {"runtime.tasks", "count"},
    {"runtime.steals", "count"},
    {"runtime.busy_share", "ratio"},
    {"runtime.wait_ms_p50", "ms"},
    {"runtime.task_ms_tail", "ms"},
    {"runtime.worker_imbalance", "ratio"},
    {"bench.glue.share", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

/// A span-derived statistic of `layer` (0 for a layer without calls or
/// a statistic spans do not give).
double SpanStat(const TraceSummary& summary, const std::string& layer,
                const std::string& stat) {
  const auto it = summary.layers.find(layer);
  if (it == summary.layers.end()) return 0.0;
  const LayerStats& s = it->second;
  if (stat == "calls") return static_cast<double>(s.calls);
  if (stat == "us_p50") return Median(s.us);
  if (stat == "us_tail") return Percentile(s.us, TailPercentile(s.calls));
  if (stat == "share") return s.self_ns / summary.traced_op_ns;
  if (stat == "allocs_per_call") {
    return static_cast<double>(s.allocs) / static_cast<double>(s.calls);
  }
  return 0.0;
}

std::vector<Metric> LayerMetrics(const Tracer& tracer, const RunResult& run) {
  const TraceSummary summary = Summarize(tracer);
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    const auto direct =
        std::find_if(run.layer_metrics.begin(), run.layer_metrics.end(),
                     [&](const Metric& d) { return d.name == m.name; });
    if (direct != run.layer_metrics.end()) {
      m.value = direct->value;
    } else if (m.name == "bench.glue.share") {
      m.value = summary.traced_op_ns > 0
                    ? 1.0 - summary.covered_ns / summary.traced_op_ns
                    : 0.0;
    } else {
      const std::size_t dot = m.name.rfind('.');
      m.value = SpanStat(summary, m.name.substr(0, dot), m.name.substr(dot + 1));
    }
    out.push_back(m);
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* error) {
  std::cerr << "freerider_perf: " << error << "\n"
            << "usage: freerider_perf --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--threads N] [--setup-only] [--t0-ns NS] "
               "[--spans-out PATH]\n";
  return 2;
}

int Main(int argc, char** argv) {
  const std::int64_t main_ns = NowNs();
  RunOptions options;
  std::int64_t t0_ns = 0;
  std::string spans_out;
  std::size_t threads = 0;  // 0 = the workload's default
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (arg == "--threads") {
      threads = std::strtoull(value.c_str(), &end, 10);
      if (threads == 0) return Usage("--threads must be positive");
    } else if (arg == "--t0-ns") {
      t0_ns = std::strtoll(value.c_str(), &end, 10);
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "freerider_perf: refusing to measure with " << name
                << " set (it selects a different program)\n";
      return 3;
    }
  }
#ifdef FREERIDER_RNG_LEGACY_MODULO
  std::cerr << "freerider_perf: refusing to measure a legacy-RNG build\n";
  return 3;
#endif

  // Only the sweep runs on the executor; it takes one worker per core.
  if (threads == 0) {
    threads = options.workload == "campaign_sweep"
                  ? std::max(1u, std::thread::hardware_concurrency())
                  : 1;
  }
  freerider::runtime::SetDefaultThreads(threads);

  Tracer tracer(options.trace);
  RunResult run = RunWorkload(options, tracer);

  const double setup_s =
      static_cast<double>(run.first_op_ns - (t0_ns > 0 ? t0_ns : main_ns)) *
      1e-9;
  if (options.setup_only) {
    std::cout << "{\"setup_s\": " << JsonNumber(setup_s) << "}\n";
    return run.problems.empty() ? 0 : 1;
  }

  // Throughput per segment and tail latency per window of
  // `tail_window` segments, each then the median over segments or
  // windows; the segments partition op_ms in order.
  std::vector<double> op_per_s, rt_factor, cpu_ms_per_op, tail_ms, tail_p;
  std::size_t offset = 0;
  std::size_t window_start = 0;
  for (std::size_t i = 0; i < run.segments.size(); ++i) {
    const Segment& seg = run.segments[i];
    op_per_s.push_back(static_cast<double>(seg.ops) / seg.wall_s);
    rt_factor.push_back(seg.onair_s / seg.wall_s);
    cpu_ms_per_op.push_back(seg.cpu_s * 1e3 / static_cast<double>(seg.ops));
    offset += seg.ops;
    if (offset > run.op_ms.size()) {
      throw std::logic_error("segments cover more ops than were timed");
    }
    const bool window_full = (i + 1) % run.tail_window == 0;
    if (window_full || (i + 1 == run.segments.size() && tail_ms.empty())) {
      const auto begin = run.op_ms.begin();
      const std::vector<double> window(
          begin + static_cast<std::ptrdiff_t>(window_start),
          begin + static_cast<std::ptrdiff_t>(offset));
      tail_p.push_back(TailPercentile(window.size()));
      tail_ms.push_back(Percentile(window, tail_p.back()));
      window_start = offset;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"op_per_s", Median(op_per_s), "1/s"},
      {"op_p50_ms", Median(run.op_ms), "ms"},
      {"op_tail_ms", Median(tail_ms), "ms"},
      {"rt_factor", Median(rt_factor), "s/s"},
      {"cpu_ms_per_op", Median(cpu_ms_per_op), "ms"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"op_ok_ratio",
       run.attempted == 0
           ? 0.0
           : static_cast<double>(run.attempted - run.failed) /
                 static_cast<double>(run.attempted),
       "ratio"},
  };

  if (!spans_out.empty() && !tracer.WriteTsv(spans_out)) {
    run.problems.push_back("could not write spans to " + spans_out);
  }

  std::ostringstream digest_hex;
  digest_hex << std::hex << run.digest;
  std::string problems = "[";
  for (std::size_t i = 0; i < run.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + JsonString(run.problems[i]);
  }
  problems += "]";

  std::cout << "{\"workload\": " << JsonString(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"traced\": " << (options.trace ? "true" : "false")
            << ", \"env\": {\"compiler\": " << JsonString(__VERSION__)
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"threads\": " << threads << "}"
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed
            << ", \"ops\": " << run.op_ms.size()
            << ", \"segments\": " << run.segments.size()
            << ", \"tail_windows\": " << tail_ms.size()
            << ", \"digest\": \"" << digest_hex.str() << "\""
            << ", \"digest_ops\": " << run.digest_ops
            << ", \"tail_percentile\": " << JsonNumber(Median(tail_p))
            << ", \"problems\": " << problems
            << ", \"end_to_end\": " << MetricsJson(end_to_end)
            << ", \"per_layer\": " << MetricsJson(LayerMetrics(tracer, run))
            << "}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "freerider_perf: " << e.what() << "\n";
    return 1;
  }
}
