#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

void Tracer::BeginOp(bool traced) {
  tracing_op_ = enabled_ && traced;
  Span root;
  root.name = "op";
  root.op = op_;
  root.root = true;
  root.allocs = ThreadAllocs();
  root_index_ = spans_.size();
  spans_.push_back(root);
  spans_[root_index_].start_ns = NowNs();
}

double Tracer::EndOp() {
  Span& root = spans_[root_index_];
  root.end_ns = NowNs();
  root.allocs = ThreadAllocs() - root.allocs;
  const double ms = static_cast<double>(root.end_ns - root.start_ns) * 1e-6;
  op_ms_.push_back(ms);
  op_traced_.push_back(tracing_op_);
  tracing_op_ = false;
  ++op_;
  return ms;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "op\troot\tname\tstart_ns\tend_ns\tallocs\n";
  for (const Span& s : spans_) {
    out << s.op << '\t' << (s.root ? 1 : 0) << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.allocs << '\n';
  }
  return static_cast<bool>(out);
}

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary summary;
  const std::vector<bool>& traced = tracer.op_traced();
  for (const Span& s : tracer.spans()) {
    if (s.op >= traced.size() || !traced[s.op]) continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (s.root) {
      summary.traced_op_ns += ns;
      continue;
    }
    LayerStats& layer = summary.layers[s.name];
    ++layer.calls;
    layer.us.push_back(ns * 1e-3);
    layer.self_ns += ns;
    layer.allocs += s.allocs;
    summary.covered_ns += ns;
  }
  return summary;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double TailPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 100.0;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

void Digest::Bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::F64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

}  // namespace perfbench
