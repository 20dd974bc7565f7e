#include "dsp/fir.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace freerider::dsp {

FirFilter::FirFilter(std::vector<double> taps) : taps_(std::move(taps)) {
  if (taps_.empty()) throw std::invalid_argument("FirFilter: empty taps");
}

namespace {

// Filters `positions` samples of `rails` interleaved components (1 for
// real input, 2 for complex re/im pairs) with one accumulation chain per
// output double. Doubles are indexed i = n * rails + component, so the
// input of tap k for output double i sits at i + (delay - k) * rails.
void FilterRails(const std::vector<double>& taps, const double* in,
                 std::size_t positions, std::size_t rails, double* out) {
  const std::size_t num_taps = taps.size();
  // Center the group delay so output stays time-aligned with input.
  const std::size_t delay = num_taps / 2;
  const double* t = taps.data();

  // Outputs n in [lo, hi) have every tap index n + delay - k inside
  // [0, positions); the rest are the edges.
  const std::size_t lo = std::min(num_taps - 1 - delay, positions);
  const std::size_t hi =
      std::max(lo, positions > delay ? positions - delay : std::size_t{0});

  auto checked = [&](std::size_t i) {
    const std::size_t n = i / rails;
    const std::size_t c = i % rails;
    double acc = 0.0;
    for (std::size_t k = 0; k < num_taps; ++k) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(n + delay) -
                                 static_cast<std::ptrdiff_t>(k);
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(positions)) {
        acc += t[k] * in[static_cast<std::size_t>(idx) * rails + c];
      }
    }
    out[i] = acc;
  };
  for (std::size_t i = 0; i < lo * rails; ++i) checked(i);

  // Interior, blocked 8 output doubles at a time: the lanes are adjacent
  // outputs (contiguous loads, one broadcast tap per k), and each lane
  // keeps its own sequential k-order chain. The few interior doubles
  // left over take the checked loop, whose chain is the same.
  constexpr std::size_t kBlock = 8;
  std::size_t i = lo * rails;
  const std::size_t interior_end = hi * rails;
  for (; i + kBlock <= interior_end; i += kBlock) {
    const double* x = in + i + delay * rails;
    double acc[kBlock] = {};
    for (std::size_t k = 0; k < num_taps; ++k) {
      const double tap = t[k];
      const double* xk = x - k * rails;
      for (std::size_t j = 0; j < kBlock; ++j) acc[j] += tap * xk[j];
    }
    for (std::size_t j = 0; j < kBlock; ++j) out[i + j] = acc[j];
  }
  for (; i < positions * rails; ++i) checked(i);
}

}  // namespace

IqBuffer FirFilter::Filter(std::span<const Cplx> input) const {
  IqBuffer out;
  FilterInto(input, out);
  return out;
}

void FirFilter::FilterInto(std::span<const Cplx> input, IqBuffer& out) const {
  out.resize(input.size());
  // std::complex<double> is layout-compatible with double[2]
  // ([complex.numbers]), so a complex buffer is two interleaved rails.
  FilterRails(taps_, reinterpret_cast<const double*>(input.data()),
              input.size(), 2, reinterpret_cast<double*>(out.data()));
}

void FirFilter::FilterInto(std::span<const double> input,
                           std::vector<double>& out) const {
  out.resize(input.size());
  FilterRails(taps_, input.data(), input.size(), 1, out.data());
}

std::vector<double> LowPassTaps(double cutoff_norm, std::size_t num_taps) {
  if (cutoff_norm <= 0.0 || cutoff_norm >= 0.5) {
    throw std::invalid_argument("LowPassTaps: cutoff must be in (0, 0.5)");
  }
  if (num_taps == 0) throw std::invalid_argument("LowPassTaps: zero taps");
  std::vector<double> taps(num_taps);
  const double mid = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc = (std::abs(t) < 1e-12)
                            ? 2.0 * cutoff_norm
                            : std::sin(kTwoPi * cutoff_norm * t) / (kPi * t);
    const double window =
        0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) /
                               static_cast<double>(num_taps - 1));
    taps[i] = sinc * window;
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

std::vector<double> GaussianTaps(double bt, std::size_t samples_per_symbol,
                                 std::size_t span_symbols) {
  if (bt <= 0.0) throw std::invalid_argument("GaussianTaps: bt must be > 0");
  const std::size_t n = samples_per_symbol * span_symbols | 1u;  // odd length
  std::vector<double> taps(n);
  const double mid = static_cast<double>(n - 1) / 2.0;
  // Standard GFSK Gaussian: h(t) ∝ exp(-(2π²B²t²)/ln 2), t in symbols.
  const double alpha = 2.0 * kPi * kPi * bt * bt / std::log(2.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        (static_cast<double>(i) - mid) / static_cast<double>(samples_per_symbol);
    taps[i] = std::exp(-alpha * t * t);
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

}  // namespace freerider::dsp
