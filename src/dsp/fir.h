// FIR filtering and pulse-shaping taps.
//
// Used for the BLE Gaussian shaper, the ZigBee half-sine shaper, and
// receiver channel-selection filters (which is what lets a Bluetooth
// receiver reject the unwanted backscatter sideband, paper §3.2.3).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace freerider::dsp {

/// Direct-form FIR filter with real taps over complex or real samples.
/// `Filter` is stateless (one-shot over a buffer, zero-padded edges);
/// for streaming use, keep your own overlap.
///
/// Every output is one accumulation chain per component, starting at
/// 0.0 and adding taps[k] * x[n + taps/2 - k] for in-range k in
/// ascending k order. Outputs whose taps all land inside the input run
/// without bounds checks, blocked across adjacent outputs so the
/// compiler vectorizes them; only the taps/2 edge samples at each end
/// keep the checked loop. The chain per output is the same either way,
/// so the doubles do not depend on where an output falls.
class FirFilter {
 public:
  explicit FirFilter(std::vector<double> taps);

  /// y[n] = sum_k taps[k] * x[n-k], same length as input.
  IqBuffer Filter(std::span<const Cplx> input) const;

  /// Allocation-free Filter: writes into `out` (resized to the input
  /// length), which must not alias `input`.
  void FilterInto(std::span<const Cplx> input, IqBuffer& out) const;

  /// Real-input form: the same doubles as the real part of Filter on
  /// {x, 0} samples, at half the work. `out` must not alias `input`.
  void FilterInto(std::span<const double> input,
                  std::vector<double>& out) const;

  const std::vector<double>& taps() const { return taps_; }

 private:
  std::vector<double> taps_;
};

/// Windowed-sinc low-pass taps. `cutoff_norm` is the cutoff as a fraction
/// of the sample rate (0 < cutoff_norm < 0.5); `num_taps` should be odd.
/// Hamming window. Taps are normalized to unit DC gain.
std::vector<double> LowPassTaps(double cutoff_norm, std::size_t num_taps);

/// Gaussian pulse-shaping taps for GFSK with bandwidth-time product `bt`
/// over `span_symbols` symbols at `samples_per_symbol`. Normalized to
/// unit sum (preserves frequency deviation).
std::vector<double> GaussianTaps(double bt, std::size_t samples_per_symbol,
                                 std::size_t span_symbols = 3);

}  // namespace freerider::dsp
