#include "phy80211/sync.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>

#include "dsp/kernels.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"

namespace freerider::phy80211 {
namespace {

// LTF reference split into SoA form once; `energy` uses the same
// sequential accumulation as the legacy detector so the normalization
// constant is bit-identical to it.
struct LtfSoa {
  std::array<double, kFftSize> re{};
  std::array<double, kFftSize> im{};
  double energy = 0.0;
};

const LtfSoa& LtfPattern() {
  static const LtfSoa pattern = [] {
    LtfSoa p;
    const IqBuffer ltf = LongTrainingSymbol64();
    for (std::size_t k = 0; k < kFftSize; ++k) {
      p.re[k] = ltf[k].real();
      p.im[k] = ltf[k].imag();
      p.energy += std::norm(ltf[k]);
    }
    return p;
  }();
  return pattern;
}

/// Peak/validation stage over the ncorr/win_energy arrays. The
/// win_energy doubles are bit-identical to the legacy detector's (same
/// recurrence), so the degenerate-window gating decisions below are
/// identical to its by construction.
Detection PickPairPeak(const double* ncorr, const double* win_energy,
                       std::size_t positions, std::size_t rx_size,
                       double threshold) {
  // The LTF gives two adjacent full-symbol peaks 64 samples apart.
  // Find the best position with a confirming peak at +64. Windows with
  // non-positive energy have no defined normalized correlation — they
  // are excluded rather than scanned as ncorr == 0 placeholders.
  double best = 0.0;
  std::size_t best_n = 0;
  bool have_peak = false;
  for (std::size_t n = 0; n + 64 < positions; ++n) {
    if (win_energy[n] <= 0.0 || win_energy[n + 64] <= 0.0) continue;
    const double pair = std::min(ncorr[n], ncorr[n + 64]);
    if (pair > best) {
      best = pair;
      best_n = n;
      have_peak = true;
    }
  }
  // `have_peak` also rejects the all-zero/degenerate buffer at
  // threshold <= 0: a correlation of exactly zero is never a packet.
  if (!have_peak || best < threshold) return {};
  // A frame whose SIGNAL symbol cannot fit inside the capture is
  // undecodable — reject instead of handing downstream a start index
  // past the buffer (truncated-capture bug class).
  if (best_n + 2 * kFftSize + kSymbolLen > rx_size) return {};
  return {true, best_n + 64};
}

}  // namespace

Detection DetectPreamble(std::span<const Cplx> rx, double threshold,
                         dsp::Workspace& ws) {
  const LtfSoa& ltf = LtfPattern();
  if (rx.size() < 2 * kFftSize) return {};
  const std::size_t positions = rx.size() - kFftSize + 1;

  dsp::SplitComplex(rx, ws.scan_re, ws.scan_im);
  dsp::SlidingWindowEnergy(ws.scan_re.data(), ws.scan_im.data(), kFftSize,
                           positions, ws.win_energy);

  ws.ncorr.assign(positions, 0.0);
  const double* re = ws.scan_re.data();
  const double* im = ws.scan_im.data();
  const double* we = ws.win_energy.data();
  double* nc = ws.ncorr.data();
  // Energy gate: a window with no energy has no normalized correlation
  // to compute — the only gate that provably cannot change the
  // detection decision (see DESIGN.md §13: Cauchy-Schwarz caps ncorr at
  // 1, so any *positive* window energy still admits a
  // threshold-clearing peak). A block is skipped only when all four of
  // its windows are gated; a partially gated block computes all four
  // correlations and discards the gated ones, which keeps every
  // written ncorr value independent of its neighbors' energies.
  std::size_t n = 0;
  for (; n + 4 <= positions; n += 4) {
    if (we[n] <= 0.0 && we[n + 1] <= 0.0 && we[n + 2] <= 0.0 &&
        we[n + 3] <= 0.0) {
      continue;
    }
    double cr[4];
    double ci[4];
    dsp::CorrelationX4(re + n, im + n, ltf.re.data(), ltf.im.data(), kFftSize,
                       cr, ci);
    for (std::size_t j = 0; j < 4; ++j) {
      const double e = we[n + j];
      if (e <= 0.0) continue;
      const double power = cr[j] * cr[j] + ci[j] * ci[j];
      nc[n + j] = std::sqrt(power) / std::sqrt(e * ltf.energy);
    }
  }
  for (; n < positions; ++n) {
    const double e = we[n];
    if (e <= 0.0) continue;
    const Cplx c = dsp::Correlation(re + n, im + n, ltf.re.data(),
                                    ltf.im.data(), kFftSize);
    const double power = c.real() * c.real() + c.imag() * c.imag();
    nc[n] = std::sqrt(power) / std::sqrt(e * ltf.energy);
  }

  return PickPairPeak(nc, we, positions, rx.size(), threshold);
}

Detection DetectPreamble(std::span<const Cplx> rx, double threshold) {
  return DetectPreamble(rx, threshold, dsp::ThreadLocalWorkspace());
}

}  // namespace freerider::phy80211
