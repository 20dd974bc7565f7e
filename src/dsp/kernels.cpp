#include "dsp/kernels.h"

#include <stdexcept>

namespace freerider::dsp {

void SplitComplex(std::span<const Cplx> input, std::vector<double>& re,
                  std::vector<double>& im) {
  re.resize(input.size());
  im.resize(input.size());
  const Cplx* in = input.data();
  double* r = re.data();
  double* i = im.data();
  for (std::size_t n = 0; n < input.size(); ++n) {
    r[n] = in[n].real();
    i[n] = in[n].imag();
  }
}

Cplx Correlation(const double* x_re, const double* x_im, const double* p_re,
                 const double* p_im, std::size_t len) {
  // One sequential chain per component, the same expression shape the
  // blocked kernel uses per position — so a position computed here (the
  // scan remainder) and one computed inside a block produce the same
  // doubles.
  double cr = 0.0;
  double ci = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    // c += x * conj(p): re += xr*pr + xi*pi, im += xi*pr - xr*pi.
    const double xr = x_re[k];
    const double xi = x_im[k];
    const double pr = p_re[k];
    const double pi = p_im[k];
    cr += xr * pr + xi * pi;
    ci += xi * pr - xr * pi;
  }
  return {cr, ci};
}

void CorrelationX4(const double* x_re, const double* x_im, const double* p_re,
                   const double* p_im, std::size_t len, double* re4,
                   double* im4) {
  // Vectorized over *positions*: the four lanes are the four adjacent
  // scan offsets, so x loads are contiguous (no gather shuffles) and
  // each pattern element is loaded once and broadcast across the block.
  // Each position keeps a single sequential accumulation chain over k —
  // identical, term for term, to Correlation above — so blocking is a
  // scheduling change, never a float-semantics change.
  double cr[4] = {0.0, 0.0, 0.0, 0.0};
  double ci[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < len; ++k) {
    const double pr = p_re[k];
    const double pi = p_im[k];
    for (int j = 0; j < 4; ++j) {
      const double xr = x_re[k + static_cast<std::size_t>(j)];
      const double xi = x_im[k + static_cast<std::size_t>(j)];
      cr[j] += xr * pr + xi * pi;
      ci[j] += xi * pr - xr * pi;
    }
  }
  for (int j = 0; j < 4; ++j) {
    re4[j] = cr[j];
    im4[j] = ci[j];
  }
}

void SlidingWindowEnergy(const double* x_re, const double* x_im,
                         std::size_t window, std::size_t positions,
                         std::vector<double>& out) {
  out.resize(positions);
  if (positions == 0) return;
  // Same recurrence (and therefore the same doubles) as the legacy
  // scalar scans: seed with the first window, then slide by adding the
  // entering sample and subtracting the leaving one.
  double acc = 0.0;
  for (std::size_t n = 0; n < window; ++n) {
    acc += x_re[n] * x_re[n] + x_im[n] * x_im[n];
  }
  out[0] = acc;
  for (std::size_t n = 1; n < positions; ++n) {
    const std::size_t tail = n + window - 1;
    acc += (x_re[tail] * x_re[tail] + x_im[tail] * x_im[tail]) -
           (x_re[n - 1] * x_re[n - 1] + x_im[n - 1] * x_im[n - 1]);
    out[n] = acc;
  }
}

std::uint32_t PackBits32(std::span<const Bit> bits) {
  if (bits.size() > 32) {
    throw std::invalid_argument("PackBits32: more than 32 bits");
  }
  std::uint32_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    word |= static_cast<std::uint32_t>(bits[i] & 1u) << i;
  }
  return word;
}

}  // namespace freerider::dsp
