// SIMD-friendly scalar-replaceable kernels for the PHY hot paths.
//
// Everything here is written as fixed-shape, branch-free loops over
// structure-of-arrays (SoA) doubles so GCC/Clang auto-vectorize them at
// -O2/-O3 (verified with -fopt-info-vec / objdump; see
// docs/phy_fast_path.md for the build note). No intrinsics: the kernels
// stay portable and the float semantics stay pinned by the source.
//
// Determinism contract: each kernel fixes its accumulation shape — a
// constant number of lanes and an explicit reduction-tree order — so a
// given input produces bit-identical doubles on every run, thread count
// and (IEEE-754-conforming) target. Vector width only changes how many
// lane-slots the hardware executes at once, never the order in which
// the lane partial sums are combined.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace freerider::dsp {

/// Split an interleaved complex buffer into SoA re/im arrays (resizing
/// the outputs). The transpose is itself vectorizable and is done once
/// per buffer, amortized over every per-position kernel call.
void SplitComplex(std::span<const Cplx> input, std::vector<double>& re,
                  std::vector<double>& im);

/// Complex correlation c = sum_k x[k] * conj(p[k]) over SoA inputs.
/// Accumulation is one sequential chain per component (re += xr*pr +
/// xi*pi, im += xi*pr - xr*pi, in k order) — the same per-position
/// chain CorrelationX4 uses, so scan positions get bit-identical sums
/// whether they land in a block or the remainder. For finite inputs the
/// sums also equal a std::complex `c += x * std::conj(p)` loop exactly
/// (DESIGN.md §13), which is what lets the receivers' legacy scans —
/// |c|^2 on 802.11, std::abs(c) on 802.15.4 — run on these kernels.
Cplx Correlation(const double* x_re, const double* x_im, const double* p_re,
                 const double* p_im, std::size_t len);

/// Blocked form of Correlation for 4 adjacent scan positions:
/// (re4[j], im4[j]) = sum_k x[k+j] * conj(p[k]) for j = 0..3. The SIMD
/// lanes run across positions (contiguous x loads, one broadcast
/// pattern element per k), while each position's accumulation chain
/// stays the sequential k-order of the 1-position kernel — blocking
/// changes the schedule, not the float results.
void CorrelationX4(const double* x_re, const double* x_im, const double* p_re,
                   const double* p_im, std::size_t len, double* re4,
                   double* im4);

/// Sliding window energy over SoA inputs: out[n] holds
/// sum_{k<window} |x[n+k]|^2 computed with the same add/subtract
/// recurrence as the legacy scalar scans (so the doubles match them
/// bit-for-bit). The input must hold positions + window - 1 samples;
/// out is resized to `positions`.
void SlidingWindowEnergy(const double* x_re, const double* x_im,
                         std::size_t window, std::size_t positions,
                         std::vector<double>& out);

/// Pack up to 32 unpacked bits (LSB = bits[0]) into a word — the entry
/// point of the bit-parallel despreaders (phy802154 chips). Bits must
/// be 0/1.
std::uint32_t PackBits32(std::span<const Bit> bits);

}  // namespace freerider::dsp
