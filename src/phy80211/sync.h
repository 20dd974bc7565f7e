// 802.11 packet detection: normalized long-training-symbol correlation
// with the two-peak (64-sample spacing) confirmation rule.
//
// The scan is SoA-split and 4-lane vectorizable with an energy gate,
// fed from a dsp::Workspace so the steady state allocates nothing. Its
// per-position doubles are deterministic (fixed lane count + reduction
// tree, see dsp/kernels.h) but not bitwise equal to the per-position
// complex-MAC loop it replaced; the returned Detection — the only thing
// the rest of the chain consumes — is. phy_fastpath_test keeps that
// loop verbatim as its reference and compares Detections across a
// power sweep, and the pinned 802.11 sweep digest in sim_test covers
// the campaign inputs.
//
// Degenerate inputs: windows with non-positive energy are excluded from
// the peak scan, a best correlation of exactly zero never detects
// (all-zero buffers), and a candidate whose SIGNAL symbol cannot fit
// inside the buffer is rejected (truncated captures).
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"
#include "dsp/workspace.h"

namespace freerider::phy80211 {

struct Detection {
  bool found = false;
  std::size_t second_ltf_start = 0;  ///< Start of the 2nd long symbol.
};

/// Detect with the calling thread's workspace.
Detection DetectPreamble(std::span<const Cplx> rx, double threshold);

/// Detect using `ws` for every temporary.
Detection DetectPreamble(std::span<const Cplx> rx, double threshold,
                         dsp::Workspace& ws);

}  // namespace freerider::phy80211
