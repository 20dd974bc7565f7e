// Equivalence suite for the SIMD/bit-parallel PHY fast path
// (DESIGN.md §13): every fast kernel must match the legacy scalar loop
// it replaced bit-for-bit — same decoded bits, same Detection, same
// RxResult down to the float fields — across rates, lengths, erasure
// phases, SNRs straddling the detection threshold, carrier offsets and
// workspace reuse. src/ has one implementation of each stage; the
// replaced loops (802.11 detector, trellises and receive chain, 802.15.4
// SHR scan, BLE header search, FIR) live below, verbatim, as the
// references.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <limits>
#include <stdexcept>
#include <vector>

#include "channel/awgn.h"
#include "common/bits.h"
#include "common/crc.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/kernels.h"
#include "dsp/signal_ops.h"
#include "dsp/workspace.h"
#include "phy80211/constellation.h"
#include "phy80211/convolutional.h"
#include "phy80211/interleaver.h"
#include "phy80211/ofdm.h"
#include "phy80211/params.h"
#include "phy80211/receiver.h"
#include "phy80211/scrambler.h"
#include "phy80211/sync.h"
#include "phy80211/transmitter.h"
#include "phy802154/chips.h"
#include "phy802154/frame.h"
#include "phy802154/oqpsk.h"
#include "phyble/frame.h"
#include "phyble/gfsk.h"
#include "phyble/whitening.h"

namespace freerider::phy80211 {
namespace {

// --- Legacy convolutional-code helpers and scalar trellises, verbatim. ---
// Generator taps expressed as delay masks with the *newest* bit in the
// LSB: g0 = 133 octal touches delays {0,2,3,5,6} (Eq. 9, C1), g1 = 171
// octal touches delays {0,1,2,3,6} (Eq. 9, C2).
constexpr std::uint8_t kG0 = 0x6D;
constexpr std::uint8_t kG1 = 0x4F;
constexpr int kConstraint = 7;
constexpr int kNumStates = 1 << (kConstraint - 1);  // 64

constexpr Bit Parity(std::uint8_t x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<Bit>(x & 1u);
}

// Output pair for (state, input). State holds the 6 previous bits with
// the most recent in the LSB.
constexpr void BranchOutputs(int state, Bit input, Bit& out_a, Bit& out_b) {
  // 7-bit window with the newest bit in the LSB; window bit i is the
  // input delayed by i, so the delay masks apply directly.
  const std::uint8_t window =
      static_cast<std::uint8_t>((state << 1) | input);
  out_a = Parity(window & kG0);
  out_b = Parity(window & kG1);
}

/// Scalar-path traceback: decisions pack bits 6..1 = predecessor state,
/// bit 0 = input, one byte per (step, state).
template <typename Metric>
void Traceback(const std::uint8_t* decisions, std::size_t steps,
               const Metric* final_metric, BitVector& out) {
  int state = static_cast<int>(
      std::min_element(final_metric, final_metric + kNumStates) -
      final_metric);
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    const std::uint8_t d = decisions[t * kNumStates + state];
    out[t] = static_cast<Bit>(d & 1u);
    state = (d >> 1) & (kNumStates - 1);
  }
}

BitVector LegacyViterbiDecodeSoft(std::span<const double> llrs) {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi soft input must be even length");
  }
  const std::size_t steps = llrs.size() / 2;
  if (steps == 0) return {};

  constexpr double kInf = 1e30;
  std::vector<double> metric(kNumStates, kInf);
  std::vector<double> next_metric(kNumStates, kInf);
  metric[0] = 0.0;
  std::vector<std::uint8_t> decisions(steps * kNumStates);

  struct Branch {
    Bit a, b;
  };
  static const auto branch_table = [] {
    std::array<std::array<Branch, 2>, kNumStates> t{};
    for (int s = 0; s < kNumStates; ++s) {
      for (int in = 0; in < 2; ++in) {
        BranchOutputs(s, static_cast<Bit>(in), t[s][in].a, t[s][in].b);
      }
    }
    return t;
  }();

  for (std::size_t t = 0; t < steps; ++t) {
    const double la = llrs[2 * t];
    const double lb = llrs[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (int s = 0; s < kNumStates; ++s) {
      const double m = metric[s];
      if (m >= kInf) continue;
      for (int in = 0; in < 2; ++in) {
        const Branch& br = branch_table[s][in];
        // Penalize disagreement between the branch bit and the LLR sign
        // by the LLR magnitude (max-log metric).
        double cost = m;
        if ((la > 0.0) != (br.a == 1)) cost += std::abs(la);
        if ((lb > 0.0) != (br.b == 1)) cost += std::abs(lb);
        const int ns = ((s << 1) | in) & (kNumStates - 1);
        if (cost < next_metric[ns]) {
          next_metric[ns] = cost;
          dec[ns] = static_cast<std::uint8_t>((s << 1) | in);
        }
      }
    }
    metric.swap(next_metric);
  }

  BitVector info;
  Traceback(decisions.data(), steps, metric.data(), info);
  return info;
}

BitVector LegacyViterbiDecode(std::span<const Bit> coded_with_erasures) {
  if (coded_with_erasures.size() % 2 != 0) {
    throw std::invalid_argument("Viterbi input must be even length");
  }
  const std::size_t steps = coded_with_erasures.size() / 2;
  if (steps == 0) return {};

  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 2;
  std::vector<std::uint32_t> metric(kNumStates, kInf);
  std::vector<std::uint32_t> next_metric(kNumStates, kInf);
  metric[0] = 0;

  // decisions[t][state] = input bit that led to `state` on the survivor.
  // Stored packed as one byte per state for simple traceback.
  std::vector<std::uint8_t> decisions(steps * kNumStates);

  // Precompute branch outputs once.
  struct Branch {
    Bit a, b;
  };
  static const auto branch_table = [] {
    std::array<std::array<Branch, 2>, kNumStates> t{};
    for (int s = 0; s < kNumStates; ++s) {
      for (int in = 0; in < 2; ++in) {
        BranchOutputs(s, static_cast<Bit>(in), t[s][in].a, t[s][in].b);
      }
    }
    return t;
  }();

  for (std::size_t t = 0; t < steps; ++t) {
    const Bit ra = coded_with_erasures[2 * t];
    const Bit rb = coded_with_erasures[2 * t + 1];
    std::fill(next_metric.begin(), next_metric.end(), kInf);
    std::uint8_t* dec = &decisions[t * kNumStates];
    for (int s = 0; s < kNumStates; ++s) {
      const std::uint32_t m = metric[s];
      if (m >= kInf) continue;
      for (int in = 0; in < 2; ++in) {
        const Branch& br = branch_table[s][in];
        std::uint32_t cost = m;
        if (ra != 2 && br.a != ra) ++cost;
        if (rb != 2 && br.b != rb) ++cost;
        const int ns = ((s << 1) | in) & (kNumStates - 1);
        if (cost < next_metric[ns]) {
          next_metric[ns] = cost;
          dec[ns] = static_cast<std::uint8_t>((s << 1) | in);
          // dec packs: bits 6..1 = predecessor state, bit 0 = input.
        }
      }
    }
    metric.swap(next_metric);
  }

  // Best final state (zero tail drives this to state 0 in practice).
  BitVector info;
  Traceback(decisions.data(), steps, metric.data(), info);
  return info;
}

// --- Legacy preamble detector and its peak stage, verbatim. ---
/// Peak/validation stage over the ncorr/win_energy arrays.
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

Detection LegacyDetectPreamble(std::span<const Cplx> rx, double threshold) {
  static const IqBuffer ltf = LongTrainingSymbol64();
  static const double ltf_energy = [&] {
    double e = 0.0;
    for (const Cplx& x : ltf) e += std::norm(x);
    return e;
  }();

  if (rx.size() < ltf.size() + 64) return {};

  // Sliding window energy for normalization.
  const std::size_t positions = rx.size() - ltf.size() + 1;
  std::vector<double> win_energy(positions);
  double acc = 0.0;
  for (std::size_t n = 0; n < ltf.size(); ++n) acc += std::norm(rx[n]);
  win_energy[0] = acc;
  for (std::size_t n = 1; n < positions; ++n) {
    acc += std::norm(rx[n + ltf.size() - 1]) - std::norm(rx[n - 1]);
    win_energy[n] = acc;
  }

  std::vector<double> ncorr(positions, 0.0);
  for (std::size_t n = 0; n < positions; ++n) {
    if (win_energy[n] <= 0.0) continue;
    Cplx c{0.0, 0.0};
    for (std::size_t k = 0; k < ltf.size(); ++k) {
      c += rx[n + k] * std::conj(ltf[k]);
    }
    ncorr[n] = std::abs(c) / std::sqrt(win_energy[n] * ltf_energy);
  }

  return PickPairPeak(ncorr.data(), win_energy.data(), positions, rx.size(),
                      threshold);
}

// --- Legacy 802.11 ReceiveFrame and its allocating helpers, verbatim. ---
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

/// Decision-directed residual-phase tracker: first-order loop updated
/// from the mean rotation of equalized points against their nearest
/// constellation points. Symmetric under the constellation's rotational
/// symmetry group, hence transparent to the tag's codeword translation.
class PhaseTracker {
 public:
  PhaseTracker(bool enabled, Modulation mod) : enabled_(enabled), mod_(mod) {}

  void Apply(IqBuffer& points) {
    if (!enabled_) return;
    const Cplx derot{std::cos(-phase_), std::sin(-phase_)};
    for (auto& p : points) p *= derot;
    // Residual rotation against hard decisions.
    Cplx acc{0.0, 0.0};
    const BitVector hard = DemapSymbols(points, mod_);
    const IqBuffer ref = MapBits(hard, mod_);
    for (std::size_t i = 0; i < points.size(); ++i) {
      acc += points[i] * std::conj(ref[i]);
    }
    if (std::norm(acc) < 1e-30) return;
    // Clamp the per-symbol step: residual CFO drifts a few tens of
    // millirad per symbol; larger apparent jumps are decision noise
    // (e.g. the corrupted symbol at a tag window boundary).
    const double alpha = std::clamp(std::arg(acc), -0.3, 0.3);
    phase_ += alpha;
  }

 private:
  bool enabled_;
  Modulation mod_;
  double phase_ = 0.0;
};

/// Equalized data-subcarrier points of one symbol (allocating form).
IqBuffer DemodSymbolPoints(std::span<const Cplx> symbol80,
                           std::span<const Cplx> channel,
                           std::size_t symbol_index, const RxConfig& config,
                           IqBuffer* constellation_out, PhaseTracker* tracker) {
  IqBuffer bins = DemodulateSymbol(symbol80);
  IqBuffer data = ExtractDataSubcarriers(bins, channel);
  if (config.pilot_phase_correction) {
    const double cpe = PilotPhaseError(bins, channel, symbol_index);
    const Cplx derot{std::cos(-cpe), std::sin(-cpe)};
    for (auto& x : data) x *= derot;
  }
  if (tracker != nullptr) tracker->Apply(data);
  if (constellation_out != nullptr) {
    constellation_out->insert(constellation_out->end(), data.begin(), data.end());
  }
  return data;
}

/// Decode one symbol's worth of interleaved coded bits (hard decision).
BitVector DemodSymbolBits(std::span<const Cplx> symbol80,
                          std::span<const Cplx> channel, const RateParams& params,
                          std::size_t symbol_index, const RxConfig& config,
                          IqBuffer* constellation_out) {
  const IqBuffer data = DemodSymbolPoints(symbol80, channel, symbol_index,
                                          config, constellation_out, nullptr);
  const BitVector hard = DemapSymbols(data, params.modulation);
  return DeinterleaveSymbol(hard, params);
}

/// CFO estimate from the periodicity of a training region: the phase
/// of the lag-`period` autocorrelation advances by 2π·f·period/fs.
double EstimateCfoHz(std::span<const Cplx> region, std::size_t period) {
  Cplx acc{0.0, 0.0};
  for (std::size_t n = 0; n + period < region.size(); ++n) {
    acc += region[n + period] * std::conj(region[n]);
  }
  if (std::norm(acc) < 1e-30) return 0.0;
  return std::arg(acc) * kSampleRateHz / (kTwoPi * static_cast<double>(period));
}

struct SignalInfo {
  bool ok = false;
  Rate rate = Rate::k6Mbps;
  std::size_t length = 0;
};

SignalInfo ParseSignal(std::span<const Bit> bits24) {
  SignalInfo info;
  std::uint8_t rate_bits = 0;
  for (int i = 0; i < 4; ++i) {
    rate_bits = static_cast<std::uint8_t>((rate_bits << 1) | bits24[i]);
  }
  const auto rate = RateFromSignalBits(rate_bits);
  if (!rate.has_value()) return info;
  if (bits24[4] != 0) return info;  // reserved bit
  std::size_t length = 0;
  for (int i = 0; i < 12; ++i) {
    length |= static_cast<std::size_t>(bits24[5 + i]) << i;
  }
  Bit parity = 0;
  for (int i = 0; i < 17; ++i) parity ^= bits24[i];
  if (parity != bits24[17]) return info;
  if (length == 0) return info;
  info.ok = true;
  info.rate = *rate;
  info.length = length;
  return info;
}

RxResult LegacyReceiveFrame(const IqBuffer& raw_rx,
                            const RxConfig& config = {}) {
  RxResult result;

  Detection det = LegacyDetectPreamble(raw_rx, config.detection_threshold);
  if (!det.found) return result;
  result.detected = true;
  result.start_index = det.second_ltf_start - 64;

  // CFO estimation and correction on the preamble, then re-detect for
  // exact timing on the corrected buffer.
  IqBuffer rx = raw_rx;
  if (config.cfo_correction) {
    double cfo = 0.0;
    // Coarse: STF region (160 samples ending 160 before the LTF).
    if (result.start_index >= 192) {
      cfo += EstimateCfoHz(
          std::span<const Cplx>(rx).subspan(result.start_index - 184, 144), 16);
      rx = dsp::MixFrequency(rx, -cfo, kSampleRateHz);
    }
    // Fine: the two LTF symbols, period 64.
    cfo += EstimateCfoHz(
        std::span<const Cplx>(rx).subspan(result.start_index, 128), 64);
    rx = dsp::MixFrequency(raw_rx, -cfo, kSampleRateHz);
    result.cfo_hz = cfo;
    det = LegacyDetectPreamble(rx, config.detection_threshold);
    if (!det.found) return result;
    result.start_index = det.second_ltf_start - 64;
  }

  // Channel estimation over both long training symbols.
  IqBuffer h(kFftSize, Cplx{0.0, 0.0});
  {
    IqBuffer y1(rx.begin() + static_cast<std::ptrdiff_t>(result.start_index),
                rx.begin() + static_cast<std::ptrdiff_t>(result.start_index) + 64);
    IqBuffer y2(rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start),
                rx.begin() + static_cast<std::ptrdiff_t>(det.second_ltf_start) + 64);
    dsp::Fft(y1);
    dsp::Fft(y2);
    for (int s = -26; s <= 26; ++s) {
      const Cplx l = LtfSymbolAt(s);
      if (std::norm(l) < 0.5) continue;
      const std::size_t bin = BinIndex(s);
      // H absorbs the TX time-domain scale and the channel gain, so
      // equalized data points land on the unit constellation grid.
      h[bin] = 0.5 * (y1[bin] + y2[bin]) / l;
    }
  }

  // SIGNAL symbol.
  const std::size_t signal_start = det.second_ltf_start + 64;
  if (signal_start + kSymbolLen > rx.size()) return result;
  const BitVector signal_coded = DemodSymbolBits(
      std::span<const Cplx>(rx).subspan(signal_start, kSymbolLen), h,
      ParamsFor(Rate::k6Mbps), 0, RxConfig{}, nullptr);
  const BitVector signal_bits = LegacyViterbiDecode(signal_coded);
  const SignalInfo info = ParseSignal(signal_bits);
  if (!info.ok) return result;
  result.signal_ok = true;
  result.rate = info.rate;
  result.psdu_len = info.length;

  const auto& params = ParamsFor(info.rate);
  const std::size_t payload_bits = kServiceBits + info.length * 8 + kTailBits;
  const std::size_t num_symbols =
      (payload_bits + params.data_bits_per_symbol - 1) /
      params.data_bits_per_symbol;
  result.num_data_symbols = num_symbols;

  const std::size_t data_start = signal_start + kSymbolLen;
  if (data_start + num_symbols * kSymbolLen > rx.size()) {
    result.signal_ok = false;  // truncated capture
    return result;
  }

  // RSSI over the frame extent.
  result.rssi_dbm = dsp::PowerDbm(std::span<const Cplx>(rx).subspan(
      result.start_index, data_start + num_symbols * kSymbolLen - result.start_index));

  // Demodulate all data symbols, then depuncture and Viterbi-decode
  // (hard or soft per the configuration).
  const std::size_t info_bits = num_symbols * params.data_bits_per_symbol;
  IqBuffer* constellation =
      config.collect_constellation ? &result.constellation : nullptr;
  BitVector scrambled;
  PhaseTracker tracker(config.decision_directed_tracking, params.modulation);
  if (config.soft_decision) {
    std::vector<double> coded;
    coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      const IqBuffer points = DemodSymbolPoints(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          h, s + 1, config, constellation, &tracker);
      const std::vector<double> llrs = DemapSoft(points, params.modulation);
      const std::vector<double> deint = DeinterleaveSymbolSoft(llrs, params);
      coded.insert(coded.end(), deint.begin(), deint.end());
    }
    const std::vector<double> mother =
        DepunctureSoft(coded, params.coding, info_bits * 2);
    scrambled = LegacyViterbiDecodeSoft(mother);
  } else {
    BitVector coded;
    coded.reserve(num_symbols * params.coded_bits_per_symbol);
    for (std::size_t s = 0; s < num_symbols; ++s) {
      const IqBuffer points = DemodSymbolPoints(
          std::span<const Cplx>(rx).subspan(data_start + s * kSymbolLen,
                                            kSymbolLen),
          h, s + 1, config, constellation, &tracker);
      const BitVector hard = DemapSymbols(points, params.modulation);
      const BitVector sym_bits = DeinterleaveSymbol(hard, params);
      coded.insert(coded.end(), sym_bits.begin(), sym_bits.end());
    }
    const BitVector mother = Depuncture(coded, params.coding, info_bits * 2);
    scrambled = LegacyViterbiDecode(mother);
  }

  result.scrambler_seed =
      RecoverScramblerSeed(std::span<const Bit>(scrambled).subspan(0, 7));
  if (result.scrambler_seed == 0) {
    // SERVICE corrupted beyond seed recovery; return raw bits unscrambled.
    result.data_bits = scrambled;
    return result;
  }
  Scrambler descrambler(result.scrambler_seed);
  result.data_bits = descrambler.Process(scrambled);

  // Zero the (known-zero) tail bits so streams compare cleanly.
  const std::size_t tail_pos = kServiceBits + info.length * 8;
  for (std::size_t i = 0; i < kTailBits && tail_pos + i < result.data_bits.size();
       ++i) {
    result.data_bits[tail_pos + i] = 0;
  }

  // Extract PSDU and check FCS.
  result.psdu = BitsToBytes(
      std::span<const Bit>(result.data_bits).subspan(kServiceBits, info.length * 8));
  if (info.length >= 5) {
    std::uint32_t fcs = 0;
    for (int i = 0; i < 4; ++i) {
      fcs |= static_cast<std::uint32_t>(result.psdu[info.length - 4 + i]) << (8 * i);
    }
    const std::uint32_t computed = Crc32(
        std::span<const std::uint8_t>(result.psdu).subspan(0, info.length - 4));
    result.fcs_ok = (fcs == computed);
  }
  return result;
}

constexpr CodingRate kRates[] = {CodingRate::kHalf, CodingRate::kTwoThirds,
                                 CodingRate::kThreeQuarters};

// Mother-coded stream with channel bit-flips and the puncture-position
// erasures the RX chain feeds the decoder. `info_len` rotates the tail
// of the stream through every phase of the puncture period.
BitVector NoisyDepuncturedStream(Rng& rng, std::size_t info_len,
                                 CodingRate rate, double flip_prob) {
  BitVector info = RandomBits(rng, info_len);
  const BitVector mother = ConvolutionalEncode(info);
  BitVector punctured = Puncture(mother, rate);
  for (auto& b : punctured) {
    if (rng.NextDouble() < flip_prob) b ^= 1;
  }
  return Depuncture(punctured, rate, mother.size());
}

TEST(FastViterbiTest, HardMatchesScalarAcrossRatesAndLengths) {
  // Lengths 1..256 cover every puncture phase at the stream tail for
  // both punctured rates (periods 4 and 6 mother bits).
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::size_t len = 1; len <= 256; ++len) {
      Rng rng(1000 + len);
      const BitVector coded =
          NoisyDepuncturedStream(rng, len, rate, 0.05);
      const BitVector ref = LegacyViterbiDecode(coded);
      BitVector fast;
      ViterbiDecodeInto(coded, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " len=" << len;
    }
  }
}

TEST(FastViterbiTest, HardMatchesScalarLongFramesManySeeds) {
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      Rng rng(seed * 31 + 7);
      const BitVector coded = NoisyDepuncturedStream(rng, 1000, rate, 0.08);
      const BitVector ref = LegacyViterbiDecode(coded);
      BitVector fast;
      ViterbiDecodeInto(coded, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " seed=" << seed;
    }
  }
}

TEST(FastViterbiTest, HardMatchesScalarWithErasuresAtEveryPhase) {
  // Beyond the natural puncture positions: force an erasure at every
  // residue of the widest puncture period (6 mother bits = positions
  // 0..11 of the interleaved stream) to pin phase-independence.
  std::vector<std::uint8_t> decisions;
  for (std::size_t phase = 0; phase < 12; ++phase) {
    Rng rng(500 + phase);
    BitVector coded = NoisyDepuncturedStream(rng, 120, CodingRate::kHalf, 0.1);
    for (std::size_t i = phase; i < coded.size(); i += 12) coded[i] = 2;
    const BitVector ref = LegacyViterbiDecode(coded);
    BitVector fast;
    ViterbiDecodeInto(coded, decisions, fast);
    ASSERT_EQ(ref, fast) << "phase=" << phase;
  }
}

TEST(FastViterbiTest, SoftMatchesScalarAcrossRatesAndLengths) {
  std::vector<std::uint8_t> decisions;
  for (CodingRate rate : kRates) {
    for (std::size_t len = 1; len <= 256; ++len) {
      Rng rng(2000 + len);
      BitVector info = RandomBits(rng, len);
      const BitVector mother = ConvolutionalEncode(info);
      const BitVector punctured = Puncture(mother, rate);
      std::vector<double> noisy;
      noisy.reserve(punctured.size());
      for (Bit b : punctured) {
        noisy.push_back((b ? 1.0 : -1.0) + 0.8 * rng.NextGaussian());
      }
      const std::vector<double> llrs =
          DepunctureSoft(noisy, rate, mother.size());
      const BitVector ref = LegacyViterbiDecodeSoft(llrs);
      BitVector fast;
      ViterbiDecodeSoftInto(llrs, decisions, fast);
      ASSERT_EQ(ref, fast) << "rate=" << static_cast<int>(rate)
                           << " len=" << len;
    }
  }
}

TEST(FastViterbiTest, SoftMatchesScalarLongFramesManySeeds) {
  std::vector<std::uint8_t> decisions;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed * 17 + 3);
    BitVector info = RandomBits(rng, 1000);
    const BitVector coded = ConvolutionalEncode(info);
    std::vector<double> llrs;
    llrs.reserve(coded.size());
    for (Bit b : coded) {
      llrs.push_back((b ? 1.0 : -1.0) + 1.2 * rng.NextGaussian());
    }
    const BitVector ref = LegacyViterbiDecodeSoft(llrs);
    BitVector fast;
    ViterbiDecodeSoftInto(llrs, decisions, fast);
    ASSERT_EQ(ref, fast) << "seed=" << seed;
  }
}

TEST(FastViterbiTest, PublicDispatchersMatchScalarOnEmptyInput) {
  std::vector<std::uint8_t> decisions;
  BitVector out{1, 1, 1};
  ViterbiDecodeInto(BitVector{}, decisions, out);
  EXPECT_TRUE(out.empty());
  out = {1, 1, 1};
  ViterbiDecodeSoftInto(std::vector<double>{}, decisions, out);
  EXPECT_TRUE(out.empty());
}

TEST(FastCorrelationTest, BlockedKernelMatchesSinglePosition) {
  // CorrelationX4's per-position chain must equal the 1-position
  // kernel exactly — the scan remainder depends on it.
  Rng rng(11);
  std::vector<double> xr(64 + 3), xi(64 + 3), pr(64), pi(64);
  for (auto& v : xr) v = rng.NextGaussian();
  for (auto& v : xi) v = rng.NextGaussian();
  for (auto& v : pr) v = rng.NextGaussian();
  for (auto& v : pi) v = rng.NextGaussian();
  double block_re[4];
  double block_im[4];
  dsp::CorrelationX4(xr.data(), xi.data(), pr.data(), pi.data(), 64, block_re,
                     block_im);
  for (int j = 0; j < 4; ++j) {
    const Cplx single = dsp::Correlation(xr.data() + j, xi.data() + j,
                                         pr.data(), pi.data(), 64);
    EXPECT_EQ(single.real(), block_re[j]) << "offset " << j;
    EXPECT_EQ(single.imag(), block_im[j]) << "offset " << j;
  }
}

IqBuffer NoisyCapture(std::uint64_t seed, double rx_power_dbm,
                      std::size_t payload_len = 40,
                      std::size_t pad_front = 321,
                      Rate rate = Rate::k6Mbps) {
  Rng rng(seed);
  TxConfig tx;
  tx.rate = rate;
  const TxFrame frame = BuildFrame(RandomBytes(rng, payload_len), tx);
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = kSampleRateHz;
  fe.noise_figure_db = 5.0;
  // Odd front pad so the frame start exercises the blocked scan's
  // mid-block (and remainder) positions, not just multiples of 4.
  IqBuffer padded(pad_front, Cplx{0.0, 0.0});
  padded.insert(padded.end(), frame.waveform.begin(), frame.waveform.end());
  padded.resize(padded.size() + 137, Cplx{0.0, 0.0});
  return channel::ApplyLink(padded, rx_power_dbm, fe, rng);
}

TEST(FastDetectTest, DetectionMatchesScalarAcrossSnrs) {
  // Power sweep straddles the detection threshold: strong captures
  // detect, deep-noise ones don't, and both paths must agree on every
  // field at every level — including the marginal ones.
  dsp::Workspace ws;
  int found = 0;
  int missed = 0;
  for (double dbm = -55.0; dbm >= -100.0; dbm -= 5.0) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const IqBuffer rx = NoisyCapture(seed, dbm);
      const Detection ref = LegacyDetectPreamble(rx, 0.55);
      const Detection fast = DetectPreamble(rx, 0.55, ws);
      ASSERT_EQ(ref.found, fast.found) << "dbm=" << dbm << " seed=" << seed;
      ASSERT_EQ(ref.second_ltf_start, fast.second_ltf_start)
          << "dbm=" << dbm << " seed=" << seed;
      (ref.found ? found : missed) += 1;
    }
  }
  // The sweep must actually straddle the threshold to mean anything.
  EXPECT_GT(found, 0);
  EXPECT_GT(missed, 0);
}

void ExpectSameResult(const RxResult& ref, const RxResult& fast,
                      const char* what) {
  EXPECT_EQ(ref.detected, fast.detected) << what;
  EXPECT_EQ(ref.signal_ok, fast.signal_ok) << what;
  EXPECT_EQ(ref.fcs_ok, fast.fcs_ok) << what;
  EXPECT_EQ(ref.rate, fast.rate) << what;
  EXPECT_EQ(ref.psdu_len, fast.psdu_len) << what;
  EXPECT_EQ(ref.psdu, fast.psdu) << what;
  EXPECT_EQ(ref.data_bits, fast.data_bits) << what;
  EXPECT_EQ(ref.num_data_symbols, fast.num_data_symbols) << what;
  EXPECT_EQ(ref.scrambler_seed, fast.scrambler_seed) << what;
  EXPECT_EQ(ref.start_index, fast.start_index) << what;
  // Float fields compared exactly: the fast chain's arithmetic is
  // order-preserving, so these are bit-identical, not merely close.
  EXPECT_EQ(ref.rssi_dbm, fast.rssi_dbm) << what;
  EXPECT_EQ(ref.cfo_hz, fast.cfo_hz) << what;
  ASSERT_EQ(ref.constellation.size(), fast.constellation.size()) << what;
  for (std::size_t i = 0; i < ref.constellation.size(); ++i) {
    EXPECT_EQ(ref.constellation[i], fast.constellation[i]) << what;
  }
}

constexpr Rate kAllRates[] = {Rate::k6Mbps,  Rate::k9Mbps,  Rate::k12Mbps,
                              Rate::k18Mbps, Rate::k24Mbps, Rate::k36Mbps,
                              Rate::k48Mbps, Rate::k54Mbps};

// Hard decode with the default config, then soft decode with the
// constellation recorded, each compared field by field.
void ExpectChainsAgree(const IqBuffer& rx, dsp::Workspace& ws,
                       const std::string& what) {
  RxResult fast;
  ReceiveFrame(rx, {}, ws, fast);
  ExpectSameResult(LegacyReceiveFrame(rx), fast, (what + " hard").c_str());

  RxConfig soft;
  soft.soft_decision = true;
  soft.collect_constellation = true;
  RxResult fast_soft;
  ReceiveFrame(rx, soft, ws, fast_soft);
  ExpectSameResult(LegacyReceiveFrame(rx, soft), fast_soft,
                   (what + " soft+constellation").c_str());
}

TEST(FastRxChainTest, FullChainMatchesScalarAcrossSnrs) {
  // Every rate: the SIGNAL field, puncturing (2/3 at 48, 3/4 at
  // 9/18/36/54 Mbps) and each constellation's demapper and tracker.
  dsp::Workspace ws;
  for (Rate rate : kAllRates) {
    for (double dbm : {-60.0, -75.0, -85.0, -92.0}) {
      for (std::uint64_t seed = 10; seed < 13; ++seed) {
        const IqBuffer rx = NoisyCapture(seed, dbm, 100, 321, rate);
        std::ostringstream what;
        what << "rate=" << static_cast<int>(rate) << " dbm=" << dbm
             << " seed=" << seed;
        ExpectChainsAgree(rx, ws, what.str());
      }
    }
  }

  // A +60 kHz offset (about 25 ppm at 2.4 GHz) drives the coarse STF
  // estimate, the in-place mix and the re-detect on the corrected
  // buffer; the recovered offset shows the correction really ran.
  const IqBuffer shifted = dsp::MixFrequency(NoisyCapture(14, -62.0, 100),
                                             60e3, kSampleRateHz);
  ExpectChainsAgree(shifted, ws, "cfo +60 kHz");
  RxResult result;
  ReceiveFrame(shifted, {}, ws, result);
  EXPECT_TRUE(result.fcs_ok);
  EXPECT_NEAR(result.cfo_hz, 60e3, 2e3);
}

TEST(FastRxChainTest, WorkspaceReuseIsBitIdentical) {
  // One workspace reused across frames of different sizes and configs
  // must give the same results as a fresh workspace per frame —
  // leftover capacities and stale contents may never leak into output.
  dsp::Workspace reused;
  RxResult reused_result;
  const std::size_t payloads[] = {400, 23, 117, 40};
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    const IqBuffer rx = NoisyCapture(77 + i, -62.0, payloads[i]);
    RxConfig config;
    config.soft_decision = (i % 2 == 1);
    dsp::Workspace fresh;
    RxResult fresh_result;
    ReceiveFrame(rx, config, fresh, fresh_result);
    ReceiveFrame(rx, config, reused, reused_result);
    ExpectSameResult(fresh_result, reused_result, "reuse vs fresh");
    EXPECT_TRUE(fresh_result.fcs_ok) << "frame " << i;
  }
}

// Degenerate-window regression class: these captures used to reach the
// correlation scan (or detect past the end of the buffer) before the
// PickPairPeak guards.
TEST(FastDetectTest, AllZeroBufferNeverDetects) {
  const IqBuffer zeros(1024, Cplx{0.0, 0.0});
  dsp::Workspace ws;
  for (double threshold : {0.55, 0.0, -1.0}) {
    EXPECT_FALSE(LegacyDetectPreamble(zeros, threshold).found);
    EXPECT_FALSE(DetectPreamble(zeros, threshold, ws).found);
  }
}

TEST(FastDetectTest, TooShortBufferNeverDetects) {
  dsp::Workspace ws;
  for (std::size_t n = 0; n < 128; ++n) {
    const IqBuffer rx(n, Cplx{0.1, -0.2});
    EXPECT_FALSE(LegacyDetectPreamble(rx, 0.0).found) << n;
    EXPECT_FALSE(DetectPreamble(rx, 0.0, ws).found) << n;
  }
}

TEST(FastDetectTest, TruncatedCaptureRejectedByBothPaths) {
  // A capture cut off right after the preamble has a perfect LTF pair
  // but no room for the SIGNAL symbol — both paths must reject it
  // instead of returning a start index past the buffer.
  Rng rng(5);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 40), {});
  dsp::Workspace ws;
  for (std::size_t keep = 2 * kFftSize + 64; keep < 400; keep += 17) {
    IqBuffer cut(frame.waveform.begin(),
                 frame.waveform.begin() +
                     static_cast<std::ptrdiff_t>(
                         std::min(keep, frame.waveform.size())));
    const Detection ref = LegacyDetectPreamble(cut, 0.55);
    const Detection fast = DetectPreamble(cut, 0.55, ws);
    EXPECT_EQ(ref.found, fast.found) << keep;
    EXPECT_EQ(ref.second_ltf_start, fast.second_ltf_start) << keep;
    if (ref.found) {
      EXPECT_LE(ref.second_ltf_start + kFftSize + kSymbolLen, cut.size())
          << keep;
    }
  }
}

TEST(FastDetectTest, ZeroPaddedTailDoesNotShiftDetection) {
  // Trailing zeros create zero-energy windows near the end of the scan
  // — the energy gate must skip them without disturbing the peak.
  const IqBuffer rx = NoisyCapture(21, -60.0);
  IqBuffer padded = rx;
  padded.resize(padded.size() + 333, Cplx{0.0, 0.0});
  dsp::Workspace ws;
  const Detection base = DetectPreamble(rx, 0.55, ws);
  const Detection tail = DetectPreamble(padded, 0.55, ws);
  ASSERT_TRUE(base.found);
  EXPECT_EQ(base.second_ltf_start, tail.second_ltf_start);
  const Detection scalar_tail = LegacyDetectPreamble(padded, 0.55);
  EXPECT_EQ(scalar_tail.found, tail.found);
  EXPECT_EQ(scalar_tail.second_ltf_start, tail.second_ltf_start);
}

}  // namespace
}  // namespace freerider::phy80211

// ---------------------------------------------------------------------
// Narrowband receivers: 802.15.4 SHR scan, BLE header search, FIR.
// ---------------------------------------------------------------------
namespace freerider {
namespace {

::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << a << " != " << b;
}

::testing::AssertionResult BitEqual(const IqBuffer& a, const IqBuffer& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " != " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i].real(), b[i].real()) ||
        !BitEqual(a[i].imag(), b[i].imag())) {
      return ::testing::AssertionFailure()
             << "sample " << i << ": " << std::setprecision(17) << a[i]
             << " != " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

IqBuffer RandomIq(Rng& rng, std::size_t n) {
  IqBuffer out(n);
  for (auto& x : out) x = rng.NextComplexGaussian();
  return out;
}

// Frame waveform behind an odd zero pad, through a noisy 8 MS/s front
// end at `rx_power_dbm`.
IqBuffer NarrowbandCapture(const IqBuffer& waveform, double rx_power_dbm,
                           Rng& rng, std::size_t pad_front = 93) {
  channel::ReceiverFrontEnd fe;
  fe.sample_rate_hz = 8e6;
  fe.noise_figure_db = 5.0;
  IqBuffer padded(pad_front, Cplx{0.0, 0.0});
  padded.insert(padded.end(), waveform.begin(), waveform.end());
  padded.resize(padded.size() + 61, Cplx{0.0, 0.0});
  return channel::ApplyLink(padded, rx_power_dbm, fe, rng);
}

// --- Legacy FirFilter::Filter, verbatim. ---
IqBuffer LegacyFilter(const std::vector<double>& taps_,
                      std::span<const Cplx> input) {
  IqBuffer out(input.size(), Cplx{0.0, 0.0});
  // Center the group delay so output stays time-aligned with input.
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps_.size() / 2);
  for (std::size_t n = 0; n < input.size(); ++n) {
    Cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < taps_.size(); ++k) {
      const std::ptrdiff_t idx =
          static_cast<std::ptrdiff_t>(n) + delay - static_cast<std::ptrdiff_t>(k);
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(input.size())) {
        acc += taps_[k] * input[static_cast<std::size_t>(idx)];
      }
    }
    out[n] = acc;
  }
  return out;
}

TEST(NarrowbandFirTest, FilterMatchesLegacyAroundTheTapCount) {
  // Odd and even tap counts (the BLE select filter and shaper are odd),
  // inputs shorter than, equal to and one longer than the taps (no
  // interior at all), and longer ones whose interior length runs through
  // every remainder of the 8-double block.
  Rng rng(41);
  for (std::size_t num_taps : {1u, 2u, 4u, 25u, 65u}) {
    const std::vector<double> taps =
        num_taps >= 3 ? dsp::LowPassTaps(0.2, num_taps)
                      : std::vector<double>(num_taps, 0.37);
    const dsp::FirFilter fir(taps);
    std::vector<std::size_t> lengths = {0, 1, num_taps - 1, num_taps,
                                        num_taps + 1};
    for (std::size_t extra = 0; extra < 12; ++extra) {
      lengths.push_back(2 * num_taps + 100 + extra);
    }
    for (std::size_t len : lengths) {
      const IqBuffer x = RandomIq(rng, len);
      const IqBuffer ref = LegacyFilter(taps, x);
      EXPECT_TRUE(BitEqual(ref, fir.Filter(x)))
          << "taps=" << num_taps << " len=" << len;

      // The real form equals the real rail of the complex filter on
      // {x, 0}.
      std::vector<double> real_in(len);
      IqBuffer as_complex(len);
      for (std::size_t i = 0; i < len; ++i) {
        real_in[i] = x[i].real();
        as_complex[i] = {x[i].real(), 0.0};
      }
      const IqBuffer ref_real = LegacyFilter(taps, as_complex);
      std::vector<double> fast_real;
      fir.FilterInto(real_in, fast_real);
      ASSERT_EQ(ref_real.size(), fast_real.size());
      for (std::size_t i = 0; i < len; ++i) {
        EXPECT_TRUE(BitEqual(ref_real[i].real(), fast_real[i]))
            << "taps=" << num_taps << " len=" << len << " i=" << i;
      }
    }
  }
}

TEST(NarrowbandFirTest, FilterIntoReusesOutputAcrossLengths) {
  Rng rng(42);
  const std::vector<double> taps = dsp::LowPassTaps(0.075, 65);
  const dsp::FirFilter fir(taps);
  IqBuffer out;
  for (std::size_t len : {900u, 70u, 3u, 401u}) {
    const IqBuffer x = RandomIq(rng, len);
    fir.FilterInto(x, out);
    EXPECT_TRUE(BitEqual(LegacyFilter(taps, x), out)) << "len=" << len;
  }
}

}  // namespace
}  // namespace freerider

namespace freerider::phy802154 {
namespace {

// --- Legacy 802.15.4 detection reference and SHR scan, verbatim. ---
const IqBuffer& LegacyDetectionReference() {
  static const IqBuffer ref = [] {
    const std::vector<std::uint8_t> symbols = {0, 0, 0x7, 0xA};
    return ModulateChips(SpreadSymbols(symbols));
  }();
  return ref;
}

ShrPeak LegacyShrScan(const IqBuffer& rx) {
  const IqBuffer& ref = LegacyDetectionReference();
  // Normalized cross-correlation against the SHR tail.
  const std::size_t positions = rx.size() - ref.size() + 1;
  double ref_energy = 0.0;
  for (const Cplx& x : ref) ref_energy += std::norm(x);

  double best = 0.0;
  std::size_t best_pos = 0;
  Cplx best_corr{0.0, 0.0};
  double window_energy = 0.0;
  for (std::size_t n = 0; n < ref.size(); ++n) window_energy += std::norm(rx[n]);
  for (std::size_t n = 0; n < positions; ++n) {
    if (n > 0) {
      window_energy +=
          std::norm(rx[n + ref.size() - 1]) - std::norm(rx[n - 1]);
    }
    if (window_energy > 0.0) {
      Cplx c{0.0, 0.0};
      for (std::size_t k = 0; k < ref.size(); ++k) {
        c += rx[n + k] * std::conj(ref[k]);
      }
      const double ncorr = std::abs(c) / std::sqrt(window_energy * ref_energy);
      if (ncorr > best) {
        best = ncorr;
        best_pos = n;
        best_corr = c;
      }
    }
  }
  return {best, best_pos, best_corr};
}

// --- Legacy 802.15.4 ReceiveFrame, verbatim around LegacyShrScan. ---
RxResult LegacyReceiveFrame(const IqBuffer& rx, const RxConfig& config = {}) {
  RxResult result;
  const IqBuffer& ref = LegacyDetectionReference();
  if (rx.size() < ref.size() + kSamplesPerSymbol) return result;

  const ShrPeak scan = LegacyShrScan(rx);
  const double best = scan.ncorr;
  const std::size_t best_pos = scan.position;
  const Cplx best_corr = scan.corr;
  if (best < config.detection_threshold) return result;
  result.detected = true;
  result.start_index = best_pos;

  // Phase lock: derotate by the correlation phase.
  const double phase = std::arg(best_corr);
  IqBuffer locked = dsp::RotatePhase(rx, -phase);

  // PHR starts right after the SFD. The detection reference covers 4
  // symbols; its start is 2 preamble symbols before the SFD.
  const std::size_t phr_start = best_pos + 4 * kSamplesPerSymbol;

  // Decode PHR (2 symbols = 1 byte).
  const BitVector phr_chips =
      DemodulateChips(locked, phr_start, 2 * kChipsPerSymbol);
  if (phr_chips.size() < 2 * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> symbols;
  double chip_distance_sum = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    const DespreadResult d = DespreadChips(
        std::span<const Bit>(phr_chips).subspan(s * kChipsPerSymbol,
                                                kChipsPerSymbol));
    symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  const std::size_t psdu_len = SymbolsToBytes(symbols)[0] & 0x7Fu;
  if (psdu_len < 2 || psdu_len > kMaxPsduBytes) return result;
  result.psdu_len = psdu_len;

  // Decode PSDU symbols.
  const std::size_t psdu_symbols = psdu_len * 2;
  const std::size_t psdu_start = phr_start + 2 * kSamplesPerSymbol;
  const BitVector chips =
      DemodulateChips(locked, psdu_start, psdu_symbols * kChipsPerSymbol);
  if (chips.size() < psdu_symbols * kChipsPerSymbol) return result;
  std::vector<std::uint8_t> payload_symbols;
  for (std::size_t s = 0; s < psdu_symbols; ++s) {
    const DespreadResult d = DespreadChips(std::span<const Bit>(chips).subspan(
        s * kChipsPerSymbol, kChipsPerSymbol));
    payload_symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  result.psdu = SymbolsToBytes(payload_symbols);
  result.data_symbols = symbols;
  result.data_symbols.insert(result.data_symbols.end(), payload_symbols.begin(),
                             payload_symbols.end());
  result.mean_chip_distance =
      chip_distance_sum / static_cast<double>(2 + psdu_symbols);

  // RSSI over the frame extent.
  const std::size_t frame_end =
      std::min(rx.size(), psdu_start + psdu_symbols * kSamplesPerSymbol);
  result.rssi_dbm = dsp::PowerDbm(
      std::span<const Cplx>(rx).subspan(best_pos, frame_end - best_pos));

  // FCS check.
  if (result.psdu.size() >= 2) {
    const std::uint16_t fcs = static_cast<std::uint16_t>(
        result.psdu[result.psdu.size() - 2] |
        (result.psdu[result.psdu.size() - 1] << 8));
    const std::uint16_t computed = Crc16Ccitt(std::span<const std::uint8_t>(
        result.psdu.data(), result.psdu.size() - 2));
    result.fcs_ok = (fcs == computed);
  }
  return result;
}

void ExpectSamePeak(const ShrPeak& ref, const ShrPeak& fast,
                    const std::string& what) {
  EXPECT_TRUE(BitEqual(ref.ncorr, fast.ncorr)) << what;
  EXPECT_EQ(ref.position, fast.position) << what;
  EXPECT_TRUE(BitEqual(ref.corr.real(), fast.corr.real())) << what;
  EXPECT_TRUE(BitEqual(ref.corr.imag(), fast.corr.imag())) << what;
}

void ExpectSameResult(const RxResult& ref, const RxResult& fast,
                      const std::string& what) {
  EXPECT_EQ(ref.detected, fast.detected) << what;
  EXPECT_EQ(ref.fcs_ok, fast.fcs_ok) << what;
  EXPECT_EQ(ref.psdu_len, fast.psdu_len) << what;
  EXPECT_EQ(ref.psdu, fast.psdu) << what;
  EXPECT_EQ(ref.data_symbols, fast.data_symbols) << what;
  EXPECT_TRUE(BitEqual(ref.mean_chip_distance, fast.mean_chip_distance))
      << what;
  EXPECT_TRUE(BitEqual(ref.rssi_dbm, fast.rssi_dbm)) << what;
  EXPECT_EQ(ref.start_index, fast.start_index) << what;
}

std::size_t ReferenceSamples() { return LegacyDetectionReference().size(); }

TEST(ZigbeeScanTest, MatchesLegacyForEveryBlockRemainder) {
  // Random buffers whose position count is 0, 1, 2 and 3 mod 4, so the
  // scan's last block is full or leaves 1-3 remainder positions; with a
  // threshold of 0 every one also runs the whole decode from its peak.
  dsp::Workspace ws;
  RxConfig any_peak;
  any_peak.detection_threshold = 0.0;
  Rng rng(51);
  for (std::size_t extra = 0; extra < 8; ++extra) {
    const std::size_t positions = 700 + extra;
    const IqBuffer rx = RandomIq(rng, ReferenceSamples() + positions - 1);
    const std::string what = "positions=" + std::to_string(positions);
    ExpectSamePeak(LegacyShrScan(rx), FindShr(rx, ws), what);
    ExpectSameResult(LegacyReceiveFrame(rx, any_peak),
                     ReceiveFrame(rx, any_peak), what);
  }
}

TEST(ZigbeeScanTest, ShortestDecodableCaptureMatchesLegacy) {
  // A capture exactly reference + one symbol long: the shortest buffer
  // ReceiveFrame scans, with kSamplesPerSymbol + 1 positions.
  Rng rng(52);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 20));
  const std::size_t len = ReferenceSamples() + kSamplesPerSymbol;
  RxConfig any_peak;
  any_peak.detection_threshold = 0.0;
  for (std::size_t offset : {0u, 128u, 1024u, 1031u}) {
    const IqBuffer rx(frame.waveform.begin() + static_cast<std::ptrdiff_t>(offset),
                      frame.waveform.begin() +
                          static_cast<std::ptrdiff_t>(offset + len));
    const IqBuffer too_short(rx.begin(), rx.end() - 1);
    const std::string what = "offset=" + std::to_string(offset);
    dsp::Workspace ws;
    ExpectSamePeak(LegacyShrScan(rx), FindShr(rx, ws), what);
    ExpectSameResult(LegacyReceiveFrame(rx), ReceiveFrame(rx), what);
    ExpectSameResult(LegacyReceiveFrame(rx, any_peak),
                     ReceiveFrame(rx, any_peak), what);
    EXPECT_FALSE(ReceiveFrame(too_short, any_peak).detected) << what;
  }
}

TEST(ZigbeeScanTest, ZeroEnergyWindowsAreSkippedLikeLegacy) {
  // All-zero buffers, and zero runs long enough to zero whole 4-position
  // blocks and partial ones around a frame.
  dsp::Workspace ws;
  for (double threshold : {0.5, 0.0, -1.0}) {
    RxConfig config;
    config.detection_threshold = threshold;
    for (std::size_t len : {ReferenceSamples() + kSamplesPerSymbol,
                            std::size_t{2000}, std::size_t{2003}}) {
      const IqBuffer zeros(len, Cplx{0.0, 0.0});
      const std::string what = "zeros len=" + std::to_string(len) +
                               " threshold=" + std::to_string(threshold);
      ExpectSamePeak(LegacyShrScan(zeros), FindShr(zeros, ws), what);
      ExpectSameResult(LegacyReceiveFrame(zeros, config),
                       ReceiveFrame(zeros, config), what);
    }
  }
  // One sample after z zeros: only the last position's window sees it,
  // so that position sits alone in a remainder or at the end of a block
  // whose other positions are gated.
  for (std::size_t z = ReferenceSamples() - 1; z <= ReferenceSamples() + 6;
       ++z) {
    IqBuffer rx(z, Cplx{0.0, 0.0});
    rx.push_back(Cplx{0.3, -0.7});
    const ShrPeak ref = LegacyShrScan(rx);
    EXPECT_EQ(ref.position, rx.size() - ReferenceSamples()) << "z=" << z;
    ExpectSamePeak(ref, FindShr(rx, ws), "lone sample z=" + std::to_string(z));
  }
  Rng rng(53);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 12));
  for (std::size_t pad : {1u, 514u, 517u, 1030u}) {
    IqBuffer rx(pad, Cplx{0.0, 0.0});
    rx.insert(rx.end(), frame.waveform.begin(), frame.waveform.end());
    rx.resize(rx.size() + pad + 2, Cplx{0.0, 0.0});
    const std::string what = "pad=" + std::to_string(pad);
    ExpectSamePeak(LegacyShrScan(rx), FindShr(rx, ws), what);
    ExpectSameResult(LegacyReceiveFrame(rx), ReceiveFrame(rx), what);
  }
}

TEST(ZigbeeRxTest, MatchesLegacyAcrossSnrs) {
  int found = 0;
  int missed = 0;
  for (double dbm = -70.0; dbm >= -115.0; dbm -= 5.0) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(600 + seed);
      const TxFrame frame = BuildFrame(RandomBytes(rng, 10 + 17 * seed));
      const IqBuffer rx = NarrowbandCapture(frame.waveform, dbm, rng);
      const RxResult ref = LegacyReceiveFrame(rx);
      ExpectSameResult(ref, ReceiveFrame(rx),
                       "dbm=" + std::to_string(dbm) +
                           " seed=" + std::to_string(seed));
      (ref.fcs_ok ? found : missed) += 1;
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(missed, 0);
}

TEST(ZigbeeRxTest, WorkspaceReuseAcrossFrameLengthsMatchesLegacy) {
  // The thread's workspace carries buffers sized by the previous frame;
  // a long frame, then short ones, then a long one again must each
  // decode exactly as the legacy receiver does.
  dsp::Workspace reused;
  const std::size_t payloads[] = {125, 4, 60, 7, 110};
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    Rng rng(700 + i);
    const TxFrame frame = BuildFrame(RandomBytes(rng, payloads[i]));
    const IqBuffer rx = NarrowbandCapture(frame.waveform, -80.0, rng, 37 + i);
    const std::string what = "frame " + std::to_string(i);
    const RxResult ref = LegacyReceiveFrame(rx);
    EXPECT_TRUE(ref.fcs_ok) << what;
    ExpectSameResult(ref, ReceiveFrame(rx), what);
    dsp::Workspace fresh;
    ExpectSamePeak(FindShr(rx, fresh), FindShr(rx, reused), what);
  }
}

}  // namespace
}  // namespace freerider::phy802154

namespace freerider::phyble {
namespace {

// --- Legacy BLE header, channel filter and ReceiveFrame, verbatim. ---
BitVector LegacyHeaderBits(std::uint32_t access_address) {
  BitVector bits;
  bits.reserve(kPreambleBits + kAccessAddressBits);
  for (std::size_t i = 0; i < kPreambleBits; ++i) {
    bits.push_back(static_cast<Bit>(i % 2 == 0));
  }
  for (std::size_t i = 0; i < kAccessAddressBits; ++i) {
    bits.push_back(static_cast<Bit>((access_address >> i) & 1u));
  }
  return bits;
}

IqBuffer LegacyChannelFilter(std::span<const Cplx> rx) {
  static const std::vector<double> taps =
      dsp::LowPassTaps(600e3 / kSampleRateHz, 65);
  return LegacyFilter(taps, rx);
}

RxResult LegacyReceiveFrame(const IqBuffer& rx, const RxConfig& config = {}) {
  RxResult result;
  const BitVector header = LegacyHeaderBits(config.access_address);
  const std::size_t header_samples = header.size() * kSamplesPerBit;
  if (rx.size() < header_samples + kSamplesPerBit) return result;

  const IqBuffer filtered = LegacyChannelFilter(rx);
  const std::vector<double> freq = Discriminate(filtered);

  // Slide over candidate start samples; score = fraction of header bits
  // whose center-frequency sign matches.
  const std::size_t max_start = rx.size() - header_samples;
  double best_score = 0.0;
  std::size_t best_start = 0;
  for (std::size_t n0 = 0; n0 < max_start; ++n0) {
    std::size_t match = 0;
    for (std::size_t k = 0; k < header.size(); ++k) {
      const double f = BitFrequency(freq, n0, k);
      const Bit decided = static_cast<Bit>(f >= 0.0);
      match += (decided == header[k]);
    }
    const double score =
        static_cast<double>(match) / static_cast<double>(header.size());
    if (score > best_score) {
      best_score = score;
      best_start = n0;
    }
  }
  if (best_score < config.detection_threshold) return result;
  result.detected = true;
  result.start_index = best_start;

  // Carrier-frequency-offset compensation: the alternating preamble has
  // zero mean deviation, so its mean instantaneous frequency IS the
  // offset; slice subsequent bits against it instead of 0 Hz.
  double freq_offset = 0.0;
  for (std::size_t k = 0; k < kPreambleBits; ++k) {
    freq_offset += BitFrequency(freq, best_start, k);
  }
  freq_offset /= static_cast<double>(kPreambleBits);

  // Decode length byte (first 8 PDU bits, whitened).
  const std::size_t pdu_bit0 = header.size();
  auto decide_bit = [&](std::size_t k) {
    return static_cast<Bit>(
        BitFrequency(freq, best_start, pdu_bit0 + k) >= freq_offset);
  };
  BitVector len_bits(8);
  for (std::size_t k = 0; k < 8; ++k) len_bits[k] = decide_bit(k);
  const BitVector len_plain = Whiten(len_bits, config.channel_index);
  const std::size_t payload_len = BitsToBytes(len_plain)[0];
  if (payload_len > kMaxPayloadBytes) return result;

  const std::size_t pdu_crc_bits = 8 + payload_len * 8 + kCrcBytes * 8;
  const std::size_t total_bits = header.size() + pdu_crc_bits;
  if (best_start + total_bits * kSamplesPerBit > rx.size() + kSamplesPerBit) {
    return result;
  }

  BitVector whitened(pdu_crc_bits);
  for (std::size_t k = 0; k < pdu_crc_bits; ++k) whitened[k] = decide_bit(k);
  const BitVector plain = Whiten(whitened, config.channel_index);

  result.stream_bits = plain;
  result.pdu_bits.assign(plain.begin(),
                         plain.begin() + static_cast<std::ptrdiff_t>(
                                             8 + payload_len * 8));
  const Bytes pdu = BitsToBytes(result.pdu_bits);
  result.payload.assign(pdu.begin() + 1, pdu.end());

  // CRC check (CRC bits transmitted MSB-first).
  std::uint32_t rx_crc = 0;
  for (std::size_t k = 0; k < 24; ++k) {
    rx_crc = (rx_crc << 1) | plain[8 + payload_len * 8 + k];
  }
  result.crc_ok = (rx_crc == Crc24Ble(result.pdu_bits));

  // RSSI over the packet extent (post-filter, i.e. in-channel power).
  result.rssi_dbm = dsp::PowerDbm(std::span<const Cplx>(filtered).subspan(
      best_start,
      std::min(filtered.size() - best_start, total_bits * kSamplesPerBit)));
  return result;
}

// --- Legacy BLE ModulateBits (complex Gaussian shaping), verbatim. ---
IqBuffer LegacyModulateBits(std::span<const Bit> bits) {
  static const std::vector<double> taps =
      dsp::GaussianTaps(kGaussianBt, kSamplesPerBit, 3);
  // NRZ at sample rate.
  IqBuffer nrz(bits.size() * kSamplesPerBit);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double level = bits[i] ? 1.0 : -1.0;
    for (std::size_t s = 0; s < kSamplesPerBit; ++s) {
      nrz[i * kSamplesPerBit + s] = {level, 0.0};
    }
  }
  const IqBuffer shaped = LegacyFilter(taps, nrz);

  // Integrate frequency into phase.
  IqBuffer out(shaped.size());
  double phase = 0.0;
  const double k = kTwoPi * kFreqDeviationHz / kSampleRateHz;
  for (std::size_t n = 0; n < shaped.size(); ++n) {
    phase += k * shaped[n].real();
    out[n] = {std::cos(phase), std::sin(phase)};
  }
  return out;
}

void ExpectSameResult(const RxResult& ref, const RxResult& fast,
                      const std::string& what) {
  EXPECT_EQ(ref.detected, fast.detected) << what;
  EXPECT_EQ(ref.crc_ok, fast.crc_ok) << what;
  EXPECT_EQ(ref.payload, fast.payload) << what;
  EXPECT_EQ(ref.pdu_bits, fast.pdu_bits) << what;
  EXPECT_EQ(ref.stream_bits, fast.stream_bits) << what;
  EXPECT_TRUE(BitEqual(ref.rssi_dbm, fast.rssi_dbm)) << what;
  EXPECT_EQ(ref.start_index, fast.start_index) << what;
}

TEST(BleTxTest, RealRailShapingMatchesLegacy) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 40u, 333u}) {
    Rng rng(80 + n);
    const BitVector bits = RandomBits(rng, n);
    EXPECT_TRUE(BitEqual(LegacyModulateBits(bits), ModulateBits(bits)))
        << "bits=" << n;
  }
}

TEST(BleRxTest, HeaderSearchMatchesLegacyOnRandomBuffers) {
  // Start counts 0..3 mod 4 and around the search's 4096-start blocks,
  // and every threshold k/40: detection at each one pins the best match
  // count, not just the best start.
  Rng rng(81);
  for (std::size_t starts : {500u, 501u, 502u, 503u, 4095u, 4096u, 4097u,
                             8193u}) {
    const IqBuffer rx = RandomIq(rng, 40 * kSamplesPerBit + starts);
    for (std::size_t k = 0; k <= 40; k += 1) {
      RxConfig config;
      config.detection_threshold = static_cast<double>(k) / 40.0;
      ExpectSameResult(LegacyReceiveFrame(rx, config),
                       ReceiveFrame(rx, config),
                       "len=" + std::to_string(rx.size()) +
                           " k=" + std::to_string(k));
    }
  }
  // All-zero input: every decision reads 0 Hz.
  for (double threshold : {0.9, 0.0}) {
    RxConfig config;
    config.detection_threshold = threshold;
    const IqBuffer zeros(1000, Cplx{0.0, 0.0});
    ExpectSameResult(LegacyReceiveFrame(zeros, config),
                     ReceiveFrame(zeros, config), "zeros");
  }
}

TEST(BleRxTest, FramesAcrossSearchBlockBoundariesMatchLegacy) {
  // The header search scores starts in blocks of 4096; frames whose
  // true start falls just before, on and after a block boundary must
  // resolve to the legacy start, including ones whose last header bits
  // read the block's final decisions.
  Rng rng(85);
  const TxFrame frame = BuildFrame(RandomBytes(rng, 20));
  for (std::size_t pad : {4080u, 4086u, 4090u, 4093u, 4095u, 4096u, 4099u,
                          8190u}) {
    const IqBuffer rx = NarrowbandCapture(frame.waveform, -70.0, rng, pad);
    const RxResult ref = LegacyReceiveFrame(rx);
    EXPECT_TRUE(ref.crc_ok) << "pad=" << pad;
    ExpectSameResult(ref, ReceiveFrame(rx), "pad=" + std::to_string(pad));
  }
}

TEST(BleRxTest, MatchesLegacyAcrossSnrs) {
  int found = 0;
  int missed = 0;
  for (double dbm = -70.0; dbm >= -105.0; dbm -= 5.0) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(900 + seed);
      const TxFrame frame = BuildFrame(RandomBytes(rng, 5 + 40 * seed));
      const IqBuffer rx = NarrowbandCapture(frame.waveform, dbm, rng);
      const RxResult ref = LegacyReceiveFrame(rx);
      ExpectSameResult(ref, ReceiveFrame(rx),
                       "dbm=" + std::to_string(dbm) +
                           " seed=" + std::to_string(seed));
      (ref.crc_ok ? found : missed) += 1;
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(missed, 0);
}

TEST(BleRxTest, WorkspaceReuseAcrossFrameLengthsMatchesLegacy) {
  const std::size_t payloads[] = {255, 2, 120, 3, 240};
  for (std::size_t i = 0; i < std::size(payloads); ++i) {
    Rng rng(950 + i);
    const TxFrame frame = BuildFrame(RandomBytes(rng, payloads[i]));
    const IqBuffer rx = NarrowbandCapture(frame.waveform, -75.0, rng, 11 + i);
    const RxResult ref = LegacyReceiveFrame(rx);
    EXPECT_TRUE(ref.crc_ok) << "frame " << i;
    ExpectSameResult(ref, ReceiveFrame(rx), "frame " + std::to_string(i));
  }
}

}  // namespace
}  // namespace freerider::phyble
