#include "phy802154/frame.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/crc.h"
#include "dsp/kernels.h"
#include "dsp/signal_ops.h"
#include "phy802154/chips.h"
#include "phy802154/oqpsk.h"

namespace freerider::phy802154 {
namespace {

std::vector<std::uint8_t> ShrSymbols() {
  std::vector<std::uint8_t> symbols(kPreambleSymbols, 0);
  // SFD = 0xA7, low nibble first.
  symbols.push_back(0x7);
  symbols.push_back(0xA);
  return symbols;
}

// Reference waveform of the SHR tail used for detection & phase lock:
// the last two preamble symbols plus the SFD (4 symbols, 512 samples
// plus the last pulse's tail), split into SoA form once. `energy` keeps
// the legacy detector's sequential std::norm sum.
struct ShrReference {
  std::vector<double> re;
  std::vector<double> im;
  double energy = 0.0;
};

const ShrReference& DetectionReference() {
  static const ShrReference ref = [] {
    const std::vector<std::uint8_t> symbols = {0, 0, 0x7, 0xA};
    const IqBuffer wave = ModulateChips(SpreadSymbols(symbols));
    ShrReference r;
    dsp::SplitComplex(wave, r.re, r.im);
    for (const Cplx& x : wave) r.energy += std::norm(x);
    return r;
  }();
  return ref;
}

}  // namespace

TxFrame BuildFrame(std::span<const std::uint8_t> payload) {
  if (payload.size() + 2 > kMaxPsduBytes) {
    throw std::invalid_argument("802.15.4 payload too large");
  }
  TxFrame frame;
  frame.psdu.assign(payload.begin(), payload.end());
  const std::uint16_t fcs = Crc16Ccitt(payload);
  frame.psdu.push_back(static_cast<std::uint8_t>(fcs & 0xFFu));
  frame.psdu.push_back(static_cast<std::uint8_t>((fcs >> 8) & 0xFFu));

  std::vector<std::uint8_t> symbols = ShrSymbols();
  const std::size_t shr_count = symbols.size();

  Bytes phr_and_psdu;
  phr_and_psdu.push_back(static_cast<std::uint8_t>(frame.psdu.size() & 0x7Fu));
  phr_and_psdu.insert(phr_and_psdu.end(), frame.psdu.begin(), frame.psdu.end());
  const std::vector<std::uint8_t> data_symbols = BytesToSymbols(phr_and_psdu);
  symbols.insert(symbols.end(), data_symbols.begin(), data_symbols.end());

  frame.data_symbols = data_symbols;
  frame.waveform = ModulateChips(SpreadSymbols(symbols));
  frame.shr_samples = shr_count * kSamplesPerSymbol;
  return frame;
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

ShrPeak FindShr(std::span<const Cplx> rx, dsp::Workspace& ws) {
  const ShrReference& ref = DetectionReference();
  const std::size_t len = ref.re.size();
  ShrPeak peak;
  if (rx.size() < len) return peak;
  const std::size_t positions = rx.size() - len + 1;

  dsp::SplitComplex(rx, ws.scan_re, ws.scan_im);
  dsp::SlidingWindowEnergy(ws.scan_re.data(), ws.scan_im.data(), len,
                           positions, ws.win_energy);
  const double* re = ws.scan_re.data();
  const double* im = ws.scan_im.data();
  const double* we = ws.win_energy.data();

  // Windows without energy have no normalized correlation and are
  // skipped; positions are visited in ascending order and only a
  // strictly higher peak replaces the best, so the first maximum wins.
  auto consider = [&](std::size_t n, Cplx c) {
    const double e = we[n];
    if (!(e > 0.0)) return;
    const double ncorr = std::abs(c) / std::sqrt(e * ref.energy);
    if (ncorr > peak.ncorr) peak = {ncorr, n, c};
  };
  std::size_t n = 0;
  for (; n + 4 <= positions; n += 4) {
    if (!(we[n] > 0.0) && !(we[n + 1] > 0.0) && !(we[n + 2] > 0.0) &&
        !(we[n + 3] > 0.0)) {
      continue;
    }
    double cr[4];
    double ci[4];
    dsp::CorrelationX4(re + n, im + n, ref.re.data(), ref.im.data(), len, cr,
                       ci);
    for (std::size_t j = 0; j < 4; ++j) consider(n + j, Cplx{cr[j], ci[j]});
  }
  for (; n < positions; ++n) {
    if (!(we[n] > 0.0)) continue;
    consider(n, dsp::Correlation(re + n, im + n, ref.re.data(),
                                 ref.im.data(), len));
  }
  return peak;
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  if (rx.size() < DetectionReference().re.size() + kSamplesPerSymbol) {
    return result;
  }
  dsp::Workspace& ws = dsp::ThreadLocalWorkspace();

  // Normalized cross-correlation against the SHR tail.
  const ShrPeak peak = FindShr(rx, ws);
  if (peak.ncorr < config.detection_threshold) return result;
  const std::size_t best_pos = peak.position;
  result.detected = true;
  result.start_index = best_pos;

  // Phase lock: derotate by the correlation phase.
  const double phase = std::arg(peak.corr);
  const IqBuffer& locked = ws.rx_work;
  dsp::RotatePhaseInto(rx, -phase, ws.rx_work);

  // PHR starts right after the SFD. The detection reference covers 4
  // symbols; its start is 2 preamble symbols before the SFD.
  const std::size_t phr_start = best_pos + 4 * kSamplesPerSymbol;

  // Decode PHR (2 symbols = 1 byte).
  BitVector& chips = ws.chips;
  DemodulateChipsInto(locked, phr_start, 2 * kChipsPerSymbol, chips);
  if (chips.size() < 2 * kChipsPerSymbol) return result;
  std::uint8_t phr_symbols[2];
  double chip_distance_sum = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    const DespreadResult d = DespreadChips(
        std::span<const Bit>(chips).subspan(s * kChipsPerSymbol,
                                            kChipsPerSymbol));
    phr_symbols[s] = d.symbol;
    chip_distance_sum += d.distance;
  }
  const std::size_t psdu_len = SymbolsToBytes(phr_symbols)[0] & 0x7Fu;
  if (psdu_len < 2 || psdu_len > kMaxPsduBytes) return result;
  result.psdu_len = psdu_len;

  // Decode PSDU symbols.
  const std::size_t psdu_symbols = psdu_len * 2;
  const std::size_t psdu_start = phr_start + 2 * kSamplesPerSymbol;
  DemodulateChipsInto(locked, psdu_start, psdu_symbols * kChipsPerSymbol,
                      chips);
  if (chips.size() < psdu_symbols * kChipsPerSymbol) return result;
  result.data_symbols.reserve(2 + psdu_symbols);
  result.data_symbols.assign(phr_symbols, phr_symbols + 2);
  for (std::size_t s = 0; s < psdu_symbols; ++s) {
    const DespreadResult d = DespreadChips(std::span<const Bit>(chips).subspan(
        s * kChipsPerSymbol, kChipsPerSymbol));
    result.data_symbols.push_back(d.symbol);
    chip_distance_sum += d.distance;
  }
  result.psdu = SymbolsToBytes(
      std::span<const std::uint8_t>(result.data_symbols).subspan(2));
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

}  // namespace freerider::phy802154
