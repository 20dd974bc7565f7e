#include "phyble/frame.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/bits.h"
#include "common/crc.h"
#include "dsp/signal_ops.h"
#include "dsp/workspace.h"
#include "phyble/gfsk.h"
#include "phyble/whitening.h"

namespace freerider::phyble {
namespace {

constexpr std::size_t kHeaderBits = kPreambleBits + kAccessAddressBits;

std::array<Bit, kHeaderBits> HeaderBits(std::uint32_t access_address) {
  std::array<Bit, kHeaderBits> bits{};
  // Preamble: alternating, starting with the complement of AA bit 0 is
  // the spec's rule; BLE 1M preamble is 0xAA or 0x55 so the last
  // preamble bit differs from AA LSB. AA 0x8E89BED6 has LSB 0 -> use
  // 01010101 pattern ending in 1? We keep the fixed 10101010 (LSB
  // first of 0x55): receivers here correlate the whole 40 bits anyway.
  for (std::size_t i = 0; i < kPreambleBits; ++i) {
    bits[i] = static_cast<Bit>(i % 2 == 0);
  }
  for (std::size_t i = 0; i < kAccessAddressBits; ++i) {
    bits[kPreambleBits + i] = static_cast<Bit>((access_address >> i) & 1u);
  }
  return bits;
}

}  // namespace

TxFrame BuildFrame(std::span<const std::uint8_t> payload,
                   const TxConfig& config) {
  if (payload.size() > kMaxPayloadBytes) {
    throw std::invalid_argument("BLE payload too large");
  }
  TxFrame frame;
  frame.payload.assign(payload.begin(), payload.end());

  // PDU = length byte + payload.
  Bytes pdu;
  pdu.push_back(static_cast<std::uint8_t>(payload.size()));
  pdu.insert(pdu.end(), payload.begin(), payload.end());
  frame.pdu_bits = BytesToBits(pdu);

  // CRC over PDU bits, transmitted MSB (bit 23) first.
  const std::uint32_t crc = Crc24Ble(frame.pdu_bits);
  BitVector pdu_crc = frame.pdu_bits;
  for (int i = 23; i >= 0; --i) {
    pdu_crc.push_back(static_cast<Bit>((crc >> i) & 1u));
  }

  frame.stream_bits = pdu_crc;
  const BitVector whitened = Whiten(pdu_crc, config.channel_index);
  const std::array<Bit, kHeaderBits> header = HeaderBits(config.access_address);
  frame.air_bits.assign(header.begin(), header.end());
  frame.header_bits = frame.air_bits.size();
  frame.air_bits.insert(frame.air_bits.end(), whitened.begin(), whitened.end());

  frame.waveform = ModulateBits(frame.air_bits);
  return frame;
}

double FrameDurationS(const TxFrame& frame) {
  return static_cast<double>(frame.waveform.size()) / kSampleRateHz;
}

RxResult ReceiveFrame(const IqBuffer& rx, const RxConfig& config) {
  RxResult result;
  const std::array<Bit, kHeaderBits> header = HeaderBits(config.access_address);
  const std::size_t header_samples = header.size() * kSamplesPerBit;
  if (rx.size() < header_samples + kSamplesPerBit) return result;

  dsp::Workspace& ws = dsp::ThreadLocalWorkspace();
  const IqBuffer& filtered = ws.rx_work;
  ChannelFilterInto(rx, ws.rx_work);
  // The discriminator output takes the correlation-scan buffer, which
  // BLE does not otherwise use, so a thread that also runs 802.11 or
  // 802.15.4 holds no extra memory for it.
  DiscriminateInto(filtered, ws.scan_re);
  const std::span<const double> freq = ws.scan_re;

  // Slide over candidate start samples; score = fraction of header bits
  // whose center-frequency sign matches. Bit k of start n0 is decided
  // from the same four-sample average as bit 0 of start n0 + k * 8, so
  // each sample's decision is computed once (the same BitFrequency sum,
  // in the same order) and every start counts its matches from those,
  // one block of starts at a time in stack buffers.
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kSpan = (kHeaderBits - 1) * kSamplesPerBit;
  std::array<Bit, kBlock + kSpan> sign{};
  std::array<std::uint8_t, kBlock> match{};
  const std::size_t max_start = rx.size() - header_samples;
  // The score is strictly increasing in the match count, so the first
  // start with the most matches is the legacy first highest score.
  std::uint8_t best_match = 0;
  std::size_t best_start = 0;
  for (std::size_t b0 = 0; b0 < max_start; b0 += kBlock) {
    const std::size_t count = std::min(kBlock, max_start - b0);
    for (std::size_t s = 0; s < count + kSpan; ++s) {
      sign[s] = static_cast<Bit>(BitFrequency(freq, b0 + s, 0) >= 0.0);
    }
    std::fill_n(match.begin(), count, std::uint8_t{0});
    for (std::size_t k = 0; k < header.size(); ++k) {
      const Bit want = header[k];
      const Bit* bit_k = sign.data() + k * kSamplesPerBit;
      for (std::size_t n = 0; n < count; ++n) {
        match[n] = static_cast<std::uint8_t>(match[n] + (bit_k[n] == want));
      }
    }
    for (std::size_t n = 0; n < count; ++n) {
      if (match[n] > best_match) {
        best_match = match[n];
        best_start = b0 + n;
      }
    }
  }
  const double best_score =
      static_cast<double>(best_match) / static_cast<double>(header.size());
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
  std::array<Bit, 8> len_bits{};
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
  result.stream_bits = Whiten(whitened, config.channel_index);
  const BitVector& plain = result.stream_bits;
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

}  // namespace freerider::phyble
