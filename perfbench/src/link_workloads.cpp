// wifi_link and narrowband_link: one excitation frame per op through
// the chain sim/link.cpp's RunOnePacket uses — PHY TX, power scaling,
// tag codeword translation, thermal noise, PHY RX, XOR tag decode —
// with every layer call timed from here.
#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "channel/awgn.h"
#include "channel/link_budget.h"
#include "common/rng.h"
#include "core/redundancy.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "mac/ambient_traffic.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "sim/link.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace freerider;
using core::RadioType;

/// Received power tiers, in dB above the radio's sensitivity floor as
/// sim/link.cpp applies it (sensitivity plus the tag's sideband
/// conversion loss). Tier 0 must decode exactly. The last two sit a few
/// dB under the floor, where the simulated receiver still synchronizes
/// on some frames and rejects the rest early.
constexpr std::array<double, 6> kTierMarginDb = {30.0, 12.0, 6.0, 2.0, -2.0, -5.0};

/// Ops the output digest covers. Every run completes at least these.
constexpr std::size_t kWifiDigestOps = 160;
constexpr std::size_t kNarrowbandDigestOps = 96;

/// The timed phase is this many segments of equal duration.
constexpr std::size_t kSegments = 10;

/// Inputs generated per run; a faster program wraps around the pool.
constexpr std::size_t kPoolOps = 4096;

/// narrowband_link op order: one ZigBee frame per six BLE frames gives
/// each radio roughly half of the host time.
constexpr std::array<RadioType, 7> kNarrowbandPattern = {
    RadioType::kZigbee,    RadioType::kBluetooth, RadioType::kBluetooth,
    RadioType::kBluetooth, RadioType::kBluetooth, RadioType::kBluetooth,
    RadioType::kBluetooth};

struct LinkInput {
  RadioType radio = RadioType::kWifi;
  Bytes payload;
  BitVector tag_bits;  ///< At least the frame's tag-bit capacity.
  double rx_dbm = 0.0;
  std::size_t tier = 0;
  std::uint64_t noise_seed = 0;
};

struct LinkOutcome {
  bool synced = false;      ///< SIGNAL parsed / frame detected.
  bool header_ok = false;   ///< RX framing matches TX, untouched units equal.
  std::size_t tag_bits = 0;
  std::size_t tag_bits_ok = 0;
  std::size_t decoded_bits = 0;
  double airtime_s = 0.0;
  bool exact() const {
    return synced && header_ok && tag_bits_ok == tag_bits &&
           decoded_bits >= tag_bits;
  }
};

double SampleRate(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return phy80211::kSampleRateHz;
    case RadioType::kZigbee:
      return phy802154::kSampleRateHz;
    case RadioType::kBluetooth:
      return phyble::kSampleRateHz;
  }
  return 0.0;
}

const char* RadioName(RadioType radio) {
  switch (radio) {
    case RadioType::kWifi:
      return "WiFi";
    case RadioType::kZigbee:
      return "ZigBee";
    case RadioType::kBluetooth:
      return "BLE";
  }
  return "?";
}

/// Pre-padding/post-padding around a capture, as in sim/link.cpp.
std::size_t PadSamples(RadioType radio) {
  return radio == RadioType::kWifi ? 150 : 200;
}

double TierDbm(RadioType radio, std::size_t tier) {
  return sim::DefaultProfile(radio).sensitivity_dbm +
         channel::BackscatterBudget{}.sideband_conversion_loss_db +
         kTierMarginDb[tier];
}

core::TranslateConfig TagConfig(RadioType radio) {
  core::TranslateConfig config;
  config.radio = radio;
  config.redundancy = core::DefaultRedundancy(radio);
  return config;
}

/// Generous bound on a frame's tag-bit capacity: on-air samples per
/// payload byte at each PHY's rate, plus headers.
std::size_t TagBitBound(RadioType radio, std::size_t payload_bytes) {
  std::size_t samples_per_byte = 27;  // 802.11 6 Mb/s: 80 samples / 24 bits
  if (radio == RadioType::kZigbee) samples_per_byte = 256;
  if (radio == RadioType::kBluetooth) samples_per_byte = 64;
  const std::size_t samples = (payload_bytes + 16) * samples_per_byte + 512;
  return core::TagBitCapacity(samples, TagConfig(radio)) + 1;
}

LinkInput MakeInput(RadioType radio, std::size_t payload_bytes,
                    std::size_t tier, Rng& gen) {
  LinkInput in;
  in.radio = radio;
  in.payload = RandomBytes(gen, payload_bytes);
  in.tag_bits = RandomBits(gen, TagBitBound(radio, payload_bytes));
  in.tier = tier;
  in.rx_dbm = TierDbm(radio, tier);
  in.noise_seed = gen.NextU64();
  return in;
}

/// 802.11g 6 Mb/s payloads whose airtime follows the Fig. 3 ambient
/// traffic model (FCS excluded from the payload).
std::size_t WifiPayloadBytes(Rng& gen) {
  static const mac::AmbientTrafficConfig kTraffic;
  const std::size_t psdu = phy80211::PsduBytesForDuration(
      mac::SampleAmbientDuration(kTraffic, gen), phy80211::Rate::k6Mbps);
  return psdu > 4 ? psdu - 4 : 1;
}

std::vector<LinkInput> MakeWifiInputs(std::uint64_t seed) {
  Rng gen(seed ^ 0x776966695F6C6E6Bull);
  std::vector<LinkInput> inputs;
  inputs.reserve(kPoolOps);
  for (std::size_t i = 0; i < kPoolOps; ++i) {
    const std::size_t bytes = WifiPayloadBytes(gen);
    inputs.push_back(MakeInput(RadioType::kWifi, bytes,
                               i % kTierMarginDb.size(), gen));
  }
  return inputs;
}

std::vector<LinkInput> MakeNarrowbandInputs(std::uint64_t seed) {
  Rng gen(seed ^ 0x6E6172726F77626Eull);
  std::vector<LinkInput> inputs;
  inputs.reserve(kPoolOps);
  std::array<std::size_t, 3> per_radio{};
  for (std::size_t i = 0; i < kPoolOps; ++i) {
    const RadioType radio = kNarrowbandPattern[i % kNarrowbandPattern.size()];
    // Legal payload ranges: 802.15.4 PSDU minus the 2-byte FCS; BLE
    // PDU payload.
    const std::size_t max_bytes = radio == RadioType::kZigbee
                                      ? phy802154::kMaxPsduBytes - 2
                                      : phyble::kMaxPayloadBytes;
    const std::size_t bytes = 1 + gen.NextBelow(max_bytes);
    std::size_t& n = per_radio[static_cast<std::size_t>(radio)];
    inputs.push_back(MakeInput(radio, bytes, n++ % kTierMarginDb.size(), gen));
  }
  return inputs;
}

/// The frame's first `n` bits (or symbols), which the tag leaves
/// untouched, must come through exactly. (Not used on WiFi: there the
/// Viterbi decoder couples the unmodulated first DATA symbol's bits to
/// the translated symbols after it, so only the scrambler seed those
/// bits carry is compared.)
template <class T>
bool PrefixEqual(const std::vector<T>& tx, const std::vector<T>& rx,
                 std::size_t n) {
  if (tx.size() < n || rx.size() < n) return false;
  return std::equal(tx.begin(), tx.begin() + static_cast<std::ptrdiff_t>(n),
                    rx.begin());
}

class LinkRunner {
 public:
  explicit LinkRunner(Tracer& tracer) : tracer_(tracer) {}

  LinkOutcome Run(const LinkInput& in, Digest* digest) {
    switch (in.radio) {
      case RadioType::kWifi:
        return RunWifi(in, digest);
      case RadioType::kZigbee:
        return RunZigbee(in, digest);
      case RadioType::kBluetooth:
        return RunBluetooth(in, digest);
    }
    throw std::logic_error("unknown radio");
  }

 private:
  /// The tag's bits for this frame: the input prefix the frame can carry.
  static std::span<const Bit> SentBits(const LinkInput& in,
                                       std::size_t waveform_samples) {
    const std::size_t capacity =
        core::TagBitCapacity(waveform_samples, TagConfig(in.radio));
    if (capacity > in.tag_bits.size()) {
      throw std::length_error("tag-bit input shorter than frame capacity");
    }
    return std::span<const Bit>(in.tag_bits).first(capacity);
  }

  /// Scale → translate → pad → thermal noise.
  IqBuffer Channel(const LinkInput& in, const IqBuffer& waveform,
                   std::span<const Bit> sent) {
    const core::TranslateConfig tcfg = TagConfig(in.radio);
    const IqBuffer scaled = tracer_.Layer("channel.scale", [&] {
      return channel::ToAbsolutePower(waveform, in.rx_dbm);
    });
    const IqBuffer backscattered = tracer_.Layer(
        "core.translate", [&] { return core::Translate(scaled, sent, tcfg); });
    const std::size_t pad = PadSamples(in.radio);
    padded_.assign(pad, Cplx{0.0, 0.0});
    padded_.insert(padded_.end(), backscattered.begin(), backscattered.end());
    padded_.insert(padded_.end(), pad, Cplx{0.0, 0.0});
    channel::ReceiverFrontEnd fe;
    fe.sample_rate_hz = SampleRate(in.radio);
    fe.noise_figure_db = sim::DefaultProfile(in.radio).noise_figure_db;
    Rng noise(in.noise_seed);
    return tracer_.Layer("channel.noise", [&] {
      return channel::AddThermalNoise(padded_, fe, noise);
    });
  }

  static void Score(std::span<const Bit> sent, const BitVector& decoded,
                    LinkOutcome& out) {
    out.decoded_bits = decoded.size();
    const std::size_t n = std::min(sent.size(), decoded.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.tag_bits_ok += sent[i] == decoded[i] ? 1 : 0;
    }
  }

  static void Record(Digest* digest, const LinkOutcome& out,
                     const core::TagDecodeResult* decoded) {
    if (digest == nullptr) return;
    digest->U64(out.synced);
    digest->U64(out.header_ok);
    digest->U64(out.tag_bits);
    digest->U64(out.tag_bits_ok);
    if (decoded != nullptr) digest->Seq(decoded->bits);
  }

  LinkOutcome RunWifi(const LinkInput& in, Digest* digest) {
    LinkOutcome out;
    const phy80211::TxFrame frame = tracer_.Layer(
        "phy80211.tx", [&] { return phy80211::BuildFrame(in.payload, {}); });
    out.airtime_s = phy80211::FrameDurationS(frame);
    const std::span<const Bit> sent = SentBits(in, frame.waveform.size());
    out.tag_bits = sent.size();
    const IqBuffer rx = Channel(in, frame.waveform, sent);
    const phy80211::RxResult result = tracer_.Layer(
        "phy80211.rx", [&] { return phy80211::ReceiveFrame(rx); });
    out.synced = result.signal_ok;
    if (!out.synced) {
      Record(digest, out, nullptr);
      return out;
    }
    const std::size_t bits_per_symbol =
        phy80211::ParamsFor(frame.rate).data_bits_per_symbol;
    const core::TagDecodeResult decoded =
        tracer_.Layer("core.xor_decode", [&] {
          return core::DecodeWifi(frame.data_bits, result.data_bits,
                                  bits_per_symbol,
                                  TagConfig(in.radio).redundancy);
        });
    Score(sent, decoded.bits, out);
    out.header_ok =
        result.rate == frame.rate && result.psdu_len == frame.psdu.size() &&
        result.data_bits.size() == frame.data_bits.size() &&
        result.scrambler_seed == phy80211::TxConfig{}.scrambler_seed;
    if (digest != nullptr) digest->Seq(result.data_bits);
    Record(digest, out, &decoded);
    return out;
  }

  LinkOutcome RunZigbee(const LinkInput& in, Digest* digest) {
    LinkOutcome out;
    const phy802154::TxFrame frame = tracer_.Layer(
        "phy802154.tx", [&] { return phy802154::BuildFrame(in.payload); });
    out.airtime_s = phy802154::FrameDurationS(frame);
    const std::span<const Bit> sent = SentBits(in, frame.waveform.size());
    out.tag_bits = sent.size();
    const IqBuffer rx = Channel(in, frame.waveform, sent);
    const phy802154::RxResult result = tracer_.Layer(
        "phy802154.rx", [&] { return phy802154::ReceiveFrame(rx); });
    out.synced = result.detected && !result.data_symbols.empty();
    if (!out.synced) {
      Record(digest, out, nullptr);
      return out;
    }
    const core::TagDecodeResult decoded =
        tracer_.Layer("core.xor_decode", [&] {
          return core::DecodeZigbee(frame.data_symbols, result.data_symbols,
                                    TagConfig(in.radio).redundancy);
        });
    Score(sent, decoded.bits, out);
    out.header_ok =
        result.psdu_len == frame.psdu.size() &&
        result.data_symbols.size() == frame.data_symbols.size() &&
        PrefixEqual(frame.data_symbols, result.data_symbols,
                    core::ModulationSkipUnits(in.radio));
    if (digest != nullptr) digest->Seq(result.data_symbols);
    Record(digest, out, &decoded);
    return out;
  }

  LinkOutcome RunBluetooth(const LinkInput& in, Digest* digest) {
    LinkOutcome out;
    const phyble::TxFrame frame = tracer_.Layer(
        "phyble.tx", [&] { return phyble::BuildFrame(in.payload); });
    out.airtime_s = phyble::FrameDurationS(frame);
    const std::span<const Bit> sent = SentBits(in, frame.waveform.size());
    out.tag_bits = sent.size();
    const IqBuffer rx = Channel(in, frame.waveform, sent);
    const phyble::RxResult result = tracer_.Layer(
        "phyble.rx", [&] { return phyble::ReceiveFrame(rx); });
    out.synced = result.detected && !result.stream_bits.empty();
    if (!out.synced) {
      Record(digest, out, nullptr);
      return out;
    }
    const core::TagDecodeResult decoded =
        tracer_.Layer("core.xor_decode", [&] {
          return core::DecodeBluetooth(frame.stream_bits, result.stream_bits,
                                       TagConfig(in.radio).redundancy);
        });
    Score(sent, decoded.bits, out);
    out.header_ok =
        result.stream_bits.size() == frame.stream_bits.size() &&
        PrefixEqual(frame.stream_bits, result.stream_bits,
                    core::ModulationSkipUnits(in.radio));
    if (digest != nullptr) digest->Seq(result.stream_bits);
    Record(digest, out, &decoded);
    return out;
  }

  Tracer& tracer_;
  IqBuffer padded_;
};

/// Wall time (ms) of one untraced run of `in`; failures are the traced
/// op's to report.
double TimeUntraced(LinkRunner& runner, const LinkInput& in) {
  const std::int64_t start = NowNs();
  try {
    runner.Run(in, nullptr);
  } catch (const std::exception&) {
  }
  return static_cast<double>(NowNs() - start) * 1e-6;
}

/// Shared closed loop of the two link workloads.
RunResult RunLinkLoop(const RunOptions& options, Tracer& tracer,
                      const std::vector<LinkInput>& inputs,
                      std::size_t digest_ops,
                      const std::vector<RadioType>& warmup_radios) {
  RunResult run;
  LinkRunner runner(tracer);

  // Untimed warm-up, one op per radio: builds the PHYs' static tables
  // and the calling thread's RX workspace.
  for (RadioType radio : warmup_radios) {
    Rng gen(0x7761726D7570ull);  // the same warm-up frame in every run
    const LinkInput warm = MakeInput(radio, 100, 0, gen);
    if (!runner.Run(warm, nullptr).exact()) {
      run.problems.push_back("warm-up frame did not decode exactly");
    }
  }
  SegmentClock clock;
  if (options.setup_only) {
    clock.Start(run);
    return run;
  }

  Digest digest;
  double traced_ms = 0.0;
  double shadow_ms = 0.0;
  std::array<std::size_t, 3> rx_calls{};
  std::array<std::size_t, 3> rx_synced{};
  std::size_t window_bits = 0;
  std::size_t window_bits_ok = 0;

  clock.Start(run);
  for (std::size_t i = 0;
       i < digest_ops || run.segments.size() < kSegments; ++i) {
    const LinkInput& in = inputs[i % inputs.size()];
    Digest* d = i < digest_ops ? &digest : nullptr;
    // The traced run also times every input untraced, alternately
    // before and after the traced op, so the pair measures what tracing
    // costs on identical work.
    const bool shadow = tracer.enabled();
    if (shadow && i % 2 == 1) shadow_ms += TimeUntraced(runner, in);
    LinkOutcome out;
    bool threw = false;
    tracer.BeginOp();
    try {
      out = runner.Run(in, d);
    } catch (const std::exception& e) {
      threw = true;
      if (run.problems.size() < 8) {
        run.problems.push_back(std::string("op threw: ") + e.what());
      }
    }
    traced_ms += tracer.EndOp();
    if (shadow && i % 2 == 0) shadow_ms += TimeUntraced(runner, in);
    ++run.attempted;
    if (threw || (in.tier == 0 && !out.exact())) {
      ++run.failed;
      if (!threw && run.problems.size() < 8) {
        run.problems.push_back(
            "strongest-tier " + std::string(RadioName(in.radio)) + " frame " +
            std::to_string(i) + " (" + std::to_string(in.payload.size()) +
            "-byte payload) did not " + (out.synced ? "decode exactly" : "sync"));
      }
    }
    clock.Add(1, out.airtime_s);
    if (clock.elapsed_s() >= options.seconds / kSegments) clock.Close(run);
    const auto r = static_cast<std::size_t>(in.radio);
    ++rx_calls[r];
    rx_synced[r] += out.synced ? 1 : 0;
    if (d != nullptr) {
      window_bits += out.tag_bits;
      window_bits_ok += out.tag_bits_ok;
    }
  }
  clock.Close(run);  // the ops past the last segment, if the digest needed them
  run.op_ms = tracer.op_ms();
  run.digest = digest.value();
  run.digest_ops = digest_ops;

  auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto wifi = static_cast<std::size_t>(RadioType::kWifi);
  const auto zigbee = static_cast<std::size_t>(RadioType::kZigbee);
  const auto ble = static_cast<std::size_t>(RadioType::kBluetooth);
  run.layer_metrics = {
      {"phy80211.rx.sync_ratio", ratio(rx_synced[wifi], rx_calls[wifi]), "ratio"},
      {"phy802154.rx.detect_ratio", ratio(rx_synced[zigbee], rx_calls[zigbee]),
       "ratio"},
      {"phyble.rx.detect_ratio", ratio(rx_synced[ble], rx_calls[ble]), "ratio"},
      {"core.tag_bit_ok_ratio", ratio(window_bits_ok, window_bits), "ratio"},
  };
  if (shadow_ms > 0.0) {
    run.layer_metrics.push_back(
        {"bench.trace_overhead", traced_ms / shadow_ms - 1.0, "ratio"});
  }
  return run;
}

}  // namespace

RunResult RunWifiLink(const RunOptions& options, Tracer& tracer) {
  const std::vector<LinkInput> inputs = MakeWifiInputs(options.seed);
  return RunLinkLoop(options, tracer, inputs, kWifiDigestOps,
                     {RadioType::kWifi});
}

RunResult RunNarrowbandLink(const RunOptions& options, Tracer& tracer) {
  const std::vector<LinkInput> inputs = MakeNarrowbandInputs(options.seed);
  return RunLinkLoop(options, tracer, inputs, kNarrowbandDigestOps,
                     {RadioType::kZigbee, RadioType::kBluetooth});
}

}  // namespace perfbench
