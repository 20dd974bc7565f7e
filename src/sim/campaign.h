// Audited-campaign core shared by the chaos soak (sim/soak.h), the
// supervisor stress campaign (sim/stress.h) and the adversarial
// campaign (sim/adversarial.h).
//
// Each of those harnesses drives one FullStackSim round by round and
// audits what the transport hands the application. What they have in
// common lives here, once:
//
//   * AuditedCampaign — the FullStackConfig → FullStackSim round loop:
//     one frame offered per tag every `offer_every` rounds of the load
//     phase, none in the drain phase, and the delivery ledger run
//     after every round. Harness-specific behaviour enters through
//     CampaignHooks.
//   * DeliveryAudit — the delivery ledger. Each tag has a 64-bit
//     sequence position that counts every seq the application stream
//     consumed (delivered or explicitly hole-skipped); its low 8 bits
//     are the next expected on-air seq, and unlike the mod-256 value it
//     never aliases after a wrap. A delivery behind the position is a
//     duplicate, one ahead of it a reorder; a skip must land exactly on
//     the position. An explicit stream resync (the one repeat the
//     transport itself sanctions) re-anchors the tag.
//   * ViolationLog — violations in recording order, optionally capped,
//     and their digest lines.
//   * FieldWriter / FieldReader — the checkpoint-payload codec. A result
//     type lists its fields once, as a generic lambda over an `io`
//     object, and the same list drives both serialization and the
//     bounded, fail-closed deserialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "sim/multitag.h"

namespace freerider::sim {

/// printf into a std::string (violation details and digests).
std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// One audited invariant that did not hold.
struct AuditViolation {
  std::size_t round = 0;
  std::string kind;    ///< duplicate | reorder | skip | expired | ...
  std::string detail;  ///< Human-readable specifics (tag, seq, ...).
};

/// Violations in recording order. The first `cap` are kept verbatim;
/// `total` keeps counting past the cap.
struct ViolationLog {
  std::vector<AuditViolation> recorded;
  std::size_t total = 0;
  std::size_t cap = std::numeric_limits<std::size_t>::max();

  void Add(std::size_t round, const char* kind, std::string detail);
};

/// One "violation round=... kind=... detail" line per violation — the
/// head of every campaign digest.
std::string ViolationDigest(const std::vector<AuditViolation>& violations);

/// What every audited campaign config carries: seed, size and the
/// offer schedule.
struct CampaignShape {
  std::uint64_t seed = 1;
  std::size_t num_tags = 0;
  /// Rounds with offered load.
  std::size_t rounds = 0;
  /// Extra rounds with no new offers so in-flight frames can finish.
  std::size_t drain_rounds = 0;
  /// Enqueue one frame per tag every this many rounds (0 = never).
  std::size_t offer_every = 0;

  std::size_t total_rounds() const { return rounds + drain_rounds; }

  template <class Config>
  static CampaignShape Of(const Config& c) {
    return {c.seed, c.num_tags, c.rounds, c.drain_rounds, c.offer_every};
  }
};

/// The FullStackConfig every audited campaign starts from: the shape's
/// size and length, `transport` forced on, and the offered load left to
/// the campaign loop.
FullStackConfig CampaignSimConfig(const CampaignShape& shape,
                                  const transport::TransportConfig& transport);

/// Harness-specific behaviour inside the shared round loop. Every hook
/// is optional.
struct CampaignHooks {
  /// Before the round's offer is set (schedule swaps, offer gates).
  std::function<void(std::size_t round, FullStackSim& sim)> before_round;
  /// Before each delivery is checked against the ledger.
  std::function<void(std::size_t round, const RoundReport::Delivery& d)>
      on_delivery;
  /// For every hole skip the ledger consumes, whether on its own or as
  /// the head of a same-round post-skip flush. `seq` is the skipped
  /// sequence; `tag` is 0-based.
  std::function<void(std::size_t round, std::size_t tag, std::uint8_t seq)>
      on_skip;
  /// After the round's ledger pass.
  std::function<void(std::size_t round, const FullStackSim& sim)>
      after_round;
};

/// The per-tag delivery ledger (see the file comment).
class DeliveryAudit {
 public:
  /// Where a tag's ledger starts.
  enum class Anchor {
    /// Anchored at seq 0 from round 0: a first delivery that is not
    /// seq 0 is flagged (the soak's honest tags).
    kSeqZero,
    /// Anchored on the first seq delivered or skipped (stress and
    /// adversarial, where a replayer's first seq can be anything).
    kFirstHeard,
  };

  DeliveryAudit(std::size_t num_tags, Anchor anchor);

  /// Un-anchor every tag whose receive stream the transport resynced
  /// since the last call; its next frame anchors it again.
  void ReanchorResynced(const transport::CoordinatorTransport& coordinator);

  /// Check one round's deliveries, then its hole skips, recording
  /// duplicate / reorder / skip-out-of-order violations in `log`.
  void AuditRound(std::size_t round, const RoundReport& report,
                  const CampaignHooks& hooks, ViolationLog& log);

  /// Sequences the ledger accepted as delivered / skipped for `tag`.
  std::uint64_t delivered(std::size_t tag) const {
    return tracks_[tag].delivered;
  }
  std::uint64_t skipped(std::size_t tag) const { return tracks_[tag].skipped; }

 private:
  struct Track {
    bool anchored = false;
    std::uint64_t position = 0;
    std::uint64_t delivered = 0;
    std::uint64_t skipped = 0;
    std::size_t resyncs_seen = 0;
  };

  /// Consume this round's skip for `tag` if it sits at the position,
  /// and report it to `hooks.on_skip`.
  bool ConsumeSkip(std::size_t round, std::size_t tag,
                   const CampaignHooks& hooks);

  std::vector<Track> tracks_;
  /// This round's hole skip per tag (at most one per tag per round).
  std::vector<std::optional<std::uint8_t>> skip_;
};

/// One audited campaign: the master Rng, the sim, its delivery ledger
/// and its violation log.
class AuditedCampaign {
 public:
  AuditedCampaign(const CampaignShape& shape, const FullStackConfig& sim_cfg,
                  DeliveryAudit::Anchor anchor);
  /// The sim holds the address of rng_.
  AuditedCampaign(const AuditedCampaign&) = delete;
  AuditedCampaign& operator=(const AuditedCampaign&) = delete;

  /// Step every round of the shape, auditing each.
  void Run(const CampaignHooks& hooks);

  FullStackSim& sim() { return sim_; }
  const DeliveryAudit& audit() const { return audit_; }
  ViolationLog& log() { return log_; }

 private:
  CampaignShape shape_;
  Rng rng_;
  FullStackSim sim_;
  DeliveryAudit audit_;
  ViolationLog log_;
};

// ------------------------------------------------ field-list codec

/// Serializing side of a field list: every field is written, and every
/// call returns true so the list's && chain runs to the end.
class FieldWriter {
 public:
  bool Size(std::uint64_t v) {
    w_.U64(v);
    return true;
  }
  bool Bool(bool v) { return Size(v ? 1 : 0); }
  bool U8(std::uint8_t v) { return Size(v); }
  bool F64(double v) {
    w_.F64(v);
    return true;
  }
  bool Str(const std::string& v) {
    w_.Str(v);
    return true;
  }
  /// A format version (or other constant) the reader insists on.
  bool Const(std::uint64_t v) { return Size(v); }
  /// Element count, then each element's fields.
  template <class T, class Fields>
  bool List(const std::vector<T>& items, std::size_t /*max*/,
            const Fields& fields) {
    Size(items.size());
    for (const T& item : items) fields(*this, item);
    return true;
  }

  std::string Take() { return w_.Take(); }

 private:
  runtime::PayloadWriter w_;
};

/// Deserializing side of a field list: fails closed on truncation, on a
/// bool above 1, a u8 above 255, a constant mismatch or a list count
/// above its bound.
class FieldReader {
 public:
  explicit FieldReader(const std::string& payload) : r_(payload) {}

  bool Size(std::size_t& v) {
    std::uint64_t raw = 0;
    if (!r_.U64(&raw)) return false;
    v = static_cast<std::size_t>(raw);
    return true;
  }
  bool Bool(bool& v) {
    std::uint64_t raw = 0;
    if (!r_.U64(&raw) || raw > 1) return false;
    v = raw == 1;
    return true;
  }
  bool U8(std::uint8_t& v) {
    std::uint64_t raw = 0;
    if (!r_.U64(&raw) || raw > 255) return false;
    v = static_cast<std::uint8_t>(raw);
    return true;
  }
  bool F64(double& v) { return r_.F64(&v); }
  bool Str(std::string& v) { return r_.Str(&v); }
  bool Const(std::uint64_t expected) {
    std::uint64_t raw = 0;
    return r_.U64(&raw) && raw == expected;
  }
  template <class T, class Fields>
  bool List(std::vector<T>& items, std::size_t max, const Fields& fields) {
    std::size_t count = 0;
    if (!Size(count) || count > max) return false;
    items.resize(count);
    for (T& item : items) {
      if (!fields(*this, item)) return false;
    }
    return true;
  }

  bool AtEnd() const { return r_.AtEnd(); }

 private:
  runtime::PayloadReader r_;
};

/// The three fields of an AuditViolation, for use inside a field list.
inline constexpr auto kViolationFields = [](auto& io, auto& v) {
  return io.Size(v.round) && io.Str(v.kind) && io.Str(v.detail);
};

template <class Result, class Fields>
std::string EncodeFields(const Result& result, const Fields& fields) {
  FieldWriter writer;
  fields(writer, result);
  return writer.Take();
}

/// Decode into a fresh Result; `*result` is only written on success,
/// which requires every byte of `payload` to be consumed.
template <class Result, class Fields>
bool DecodeFields(const std::string& payload, Result* result,
                  const Fields& fields) {
  FieldReader reader(payload);
  Result out;
  if (!fields(reader, out) || !reader.AtEnd()) return false;
  *result = std::move(out);
  return true;
}

}  // namespace freerider::sim
