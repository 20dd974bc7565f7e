#include "sim/campaign.h"

#include <cstdarg>
#include <cstdio>

namespace freerider::sim {

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

void ViolationLog::Add(std::size_t round, const char* kind,
                       std::string detail) {
  ++total;
  if (recorded.size() < cap) {
    recorded.push_back({round, kind, std::move(detail)});
  }
}

std::string ViolationDigest(const std::vector<AuditViolation>& violations) {
  std::string digest;
  for (const AuditViolation& v : violations) {
    digest += Fmt("violation round=%zu kind=%s %s\n", v.round, v.kind.c_str(),
                  v.detail.c_str());
  }
  return digest;
}

FullStackConfig CampaignSimConfig(const CampaignShape& shape,
                                  const transport::TransportConfig& transport) {
  FullStackConfig sim_cfg;
  sim_cfg.num_tags = shape.num_tags;
  sim_cfg.rounds = shape.total_rounds();
  sim_cfg.transport = transport;
  sim_cfg.transport.enabled = true;
  sim_cfg.offered_per_round = 0;  // the campaign loop schedules offers
  return sim_cfg;
}

// ------------------------------------------------------ DeliveryAudit

DeliveryAudit::DeliveryAudit(std::size_t num_tags, Anchor anchor)
    : tracks_(num_tags), skip_(num_tags) {
  for (Track& tk : tracks_) tk.anchored = anchor == Anchor::kSeqZero;
}

void DeliveryAudit::ReanchorResynced(
    const transport::CoordinatorTransport& coordinator) {
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const std::size_t resyncs = coordinator.rx(t).stats().resyncs;
    if (resyncs != tracks_[t].resyncs_seen) {
      tracks_[t].resyncs_seen = resyncs;
      tracks_[t].anchored = false;
    }
  }
}

bool DeliveryAudit::ConsumeSkip(std::size_t round, std::size_t tag,
                                const CampaignHooks& hooks) {
  Track& tk = tracks_[tag];
  if (tk.anchored && skip_[tag].has_value() &&
      *skip_[tag] == static_cast<std::uint8_t>(tk.position)) {
    if (hooks.on_skip) hooks.on_skip(round, tag, *skip_[tag]);
    skip_[tag].reset();
    ++tk.position;
    ++tk.skipped;
    return true;
  }
  return false;
}

void DeliveryAudit::AuditRound(std::size_t round, const RoundReport& report,
                               const CampaignHooks& hooks, ViolationLog& log) {
  // A skip advances the application stream exactly like a delivery, and
  // the post-skip flush in report.delivered lands *after* the skip in
  // sequence space.
  skip_.assign(tracks_.size(), std::nullopt);
  for (const RoundReport::Delivery& s : report.skipped) {
    skip_[s.tag_id - 1] = s.seq;
  }

  for (const RoundReport::Delivery& d : report.delivered) {
    if (hooks.on_delivery) hooks.on_delivery(round, d);
    const std::size_t t = d.tag_id - 1;
    Track& tk = tracks_[t];
    if (!tk.anchored) {
      tk.anchored = true;
      tk.position = d.seq;
    }
    if (d.seq != static_cast<std::uint8_t>(tk.position)) {
      // The expected seq may have been skipped this round; the
      // post-skip flush is then in order again.
      ConsumeSkip(round, t, hooks);
    }
    const std::uint8_t expected = static_cast<std::uint8_t>(tk.position);
    if (d.seq == expected) {
      ++tk.position;
      ++tk.delivered;
      continue;
    }
    const bool behind = transport::SeqDistance(d.seq, expected) < 128;
    log.Add(round, behind ? "duplicate" : "reorder",
            Fmt("tag=%u seq=%u expected=%u", d.tag_id, d.seq, expected));
  }

  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    if (!skip_[t].has_value()) continue;
    Track& tk = tracks_[t];
    if (!tk.anchored) {
      // A skip before any delivery anchors the stream one past it.
      tk.anchored = true;
      tk.position = static_cast<std::uint64_t>(*skip_[t]) + 1;
      ++tk.skipped;
      continue;
    }
    const std::uint8_t expected = static_cast<std::uint8_t>(tk.position);
    if (!ConsumeSkip(round, t, hooks)) {
      log.Add(round, "skip-out-of-order",
              Fmt("tag=%zu seq=%u expected=%u", t + 1, *skip_[t], expected));
    }
  }
}

// ---------------------------------------------------- AuditedCampaign

AuditedCampaign::AuditedCampaign(const CampaignShape& shape,
                                 const FullStackConfig& sim_cfg,
                                 DeliveryAudit::Anchor anchor)
    : shape_(shape),
      rng_(shape.seed),
      sim_(sim_cfg, rng_),
      audit_(shape.num_tags, anchor) {}

void AuditedCampaign::Run(const CampaignHooks& hooks) {
  for (std::size_t round = 0; round < shape_.total_rounds(); ++round) {
    if (hooks.before_round) hooks.before_round(round, sim_);
    const bool offering = round < shape_.rounds && shape_.offer_every != 0 &&
                          round % shape_.offer_every == 0;
    sim_.SetOfferedPerRound(offering ? 1 : 0);

    const RoundReport report = sim_.StepRound();
    // Resyncs come only from the supervisor's readmission path, so
    // this is inert for campaigns that run without one.
    audit_.ReanchorResynced(*sim_.coordinator_transport());
    audit_.AuditRound(round, report, hooks, log_);
    if (hooks.after_round) hooks.after_round(round, sim_);
  }
}

}  // namespace freerider::sim
