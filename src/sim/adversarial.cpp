#include "sim/adversarial.h"

#include <utility>

#include "sim/campaign.h"

namespace freerider::sim {
namespace {

/// The engine's normalised spec (an out-of-range clone target folds to
/// tag 0 there), so the audits see the cast the sim actually runs.
impair::RogueSpec SpecOf(const FullStackSim& sim, std::size_t tag) {
  return sim.rogues() != nullptr ? sim.rogues()->spec(tag)
                                 : impair::RogueSpec{};
}

}  // namespace

AdversarialResult RunAdversarial(const AdversarialConfig& config) {
  const CampaignShape shape = CampaignShape::Of(config);
  FullStackConfig sim_cfg = CampaignSimConfig(shape, config.transport);
  sim_cfg.transport.replay_guard = config.defenses_on;
  sim_cfg.supervisor = config.supervisor;
  sim_cfg.supervisor.enabled = true;  // both arms: off is not a strawman
  sim_cfg.supervisor.policing_enabled = config.defenses_on;
  sim_cfg.policing = config.policing;
  sim_cfg.policing.enabled = config.defenses_on;
  sim_cfg.rogue = config.rogue;
  sim_cfg.dynamics = config.dynamics;

  obs::TraceRing ring(config.trace_capacity > 0 ? config.trace_capacity : 1);
  if (config.trace_capacity > 0) sim_cfg.trace = &ring;

  AuditedCampaign campaign(shape, sim_cfg,
                           DeliveryAudit::Anchor::kFirstHeard);
  const FullStackSim& sim = campaign.sim();
  ViolationLog& log = campaign.log();
  log.cap = AdversarialResult::kMaxRecordedViolations;

  // Cast lists. A clone pollutes its victim's on-air identity, so that
  // id leaves the victim set too (the documented sacrifice: a cloned
  // identity cannot be served until the challenge recovery clears it).
  std::vector<bool> is_rogue(config.num_tags, false);
  std::vector<bool> polluted(config.num_tags, false);
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    const impair::RogueSpec s = SpecOf(sim, t);
    if (s.model == impair::RogueModel::kNone) continue;
    is_rogue[t] = true;
    if (s.model == impair::RogueModel::kClone) polluted[s.clone_of] = true;
  }

  CampaignHooks hooks;
  hooks.on_delivery = [&](std::size_t round, const RoundReport::Delivery& d) {
    // Ground truth from the cast list: every frame an always-stale
    // replayer ever put on the air is a replay, so *any* transport
    // delivery on its stream is stale data reaching the application.
    if (SpecOf(sim, d.tag_id - 1).model == impair::RogueModel::kReplayer) {
      log.Add(round, "stale_delivery", Fmt("tag=%u seq=%u", d.tag_id, d.seq));
    }
  };
  campaign.Run(hooks);

  const std::size_t total_rounds = shape.total_rounds();
  AdversarialResult result;
  const FullStackStats stats = sim.Stats();
  for (std::size_t t = 0; t < config.num_tags; ++t) {
    if (is_rogue[t] || polluted[t]) continue;
    result.victim_offered += sim.tag_transport(t)->stats().offered;
    result.victim_delivered +=
        sim.coordinator_transport()->rx(t).stats().delivered;
  }
  result.victim_delivery =
      result.victim_offered > 0
          ? static_cast<double>(result.victim_delivered) /
                static_cast<double>(result.victim_offered)
          : 0.0;
  result.rogue_extra_frames = stats.rogue_extra_frames;
  result.rx_invalid_id = stats.rx_invalid_id;
  result.replay_rejected = stats.transport_replay_rejected;
  result.stale_rejected = stats.transport_stale_rejected;
  result.police_evidence = stats.police_evidence;
  result.collision_suspicions = stats.police_collision_suspicions;
  result.misbehavior_quarantines = stats.misbehavior_quarantines;
  result.bans = stats.misbehavior_bans;
  result.forged_heard = stats.forged_ext_heard;
  result.forged_rejected = stats.forged_ext_rejected;
  result.forged_accepted = stats.forged_ext_accepted;

  // Bounded-detection audits (defenses on only: the off arm has no
  // misbehavior channel to bound). One audit per offending identity;
  // a clone contributes two — the identity it pollutes (misbehavior
  // path) and its own abandoned id (silence path).
  const health::LinkSupervisor* supervisor = sim.supervisor();
  if (config.defenses_on) {
    const std::size_t misb_bound =
        health::MisbehaviorDetectionBound(sim_cfg.supervisor);
    const std::size_t silence_bound =
        health::QuarantineDetectionBound(sim_cfg.supervisor);
    for (std::size_t t = 0; t < config.num_tags; ++t) {
      const impair::RogueSpec s = SpecOf(sim, t);
      switch (s.model) {
        case impair::RogueModel::kBabbler:
        case impair::RogueModel::kSlotThief:
        case impair::RogueModel::kReplayer: {
          RogueAudit a;
          a.tag = t;
          a.wire_id = static_cast<std::uint8_t>(t + 1);
          a.model = impair::RogueModelName(s.model);
          a.via_misbehavior = true;
          a.bound = misb_bound;
          result.audits.push_back(std::move(a));
          break;
        }
        case impair::RogueModel::kClone: {
          RogueAudit victim;
          victim.tag = t;
          victim.wire_id = static_cast<std::uint8_t>(s.clone_of + 1);
          victim.model = "clone";
          victim.via_misbehavior = true;
          victim.bound = misb_bound;
          result.audits.push_back(std::move(victim));
          RogueAudit own;
          own.tag = t;
          own.wire_id = static_cast<std::uint8_t>(t + 1);
          own.model = "clone_own_id";
          own.via_misbehavior = false;
          own.bound = silence_bound;
          result.audits.push_back(std::move(own));
          break;
        }
        case impair::RogueModel::kNone:
        case impair::RogueModel::kForger:   // junk is unattributable
        case impair::RogueModel::kFlapper:  // never frame-level illegal
          break;
      }
    }
    for (RogueAudit& a : result.audits) {
      for (const health::HealthTransition& tr : supervisor->transitions()) {
        if (tr.tag_id != a.wire_id ||
            tr.to != health::TagHealth::kQuarantined) {
          continue;
        }
        // A misbehavior-path audit demands the evidence channel made
        // the call (the transition is stamped); silence-path audits
        // take the ordinary Probation → Quarantined route.
        if (a.via_misbehavior && !tr.misbehavior) continue;
        a.quarantined = true;
        a.quarantine_round = tr.round;
        break;
      }
      // Offenders misbehave from round 0, so the detection clock
      // starts there; round indices are 0-based, hence the +1.
      a.bound_met = a.quarantined && a.quarantine_round + 1 <= a.bound;
      a.parked_at_end = supervisor->health(a.wire_id - 1) ==
                        health::TagHealth::kQuarantined;
      if (!a.quarantined) {
        log.Add(total_rounds, "no_detection",
                Fmt("model=%s wire_id=%u", a.model.c_str(), a.wire_id));
      } else if (!a.bound_met) {
        log.Add(total_rounds, "detection_late",
                Fmt("model=%s wire_id=%u round=%zu bound=%zu",
                    a.model.c_str(), a.wire_id, a.quarantine_round, a.bound));
      } else if (!a.parked_at_end) {
        log.Add(total_rounds, "containment_lost",
                Fmt("model=%s wire_id=%u", a.model.c_str(), a.wire_id));
      }
    }
  }

  result.violations = std::move(log.recorded);
  result.violations_total = log.total;
  result.passed = result.violations_total == 0;

  std::string digest = ViolationDigest(result.violations);
  for (const RogueAudit& a : result.audits) {
    digest += Fmt(
        "audit model=%s wire_id=%u quarantined=%d round=%zu bound=%zu "
        "met=%d parked=%d\n",
        a.model.c_str(), a.wire_id, a.quarantined ? 1 : 0,
        a.quarantine_round, a.bound, a.bound_met ? 1 : 0,
        a.parked_at_end ? 1 : 0);
  }
  digest += Fmt(
      "adversarial victims=%a offered=%zu delivered=%zu extra=%zu "
      "invalid=%zu replay=%zu stale=%zu evidence=%zu collisions=%zu "
      "mquar=%zu bans=%zu forged=%zu/%zu/%zu violations=%zu\n",
      result.victim_delivery, result.victim_offered, result.victim_delivered,
      result.rogue_extra_frames, result.rx_invalid_id, result.replay_rejected,
      result.stale_rejected, result.police_evidence,
      result.collision_suspicions, result.misbehavior_quarantines,
      result.bans, result.forged_heard, result.forged_rejected,
      result.forged_accepted, result.violations_total);
  result.digest = std::move(digest);
  if (config.trace_capacity > 0) {
    result.trace = obs::SerializeTrace("adversarial", ring);
  }
  return result;
}

namespace {

constexpr auto kAdversarialResultFields = [](auto& io, auto& r) {
  const auto audit = [](auto& io, auto& a) {
    return io.Size(a.tag) && io.U8(a.wire_id) && io.Str(a.model) &&
           io.Bool(a.via_misbehavior) && io.Bool(a.quarantined) &&
           io.Bool(a.bound_met) && io.Bool(a.parked_at_end) &&
           io.Size(a.quarantine_round) && io.Size(a.bound);
  };
  return io.Bool(r.passed) && io.F64(r.victim_delivery) &&
         io.Size(r.victim_offered) && io.Size(r.victim_delivered) &&
         io.Size(r.rogue_extra_frames) && io.Size(r.rx_invalid_id) &&
         io.Size(r.replay_rejected) && io.Size(r.stale_rejected) &&
         io.Size(r.police_evidence) && io.Size(r.collision_suspicions) &&
         io.Size(r.misbehavior_quarantines) && io.Size(r.bans) &&
         io.Size(r.forged_heard) && io.Size(r.forged_rejected) &&
         io.Size(r.forged_accepted) && io.List(r.audits, 1024, audit) &&
         io.List(r.violations, AdversarialResult::kMaxRecordedViolations,
                 kViolationFields) &&
         io.Size(r.violations_total) && io.Str(r.digest) && io.Str(r.trace);
};

}  // namespace

std::string SerializeAdversarialResult(const AdversarialResult& result) {
  return EncodeFields(result, kAdversarialResultFields);
}

bool DeserializeAdversarialResult(const std::string& payload,
                                  AdversarialResult* result) {
  return DecodeFields(payload, result, kAdversarialResultFields);
}

}  // namespace freerider::sim
