// multitag_rounds and campaign_sweep: whole-system ops, timed from
// outside at the public entry points sim::FullStackSim::StepRound and
// sim::DistanceSweep.
#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "core/redundancy.h"
#include "phy80211/transmitter.h"
#include "phyble/frame.h"
#include "runtime/executor.h"
#include "sim/multitag.h"
#include "sim/stress.h"
#include "sim/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace freerider;
using core::RadioType;

// ---------------------------------------------------------------- multitag

/// Seed of the untimed warm-up op, fixed so set-up costs the same in
/// every run.
constexpr std::uint64_t kWarmupSeed = 0x7761726D7570ull;

constexpr std::size_t kTags = 20;
/// Rounds per campaign. A run steps whole campaigns, so every run times
/// the same mix of early (joining, quarantining the rogue) and settled
/// rounds.
constexpr std::size_t kCampaignRounds = 40;
/// Rounds per segment; throughput is a median over segments and the
/// tail pools four of them.
constexpr std::size_t kSegmentRounds = 10;
/// Each campaign may use at most this share of the timed phase, so a
/// campaign whose frame size runs away (up to 1.5 s a round) cannot take
/// a run over; its remaining rounds are not run. A normal campaign takes
/// a third of its slice.
constexpr double kCampaignTimeShare = 1.0 / 6.0;
/// The first campaign's first rounds always run: the digest and the
/// per-layer counts are taken after them.
constexpr std::size_t kDigestRounds = 20;

/// A 20-tag full-stack campaign: transport, supervisor and MAC
/// policing on, the stress campaign's burst fades and mobility, and
/// one babbling rogue (the last tag).
sim::FullStackConfig MultitagConfig(std::uint64_t campaign_seed) {
  const sim::StressConfig stress =
      sim::MakeStressBenchConfig(campaign_seed, true, kCampaignRounds);
  sim::FullStackConfig config;
  config.num_tags = kTags;
  config.rounds = kCampaignRounds;
  config.transport = stress.transport;
  config.transport.enabled = true;
  config.supervisor = stress.supervisor;
  config.supervisor.enabled = true;
  config.supervisor.policing_enabled = true;
  config.policing.enabled = true;
  config.dynamics.seed = stress.dynamics.seed;
  config.dynamics.gilbert = stress.dynamics.gilbert;
  config.dynamics.mobility = stress.dynamics.mobility;
  config.rogue.seed = campaign_seed ^ 0x726F677565ull;
  config.rogue.tags.resize(kTags);
  config.rogue.tags.back().model = impair::RogueModel::kBabbler;
  config.offered_per_round = 0;  // the loop offers every kOfferEvery rounds
  return config;
}

/// Offered load: one frame per tag every this many rounds, as in the
/// stress campaign.
std::size_t OfferEvery(std::uint64_t campaign_seed) {
  return sim::MakeStressBenchConfig(campaign_seed, true, kCampaignRounds)
      .offer_every;
}

void DigestStats(const sim::FullStackStats& s, Digest& d) {
  for (std::size_t v :
       {s.rounds, s.slots_total, s.deliveries, s.observed_collisions,
        s.observed_empties, s.faults_injected, s.desync_events,
        s.sequence_gaps, s.reannouncements, s.rounds_recovered,
        s.transport_offered, s.transport_delivered, s.transport_duplicates,
        s.transport_retransmissions, s.transport_expired,
        s.transport_holes_skipped, s.transport_acked,
        s.transport_escalations, s.transport_ext_rejected,
        s.transport_rejected_full, s.health_quarantines,
        s.health_recoveries, s.health_probes_sent, s.health_probe_failures,
        s.health_boost_commands, s.health_ooo_evicted, s.health_resyncs,
        s.faded_frames, s.blackout_tag_rounds, s.rogue_extra_frames,
        s.rx_invalid_id, s.forged_ext_heard, s.forged_ext_rejected,
        s.forged_ext_accepted, s.transport_replay_rejected,
        s.transport_stale_rejected, s.suspect_frames_dropped,
        s.police_evidence, s.police_multi_fire_rounds,
        s.police_collision_suspicions, s.misbehavior_quarantines,
        s.misbehavior_bans}) {
    d.U64(v);
  }
  d.Seq(s.per_tag_deliveries);
  d.F64(s.airtime_s);
  d.F64(s.goodput_bps);
  d.F64(s.jain_fairness);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The traced run takes every unit of work (a campaign, a sweep) twice
/// on identical inputs, traced and untraced, alternating which goes
/// first, so each pair measures what tracing costs. The untraced run
/// takes each unit once.
class PairTiming {
 public:
  explicit PairTiming(bool paired) : paired_(paired) {}

  /// Index of the unit of work the u-th run executes.
  std::size_t Unit(std::size_t u) const { return paired_ ? u / 2 : u; }
  /// The u-th run repeats the unit before it.
  bool Repeat(std::size_t u) const { return paired_ && u % 2 == 1; }
  /// The run after the u-th repeats its unit.
  bool RepeatPending(std::size_t u) const { return paired_ && u % 2 == 0; }
  bool Traced(std::size_t u) const {
    return paired_ && (u % 2 == 0) == (Unit(u) % 2 == 0);
  }
  /// The loop may stop after the u-th run: it has covered the first
  /// `min_units` units, no repeat is pending and the time is up.
  bool Done(std::size_t u, std::size_t min_units, std::int64_t start_ns,
            double seconds) const {
    return !RepeatPending(u) && Unit(u) + 1 >= min_units &&
           TimeUp(start_ns, seconds);
  }
  void Add(bool traced, double ms) { (traced ? traced_ms_ : untraced_ms_) += ms; }
  Metric Overhead() const {
    return {"bench.trace_overhead", Ratio(traced_ms_, untraced_ms_) - 1.0,
            "ratio"};
  }

 private:
  bool paired_;
  double traced_ms_ = 0.0;
  double untraced_ms_ = 0.0;
};

// ------------------------------------------------------------------ sweep

struct SweepSpec {
  RadioType radio;
  std::vector<double> distances;
  std::size_t packets;
};

/// The Fig. 10 (WiFi LOS) and Fig. 13 (Bluetooth LOS) grids.
const std::vector<SweepSpec>& SweepSpecs() {
  static const std::vector<SweepSpec> kSpecs = {
      {RadioType::kWifi,
       {1, 2, 5, 8, 12, 15, 18, 22, 26, 30, 34, 38, 42, 46},
       24},
      {RadioType::kBluetooth,
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
       24},
  };
  return kSpecs;
}

/// Sweeps per segment: two WiFi + Bluetooth pairs, 56 points, enough
/// for a per-segment tail latency.
constexpr std::size_t kSweepsPerSegment = 4;

/// Probe packets per ladder rung in sim::SimulateTagLinkAdaptive.
constexpr std::size_t kProbePackets = 6;

/// Nominal on-air time of one excitation packet of the radio's default
/// profile, inter-frame gap included.
double PacketAirtimeS(RadioType radio) {
  const sim::RadioProfile profile = sim::DefaultProfile(radio);
  const Bytes payload(profile.excitation_payload_bytes, 0x5A);
  double frame_s = 0.0;
  if (radio == RadioType::kWifi) {
    frame_s = phy80211::FrameDurationS(phy80211::BuildFrame(payload, {}));
  } else {
    frame_s = phyble::FrameDurationS(phyble::BuildFrame(payload));
  }
  return frame_s + profile.inter_frame_gap_s;
}

void DigestPoints(const std::vector<sim::DistancePoint>& points, Digest& d) {
  for (const sim::DistancePoint& p : points) {
    d.F64(p.tag_to_rx_m);
    d.U64(p.stats.packets_attempted);
    d.U64(p.stats.packets_decoded);
    d.U64(p.stats.redundancy_used);
    d.F64(p.stats.packet_reception_rate);
    d.F64(p.stats.tag_ber);
    d.F64(p.stats.tag_throughput_bps);
    d.F64(p.stats.rssi_dbm);
  }
}

/// At the digest point of campaign 0: records the digest (or, on the
/// traced run's untraced repeat, checks it) and the per-layer counts.
void CheckFirstCampaign(const sim::FullStackSim& sim, std::size_t u,
                        RunResult& run, Digest& digest) {
  const sim::FullStackStats stats = sim.Stats();
  if (u == 1) {
    Digest repeat;
    DigestStats(stats, repeat);
    if (repeat.value() != digest.value()) {
      run.problems.push_back("repeat of campaign 0 diverged");
    }
    return;
  }
  DigestStats(stats, digest);
  run.digest_ops = kDigestRounds;
  if (stats.misbehavior_quarantines == 0) {
    run.problems.push_back("babbling rogue was never quarantined");
  }
  const double slots = static_cast<double>(stats.slots_total);
  const double delivered = static_cast<double>(stats.transport_delivered);
  run.layer_metrics = {
      {"mac.slots_per_round", Ratio(slots, static_cast<double>(stats.rounds)),
       "slots"},
      {"mac.delivery_ratio",
       Ratio(delivered, static_cast<double>(stats.transport_offered)),
       "ratio"},
      {"mac.collision_ratio",
       Ratio(static_cast<double>(stats.observed_collisions), slots), "ratio"},
      {"transport.retx_per_delivery",
       Ratio(static_cast<double>(stats.transport_retransmissions), delivered),
       "ratio"},
      {"transport.expired", static_cast<double>(stats.transport_expired),
       "count"},
      {"health.quarantines", static_cast<double>(stats.health_quarantines),
       "count"},
      {"health.probes_sent", static_cast<double>(stats.health_probes_sent),
       "count"},
      {"policing.evidence", static_cast<double>(stats.police_evidence),
       "count"},
  };
}

}  // namespace

RunResult RunMultitagRounds(const RunOptions& options, Tracer& tracer) {
  RunResult run;
  Rng gen(options.seed ^ 0x6D756C7469746167ull);
  std::vector<std::uint64_t> campaign_seeds(64);
  for (auto& s : campaign_seeds) s = gen.NextU64();

  // Untimed warm-up op: one round of a throwaway campaign, the same in
  // every run.
  {
    Rng rng(kWarmupSeed);
    sim::FullStackSim warm(MultitagConfig(kWarmupSeed), rng);
    warm.SetOfferedPerRound(1);
    warm.StepRound();
  }
  SegmentClock clock;
  if (options.setup_only) {
    clock.Start(run);
    return run;
  }

  Digest digest;
  PairTiming pairing(tracer.enabled());
  std::size_t max_slots = 0;
  std::size_t pair_rounds = 0;
  run.tail_window = 4;
  clock.Start(run);
  for (std::size_t u = 0;; ++u) {
    const std::size_t c = pairing.Unit(u);
    const bool traced = pairing.Traced(u);
    const std::uint64_t seed = campaign_seeds[c % campaign_seeds.size()];
    const sim::FullStackConfig config = MultitagConfig(seed);
    const std::size_t offer_every = OfferEvery(seed);
    Rng rng(seed);
    sim::FullStackSim sim(config, rng);
    // A repeat runs exactly the rounds of the run it repeats.
    const std::int64_t campaign_start_ns = NowNs();
    auto more_rounds = [&](std::size_t r) {
      if (pairing.Repeat(u)) return r < pair_rounds;
      return r < kCampaignRounds &&
             ((c == 0 && r < kDigestRounds) ||
              !TimeUp(campaign_start_ns, options.seconds * kCampaignTimeShare));
    };
    bool aborted = false;
    double campaign_airtime_s = 0.0;
    std::size_t r = 0;
    for (; !aborted && more_rounds(r); ++r) {
      sim.SetOfferedPerRound(r % offer_every == 0 ? 1 : 0);
      tracer.BeginOp(traced);
      try {
        const sim::RoundReport report =
            tracer.Layer("sim.step_round", [&] { return sim.StepRound(); });
        max_slots = std::max(max_slots, report.slots);
      } catch (const std::exception& e) {
        aborted = true;
        if (run.problems.size() < 8) {
          run.problems.push_back(std::string("round threw: ") + e.what());
        }
      }
      pairing.Add(traced, tracer.EndOp());
      ++run.attempted;
      run.failed += aborted ? 1 : 0;
      const double airtime_s = sim.Stats().airtime_s;
      clock.Add(1, airtime_s - campaign_airtime_s);
      campaign_airtime_s = airtime_s;
      if ((r + 1) % kSegmentRounds == 0) clock.Close(run);
      if (c == 0 && r + 1 == kDigestRounds) {
        CheckFirstCampaign(sim, u, run, digest);
      }
    }
    pair_rounds = r;
    clock.Close(run);
    if (pairing.Done(u, 1, run.first_op_ns, options.seconds)) break;
  }
  run.op_ms = tracer.op_ms();
  run.digest = digest.value();
  // Largest frame over every round of the run: a babbler that captures
  // the slot scheduler drives it past 100 slots.
  run.layer_metrics.push_back(
      {"mac.max_slots_per_round", static_cast<double>(max_slots), "slots"});
  if (tracer.enabled()) run.layer_metrics.push_back(pairing.Overhead());
  return run;
}

RunResult RunCampaignSweep(const RunOptions& options, Tracer& tracer) {
  RunResult run;
  const std::vector<SweepSpec>& specs = SweepSpecs();
  Rng gen(options.seed ^ 0x7377656570ull);
  std::vector<std::uint64_t> sweep_seeds(256);
  for (auto& s : sweep_seeds) s = gen.NextU64();
  std::vector<double> packet_airtime_s;
  std::vector<std::size_t> packets_per_point;
  for (const SweepSpec& spec : specs) {
    packet_airtime_s.push_back(PacketAirtimeS(spec.radio));
    packets_per_point.push_back(
        kProbePackets * core::RedundancyLadder(spec.radio).size() +
        spec.packets);
  }

  // Executor start plus one untimed warm-up point per radio.
  runtime::DefaultExecutor();
  for (const SweepSpec& spec : specs) {
    sim::DistanceSweep(spec.radio, channel::LosDeployment(1.0), {1.0}, 2,
                       kWarmupSeed);
  }
  SegmentClock clock;
  if (options.setup_only) {
    clock.Start(run);
    return run;
  }

  Digest digest;
  std::uint64_t unit_digest = 0;
  PairTiming pairing(tracer.enabled());
  std::vector<runtime::SweepReport> reports;
  clock.Start(run);
  for (std::size_t u = 0;; ++u) {
    const std::size_t k = pairing.Unit(u);
    const bool traced = pairing.Traced(u);
    const SweepSpec& spec = specs[k % specs.size()];
    runtime::SweepReport report;
    std::vector<sim::DistancePoint> points;
    tracer.BeginOp(traced);
    try {
      points = tracer.Layer("sim.distance_sweep", [&] {
        return sim::DistanceSweep(spec.radio, channel::LosDeployment(1.0),
                                  spec.distances, spec.packets,
                                  sweep_seeds[k % sweep_seeds.size()],
                                  &report);
      });
    } catch (const std::exception& e) {
      if (run.problems.size() < 8) {
        run.problems.push_back(std::string("sweep threw: ") + e.what());
      }
    }
    pairing.Add(traced, tracer.EndOp());
    run.attempted += spec.distances.size();
    // Per-op latency is the point's own task time.
    std::size_t executed = 0;
    for (const runtime::TaskStat& task : report.tasks) {
      if (!task.executed) continue;
      run.op_ms.push_back(task.wall_s * 1e3);
      ++executed;
    }
    const bool complete = points.size() == spec.distances.size() &&
                          !report.cancelled &&
                          report.run.tasks_executed == spec.distances.size();
    if (!complete) {
      run.failed += spec.distances.size();
      if (run.problems.size() < 8) {
        run.problems.push_back("sweep " + std::to_string(k) +
                               " did not complete every point");
      }
    }
    Digest this_unit;
    DigestPoints(points, this_unit);
    if (pairing.Repeat(u) && this_unit.value() != unit_digest) {
      run.problems.push_back("repeat of sweep " + std::to_string(k) +
                             " diverged");
    }
    unit_digest = this_unit.value();
    if (k < specs.size() && !pairing.Repeat(u)) {
      DigestPoints(points, digest);
      run.digest_ops += spec.distances.size();
    }
    clock.Add(executed,
              static_cast<double>(points.size() *
                                  packets_per_point[k % specs.size()]) *
                  packet_airtime_s[k % specs.size()]);
    reports.push_back(std::move(report));
    if ((k + 1) % kSweepsPerSegment != 0) continue;
    if (!pairing.RepeatPending(u)) clock.Close(run);
    if (pairing.Done(u, specs.size(), run.first_op_ns, options.seconds)) break;
  }
  run.digest = digest.value();

  std::vector<double> wait_ms;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  double imbalance_sum = 0.0;
  std::uint64_t steals = 0;
  for (const runtime::SweepReport& report : reports) {
    const std::size_t threads = std::max<std::size_t>(1, report.run.threads);
    std::vector<double> worker_busy(threads, 0.0);
    for (const runtime::TaskStat& task : report.tasks) {
      if (!task.executed) continue;
      busy_s += task.wall_s;
      if (task.worker >= 0 && static_cast<std::size_t>(task.worker) < threads) {
        worker_busy[static_cast<std::size_t>(task.worker)] += task.wall_s;
      }
    }
    for (double b : worker_busy) {
      wait_ms.push_back(std::max(0.0, report.run.wall_s - b) * 1e3);
    }
    capacity_s += static_cast<double>(threads) * report.run.wall_s;
    const double mean_busy =
        std::accumulate(worker_busy.begin(), worker_busy.end(), 0.0) /
        static_cast<double>(threads);
    imbalance_sum +=
        Ratio(*std::max_element(worker_busy.begin(), worker_busy.end()),
              mean_busy);
    steals += report.run.steals;
  }
  run.layer_metrics = {
      {"runtime.tasks", static_cast<double>(run.op_ms.size()), "count"},
      {"runtime.steals", static_cast<double>(steals), "count"},
      {"runtime.busy_share", Ratio(busy_s, capacity_s), "ratio"},
      {"runtime.wait_ms_p50", Median(wait_ms), "ms"},
      {"runtime.task_ms_tail",
       Percentile(run.op_ms, TailPercentile(run.op_ms.size())), "ms"},
      {"runtime.worker_imbalance",
       Ratio(imbalance_sum, static_cast<double>(reports.size())), "ratio"},
  };
  if (tracer.enabled()) run.layer_metrics.push_back(pairing.Overhead());
  return run;
}

}  // namespace perfbench
