#include "core/distributed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/best_response.h"
#include "core/pricing_engine.h"

namespace olev::core {

double AgentProfile::admission_cap_kw() const {
  // Eq. (3) from beacon-visible state: the line limit at the announced
  // velocity and an upper bound on Eq. (2) demand (requirement at most
  // soc_max -- the policy ceiling caps any legitimate trip requirement).
  const double line = wpt::p_line_kw(section, util::mps(velocity_mps));
  const double battery_bound =
      wpt::p_olev_kw(olev, soc, olev.battery.soc_max);
  return std::min(line, battery_bound);
}

namespace {

/// One OLEV endpoint: answers payment-function announcements with its best
/// response; optionally beacons physical state and overstates demand.
class OlevAgent {
 public:
  OlevAgent(std::uint32_t player, const Satisfaction& satisfaction,
            util::Kilowatts p_max,
            const SectionCost& cost, std::optional<AgentProfile> profile)
      : player_(player), satisfaction_(satisfaction.clone()), p_max_(p_max),
        cost_(cost), profile_(std::move(profile)) {}

  net::NodeId node() const { return player_ + 1; }  // grid owns node 0

  /// Announces physical state (run once at session start).
  void beacon(net::MessageBus& bus, double now) const {
    if (!profile_) return;
    net::BeaconMsg msg;
    msg.player = player_;
    msg.position_m = profile_->position_m;
    msg.velocity_mps = profile_->velocity_mps;
    msg.soc = profile_->soc;
    bus.send(node(), net::kGridNode, now, msg);
  }

  void handle(const net::Envelope& envelope, net::MessageBus& bus, double now) {
    const auto* announcement =
        std::get_if<net::PaymentFunctionMsg>(&envelope.payload);
    if (announcement == nullptr || announcement->player != player_) return;
    // Duplicate payment functions (retransmissions) are re-answered: the
    // response is deterministic, so this is idempotent at the grid.
    const util::Kilowatts claimed_cap =
        profile_ ? p_max_ * profile_->claim_factor : p_max_;
    const BestResponse response = best_response(
        *satisfaction_, cost_, announcement->others_load_kw, claimed_cap);
    net::PowerRequestMsg request;
    request.player = player_;
    request.round = announcement->round;
    request.total_kw = response.p_star;
    bus.send(node(), net::kGridNode, now, request);
  }

 private:
  std::uint32_t player_;
  std::unique_ptr<Satisfaction> satisfaction_;
  util::Kilowatts p_max_;
  SectionCost cost_;
  std::optional<AgentProfile> profile_;
};

/// The smart grid endpoint: paces rounds, prices each outstanding request
/// through the shared grid-side update (core/pricing_engine.h), announces
/// the next payment function and retransmits into loss.  When beacons are in
/// use, the engine's per-player caps are the beacon-derived admission caps.
class SmartGrid {
 public:
  SmartGrid(std::size_t players, const SectionCost& cost, std::size_t sections,
            const DistributedConfig& config,
            const std::vector<AgentProfile>* profiles)
      : cost_(cost), sections_(sections), config_(config),
        profiles_(profiles),
        caps_(players, std::numeric_limits<double>::infinity()),
        payments_(players, 0.0) {}

  const PowerSchedule& schedule() const { return engine_->schedule(); }
  bool converged() const { return engine_->converged(); }
  std::size_t rounds() const { return engine_->updates(); }
  std::size_t retransmissions() const { return retransmissions_; }
  const std::vector<double>& payments() const { return payments_; }

  /// Ends the beacon phase: builds the engine with the caps the beacons set
  /// and opens the first round.
  void start(net::MessageBus& bus, double now) {
    EngineConfig engine_config;
    engine_config.players = caps_.size();
    engine_config.sections = sections_;
    engine_config.epsilon = config_.epsilon;
    engine_config.caps_kw = caps_;
    engine_.emplace(cost_, std::move(engine_config));
    announce(bus, now);
  }

  void handle(const net::Envelope& envelope, net::MessageBus& bus, double now) {
    if (const auto* beacon = std::get_if<net::BeaconMsg>(&envelope.payload)) {
      if (profiles_ != nullptr && !engine_ && beacon->player < caps_.size()) {
        caps_[beacon->player] = (*profiles_)[beacon->player].admission_cap_kw();
      }
      return;
    }
    const auto* request = std::get_if<net::PowerRequestMsg>(&envelope.payload);
    if (request == nullptr || !engine_) return;
    // Only the outstanding round is actionable; stale or duplicate
    // responses (from retransmitted announcements) are ignored.
    if (request->round != engine_->updates() ||
        request->player != engine_->cursor()) {
      return;
    }

    const PricingEngine::Applied& applied =
        engine_->apply(request->player, request->total_kw);
    net::ScheduleMsg confirmation;
    confirmation.player = request->player;
    confirmation.round = request->round;
    confirmation.row_kw = applied.row;
    confirmation.payment = applied.payment;
    payments_[request->player] = applied.payment;
    bus.send(net::kGridNode, envelope.from, now, confirmation);
    if (!engine_->converged()) announce(bus, now);
  }

  /// Retransmits the outstanding announcement when the response is overdue.
  void tick(net::MessageBus& bus, double now) {
    if (converged()) return;
    if (now - last_announce_s_ >= config_.retransmit_timeout_s) {
      ++retransmissions_;
      announce(bus, now);
    }
  }

  double last_announce_s() const { return last_announce_s_; }

 private:
  void announce(net::MessageBus& bus, double now) {
    const std::size_t player = engine_->cursor();
    net::PaymentFunctionMsg announcement;
    announcement.player = static_cast<std::uint32_t>(player);
    announcement.round = engine_->updates();
    announcement.others_load_kw = engine_->others_load(player);
    bus.send(net::kGridNode, static_cast<net::NodeId>(player + 1), now,
             std::move(announcement));
    last_announce_s_ = now;
  }

  SectionCost cost_;
  std::size_t sections_;
  DistributedConfig config_;
  const std::vector<AgentProfile>* profiles_;
  std::vector<double> caps_;  ///< beacon-derived; +inf until a beacon lands
  std::vector<double> payments_;  ///< last confirmed payment per player
  std::optional<PricingEngine> engine_;  ///< built by start()
  double last_announce_s_ = 0.0;
  std::size_t retransmissions_ = 0;
};

DistributedResult run_session(std::vector<PlayerSpec> players,
                              const std::vector<AgentProfile>* profiles,
                              const SectionCost& cost, std::size_t sections,
                              const DistributedConfig& config) {
  net::MessageBus bus(config.link);
  SmartGrid grid(players.size(), cost, sections, config, profiles);
  std::vector<OlevAgent> agents;
  agents.reserve(players.size());
  for (std::size_t n = 0; n < players.size(); ++n) {
    std::optional<AgentProfile> profile;
    if (profiles != nullptr) profile = (*profiles)[n];
    agents.emplace_back(static_cast<std::uint32_t>(n), *players[n].satisfaction,
                        players[n].p_max, cost, std::move(profile));
  }

  double now = 0.0;
  // Beacon phase: everyone announces physical state; deliver before the
  // first round so admission caps exist.  Beacons ride the same lossy bus;
  // a player whose beacon was dropped keeps an infinite cap until the next
  // session (conservative toward availability; noted in the header).
  for (const OlevAgent& agent : agents) agent.beacon(bus, now);
  now += config.link.base_latency_s + config.link.jitter_s + 1e-6;
  for (const net::Envelope& envelope : bus.poll(net::kGridNode, now)) {
    grid.handle(envelope, bus, now);
  }

  grid.start(bus, now);

  while (!grid.converged() && grid.rounds() < config.max_rounds &&
         now < config.max_sim_time_s) {
    // Event-driven clock: jump to the next arrival or the retransmission
    // deadline, whichever is sooner.
    const double deadline =
        grid.last_announce_s() + config.retransmit_timeout_s;
    double next = std::min(bus.next_arrival_s(), deadline);
    if (!std::isfinite(next)) next = deadline;
    now = std::max(now, next) + 1e-9;

    for (const net::Envelope& envelope : bus.poll(net::kGridNode, now)) {
      grid.handle(envelope, bus, now);
    }
    for (OlevAgent& agent : agents) {
      for (const net::Envelope& envelope : bus.poll(agent.node(), now)) {
        agent.handle(envelope, bus, now);
      }
    }
    grid.tick(bus, now);
  }

  DistributedResult result;
  result.schedule = grid.schedule();
  result.converged = grid.converged();
  result.rounds = grid.rounds();
  result.retransmissions = grid.retransmissions();
  result.sim_time_s = now;
  result.bus = bus.stats();
  result.payments = grid.payments();
  return result;
}

}  // namespace

DistributedResult run_distributed_game(std::vector<PlayerSpec> players,
                                       const SectionCost& cost,
                                       std::size_t sections,
                                       const DistributedConfig& config) {
  return run_session(std::move(players), nullptr, cost, sections, config);
}

DistributedResult run_v2i_session(std::vector<PlayerSpec> players,
                                  const std::vector<AgentProfile>& profiles,
                                  const SectionCost& cost, std::size_t sections,
                                  const DistributedConfig& config) {
  if (profiles.size() != players.size()) {
    throw std::invalid_argument("run_v2i_session: players/profiles mismatch");
  }
  return run_session(std::move(players), &profiles, cost, sections, config);
}

}  // namespace olev::core
