// Property tests for the fault-tolerant supervisor (control/supervisor):
// input sanitation, degradation chain, hysteretic recovery, the terminal
// output guarantee, and byte-identity with the wrapped controller on clean
// runs — including the full supervised-MPC chain in closed loop under a
// 5 % sensor-dropout + solver-timeout schedule (the ISSUE acceptance
// scenario).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "control/onoff_controller.hpp"
#include "control/supervisor.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "drivecycle/standard_cycles.hpp"
#include "hvac/hvac_plant.hpp"
#include "sim/fault_injection.hpp"
#include "util/serialize.hpp"

namespace evc::ctl {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ControlContext make_context(double tz = 24.0, double to = 35.0) {
  ControlContext c;
  c.cabin_temp_c = tz;
  c.outside_temp_c = to;
  c.soc_percent = 80.0;
  c.dt_s = 1.0;
  return c;
}

/// Scripted tier: emits a fixed output and health, records what it saw.
class ProbeController : public ClimateController {
 public:
  explicit ProbeController(hvac::HvacInputs output) : output_(output) {}

  std::string name() const override { return "probe"; }
  hvac::HvacInputs decide(const ControlContext& context) override {
    last_context = context;
    ++calls;
    return output_;
  }
  DecisionHealth last_health() const override {
    return {degraded, degraded ? "scripted degradation" : ""};
  }

  hvac::HvacInputs output_;
  ControlContext last_context;
  int calls = 0;
  bool degraded = false;
};

hvac::HvacInputs good_output() {
  hvac::HvacInputs in;
  in.supply_temp_c = 20.0;
  in.coil_temp_c = 10.0;
  in.recirculation = 0.5;
  in.air_flow_kg_s = 0.05;
  return in;
}

bool output_in_box(const hvac::HvacInputs& in, const hvac::HvacParams& p) {
  constexpr double kEps = 1e-6;
  return std::isfinite(in.supply_temp_c) && std::isfinite(in.coil_temp_c) &&
         std::isfinite(in.recirculation) && std::isfinite(in.air_flow_kg_s) &&
         in.air_flow_kg_s >= p.min_air_flow_kg_s - kEps &&
         in.air_flow_kg_s <= p.max_air_flow_kg_s + kEps &&
         in.recirculation >= -kEps &&
         in.recirculation <= p.max_recirculation + kEps &&
         in.supply_temp_c <= p.max_supply_temp_c + kEps;
}

SupervisedController make_single_tier(ProbeController*& probe,
                                      SupervisorOptions options = {}) {
  auto tier = std::make_unique<ProbeController>(good_output());
  probe = tier.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier));
  return SupervisedController(std::move(tiers), hvac::default_hvac_params(),
                              options);
}

// --- Sanitation ---

TEST(Supervisor, CleanInputsPassThroughUntouched) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  ControlContext c = make_context(23.5, 36.25);
  c.soc_percent = 77.125;
  c.motor_power_forecast_w = {1000.0, 2000.0};
  c.outside_temp_forecast_c = {36.25, 36.5};
  sup.decide(c);
  EXPECT_EQ(probe->last_context.cabin_temp_c, 23.5);
  EXPECT_EQ(probe->last_context.outside_temp_c, 36.25);
  EXPECT_EQ(probe->last_context.soc_percent, 77.125);
  EXPECT_EQ(probe->last_context.motor_power_forecast_w,
            c.motor_power_forecast_w);
  EXPECT_EQ(sup.stats().sanitized_steps, 0u);
  EXPECT_EQ(sup.stats().sanitized_values, 0u);
}

TEST(Supervisor, NaNSensorRepairedWithLastGoodValue) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  sup.decide(make_context(22.0, 30.0));  // establish last-good

  ControlContext bad = make_context(kNaN, 30.0);
  sup.decide(bad);
  EXPECT_DOUBLE_EQ(probe->last_context.cabin_temp_c, 22.0);
  EXPECT_EQ(sup.stats().sanitized_steps, 1u);
}

TEST(Supervisor, NaNBeforeAnyGoodSampleFallsBackToTarget) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  ControlContext bad = make_context(kNaN, kInf);
  bad.soc_percent = kNaN;
  sup.decide(bad);
  const auto params = hvac::default_hvac_params();
  EXPECT_DOUBLE_EQ(probe->last_context.cabin_temp_c, params.target_temp_c);
  EXPECT_DOUBLE_EQ(probe->last_context.outside_temp_c, params.target_temp_c);
  EXPECT_DOUBLE_EQ(probe->last_context.soc_percent, 50.0);
}

TEST(Supervisor, WildButFiniteReadingsClamped) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  ControlContext bad = make_context(500.0, -500.0);
  bad.soc_percent = 170.0;
  sup.decide(bad);
  EXPECT_DOUBLE_EQ(probe->last_context.cabin_temp_c, 90.0);
  EXPECT_DOUBLE_EQ(probe->last_context.outside_temp_c, -60.0);
  EXPECT_DOUBLE_EQ(probe->last_context.soc_percent, 100.0);
}

TEST(Supervisor, ForecastEntriesRepairedIndividually) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  ControlContext c = make_context(24.0, 35.0);
  c.motor_power_forecast_w = {1000.0, kNaN, 3000.0};
  c.outside_temp_forecast_c = {35.0, kInf, 36.0};
  sup.decide(c);
  EXPECT_DOUBLE_EQ(probe->last_context.motor_power_forecast_w[1], 0.0);
  EXPECT_DOUBLE_EQ(probe->last_context.outside_temp_forecast_c[1], 35.0);
  EXPECT_DOUBLE_EQ(probe->last_context.motor_power_forecast_w[0], 1000.0);
  EXPECT_DOUBLE_EQ(probe->last_context.motor_power_forecast_w[2], 3000.0);
}

TEST(Supervisor, NonPositiveDtRepaired) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  ControlContext c = make_context();
  c.dt_s = -1.0;
  sup.decide(c);
  EXPECT_GT(probe->last_context.dt_s, 0.0);
}

// --- Output guarantee ---

TEST(Supervisor, NaNActuationNeverLeavesTheSupervisor) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  hvac::HvacInputs bad = good_output();
  bad.supply_temp_c = kNaN;
  probe->output_ = bad;
  const auto out = sup.decide(make_context());
  EXPECT_TRUE(output_in_box(out, hvac::default_hvac_params()));
  EXPECT_GE(sup.stats().invalid_outputs, 1u);
}

TEST(Supervisor, OutOfBoxActuationDemotesToSafeHold) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  hvac::HvacInputs bad = good_output();
  bad.air_flow_kg_s = 9.0;  // far above max
  probe->output_ = bad;
  const auto out = sup.decide(make_context());
  EXPECT_TRUE(output_in_box(out, hvac::default_hvac_params()));
  EXPECT_EQ(sup.last_applied_tier(), sup.num_tiers() - 1);  // safe-hold
  EXPECT_EQ(sup.stats().tier_steps.back(), 1u);
}

TEST(Supervisor, SafeHoldReplaysLastHealthyActuation) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  const auto healthy = sup.decide(make_context());  // tier output accepted
  probe->output_.air_flow_kg_s = kInf;              // then the tier breaks
  const auto held = sup.decide(make_context());
  EXPECT_DOUBLE_EQ(held.supply_temp_c, healthy.supply_temp_c);
  EXPECT_DOUBLE_EQ(held.air_flow_kg_s, healthy.air_flow_kg_s);
}

// --- Degradation chain and hysteresis ---

TEST(Supervisor, DegradedHealthFallsThroughToNextTier) {
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  ProbeController* t1 = tier1.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params());

  t0->degraded = true;
  sup.decide(make_context());
  EXPECT_EQ(t1->calls, 1);
  EXPECT_EQ(sup.last_applied_tier(), 1u);
  EXPECT_EQ(sup.current_tier(), 1u);
  EXPECT_EQ(sup.stats().demotions, 1u);
}

TEST(Supervisor, RecoveryRequiresHysteresis) {
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  SupervisorOptions options;
  options.promote_after = 3;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);

  t0->degraded = true;
  sup.decide(make_context());  // demote to tier 1
  ASSERT_EQ(sup.current_tier(), 1u);
  t0->degraded = false;  // fault clears immediately

  // Tier 0 is not probed again until promote_after healthy steps passed.
  const int t0_calls_after_demotion = t0->calls;
  sup.decide(make_context());
  sup.decide(make_context());
  EXPECT_EQ(t0->calls, t0_calls_after_demotion);
  EXPECT_EQ(sup.current_tier(), 1u);
  sup.decide(make_context());  // 3rd healthy step → promotion
  EXPECT_EQ(sup.current_tier(), 0u);
  sup.decide(make_context());
  EXPECT_EQ(sup.last_applied_tier(), 0u);
  EXPECT_EQ(sup.stats().promotions, 1u);
}

TEST(Supervisor, RecoversToPreferredTierWithinBoundedSteps) {
  // ISSUE acceptance: after faults clear the chain climbs back to the
  // preferred tier within N steps — here N = promote_after · (tiers − 1).
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  auto tier2 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  ProbeController* t1 = tier1.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  tiers.push_back(std::move(tier2));
  SupervisorOptions options;
  options.promote_after = 4;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);

  t0->degraded = true;
  t1->degraded = true;
  sup.decide(make_context());  // demotes straight to the last healthy tier
  ASSERT_EQ(sup.current_tier(), 2u);
  t0->degraded = false;
  t1->degraded = false;

  const std::size_t bound = options.promote_after * 2 + 2;
  std::size_t steps = 0;
  while (sup.last_applied_tier() != 0 && steps < 10 * bound) {
    sup.decide(make_context());
    ++steps;
  }
  EXPECT_EQ(sup.last_applied_tier(), 0u);
  EXPECT_LE(steps, bound);
}

TEST(Supervisor, DeadlineMissDemotes) {
  class SlowController : public ClimateController {
   public:
    std::string name() const override { return "slow"; }
    hvac::HvacInputs decide(const ControlContext&) override {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
      hvac::HvacInputs in;
      in.supply_temp_c = 20.0;
      in.coil_temp_c = 10.0;
      in.recirculation = 0.5;
      in.air_flow_kg_s = 0.05;
      return in;
    }
  };
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::make_unique<SlowController>());
  tiers.push_back(std::make_unique<ProbeController>(good_output()));
  SupervisorOptions options;
  options.step_deadline_s = 1e-3;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);
  sup.decide(make_context());
  EXPECT_GE(sup.stats().deadline_misses, 1u);
  EXPECT_EQ(sup.last_applied_tier(), 1u);
}

TEST(Supervisor, ResetRestoresPreferredTier) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  probe->degraded = true;
  sup.decide(make_context());
  EXPECT_EQ(sup.current_tier(), 1u);
  sup.reset();
  EXPECT_EQ(sup.current_tier(), 0u);
  EXPECT_EQ(sup.stats().steps, 0u);
  EXPECT_EQ(sup.stats().tier_steps.size(), sup.num_tiers());
}

// --- Promotion-hysteresis boundaries ---

TEST(Supervisor, PromotionBoundaryIsExactlyPromoteAfter) {
  // The off-by-one that hysteresis bugs live on: promote_after − 1 healthy
  // steps must NOT probe the tier above; the promote_after-th must.
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  SupervisorOptions options;
  options.promote_after = 5;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);

  t0->degraded = true;
  sup.decide(make_context());
  ASSERT_EQ(sup.current_tier(), 1u);
  t0->degraded = false;

  const int calls_at_demotion = t0->calls;
  for (std::size_t i = 0; i + 1 < options.promote_after; ++i) {
    sup.decide(make_context());
    EXPECT_EQ(sup.current_tier(), 1u) << "promoted too early at step " << i;
    EXPECT_EQ(t0->calls, calls_at_demotion) << "probed too early";
  }
  sup.decide(make_context());  // promote_after-th healthy step
  EXPECT_EQ(sup.current_tier(), 0u);
  EXPECT_EQ(sup.stats().promotions, 1u);
  sup.decide(make_context());  // the probe itself
  EXPECT_GT(t0->calls, calls_at_demotion);
  EXPECT_EQ(sup.last_applied_tier(), 0u);
}

TEST(Supervisor, DemotionDuringProbeStepResetsTheStreak) {
  // A tier that is still broken when its recovery probe arrives must be
  // re-demoted immediately, and the healthy streak must restart from
  // zero — otherwise a permanently broken tier is probed every step.
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  ProbeController* t1 = tier1.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  SupervisorOptions options;
  options.promote_after = 3;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);

  t0->degraded = true;  // permanently broken preferred tier
  sup.decide(make_context());
  ASSERT_EQ(sup.current_tier(), 1u);
  ASSERT_EQ(sup.stats().demotions, 1u);

  // Ride out one full promotion cycle: streak builds at tier 1, the probe
  // fires, fails, and demotes again.
  const int t0_calls_before = t0->calls;
  for (std::size_t i = 0; i < options.promote_after; ++i)
    sup.decide(make_context());
  EXPECT_EQ(sup.stats().promotions, 1u);
  sup.decide(make_context());  // probe step: t0 fails during the probe
  EXPECT_EQ(t0->calls, t0_calls_before + 1);
  EXPECT_EQ(sup.last_applied_tier(), 1u);
  EXPECT_EQ(sup.current_tier(), 1u);
  EXPECT_EQ(sup.stats().demotions, 2u);

  // The streak restarted: the next probe is again promote_after away,
  // not immediate.
  sup.decide(make_context());
  sup.decide(make_context());
  EXPECT_EQ(t0->calls, t0_calls_before + 1);
  EXPECT_EQ(t1->calls > 0, true);
}

// --- External degradation floor (load shedding) ---

TEST(Supervisor, TierFloorDemotesImmediatelyAndBlocksPromotion) {
  auto tier0 = std::make_unique<ProbeController>(good_output());
  auto tier1 = std::make_unique<ProbeController>(good_output());
  ProbeController* t0 = tier0.get();
  std::vector<std::unique_ptr<ClimateController>> tiers;
  tiers.push_back(std::move(tier0));
  tiers.push_back(std::move(tier1));
  SupervisorOptions options;
  options.promote_after = 2;
  SupervisedController sup(std::move(tiers), hvac::default_hvac_params(),
                           options);

  sup.decide(make_context());
  ASSERT_EQ(sup.current_tier(), 0u);

  sup.set_tier_floor(1);
  EXPECT_EQ(sup.current_tier(), 1u);
  EXPECT_EQ(sup.stats().forced_demotions, 1u);
  EXPECT_EQ(sup.stats().demotions, 0u);  // load shedding is not a fault

  // No healthy streak climbs above the floor.
  const int t0_calls = t0->calls;
  for (int i = 0; i < 10; ++i) sup.decide(make_context());
  EXPECT_EQ(sup.current_tier(), 1u);
  EXPECT_EQ(t0->calls, t0_calls);
  EXPECT_EQ(sup.stats().promotions, 0u);

  // Lowering the floor re-enables the normal hysteretic promotion.
  sup.set_tier_floor(0);
  EXPECT_EQ(sup.current_tier(), 1u);  // lowering never promotes instantly
  for (std::size_t i = 0; i < options.promote_after; ++i)
    sup.decide(make_context());
  EXPECT_EQ(sup.current_tier(), 0u);
  EXPECT_EQ(sup.stats().promotions, 1u);
}

TEST(Supervisor, TierFloorClampsToSafeHoldAndIsIdempotent) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);
  sup.decide(make_context());  // establish a safe output to hold
  sup.set_tier_floor(99);
  EXPECT_EQ(sup.tier_floor(), sup.num_tiers() - 1);
  EXPECT_EQ(sup.stats().forced_demotions, 1u);
  sup.set_tier_floor(99);  // already at the floor: no second forced demotion
  EXPECT_EQ(sup.stats().forced_demotions, 1u);

  const int calls = probe->calls;
  sup.decide(make_context());
  EXPECT_EQ(sup.last_applied_tier(), sup.num_tiers() - 1);
  EXPECT_EQ(probe->calls, calls);  // the wrapped tier is never consulted
}

TEST(Supervisor, TierFloorRoundTripsThroughCheckpointAndClearsOnReset) {
  ProbeController* a_probe = nullptr;
  ProbeController* b_probe = nullptr;
  auto a = make_single_tier(a_probe);
  auto b = make_single_tier(b_probe);
  a.decide(make_context());
  a.set_tier_floor(1);

  BinaryWriter writer;
  a.save_state(writer);
  BinaryReader reader(writer.bytes());
  b.load_state(reader);
  EXPECT_EQ(b.tier_floor(), 1u);
  EXPECT_EQ(b.current_tier(), 1u);
  EXPECT_EQ(b.stats().forced_demotions, 1u);

  b.reset();
  EXPECT_EQ(b.tier_floor(), 0u);
  EXPECT_EQ(b.current_tier(), 0u);
}

// --- Permanent-dropout escalation (max_hold_steps) ---

TEST(Supervisor, PermanentDropoutEscalatesToSafeHold) {
  ProbeController* probe = nullptr;
  SupervisorOptions options;
  options.max_hold_steps = 3;
  auto sup = make_single_tier(probe, options);

  sup.decide(make_context());  // establish last-good + safe output
  const std::size_t safe_tier = sup.num_tiers() - 1;

  // A permanent cabin-sensor dropout: the hold ages past max_hold_steps
  // and the supervisor stops trusting last-good-value repair entirely.
  ControlContext dead = make_context(kNaN, 35.0);
  for (int i = 0; i < 3; ++i) sup.decide(dead);
  EXPECT_EQ(sup.stats().hold_expirations, 0u);  // still within the budget
  const int calls_before_expiry = probe->calls;

  sup.decide(dead);  // 4th consecutive NaN: hold age exceeds the budget
  EXPECT_EQ(sup.stats().hold_expirations, 1u);
  EXPECT_EQ(sup.last_applied_tier(), safe_tier);
  EXPECT_EQ(probe->calls, calls_before_expiry);  // tier not even consulted

  sup.decide(dead);
  EXPECT_EQ(sup.stats().hold_expirations, 2u);
  EXPECT_EQ(probe->calls, calls_before_expiry);
}

TEST(Supervisor, HoldAgeResetsWhenTheSensorReturns) {
  ProbeController* probe = nullptr;
  SupervisorOptions options;
  options.max_hold_steps = 2;
  options.promote_after = 1;
  auto sup = make_single_tier(probe, options);

  sup.decide(make_context());
  ControlContext dead = make_context(kNaN, 35.0);
  for (int i = 0; i < 4; ++i) sup.decide(dead);
  ASSERT_GT(sup.stats().hold_expirations, 0u);

  // One finite reading resets the age; the tier chain resumes after the
  // promotion hysteresis walks back up.
  for (int i = 0; i < 4; ++i) sup.decide(make_context());
  EXPECT_EQ(sup.last_applied_tier(), 0u);
  const std::size_t expirations = sup.stats().hold_expirations;

  // Intermittent (non-consecutive) dropouts never accumulate to expiry.
  for (int i = 0; i < 10; ++i) {
    sup.decide(dead);
    sup.decide(make_context());
  }
  EXPECT_EQ(sup.stats().hold_expirations, expirations);
}

TEST(Supervisor, MaxHoldStepsZeroDisablesEscalation) {
  ProbeController* probe = nullptr;
  auto sup = make_single_tier(probe);  // default: max_hold_steps = 0
  sup.decide(make_context());
  ControlContext dead = make_context(kNaN, 35.0);
  for (int i = 0; i < 50; ++i) sup.decide(dead);
  EXPECT_EQ(sup.stats().hold_expirations, 0u);
  EXPECT_EQ(sup.last_applied_tier(), 0u);  // tier keeps actuating on holds
}

// --- FDIR integration ---

TEST(SupervisorFdi, CleanReadingsPassThroughBitExactlyWithFdiEnabled) {
  ProbeController* probe = nullptr;
  SupervisorOptions options;
  options.fdi.enabled = true;
  auto sup = make_single_tier(probe, options);
  ASSERT_NE(sup.fdi(), nullptr);

  for (int i = 0; i < 30; ++i) {
    ControlContext c = make_context(23.5 + 0.001 * i, 36.25);
    c.soc_percent = 77.125 - 0.001 * i;
    sup.decide(c);
    EXPECT_EQ(probe->last_context.cabin_temp_c, c.cabin_temp_c);
    EXPECT_EQ(probe->last_context.outside_temp_c, c.outside_temp_c);
    EXPECT_EQ(probe->last_context.soc_percent, c.soc_percent);
  }
  EXPECT_EQ(sup.stats().fdi_substituted_steps, 0u);
  EXPECT_EQ(sup.fdi()->stats().substituted_steps, 0u);
}

TEST(SupervisorFdi, StuckCabinSensorIsSubstitutedWithVirtualEstimate) {
  ProbeController* probe = nullptr;
  SupervisorOptions options;
  options.fdi.enabled = true;
  auto sup = make_single_tier(probe, options);

  // Trust-building phase with a plausible cabin temperature.
  for (int i = 0; i < 20; ++i) sup.decide(make_context(24.0, 35.0));

  // The cabin sensor sticks at 55 °C (finite, inside the sanitation box,
  // so only model-based FDI can catch it). Default gates isolate after
  // suspect_after + isolate_after = 5 consecutive exceedances.
  for (int i = 0; i < 5; ++i) sup.decide(make_context(55.0, 35.0));
  ASSERT_EQ(sup.fdi()->cabin_health(), fdi::SensorHealth::kIsolated);
  EXPECT_GT(sup.stats().fdi_substituted_steps, 0u);

  // The controller now sees the live virtual estimate, not the stuck 55.
  sup.decide(make_context(55.0, 35.0));
  EXPECT_LT(probe->last_context.cabin_temp_c, 30.0);
  EXPECT_GT(probe->last_context.cabin_temp_c, 15.0);
}

// --- PID fallback tier ---

TEST(PidFallback, HeatsColdCabinCoolsHotCabin) {
  const auto params = hvac::default_hvac_params();
  PidClimateController pid(params);
  const auto heat = pid.decide(make_context(15.0, 0.0));
  EXPECT_GT(heat.supply_temp_c, heat.coil_temp_c - 1e-12);
  pid.reset();
  const auto cool = pid.decide(make_context(35.0, 35.0));
  EXPECT_LT(cool.coil_temp_c,
            0.5 * (35.0 + 35.0));  // dives below the mixed temp
  EXPECT_GE(cool.coil_temp_c, params.min_coil_temp_c - 1e-12);
}

TEST(PidFallback, OutputAlwaysInsideBox) {
  const auto params = hvac::default_hvac_params();
  PidClimateController pid(params);
  for (double tz = -40.0; tz <= 80.0; tz += 5.0) {
    const auto out = pid.decide(make_context(tz, 35.0));
    EXPECT_TRUE(output_in_box(out, params)) << "cabin " << tz;
  }
}

// --- Closed loop: the ISSUE acceptance scenario ---

core::SimulationOptions fig5_sim_options() {
  core::SimulationOptions opts;
  opts.record_traces = true;
  return opts;
}

TEST(SupervisorLoop, CleanRunIsByteIdenticalToUnsupervisedMpc) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 240);
  core::ClimateSimulation simulation(params);

  auto raw = core::make_mpc_controller(params);
  const auto unsupervised =
      simulation.run(*raw, profile, fig5_sim_options());

  auto supervised_ctl = core::make_supervised_mpc_controller(params);
  const auto supervised =
      simulation.run(*supervised_ctl, profile, fig5_sim_options());

  for (const auto& channel : unsupervised.recorder.channels()) {
    const auto& a = unsupervised.recorder.values(channel);
    const auto& b = supervised.recorder.values(channel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b[i]) << channel << " diverges at sample " << i;
  }
  EXPECT_EQ(supervised_ctl->stats().sanitized_values, 0u);
  EXPECT_EQ(supervised_ctl->stats().demotions, 0u);
}

TEST(SupervisorLoop, SurvivesDropoutAndSolverTimeoutSchedule) {
  const core::EvParams params;
  const auto profile =
      drive::make_cycle_profile(drive::StandardCycle::kEceEudc, 35.0)
          .window(0, 300);

  // 5 % dropout on cabin + SoC sensors, periodic solver starvation via an
  // SQP budget below one iteration on the preferred tier (a default plan
  // can finish inside 200 µs, so only a budget below one iteration
  // starves it on every host).
  core::MpcOptions mpc_options;
  mpc_options.accessory_power_w = params.vehicle.accessory_power_w;
  mpc_options.sqp.time_budget_s = 1e-6;
  auto supervised = core::make_supervised_mpc_controller(params, mpc_options);

  sim::FaultInjector injector(
      {{sim::FaultSignal::kCabinTemp, sim::FaultKind::kDropout, 0.05, 0.0, 3},
       {sim::FaultSignal::kSoc, sim::FaultKind::kDropout, 0.05, 0.0, 3}},
      2024);
  core::SimulationOptions opts = fig5_sim_options();
  opts.fault_injector = &injector;

  core::ClimateSimulation simulation(params);
  const auto result = simulation.run(*supervised, profile, opts);

  // Zero NaN/Inf anywhere in the recorded state.
  for (const auto& channel : result.recorder.channels())
    for (double v : result.recorder.values(channel))
      ASSERT_TRUE(std::isfinite(v)) << channel;

  // Faults actually happened and were sanitized.
  EXPECT_GT(injector.stats().dropout_steps, 0u);
  EXPECT_GT(supervised->stats().sanitized_values, 0u);

  // The solver-timeout schedule pushed some steps off the preferred tier.
  std::size_t fallback_steps = 0;
  for (std::size_t i = 1; i < supervised->stats().tier_steps.size(); ++i)
    fallback_steps += supervised->stats().tier_steps[i];
  EXPECT_GT(fallback_steps, 0u);

  // Metrics stay physical.
  EXPECT_TRUE(std::isfinite(result.metrics.delta_soh_percent));
  EXPECT_GT(result.metrics.delta_soh_percent, 0.0);
  EXPECT_GE(result.metrics.final_soc_percent, 0.0);
  EXPECT_LE(result.metrics.final_soc_percent, 100.0);
}

}  // namespace
}  // namespace evc::ctl
