// End-to-end tests of the training-health layer on a real GtvTrainer:
// disarmed mode stays allocation-free and byte-identical, a seed-config run
// stays alert-free, a deliberately destabilized critic LR turns fatal
// within 10 rounds (the deterministic divergence scenario), abort-on-fatal
// escalates, and the on_alert callback fires. Also writes the
// `health_divergence_alerts.jsonl` artefact scripts/check.sh validates.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "obs/health.h"
#include "obs/json.h"

namespace gtv::core {
namespace {

using data::ColumnType;
using data::Table;

// Restores the health switch and drains the process-wide HealthLog.
class HealthGuard {
 public:
  HealthGuard() : was_(obs::health_enabled()) { obs::HealthLog::instance().reset(); }
  ~HealthGuard() {
    obs::set_health_enabled(was_);
    obs::HealthLog::instance().reset();
  }

 private:
  bool was_;
};

Table two_party_source(std::size_t rows, Rng& rng) {
  Table t({{"income", ColumnType::kContinuous, {}, {}},
           {"gender", ColumnType::kCategorical, {"M", "F"}, {}},
           {"spend", ColumnType::kContinuous, {}, {}},
           {"loan", ColumnType::kCategorical, {"N", "Y"}, {}}});
  for (std::size_t i = 0; i < rows; ++i) {
    const double z = rng.normal();
    const auto gender = static_cast<double>(rng.uniform() < 0.5 + 0.3 * std::tanh(z));
    const auto loan = static_cast<double>(rng.uniform() < 0.3 + 0.3 * std::tanh(z));
    t.append_row({50 + 12 * z + rng.normal(0, 2), gender, 20 + 6 * z + rng.normal(0, 2), loan});
  }
  return t;
}

GtvOptions small_options() {
  GtvOptions options;
  options.gan.noise_dim = 8;
  options.gan.hidden = 16;
  options.generator_hidden = 16;
  options.gan.batch_size = 24;
  options.gan.d_steps_per_round = 2;
  return options;
}

std::vector<Table> split_two(const Table& t) {
  return data::vertical_split(t, {{0, 1}, {2, 3}});
}

TEST(HealthDisarmedTest, NoCollectionWithoutGtvHealth) {
  HealthGuard guard;
  obs::set_health_enabled(false);
  Rng rng(2);
  auto shards = split_two(two_party_source(80, rng));
  GtvTrainer trainer(std::move(shards), small_options(), 5);
  trainer.train(3);

  ASSERT_EQ(trainer.telemetry().size(), 3u);
  for (const auto& t : trainer.telemetry()) {
    EXPECT_FALSE(t.health.collected);
    EXPECT_TRUE(t.health.modules.empty());
    EXPECT_TRUE(t.health.probes.empty());
    EXPECT_TRUE(t.health.alerts.empty());
    // Disarmed telemetry JSON omits the health block entirely.
    EXPECT_EQ(t.to_json().find("\"health\""), std::string::npos);
  }
  EXPECT_TRUE(trainer.health_alerts().empty());
  EXPECT_EQ(obs::HealthLog::instance().total(), 0u);
}

TEST(HealthDivergenceTest, SeedConfigStaysSilentOverTenRounds) {
  HealthGuard guard;
  obs::set_health_enabled(true);
  Rng rng(2);
  auto shards = split_two(two_party_source(80, rng));
  GtvOptions options = small_options();
  options.health.probe_interval = 5;  // two probes inside the horizon
  GtvTrainer trainer(std::move(shards), options, 5);
  trainer.train(10);

  ASSERT_EQ(trainer.telemetry().size(), 10u);
  for (const auto& t : trainer.telemetry()) {
    EXPECT_TRUE(t.health.collected);
    // 2 parties x (G, D) on the server + per client: 2 + 2*2 = 6 modules.
    EXPECT_EQ(t.health.modules.size(), 6u);
    EXPECT_TRUE(t.health.alerts.empty())
        << "round " << t.round << ": " << t.health.alerts.front().rule;
  }
  // Probe rounds carried per-column comparisons for all 4 joined columns.
  EXPECT_EQ(trainer.telemetry()[4].health.probes.size(), 4u);
  EXPECT_EQ(trainer.telemetry()[9].health.probes.size(), 4u);
  EXPECT_TRUE(trainer.telemetry()[0].health.probes.empty());
  EXPECT_TRUE(trainer.health_alerts().empty());
  EXPECT_EQ(obs::HealthLog::instance().total(), 0u);
  // Armed telemetry JSON carries the block and parses back.
  const obs::json::Value v = obs::json::parse(trainer.telemetry()[4].to_json());
  EXPECT_EQ(v.at("health").at("modules").array.size(), 6u);
}

TEST(HealthDivergenceTest, ProbeDoesNotPerturbTraining) {
  // Identical seeds with and without probes must produce identical loss
  // trajectories. This holds by construction: the probe samples from a
  // checkpoint through serve::Synthesizer with its own seed and touches no
  // party RNG.
  HealthGuard guard;
  obs::set_health_enabled(true);
  Rng rng(7);
  const Table source = two_party_source(80, rng);

  GtvOptions with_probe = small_options();
  with_probe.health.probe_interval = 2;
  GtvTrainer a(split_two(source), with_probe, 11);
  a.train(6);

  GtvOptions no_probe = small_options();
  no_probe.health.probe_interval = 0;
  GtvTrainer b(split_two(source), no_probe, 11);
  b.train(6);

  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_FLOAT_EQ(a.history()[r].d_loss, b.history()[r].d_loss) << "round " << r;
    EXPECT_FLOAT_EQ(a.history()[r].g_loss, b.history()[r].g_loss) << "round " << r;
  }
}

// The deterministic divergence scenario: an absurd critic learning rate
// destabilizes WGAN-GP within a few rounds. The run must emit at least one
// fatal alert (critic_grad_norm / nonfinite_grad / nonfinite_loss) within
// 10 rounds; its alerts also become the JSONL artefact check.sh validates.
TEST(HealthDivergenceTest, DestabilizedCriticTurnsFatalWithinTenRounds) {
  HealthGuard guard;
  obs::set_health_enabled(true);
  Rng rng(2);
  auto shards = split_two(two_party_source(80, rng));
  GtvOptions options = small_options();
  options.gan.adam.lr = 100.0f;  // absurd LR shared by G and D optimizers
  GtvTrainer trainer(std::move(shards), options, 5);

  std::size_t callback_alerts = 0;
  trainer.set_on_alert([&](const obs::HealthAlert&) { ++callback_alerts; });
  bool fatal = false;
  std::size_t fatal_round = 0;
  for (std::size_t r = 0; r < 10 && !fatal; ++r) {
    trainer.train_round();
    if (trainer.telemetry().back().health.has_fatal()) {
      fatal = true;
      fatal_round = r;
    }
  }
  ASSERT_TRUE(fatal) << "destabilized run stayed healthy for 10 rounds";
  EXPECT_LT(fatal_round, 10u);
  EXPECT_GT(callback_alerts, 0u);

  const auto alerts = trainer.health_alerts();
  bool diverged = false;
  for (const auto& a : alerts) {
    if (a.rule == "critic_grad_norm" || a.rule == "nonfinite_grad" ||
        a.rule == "nonfinite_loss") {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);

  // Artefact for scripts/check.sh (ctest runs in build/tests): one alert
  // object per line, the HealthLog JSONL shape.
  std::ofstream out("health_divergence_alerts.jsonl");
  ASSERT_TRUE(out.good());
  out << obs::HealthLog::instance().alerts_jsonl();
}

TEST(HealthDivergenceTest, AbortOnFatalThrowsAfterRecording) {
  HealthGuard guard;
  obs::set_health_enabled(true);
  Rng rng(2);
  auto shards = split_two(two_party_source(80, rng));
  GtvOptions options = small_options();
  options.gan.adam.lr = 100.0f;
  options.health.abort_on_fatal = true;
  GtvTrainer trainer(std::move(shards), options, 5);

  bool thrown = false;
  obs::HealthAlert caught;
  for (std::size_t r = 0; r < 10 && !thrown; ++r) {
    try {
      trainer.train_round();
    } catch (const FatalHealthError& e) {
      thrown = true;
      caught = e.alert();
    }
  }
  ASSERT_TRUE(thrown) << "abort_on_fatal never fired";
  EXPECT_EQ(caught.severity, obs::Severity::kFatal);
  // Bookkeeping completed before the throw: the fatal round is recorded.
  ASSERT_FALSE(trainer.telemetry().empty());
  EXPECT_TRUE(trainer.telemetry().back().health.has_fatal());
  EXPECT_EQ(trainer.telemetry().size(), trainer.history().size());
}

}  // namespace
}  // namespace gtv::core
