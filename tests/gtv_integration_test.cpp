// End-to-end tests of the GTV trainer: protocol mechanics, all nine
// partitions, training-with-shuffling invariants, the reconstruction
// attack with and without the defence, secure publication, and the
// lifecycle of the party threads behind it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "core/gtv.h"
#include "data/datasets.h"
#include "obs/health.h"

namespace gtv::core {
namespace {

using data::ColumnType;
using data::Table;

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

TEST(GtvTrainerTest, ConstructionValidation) {
  Rng rng(1);
  Table t = two_party_source(60, rng);
  auto shards = split_two(t);
  EXPECT_THROW(GtvTrainer({}, small_options(), 1), std::invalid_argument);
  // Row misalignment rejected.
  auto bad = shards;
  bad[1] = bad[1].slice_rows(0, 30);
  EXPECT_THROW(GtvTrainer(std::move(bad), small_options(), 1), std::invalid_argument);
}

TEST(GtvTrainerTest, OneRoundFiniteLossesAndTraffic) {
  Rng rng(2);
  auto shards = split_two(two_party_source(80, rng));
  GtvTrainer trainer(std::move(shards), small_options(), 5);
  auto losses = trainer.train_round();
  EXPECT_TRUE(std::isfinite(losses.d_loss));
  EXPECT_TRUE(std::isfinite(losses.g_loss));
  EXPECT_TRUE(std::isfinite(losses.gp));
  // Every link saw traffic: 2 clients x up/down.
  EXPECT_GT(trainer.traffic().stats("client0->server").bytes, 0u);
  EXPECT_GT(trainer.traffic().stats("client1->server").bytes, 0u);
  EXPECT_GT(trainer.traffic().stats("server->client0").bytes, 0u);
  EXPECT_GT(trainer.traffic().stats("server->client1").bytes, 0u);
}

TEST(GtvTrainerTest, RoundTelemetryMatchesTrafficMeter) {
  Rng rng(9);
  auto shards = split_two(two_party_source(80, rng));
  GtvTrainer trainer(std::move(shards), small_options(), 6);

  std::size_t callbacks = 0;
  trainer.train(3, [&](std::size_t round, const gan::RoundLosses& losses,
                       const obs::RoundTelemetry& telemetry) {
    ++callbacks;
    EXPECT_EQ(telemetry.round, round);
    EXPECT_FLOAT_EQ(telemetry.d_loss, losses.d_loss);
    EXPECT_FLOAT_EQ(telemetry.g_loss, losses.g_loss);
    EXPECT_GT(telemetry.total_ms, 0.0);
    // Every paper phase was timed (shuffling is on in small_options()).
    EXPECT_GT(telemetry.cv_generation_ms, 0.0);
    EXPECT_GT(telemetry.fake_forward_ms, 0.0);
    EXPECT_GT(telemetry.real_forward_ms, 0.0);
    EXPECT_GT(telemetry.critic_backward_ms, 0.0);
    EXPECT_GT(telemetry.generator_step_ms, 0.0);
    EXPECT_GT(telemetry.shuffle_ms, 0.0);
    EXPECT_GE(telemetry.total_ms,
              telemetry.cv_generation_ms + telemetry.fake_forward_ms +
                  telemetry.real_forward_ms + telemetry.generator_step_ms);
    EXPECT_GT(telemetry.bytes_sent(), 0u);
  });
  EXPECT_EQ(callbacks, 3u);
  ASSERT_EQ(trainer.telemetry().size(), 3u);

  // The per-round link deltas are exact: summed over the run they
  // reproduce the TrafficMeter's totals, link by link.
  const obs::RoundTelemetry sum = trainer.telemetry_snapshot();
  EXPECT_EQ(sum.round, 3u);
  EXPECT_EQ(sum.bytes_sent(), trainer.traffic().total().bytes);
  EXPECT_EQ(sum.messages_sent(), trainer.traffic().total().messages);
  for (const auto& link : sum.links) {
    EXPECT_EQ(link.bytes, trainer.traffic().stats(link.link).bytes) << link.link;
    EXPECT_EQ(link.messages, trainer.traffic().stats(link.link).messages) << link.link;
  }

  const std::string json = trainer.telemetry_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"round\":2"), std::string::npos);
  EXPECT_NE(json.find("\"link\":\"client0->server\""), std::string::npos);
}

class PartitionParamTest : public ::testing::TestWithParam<PartitionSpec> {};

TEST_P(PartitionParamTest, TrainsAndSamplesUnderEveryPartition) {
  Rng rng(3);
  auto shards = split_two(two_party_source(60, rng));
  GtvOptions options = small_options();
  options.partition = GetParam();
  GtvTrainer trainer(std::move(shards), options, 11);
  trainer.train(2);
  for (const auto& losses : trainer.history()) {
    EXPECT_TRUE(std::isfinite(losses.d_loss)) << GetParam().name();
    EXPECT_TRUE(std::isfinite(losses.g_loss)) << GetParam().name();
  }
  Table synth = trainer.sample(30);
  EXPECT_EQ(synth.n_rows(), 30u);
  EXPECT_EQ(synth.n_cols(), 4u);
}

INSTANTIATE_TEST_SUITE_P(AllNine, PartitionParamTest,
                         ::testing::ValuesIn(PartitionSpec::all_nine()),
                         [](const auto& info) {
                           std::string n = info.param.name();
                           for (char& c : n) {
                             if (c == ' ' || c == '^') c = '_';
                           }
                           return n;
                         });

TEST(GtvTrainerTest, ShufflingKeepsClientsRowAligned) {
  Rng rng(4);
  Table source = two_party_source(50, rng);
  auto shards = split_two(source);
  GtvTrainer trainer(std::move(shards), small_options(), 7);
  trainer.train(3);
  // Join the (shuffled) client tables; every row must still be one of the
  // original joined rows — alignment survives only if all clients applied
  // identical permutations.
  Table joined = data::Table::concat_columns(
      {trainer.client(0).local_table(), trainer.client(1).local_table()});
  ASSERT_EQ(joined.n_rows(), source.n_rows());
  std::multiset<std::string> original, after;
  auto key = [](const Table& t, std::size_t r) {
    std::string k;
    for (std::size_t c = 0; c < t.n_cols(); ++c) k += std::to_string(t.cell(r, c)) + "|";
    return k;
  };
  for (std::size_t r = 0; r < source.n_rows(); ++r) {
    original.insert(key(source, r));
    after.insert(key(joined, r));
  }
  EXPECT_EQ(original, after);
  // And the order actually changed (50 rows; identity permutation 3x in a
  // row is essentially impossible).
  bool changed = false;
  for (std::size_t r = 0; r < source.n_rows() && !changed; ++r) {
    changed = key(source, r) != key(joined, r);
  }
  EXPECT_TRUE(changed);
}

TEST(GtvTrainerTest, AttackSucceedsWithoutShufflingFailsWith) {
  // Pure-categorical two-client data maximizes what the CV reveals.
  Rng rng(5);
  Table t({{"gender", ColumnType::kCategorical, {"M", "F"}, {}},
           {"loan", ColumnType::kCategorical, {"Y", "N"}, {}}});
  for (int i = 0; i < 40; ++i) {
    t.append_row({static_cast<double>(rng.uniform_index(2)),
                  static_cast<double>(rng.uniform_index(2))});
  }
  auto run = [&](bool shuffling) {
    GtvOptions options = small_options();
    options.training_with_shuffling = shuffling;
    auto shards = data::vertical_split(t, {{0}, {1}});
    GtvTrainer trainer(std::move(shards), options, 13);
    trainer.train(25);
    return trainer.attack_evaluation();
  };
  auto no_defence = run(false);
  auto with_defence = run(true);
  EXPECT_GT(no_defence.claims, 0u);
  EXPECT_GT(no_defence.accuracy, 0.95);
  EXPECT_LT(with_defence.accuracy, no_defence.accuracy - 0.15);
}

TEST(GtvTrainerTest, PublicationShufflesButKeepsShardsAligned) {
  Rng rng(6);
  auto shards = split_two(two_party_source(60, rng));
  GtvTrainer trainer(std::move(shards), small_options(), 17);
  trainer.train(2);
  auto published = trainer.sample_per_client(40);
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(published[0].n_rows(), 40u);
  EXPECT_EQ(published[1].n_rows(), 40u);
  // Two consecutive publications use different secret permutations, but
  // within one publication both shards used the same one (row alignment is
  // guaranteed by construction; just verify joining works).
  Table joined = data::Table::concat_columns(published);
  EXPECT_EQ(joined.n_cols(), 4u);
}

TEST(GtvTrainerTest, ThreeClientsWithUnevenFeatures) {
  Rng rng(8);
  Table t = data::make_loan(80, rng);
  // 13 columns over 3 clients: 6 / 4 / 3.
  std::vector<std::vector<std::size_t>> groups = {{0, 1, 2, 3, 4, 5},
                                                  {6, 7, 8, 9},
                                                  {10, 11, 12}};
  auto shards = data::vertical_split(t, groups);
  GtvOptions options = small_options();
  GtvTrainer trainer(std::move(shards), options, 23);
  trainer.train(2);
  Table synth = trainer.sample(25);
  EXPECT_EQ(synth.n_cols(), 13u);
  EXPECT_EQ(synth.n_rows(), 25u);
  EXPECT_EQ(trainer.n_clients(), 3u);
}

TEST(GtvTrainerTest, SyntheticCategoriesAreValid) {
  Rng rng(9);
  auto shards = split_two(two_party_source(80, rng));
  GtvTrainer trainer(std::move(shards), small_options(), 29);
  trainer.train(3);
  Table synth = trainer.sample(50);
  for (double v : synth.column(1)) EXPECT_TRUE(v == 0.0 || v == 1.0);
  for (double v : synth.column(3)) EXPECT_TRUE(v == 0.0 || v == 1.0);
}

TEST(GtvTrainerTest, CommunicationGrowsWithRealPassDesign) {
  // The non-contributing clients send full-table logits every critic step
  // (the paper's privacy-motivated design); upstream traffic must exceed
  // what batch-only transfers would produce.
  Rng rng(10);
  auto shards = split_two(two_party_source(100, rng));
  GtvOptions options = small_options();
  GtvTrainer trainer(std::move(shards), options, 31);
  trainer.train_round();
  const auto up0 = trainer.traffic().stats("client0->server").bytes;
  const auto up1 = trainer.traffic().stats("client1->server").bytes;
  // Full-table real pass: at least one client transferred >= 100-row logits.
  const std::size_t full_row_bytes = 100 * trainer.client(0).d_out_width() * sizeof(float);
  EXPECT_GT(up0 + up1, full_row_bytes);
}

// --- party-thread lifecycle ----------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(GtvTrainerLifecycleTest, IdlePartiesNeverTimeOut) {
  Rng rng(11);
  GtvTrainer trainer(split_two(two_party_source(60, rng)), small_options(), 37);
  // Parties wait on their command links between calls. However small the
  // retry budget, an idle wait must neither expire nor count as a timeout.
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.recv_timeout_ms = 50;
  trainer.traffic().set_retry_policy(policy);
  trainer.train(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  trainer.train(1);
  EXPECT_EQ(trainer.history().size(), 2u);
  EXPECT_EQ(trainer.traffic().total().timeouts, 0u);
}

// A party "crashes": after a budget of fetches on one of client1's links,
// the transport throws a type nothing in the node stack catches.
struct CrashNow {};

class FuseTransport : public net::Transport {
 public:
  FuseTransport(std::shared_ptr<net::Transport> inner, std::string link, int fetch_budget)
      : inner_(std::move(inner)), link_(std::move(link)), fetches_left_(fetch_budget) {}
  std::string kind() const override { return "fuse+" + inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override {
    inner_->deliver_frame(link, std::move(frame));
  }
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int timeout_ms) override {
    if (link == link_ && fetches_left_.fetch_sub(1) <= 0) throw CrashNow{};
    return inner_->fetch_frame(link, timeout_ms);
  }
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }

 private:
  std::shared_ptr<net::Transport> inner_;
  std::string link_;
  std::atomic<int> fetches_left_;
};

TEST(GtvTrainerLifecycleTest, PartyFailureSurfacesFromTrainRound) {
  Rng rng(12);
  const auto t0 = std::chrono::steady_clock::now();
  {
    GtvTrainer trainer(split_two(two_party_source(60, rng)), small_options(), 41);
    trainer.traffic().set_transport(std::make_shared<FuseTransport>(
        std::make_shared<net::InProcTransport>(), "server->client1", 15));
    EXPECT_THROW(
        {
          for (int r = 0; r < 20; ++r) trainer.train_round();
        },
        CrashNow);
    EXPECT_LT(trainer.history().size(), 20u);
    // The failure sticks: later calls rethrow it instead of hanging.
    EXPECT_THROW(trainer.train_round(), CrashNow);
  }
  EXPECT_LT(seconds_since(t0), 30.0);
}

TEST(GtvTrainerLifecycleTest, DestructionIsPromptWithoutTrainingAndAfterFatalHealth) {
  Rng rng(13);
  const Table source = two_party_source(60, rng);
  auto t0 = std::chrono::steady_clock::now();
  { GtvTrainer untouched(split_two(source), small_options(), 43); }
  EXPECT_LT(seconds_since(t0), 5.0);

  const bool health_was = obs::health_enabled();
  obs::set_health_enabled(true);
  GtvOptions options = small_options();
  options.gan.adam.lr = 100.0f;  // diverges within a few rounds
  options.health.abort_on_fatal = true;
  bool fatal = false;
  {
    GtvTrainer trainer(split_two(source), options, 43);
    for (int r = 0; r < 10 && !fatal; ++r) {
      try {
        trainer.train_round();
      } catch (const FatalHealthError&) {
        fatal = true;
      }
    }
    t0 = std::chrono::steady_clock::now();
  }
  EXPECT_LT(seconds_since(t0), 5.0);
  obs::set_health_enabled(health_was);
  obs::HealthLog::instance().reset();
  EXPECT_TRUE(fatal);
}

}  // namespace
}  // namespace gtv::core
