// Multi-party node protocol (core/node.h): a four-party TCP run in threads
// must reproduce GtvTrainer's in-process fleet exactly, invalid
// configurations must be rejected up front, and the elastic-federation
// path (DP noise over TCP, coordinated train checkpoints, crash + rejoin)
// must keep that bit-exact parity.
#include "core/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gtv.h"
#include "core/partition.h"
#include "data/datasets.h"
#include "net/tcp.h"
#include "obs/health.h"

namespace gtv::core {
namespace {

struct NodeSetup {
  NodeConfig config;
  std::vector<data::Table> shards;
  std::vector<std::size_t> g_widths;
  std::vector<std::size_t> d_widths;
};

NodeSetup make_setup(std::size_t rounds = 2) {
  NodeSetup setup;
  setup.config.options.gan.batch_size = 24;
  setup.config.options.gan.d_steps_per_round = 2;
  setup.config.n_clients = 2;
  setup.config.rounds = rounds;
  setup.config.seed = 11;
  setup.config.train_rows = 72;

  Rng rng(setup.config.seed ^ 0xda7aULL);
  const data::Table table = data::make_dataset("loan", setup.config.train_rows, rng);
  std::vector<std::vector<std::size_t>> groups(2);
  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    groups[c < (table.n_cols() + 1) / 2 ? 0 : 1].push_back(c);
  }
  setup.shards = data::vertical_split(table, groups);

  std::vector<std::size_t> feature_counts;
  for (const auto& shard : setup.shards) feature_counts.push_back(shard.n_cols());
  const auto ratios = ratio_vector(feature_counts);
  setup.g_widths = proportional_widths(setup.config.options.generator_hidden, ratios);
  setup.d_widths = proportional_widths(setup.config.options.gan.hidden, ratios);
  return setup;
}

net::RetryPolicy test_retry_policy() {
  net::RetryPolicy policy;
  policy.recv_timeout_ms = 2000;
  policy.max_attempts = 30;
  return policy;
}

// Simulated SIGKILL for thread-hosted parties: after a budgeted number of
// fetch_frame calls the transport throws a type nothing in the node stack
// catches, so the party's run() unwinds and its TcpTransport destructor
// slams the connections shut — peers observe exactly what a killed process
// produces (EOF on every socket).
struct CrashNow {};

class FuseTransport : public net::Transport {
 public:
  FuseTransport(std::shared_ptr<net::Transport> inner, int fetch_budget)
      : inner_(std::move(inner)), fetches_left_(fetch_budget) {}
  std::string kind() const override { return "fuse+" + inner_->kind(); }
  void deliver_frame(const std::string& link,
                     std::vector<std::uint8_t> frame) override {
    inner_->deliver_frame(link, std::move(frame));
  }
  std::vector<std::uint8_t> fetch_frame(const std::string& link,
                                        int timeout_ms) override {
    if (fetches_left_.fetch_sub(1) <= 0) throw CrashNow{};
    return inner_->fetch_frame(link, timeout_ms);
  }
  void discard_queued(const std::string& link) override {
    inner_->discard_queued(link);
  }
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override {
    return inner_->wait_for_live_peer(peer, timeout_ms);
  }

 private:
  std::shared_ptr<net::Transport> inner_;
  std::atomic<int> fetches_left_;
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TcpRun {
  std::vector<gan::RoundLosses> history;
  std::vector<obs::RoundTelemetry> telemetry;  // the driver's round records
  std::vector<net::LinkStats> traffic;         // server, then each client
};

// Trains `setup` as four parties over real TCP sockets, one thread each:
// server + driver listen, clients dial both.
TcpRun run_tcp(const NodeSetup& setup) {
  auto server_t = std::make_shared<net::TcpTransport>("server");
  const std::uint16_t server_port = server_t->listen(0);
  auto driver_t = std::make_shared<net::TcpTransport>("driver");
  const std::uint16_t driver_port = driver_t->listen(0);

  std::vector<std::future<net::LinkStats>> parties;
  parties.push_back(std::async(std::launch::async, [&] {
    ServerNode node(setup.config, setup.g_widths, setup.d_widths);
    node.set_transport(server_t);
    node.traffic().set_retry_policy(test_retry_policy());
    node.run();
    return node.traffic().total();
  }));
  for (std::size_t i = 0; i < setup.config.n_clients; ++i) {
    parties.push_back(std::async(std::launch::async, [&, i] {
      auto transport = std::make_shared<net::TcpTransport>("client" + std::to_string(i));
      transport->connect_peer("server", "127.0.0.1", server_port);
      transport->connect_peer("driver", "127.0.0.1", driver_port);
      ClientNode node(setup.config, i, setup.shards[i], setup.g_widths[i], setup.d_widths[i]);
      node.set_transport(transport);
      node.traffic().set_retry_policy(test_retry_policy());
      node.run();
      return node.traffic().total();
    }));
  }
  driver_t->connect_peer("server", "127.0.0.1", server_port);
  for (std::size_t i = 0; i < setup.config.n_clients; ++i) {
    EXPECT_TRUE(driver_t->wait_for_peer("client" + std::to_string(i), 20000));
  }

  TcpRun run;
  DriverNode driver(setup.config);
  driver.set_transport(driver_t);
  driver.traffic().set_retry_policy(test_retry_policy());
  run.history = driver.run();
  run.telemetry = driver.telemetry();
  for (auto& party : parties) run.traffic.push_back(party.get());
  return run;
}

TEST(NodeConfigTest, RejectsSimulationOnlyModes) {
  NodeConfig config;
  config.train_rows = 10;
  config.options.exact_gradient_penalty = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.options.exact_gradient_penalty = false;
  // P2P index sharing runs in process (client->client links); only
  // gtv-node's TCP star lacks those links, and it has no flag for it.
  config.options.index_sharing = IndexSharing::kPeerToPeer;
  EXPECT_NO_THROW(config.validate());
  config.options.index_sharing = IndexSharing::kServer;
  // DP noise is party-local (each client owns its dp stream), so it is NOT
  // simulation-only: node mode must accept it.
  config.options.dp_noise_std = 0.5f;
  EXPECT_NO_THROW(config.validate());
  config.options.dp_noise_std = 0.0f;
  EXPECT_NO_THROW(config.validate());
  config.train_rows = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(NodeConfigTest, PartySeedsMatchTrainerSeederOrder) {
  const auto seeds = party_seeds(123, 3);
  Rng seeder(123);
  ASSERT_EQ(seeds.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(seeds[i], seeder.next_u64());
}

// The tentpole parity property: 4 parties over real TCP sockets produce the
// same per-round losses as the single-process trainer, same seed.
TEST(NodeProtocolTest, TcpFourPartyRunMatchesInProcessTrainer) {
  NodeSetup setup = make_setup();

  // Reference: the in-process fleet.
  GtvTrainer trainer(setup.shards, setup.config.options, setup.config.seed);
  trainer.train(setup.config.rounds);
  const auto expected = trainer.history();

  const TcpRun run = run_tcp(setup);
  for (const net::LinkStats& party : run.traffic) EXPECT_GT(party.bytes, 0u);
  const auto& history = run.history;
  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t r = 0; r < history.size(); ++r) {
    EXPECT_NEAR(history[r].d_loss, expected[r].d_loss, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].g_loss, expected[r].g_loss, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].gp, expected[r].gp, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].wasserstein, expected[r].wasserstein, 1e-5) << "round " << r;
  }
}

// Satellite regression: dp_noise_std > 0 must run over TCP and agree with
// the in-process trainer exactly (each client owns its dp stream, so no
// RNG state crosses the party boundary).
TEST(NodeProtocolTest, TcpDpNoiseRunMatchesInProcessTrainer) {
  NodeSetup setup = make_setup();
  setup.config.options.dp_noise_std = 0.25f;

  GtvTrainer trainer(setup.shards, setup.config.options, setup.config.seed);
  trainer.train(setup.config.rounds);
  const auto expected = trainer.history();

  const auto history = run_tcp(setup).history;
  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t r = 0; r < history.size(); ++r) {
    EXPECT_NEAR(history[r].d_loss, expected[r].d_loss, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].g_loss, expected[r].g_loss, 1e-5) << "round " << r;
  }
}

// Health runs in the distributed runtime: the DriverNode evaluates the
// rules on the stats the parties report and probes through kCmdProbe. An
// absurd learning rate must raise the same alerts over TCP as in process,
// a fatal one within 10 rounds, and the round-10 probe must score every
// column.
TEST(NodeProtocolTest, TcpHealthAlertsMatchInProcessTrainer) {
  const bool health_was = obs::health_enabled();
  obs::set_health_enabled(true);
  NodeSetup setup = make_setup(/*rounds=*/10);
  setup.config.options.gan.adam.lr = 100.0f;

  GtvTrainer trainer(setup.shards, setup.config.options, setup.config.seed);
  trainer.train(setup.config.rounds);
  const TcpRun run = run_tcp(setup);
  obs::set_health_enabled(health_was);
  obs::HealthLog::instance().reset();

  ASSERT_EQ(run.telemetry.size(), setup.config.rounds);
  std::vector<std::pair<std::string, std::size_t>> tcp_alerts;
  std::size_t first_fatal = setup.config.rounds;
  for (const obs::RoundTelemetry& round : run.telemetry) {
    EXPECT_TRUE(round.health.collected);
    // (G, D) on the server and on each of the two clients.
    EXPECT_EQ(round.health.modules.size(), 6u) << "round " << round.round;
    for (const obs::HealthAlert& alert : round.health.alerts) {
      tcp_alerts.emplace_back(alert.rule, alert.round);
      if (alert.severity == obs::Severity::kFatal) {
        first_fatal = std::min(first_fatal, alert.round);
      }
    }
  }
  std::vector<std::pair<std::string, std::size_t>> inproc_alerts;
  for (const obs::HealthAlert& alert : trainer.health_alerts()) {
    inproc_alerts.emplace_back(alert.rule, alert.round);
  }
  EXPECT_EQ(tcp_alerts, inproc_alerts);
  EXPECT_LT(first_fatal, 10u);
  EXPECT_EQ(run.telemetry[9].health.probes.size(),
            setup.shards[0].n_cols() + setup.shards[1].n_cols());
  EXPECT_EQ(run.telemetry[9].health.probes.size(), trainer.telemetry()[9].health.probes.size());
}

// The elastic tentpole: client1 "dies" mid-training (its transport slams
// every socket shut, exactly like a SIGKILL'd process) and a fresh
// replacement rejoins; the driver replays the last coordinated checkpoint
// and the final loss trajectory is identical to the uninterrupted run.
TEST(NodeProtocolTest, TcpCrashedClientRejoinsWithExactTrajectory) {
  NodeSetup setup = make_setup(/*rounds=*/4);

  GtvTrainer trainer(setup.shards, setup.config.options, setup.config.seed);
  trainer.train(setup.config.rounds);
  const auto expected = trainer.history();

  auto server_t = std::make_shared<net::TcpTransport>("server");
  const std::uint16_t server_port = server_t->listen(0);
  auto driver_t = std::make_shared<net::TcpTransport>("driver");
  const std::uint16_t driver_port = driver_t->listen(0);

  // Crash-smoke patience: the dead client's peers must fail fast, not sit
  // out 30 attempts x 2 s.
  net::RetryPolicy policy = test_retry_policy();
  policy.max_attempts = 8;

  auto server_task = std::async(std::launch::async, [&] {
    ServerNode node(setup.config, setup.g_widths, setup.d_widths);
    node.set_transport(server_t);
    node.set_elastic(true);
    node.traffic().set_retry_policy(policy);
    node.run();
  });
  auto client0_task = std::async(std::launch::async, [&] {
    auto transport = std::make_shared<net::TcpTransport>("client0");
    transport->connect_peer("server", "127.0.0.1", server_port);
    transport->connect_peer("driver", "127.0.0.1", driver_port);
    ClientNode node(setup.config, 0, setup.shards[0], setup.g_widths[0],
                    setup.d_widths[0]);
    node.set_transport(transport);
    node.set_elastic(true);
    node.traffic().set_retry_policy(policy);
    node.run();
  });
  auto client1_task = std::async(std::launch::async, [&] {
    try {
      auto transport = std::make_shared<net::TcpTransport>("client1");
      transport->connect_peer("server", "127.0.0.1", server_port);
      transport->connect_peer("driver", "127.0.0.1", driver_port);
      ClientNode node(setup.config, 1, setup.shards[1], setup.g_widths[1],
                      setup.d_widths[1]);
      // Budget chosen to blow partway through round 2+, after the round-1
      // checkpoint barrier has completed.
      node.set_transport(std::make_shared<FuseTransport>(transport, 60));
      node.set_elastic(true);
      node.traffic().set_retry_policy(policy);
      node.run();
      ADD_FAILURE() << "fuse never blew; raise the test's round count";
      return;
    } catch (const CrashNow&) {
      // Transport destroyed: every socket closed, peers see EOF.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // The relaunched process: same data and seed, --rejoin semantics.
    auto transport = std::make_shared<net::TcpTransport>("client1");
    transport->connect_peer("server", "127.0.0.1", server_port);
    transport->connect_peer("driver", "127.0.0.1", driver_port);
    ClientNode node(setup.config, 1, setup.shards[1], setup.g_widths[1],
                    setup.d_widths[1]);
    node.set_transport(transport);
    node.set_elastic(true);
    node.set_rejoin(true);
    node.traffic().set_retry_policy(policy);
    node.run();
  });
  driver_t->connect_peer("server", "127.0.0.1", server_port);
  ASSERT_TRUE(driver_t->wait_for_peer("client0", 20000));
  ASSERT_TRUE(driver_t->wait_for_peer("client1", 20000));

  const std::string ckpt_path = temp_path("gtv_node_crash.gtvt");
  DriverNode driver(setup.config);
  driver.set_transport(driver_t);
  driver.traffic().set_retry_policy(policy);
  driver.set_train_checkpoint(ckpt_path, /*every=*/1);
  driver.set_rejoin_wait_ms(30000);
  const auto history = driver.run();
  server_task.get();
  client0_task.get();
  client1_task.get();

  EXPECT_GE(driver.recoveries(), 1u);
  ASSERT_EQ(history.size(), expected.size());
  for (std::size_t r = 0; r < history.size(); ++r) {
    EXPECT_NEAR(history[r].d_loss, expected[r].d_loss, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].g_loss, expected[r].g_loss, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].gp, expected[r].gp, 1e-5) << "round " << r;
    EXPECT_NEAR(history[r].wasserstein, expected[r].wasserstein, 1e-5)
        << "round " << r;
  }
  std::remove(ckpt_path.c_str());
}

}  // namespace
}  // namespace gtv::core
