// Training workloads.
//
//   train_paper     in-process GtvTrainer, loan 400 rows, paper widths.
//   train_tall_tcp  ServerNode + 2 ClientNodes + DriverNode on party threads
//                   over loopback TcpTransport, loan 20,000 rows, narrow nets.
#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/gtv.h"
#include "core/node.h"
#include "core/partition.h"
#include "net/tcp.h"
#include "obs/memory.h"

namespace perfbench {

using gtv::core::GtvOptions;
using gtv::core::GtvTrainer;
using gtv::gan::RoundLosses;
using gtv::obs::RoundTelemetry;

namespace {

constexpr std::size_t kWarmupRounds = 2;

GtvOptions tall_options() {
  GtvOptions o = paper_options();
  o.gan.noise_dim = 32;
  o.gan.hidden = 32;
  o.generator_hidden = 64;
  return o;
}

bool finite(const RoundLosses& l) {
  return std::isfinite(l.d_loss) && std::isfinite(l.g_loss) && std::isfinite(l.gp) &&
         std::isfinite(l.wasserstein);
}

// Round-level metrics shared by both training workloads.
struct RoundStats {
  std::vector<double> round_ms;   // every timed round
  std::vector<double> traced_ms;  // traced runs: rounds with spans on ...
  std::vector<double> plain_ms;   // ... and the interleaved control rounds
  double window_s = 0;            // wall time of the timed rounds
  double cpu_per_wall = 0;        // process CPU time over wall time
  std::uint64_t allocs = 0;       // tensor allocations over the window
  double live_peak_mb = 0;
  ProbeTransport::Window net;     // all parties' traffic over the window
};

void report_rounds(const RoundStats& s, const Args& args, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(s.round_ms.size(), 1));
  report.e2e("throughput_per_s", static_cast<double>(s.round_ms.size()) / s.window_s, "1/s");
  report.e2e("latency_p50_ms", median(s.round_ms), "ms");
  report.e2e("latency_tail_ms", percentile(s.round_ms, 90), "ms");
  report_traffic(s.net, s.round_ms.size(), report);
  report.layer("tensor.allocs_per_op", static_cast<double>(s.allocs) / n, "count");
  report.layer("tensor.live_peak_mb", s.live_peak_mb, "MB");
  report.layer("proc.cpu_per_wall", s.cpu_per_wall, "1");
  if (args.trace && !s.traced_ms.empty() && !s.plain_ms.empty()) {
    report.layer("trace.overhead_frac", median(s.traced_ms) / median(s.plain_ms) - 1.0, "1");
  }
}

}  // namespace

// --- train_paper -------------------------------------------------------------------

void run_train_paper(const Args& args, Report& report) {
  const SplitTable data = make_split_loan(400, args.seed);
  const GtvOptions options = paper_options();

  // Set-up: trainer construction (encoder fit + model init), five times on
  // the fixed set-up table.
  const SplitTable setup_data = make_split_loan(400, kSetupSeed);
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    GtvTrainer timed(setup_data.shards, options, kSetupSeed);
    setups.push_back(seconds_since(t0));
  }
  report.e2e("setup_s", median(setups), "s");
  auto trainer = std::make_unique<GtvTrainer>(data.shards, options, args.seed);
  auto probe = std::make_shared<ProbeTransport>(std::make_shared<gtv::net::InProcTransport>(),
                                                "trainer");
  trainer->traffic().set_transport(probe);
  trainer->train(kWarmupRounds);

  // Timed rounds. The fidelity checkpoint is taken at a fixed round so the
  // JSD does not depend on how many rounds fit in the run.
  constexpr std::size_t kJsdRound = 60;
  std::unique_ptr<gtv::serve::Checkpoint> jsd_checkpoint;
  std::vector<RoundTelemetry> telemetry;
  RoundStats stats;
  gtv::obs::reset_memory_peak();
  const std::uint64_t allocs0 = gtv::obs::memory_stats().alloc_count;
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  double paused_s = 0;
  while (seconds_since(start) - paused_s < args.seconds) {
    const bool traced = args.trace && stats.round_ms.size() % 2 == 0;
    SpanLog::instance().set_enabled(traced);
    RoundLosses losses;
    const auto t0 = Clock::now();
    trainer->train(1, [&](std::size_t, const RoundLosses& l, const RoundTelemetry& t) {
      losses = l;
      telemetry.push_back(t);
    });
    const auto t1 = Clock::now();
    SpanLog::instance().record("round", "trainer", trainer->rounds_completed(), t0, t1);
    const double ms = ms_between(t0, t1);
    stats.round_ms.push_back(ms);
    (traced ? stats.traced_ms : stats.plain_ms).push_back(ms);
    report.op(finite(losses));
    if (trainer->rounds_completed() == kJsdRound) {
      const auto p0 = Clock::now();
      jsd_checkpoint = std::make_unique<gtv::serve::Checkpoint>(trainer->make_checkpoint());
      paused_s += seconds_since(p0);
    }
  }
  const auto end = Clock::now();
  SpanLog::instance().set_enabled(args.trace);
  stats.window_s = seconds_since(start) - paused_s;
  stats.cpu_per_wall = (process_cpu_s() - cpu0) / stats.window_s;
  stats.allocs = gtv::obs::memory_stats().alloc_count - allocs0;
  stats.live_peak_mb = static_cast<double>(gtv::obs::memory_stats().peak_bytes) / 1e6;
  stats.net = probe->window(start, end);
  report_rounds(stats, args, report);
  report.check(report.failed == 0, "train_paper: every loss is finite");

  while (trainer->rounds_completed() < kJsdRound) trainer->train(1);
  if (!jsd_checkpoint) {
    jsd_checkpoint = std::make_unique<gtv::serve::Checkpoint>(trainer->make_checkpoint());
  }
  check_fidelity(*jsd_checkpoint, data.joined, args.seed, 0.05, "train_paper", report);

  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const auto faults = trainer->traffic().total();
  report.layer("net.retries", static_cast<double>(faults.retries), "count");
  report.layer("net.timeouts", static_cast<double>(faults.timeouts), "count");
  if (args.trace) {
    report_phases(telemetry, mean(stats.round_ms), report);
    LayerShapes shapes;
    shapes.frame_bytes = byte_weighted_median(probe->deliveries());
    measure_layers(shapes, data.shards, options.gan.encoder, *jsd_checkpoint, report);
  }
}

// --- train_tall_tcp ------------------------------------------------------------------

namespace {

const char* const kParties[] = {"server", "client0", "client1", "driver"};

struct TallSetup {
  gtv::core::NodeConfig config;
  std::vector<gtv::data::Table> shards;
  std::vector<std::size_t> g_widths;
  std::vector<std::size_t> d_widths;
};

struct FleetRun {
  std::vector<RoundLosses> history;
  double setup_s = 0;  // transports up until every party holds its model
  std::array<std::shared_ptr<ProbeTransport>, 4> probes;  // kParties order
  std::uint64_t retries = 0;   // TrafficMeter retries, all parties
  std::uint64_t timeouts = 0;  // TrafficMeter timeouts, all parties
  // Driver-side end of each round: the return of its last loss frame.
  std::vector<Clock::time_point> round_ends;
};

gtv::net::RetryPolicy fleet_retry_policy() {
  gtv::net::RetryPolicy policy;
  policy.recv_timeout_ms = 10000;  // a timeout here is a real stall, not setup
  policy.max_attempts = 6;
  return policy;
}

// One four-party training run over loopback TCP, every party on its own
// thread, exactly as tests/node_test.cpp wires them.
FleetRun run_fleet(const TallSetup& setup, std::size_t rounds, const std::string& checkpoint_out,
                   bool toggle_spans) {
  FleetRun out;
  gtv::core::NodeConfig config = setup.config;
  config.rounds = rounds;
  const std::size_t frames_per_round = config.options.gan.d_steps_per_round + 1;
  const auto boot = Clock::now();

  auto server_tcp = std::make_shared<gtv::net::TcpTransport>("server");
  const std::uint16_t server_port = server_tcp->listen(0);
  auto driver_tcp = std::make_shared<gtv::net::TcpTransport>("driver");
  const std::uint16_t driver_port = driver_tcp->listen(0);
  out.probes[0] = std::make_shared<ProbeTransport>(server_tcp, kParties[0]);
  out.probes[3] = std::make_shared<ProbeTransport>(driver_tcp, kParties[3], "server->driver");
  if (toggle_spans) {
    // Traced runs record spans on alternate rounds; the others are the
    // control for trace.overhead_frac.
    out.probes[3]->set_on_watched([frames_per_round](std::size_t count) {
      if (count % frames_per_round == 0) {
        SpanLog::instance().set_enabled((count / frames_per_round) % 2 == 0);
      }
    });
  }

  std::vector<Clock::time_point> ready(setup.shards.size(), boot);
  std::vector<gtv::net::LinkStats> stats(3);
  std::vector<std::exception_ptr> errors(4);
  std::vector<std::thread> parties;
  parties.emplace_back([&] {
    try {
      gtv::core::ServerNode node(config, setup.g_widths, setup.d_widths);
      node.set_transport(out.probes[0]);
      node.traffic().set_retry_policy(fleet_retry_policy());
      node.run();
      stats[0] = node.traffic().total();
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < setup.shards.size(); ++i) {
    auto transport = std::make_shared<gtv::net::TcpTransport>(kParties[1 + i]);
    out.probes[1 + i] = std::make_shared<ProbeTransport>(transport, kParties[1 + i]);
    parties.emplace_back([&, i, transport] {
      try {
        transport->connect_peer("server", "127.0.0.1", server_port);
        transport->connect_peer("driver", "127.0.0.1", driver_port);
        gtv::core::ClientNode node(config, i, setup.shards[i], setup.g_widths[i],
                                   setup.d_widths[i]);
        ready[i] = Clock::now();
        node.set_transport(out.probes[1 + i]);
        node.traffic().set_retry_policy(fleet_retry_policy());
        node.run();
        stats[1 + i] = node.traffic().total();
      } catch (...) {
        errors[1 + i] = std::current_exception();
      }
    });
  }
  gtv::net::LinkStats driver_stats;
  try {
    driver_tcp->connect_peer("server", "127.0.0.1", server_port);
    for (std::size_t i = 0; i < setup.shards.size(); ++i) {
      if (!driver_tcp->wait_for_peer(kParties[1 + i], 60000)) {
        throw std::runtime_error("client never connected");
      }
    }
    gtv::core::DriverNode driver(config);
    driver.set_transport(out.probes[3]);
    driver.traffic().set_retry_policy(fleet_retry_policy());
    if (!checkpoint_out.empty()) driver.set_checkpoint_out(checkpoint_out);
    out.history = driver.run();
    driver_stats = driver.traffic().total();
  } catch (...) {
    errors[3] = std::current_exception();
  }
  for (auto& t : parties) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  out.setup_s = ms_between(boot, *std::max_element(ready.begin(), ready.end())) / 1e3;
  stats.push_back(driver_stats);
  for (const auto& s : stats) {
    out.retries += s.retries;
    out.timeouts += s.timeouts;
  }
  const auto returns = out.probes[3]->watched_returns();
  for (std::size_t r = 0; r < rounds && (r + 1) * frames_per_round <= returns.size(); ++r) {
    out.round_ends.push_back(returns[(r + 1) * frames_per_round - 1]);
  }
  return out;
}

// Node config and split widths for two row-aligned shards, derived the way
// every gtv-node process derives them from the public feature counts.
TallSetup make_tall_setup(std::vector<gtv::data::Table> shards, std::uint64_t seed) {
  TallSetup setup;
  setup.config.options = tall_options();
  setup.config.n_clients = shards.size();
  setup.config.seed = seed;
  setup.config.train_rows = shards.front().n_rows();
  setup.config.validate();
  std::vector<std::size_t> feature_counts;
  for (const auto& shard : shards) feature_counts.push_back(shard.n_cols());
  const auto ratios = gtv::core::ratio_vector(feature_counts);
  setup.g_widths = gtv::core::proportional_widths(setup.config.options.generator_hidden, ratios);
  setup.d_widths = gtv::core::proportional_widths(setup.config.options.gan.hidden, ratios);
  setup.shards = std::move(shards);
  return setup;
}

}  // namespace

void run_train_tall_tcp(const Args& args, Report& report) {
  // Set-up: three fleet boots on the fixed set-up table.
  {
    const TallSetup fixed = make_tall_setup(make_split_loan(20000, kSetupSeed).shards, kSetupSeed);
    std::vector<double> setups;
    for (int i = 0; i < 3; ++i) setups.push_back(run_fleet(fixed, 0, "", false).setup_s);
    report.e2e("setup_s", median(setups), "s");
  }
  const SplitTable data = make_split_loan(20000, args.seed);
  const TallSetup setup = make_tall_setup(data.shards, args.seed);

  // Fleet A: the first rounds, compared against an in-process trainer, its
  // assembled checkpoint (for the JSD) and a round-time estimate.
  constexpr std::size_t kParityRounds = 3;
  std::filesystem::create_directories(".perfbench_out");
  const std::string ckpt_path =
      ".perfbench_out/tall_tcp-" + std::to_string(args.seed) + ".gtvk";
  const FleetRun first = run_fleet(setup, kParityRounds, ckpt_path, false);
  const gtv::serve::Checkpoint checkpoint = gtv::serve::load_checkpoint(ckpt_path);
  std::filesystem::remove(ckpt_path);

  std::vector<RoundTelemetry> telemetry;
  bool parity = first.history.size() == kParityRounds;
  {
    GtvTrainer reference(setup.shards, setup.config.options, setup.config.seed);
    reference.train(kParityRounds, [&](std::size_t, const RoundLosses&, const RoundTelemetry& t) {
      telemetry.push_back(t);
    });
    for (std::size_t r = 0; parity && r < kParityRounds; ++r) {
      const RoundLosses& a = first.history[r];
      const RoundLosses& b = reference.history()[r];
      parity = finite(a) && std::fabs(a.d_loss - b.d_loss) <= 1e-5 &&
               std::fabs(a.g_loss - b.g_loss) <= 1e-5 && std::fabs(a.gp - b.gp) <= 1e-5 &&
               std::fabs(a.wasserstein - b.wasserstein) <= 1e-5;
    }
  }
  report.check(parity, "train_tall_tcp: first rounds over TCP match in-process GtvTrainer within 1e-5");
  check_fidelity(checkpoint, data.joined, args.seed, 0.25, "train_tall_tcp", report);

  // Fleet B: the timed run, sized from fleet A's round time to fill
  // --seconds after the warm-up rounds.
  double est_round_s = 0.25;
  if (first.round_ends.size() == kParityRounds) {
    est_round_s = ms_between(first.round_ends[0], first.round_ends.back()) / 1e3 /
                  static_cast<double>(kParityRounds - 1);
  }
  const std::size_t timed_rounds = std::max<std::size_t>(
      10, static_cast<std::size_t>(std::ceil(args.seconds / std::max(est_round_s, 1e-3))));
  const double cpu0 = process_cpu_s();
  const std::uint64_t allocs0 = gtv::obs::memory_stats().alloc_count;
  gtv::obs::reset_memory_peak();
  const auto fleet_start = Clock::now();
  const FleetRun run = run_fleet(setup, kWarmupRounds + timed_rounds, "", args.trace);
  const double fleet_wall_s = seconds_since(fleet_start);
  SpanLog::instance().set_enabled(args.trace);

  const std::size_t done = run.round_ends.size();
  report.check(done == kWarmupRounds + timed_rounds, "train_tall_tcp: every round completed");
  RoundStats stats;
  for (std::size_t r = kWarmupRounds; r < done; ++r) {
    const double ms = ms_between(run.round_ends[r - 1], run.round_ends[r]);
    stats.round_ms.push_back(ms);
    // The driver probe switches spans on at the end of odd rounds.
    ((r % 2 == 0) ? stats.traced_ms : stats.plain_ms).push_back(ms);
    report.op(finite(run.history.at(r)));
  }
  report.attempted += run.retries + run.timeouts;
  report.failed += run.retries + run.timeouts;
  report.check(report.failed == 0, "train_tall_tcp: every loss finite, no retries or timeouts");
  if (done <= kWarmupRounds) return;
  const auto from = run.round_ends[kWarmupRounds - 1];
  const auto to = run.round_ends[done - 1];
  stats.window_s = ms_between(from, to) / 1e3;
  // CPU, allocations and peak memory cover the whole fleet run (set-up
  // included): the parties' threads cannot be sampled at round boundaries.
  stats.cpu_per_wall = (process_cpu_s() - cpu0) / fleet_wall_s;
  stats.allocs = gtv::obs::memory_stats().alloc_count - allocs0;
  stats.live_peak_mb = static_cast<double>(gtv::obs::memory_stats().peak_bytes) / 1e6;
  std::vector<ProbeTransport::Event> deliveries;
  for (std::size_t p = 0; p < 4; ++p) {
    const auto w = run.probes[p]->window(from, to);
    stats.net += w;
    const double n = static_cast<double>(stats.round_ms.size());
    const double window_ms = stats.window_s * 1e3;
    report.layer(std::string("core.") + kParties[p] + ".recv_wait_ms", w.wait_ms / n, "ms");
    report.layer(std::string("core.") + kParties[p] + ".busy_ms", (window_ms - w.wait_ms) / n,
                 "ms");
    const auto d = run.probes[p]->deliveries();
    deliveries.insert(deliveries.end(), d.begin(), d.end());
  }
  report_rounds(stats, args, report);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("net.retries", static_cast<double>(run.retries), "count");
  report.layer("net.timeouts", static_cast<double>(run.timeouts), "count");
  if (args.trace) {
    double total_ms = 0;
    for (const auto& t : telemetry) total_ms += t.total_ms;
    report_phases(telemetry, total_ms / static_cast<double>(telemetry.size()), report);
    LayerShapes shapes;
    shapes.d_hidden = setup.config.options.gan.hidden;
    shapes.g_hidden = setup.config.options.generator_hidden;
    shapes.gemm_rows = data.joined.n_rows();  // every non-selected client's all-rows forward
    shapes.frame_bytes = byte_weighted_median(deliveries);
    measure_layers(shapes, data.shards, setup.config.options.gan.encoder, checkpoint, report);
  }
}

}  // namespace perfbench
