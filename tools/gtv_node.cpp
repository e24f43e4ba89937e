// gtv-node — run GTV training as real OS processes over TCP.
//
// Each invocation plays one party:
//
//   gtv-node --role server  --port 47531
//   gtv-node --role client0 --port 47531 --driver-port 47532
//   gtv-node --role client1 --port 47531 --driver-port 47532
//   gtv-node --role driver  --port 47531 --driver-port 47532
//
// All processes must agree on --clients/--rounds/--seed/--rows/--dataset
// (they derive the dataset, split and model widths independently from those
// values). The driver prints a JSON summary with per-round losses that
// match a single-process run bit-for-bit given the same seed; compare with
//
//   gtv-node --role inproc
//
// which trains the same roles on threads of one process (GtvTrainer).
//
// Rendezvous is on localhost: the server listens on --port, the driver on
// --driver-port; clients dial both, the driver dials the server. Dials
// retry with bounded backoff, so start order does not matter.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gtv.h"
#include "core/node.h"
#include "core/partition.h"
#include "data/datasets.h"
#include "data/table.h"
#include "net/tcp.h"
#include "obs/agg.h"
#include "obs/blackbox.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/snapshot.h"
#include "obs/thread_name.h"
#include "obs/trace.h"
#include "serve/engine.h"

namespace {

using namespace gtv;

struct Args {
  std::string role;  // inproc | server | clientK | driver
  std::string dataset = "credit";
  std::size_t clients = 2;
  std::size_t rounds = 2;
  std::size_t rows = 96;
  std::size_t batch = 32;
  std::size_t d_steps = 2;
  std::uint64_t seed = 7;
  std::string host = "127.0.0.1";
  int port = 47531;
  int driver_port = 47532;
  // Live telemetry plane (obs::agg). The Collector runs inside the driver
  // process; every party publishes snapshots to it when a port is given.
  int collector_port = 0;          // 0 = telemetry plane disabled
  std::string collector_host;      // defaults to --host
  int metrics_port = 0;            // driver only: HTTP /metrics + /status
  int snapshot_interval_ms = 200;  // publisher cadence
  std::string offsets_out;         // driver only: clock-offset JSON path
  int linger_ms = 0;  // driver only: keep endpoints up after training
  // Black-box flight recorder (obs::bb). When a directory is given, every
  // role writes <dir>/<role>.bbox and arms the crash handlers + watchdog.
  std::string blackbox_dir;
  std::size_t blackbox_size = 0;  // 0 = kDefaultRingCapacity
  int blackbox_stall_ms = 30000;
  // Recv patience, exposed so crash smokes don't park ~2 minutes on a
  // SIGKILL'd peer before giving up.
  int recv_timeout_ms = 5000;
  int max_attempts = 24;
  // Statistical sampling profiler (obs::sampler). When >0, every role arms
  // SIGPROF at this rate, writes <dir>/<role>.folded at exit, and embeds its
  // top-k hot stacks in telemetry snapshots.
  int sample_hz = 0;
  std::string profile_dir = ".";
  // Write a serve::Checkpoint container after training (inproc and driver
  // roles): the driver collects every party's part over the wire.
  std::string checkpoint_out;
  // Elastic federation: coordinated GTVT train checkpoints and crash
  // recovery. --train-ckpt/--ckpt-every/--resume drive the driver;
  // --rejoin marks a relaunched client; any of them imply --elastic,
  // which every party must run with for the park/restore protocol.
  std::string train_ckpt;       // driver: GTVT path, rewritten every interval
  std::size_t ckpt_every = 5;   // driver: rounds between checkpoint barriers
  std::string resume;           // driver: GTVT container to resume from
  int rejoin_wait_ms = 30000;   // driver: patience for a crashed party's relaunch
  bool rejoin = false;          // client: skip setup handshake, await kCmdRestore
  bool elastic = false;
  // Per-party DP noise on outbound activations (options.dp_noise_std).
  float dp_noise = 0.0f;
  // Deterministic straggler: fixed per-delivery latency added by a
  // StraggleTransport wrapped around the real TCP transport (any role).
  int straggle_us = 0;
};

[[noreturn]] void usage(const char* msg) {
  // Early exits must still leave a last word in the flight recorder: a
  // wrapper script passing a bad flag otherwise looks identical to a
  // party that vanished mid-rendezvous.
  obs::bb::note_shutdown(2, msg != nullptr ? msg : "usage");
  if (msg != nullptr) std::fprintf(stderr, "gtv-node: %s\n", msg);
  std::fprintf(stderr,
               "usage: gtv-node --role inproc|server|client<k>|driver\n"
               "  [--dataset name] [--clients N] [--rounds R] [--rows N]\n"
               "  [--batch N] [--d-steps N] [--seed S]\n"
               "  [--host H] [--port P] [--driver-port P]\n"
               "  [--collector-port P] [--collector-host H] [--snapshot-interval-ms N]\n"
               "  [--metrics-port P] [--linger-ms N]  (driver)\n"
               "  [--offsets-out FILE]   (driver; for gtv-obs prof|flame|postmortem --offsets)\n"
               "  [--blackbox-dir DIR] [--blackbox-size BYTES] [--blackbox-stall-ms N]\n"
               "  [--recv-timeout-ms N] [--max-attempts N]\n"
               "  [--sample-hz HZ] [--profile-dir DIR]\n"
               "  [--checkpoint-out FILE]   (inproc, driver)\n"
               "  [--train-ckpt FILE] [--ckpt-every N] [--resume FILE]\n"
               "  [--rejoin-wait-ms N]   (driver)\n"
               "  [--rejoin]   (client)   [--elastic]   [--dp-noise STD]\n"
               "  [--straggle-us N]   (tcp roles)\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing option value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--role") {
      args.role = value(i);
    } else if (flag == "--dataset") {
      args.dataset = value(i);
    } else if (flag == "--clients") {
      args.clients = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--rounds") {
      args.rounds = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--rows") {
      args.rows = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--batch") {
      args.batch = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--d-steps") {
      args.d_steps = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value(i), nullptr, 10);
    } else if (flag == "--host") {
      args.host = value(i);
    } else if (flag == "--port") {
      args.port = std::atoi(value(i));
    } else if (flag == "--driver-port") {
      args.driver_port = std::atoi(value(i));
    } else if (flag == "--collector-port") {
      args.collector_port = std::atoi(value(i));
    } else if (flag == "--collector-host") {
      args.collector_host = value(i);
    } else if (flag == "--metrics-port") {
      args.metrics_port = std::atoi(value(i));
    } else if (flag == "--snapshot-interval-ms") {
      args.snapshot_interval_ms = std::atoi(value(i));
    } else if (flag == "--offsets-out") {
      args.offsets_out = value(i);
    } else if (flag == "--linger-ms") {
      args.linger_ms = std::atoi(value(i));
    } else if (flag == "--blackbox-dir") {
      args.blackbox_dir = value(i);
    } else if (flag == "--blackbox-size") {
      args.blackbox_size = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--blackbox-stall-ms") {
      args.blackbox_stall_ms = std::atoi(value(i));
    } else if (flag == "--recv-timeout-ms") {
      args.recv_timeout_ms = std::atoi(value(i));
    } else if (flag == "--max-attempts") {
      args.max_attempts = std::atoi(value(i));
    } else if (flag == "--sample-hz") {
      args.sample_hz = std::atoi(value(i));
    } else if (flag == "--profile-dir") {
      args.profile_dir = value(i);
    } else if (flag == "--checkpoint-out") {
      args.checkpoint_out = value(i);
    } else if (flag == "--train-ckpt") {
      args.train_ckpt = value(i);
    } else if (flag == "--ckpt-every") {
      args.ckpt_every = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--resume") {
      args.resume = value(i);
    } else if (flag == "--rejoin-wait-ms") {
      args.rejoin_wait_ms = std::atoi(value(i));
    } else if (flag == "--rejoin") {
      args.rejoin = true;
    } else if (flag == "--elastic") {
      args.elastic = true;
    } else if (flag == "--dp-noise") {
      args.dp_noise = static_cast<float>(std::atof(value(i)));
    } else if (flag == "--straggle-us") {
      args.straggle_us = std::atoi(value(i));
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (args.role.empty()) usage("--role is required");
  // Any elastic-federation flag opts the whole party into the park/restore
  // protocol (the driver decides when the barriers run; server and clients
  // just need to survive a peer dying mid-round).
  if (!args.train_ckpt.empty() || !args.resume.empty() || args.rejoin) {
    args.elastic = true;
  }
  return args;
}

// Everything all parties must agree on, derived deterministically from Args.
struct Shared {
  core::NodeConfig config;
  std::vector<data::Table> shards;
  std::vector<std::size_t> g_widths;
  std::vector<std::size_t> d_widths;
};

Shared build_shared(const Args& args) {
  Shared shared;
  core::GtvOptions& options = shared.config.options;
  options.gan.batch_size = args.batch;
  options.gan.d_steps_per_round = args.d_steps;
  options.dp_noise_std = args.dp_noise;
  shared.config.n_clients = args.clients;
  shared.config.rounds = args.rounds;
  shared.config.seed = args.seed;
  shared.config.train_rows = args.rows;
  shared.config.validate();

  Rng data_rng(args.seed ^ 0xda7aULL);
  const data::Table table = data::make_dataset(args.dataset, args.rows, data_rng);
  if (table.n_cols() < args.clients) usage("more clients than dataset columns");
  // Contiguous even column split, client 0 first.
  std::vector<std::vector<std::size_t>> groups(args.clients);
  const std::size_t base = table.n_cols() / args.clients;
  std::size_t extra = table.n_cols() % args.clients;
  std::size_t cursor = 0;
  for (std::size_t g = 0; g < args.clients; ++g) {
    const std::size_t take = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    for (std::size_t c = 0; c < take; ++c) groups[g].push_back(cursor++);
  }
  shared.shards = data::vertical_split(table, groups);

  std::vector<std::size_t> feature_counts;
  for (const auto& shard : shared.shards) feature_counts.push_back(shard.n_cols());
  const auto ratios = core::ratio_vector(feature_counts);
  shared.g_widths = core::proportional_widths(options.generator_hidden, ratios);
  shared.d_widths = core::proportional_widths(options.gan.hidden, ratios);
  return shared;
}

void declare_parties(std::size_t n_clients) {
  obs::TraceSink& sink = obs::TraceSink::instance();
  sink.declare_party(0, "server");
  for (std::size_t i = 0; i < n_clients; ++i) {
    sink.declare_party(static_cast<int>(i) + 1, "client" + std::to_string(i));
  }
  sink.declare_party(obs::kDriverPid, "driver");
}

void print_losses(const std::vector<gan::RoundLosses>& history) {
  std::printf("  \"rounds\": [");
  for (std::size_t r = 0; r < history.size(); ++r) {
    std::printf("%s\n    {\"d_loss\": %.9g, \"g_loss\": %.9g, \"gp\": %.9g, "
                "\"wasserstein\": %.9g}",
                r == 0 ? "" : ",", history[r].d_loss, history[r].g_loss, history[r].gp,
                history[r].wasserstein);
  }
  std::printf("\n  ],\n");
}

// Under GTV_HEALTH: per round the module and probe counts, then every
// alert as (rule, round, severity) — equal for the same training in
// process and over TCP.
void print_health(const std::vector<obs::RoundTelemetry>& rounds) {
  if (!obs::health_enabled()) return;
  std::printf(",\n  \"health\": {\"rounds\": [");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::printf("%s{\"modules\": %zu, \"probes\": %zu}", r == 0 ? "" : ", ",
                rounds[r].health.modules.size(), rounds[r].health.probes.size());
  }
  std::printf("],\n    \"alerts\": [");
  bool first = true;
  for (const auto& round : rounds) {
    for (const auto& alert : round.health.alerts) {
      std::printf("%s\n      {\"rule\": \"%s\", \"round\": %zu, \"severity\": \"%s\"}",
                  first ? "" : ",", alert.rule.c_str(), alert.round,
                  obs::to_string(alert.severity));
      first = false;
    }
  }
  std::printf("]}");
}

void print_traffic(const net::TrafficMeter& meter) {
  const net::LinkStats total = meter.total();
  std::printf("  \"traffic\": {\"bytes\": %llu, \"messages\": %llu, \"retries\": %llu, "
              "\"timeouts\": %llu, \"corrupt_frames\": %llu}",
              static_cast<unsigned long long>(total.bytes),
              static_cast<unsigned long long>(total.messages),
              static_cast<unsigned long long>(total.retries),
              static_cast<unsigned long long>(total.timeouts),
              static_cast<unsigned long long>(total.corrupt_frames));
}

// --straggle-us: a deterministic straggler. Every outgoing frame is
// delivered `delay_us` late; everything else, crash-recovery plumbing
// included, passes straight through to the real transport. The lockstep
// protocol tolerates it by construction; crash recovery must keep
// tolerating it, which the resume smoke pins.
class StraggleTransport : public net::Transport {
 public:
  StraggleTransport(std::shared_ptr<net::Transport> inner, int delay_us)
      : inner_(std::move(inner)), delay_us_(delay_us) {}
  std::string kind() const override { return "straggle+" + inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    inner_->deliver_frame(link, std::move(frame));
  }
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int timeout_ms) override {
    return inner_->fetch_frame(link, timeout_ms);
  }
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override {
    return inner_->wait_for_live_peer(peer, timeout_ms);
  }
  std::uint64_t conn_generation(const std::string& peer) const override {
    return inner_->conn_generation(peer);
  }

 private:
  std::shared_ptr<net::Transport> inner_;
  int delay_us_;
};

std::shared_ptr<net::Transport> maybe_straggle(std::shared_ptr<net::Transport> transport,
                                               const Args& args) {
  if (args.straggle_us <= 0) return transport;
  return std::make_shared<StraggleTransport>(std::move(transport), args.straggle_us);
}

// Node roles park longer per recv attempt than the RetryPolicy default: the
// peer may legitimately be grinding through a whole critic step. Defaults
// give ~2 minutes before giving up on a peer; crash smokes dial both down.
net::RetryPolicy node_retry_policy(const Args& args) {
  net::RetryPolicy policy;
  policy.recv_timeout_ms = args.recv_timeout_ms;
  policy.max_attempts = args.max_attempts;
  return policy;
}

// Opens the per-role flight recorder and arms the fatal-signal handlers.
// No-op when --blackbox-dir was not given.
void open_blackbox(const Args& args, const std::string& role) {
  if (args.blackbox_dir.empty()) return;
  obs::bb::RunHeaderRecord header;
  header.party = role;
  header.n_clients = args.clients;
  header.rounds = args.rounds;
  header.seed = args.seed;
  obs::bb::BlackBoxOptions options;
  if (args.blackbox_size > 0) options.capacity_bytes = args.blackbox_size;
  obs::bb::BlackBox::open_global(args.blackbox_dir + "/" + role + ".bbox", header,
                                 options);
  obs::bb::install_crash_handlers();
}

obs::bb::StallWatchdogOptions watchdog_options(const Args& args) {
  obs::bb::StallWatchdogOptions options;
  options.stall_ms = args.blackbox_stall_ms;
  return options;
}

// --sample-hz plumbing. The sampler is process-global; each role arms it
// right before its main loop and writes <profile-dir>/<role>.folded on the
// way out. Phase ids in LiveStatus are agg::Phase values, so sample tags
// reuse the same names the telemetry plane shows.
obs::sampler::Sampler* start_sampler(const Args& args,
                                     const obs::agg::LiveStatus* status) {
  if (args.sample_hz <= 0) return nullptr;
  obs::sampler::SamplerOptions options;
  options.cpu_hz = args.sample_hz;
  return obs::sampler::Sampler::start_global(
      options, status != nullptr ? &status->round : nullptr,
      status != nullptr ? &status->phase : nullptr);
}

// Disarms the sampler and writes the folded profile. Must run before the
// LiveStatus the sampler tags from goes out of scope.
void finish_sampler(obs::sampler::Sampler* prof, const Args& args,
                    const std::string& role) {
  if (prof == nullptr) return;
  prof->stop();
  const std::string dir = args.profile_dir.empty() ? "." : args.profile_dir;
  prof->write_folded(dir + "/" + role + ".folded", role);
}

void print_sampler(const obs::sampler::Sampler* prof) {
  if (prof == nullptr) return;
  const obs::sampler::SamplerStats st = prof->stats();
  std::printf(
      ",\n  \"sampler\": {\"cpu_samples\": %llu, \"offcpu_samples\": %llu, "
      "\"wall_sweeps\": %llu, \"dropped\": %llu, \"threads\": %llu}",
      static_cast<unsigned long long>(st.cpu_samples),
      static_cast<unsigned long long>(st.offcpu_samples),
      static_cast<unsigned long long>(st.wall_sweeps),
      static_cast<unsigned long long>(st.dropped),
      static_cast<unsigned long long>(st.threads_seen));
}

void graceful_signal_handler(int sig) {
  // Last word into the ring first (async-signal-safe), then std::exit so
  // the atexit hooks flush traces and GTV_METRICS_DUMP. std::exit from a
  // handler is not strictly async-signal-safe; for a terminal-interrupt
  // path, occasionally losing that race beats always losing the artifacts.
  obs::bb::note_shutdown(static_cast<std::uint32_t>(128 + sig),
                         sig == SIGINT ? "SIGINT" : "SIGTERM");
  std::exit(128 + sig);
}

void install_graceful_handlers() {
  struct sigaction sa{};
  sa.sa_handler = graceful_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

// Starts this party's snapshot publisher when a collector port was given
// (`host_override` lets the driver dial its own in-process Collector on
// loopback). Returns nullptr when the telemetry plane is off.
std::unique_ptr<obs::agg::SnapshotPublisher> start_publisher(
    const Args& args, const std::string& party, const obs::agg::LiveStatus* status,
    const std::string& host_override = {}) {
  if (args.collector_port <= 0) return nullptr;
  std::string host = host_override;
  if (host.empty()) host = args.collector_host.empty() ? args.host : args.collector_host;
  obs::agg::PublisherOptions options;
  options.interval_ms = args.snapshot_interval_ms;
  auto publisher = std::make_unique<obs::agg::SnapshotPublisher>(
      party, host, static_cast<std::uint16_t>(args.collector_port), options);
  publisher->set_status(status);
  publisher->start();
  return publisher;
}

void print_publisher(const obs::agg::SnapshotPublisher& publisher) {
  const net::ClockSync sync = publisher.clock_sync();
  std::printf(
      ",\n  \"telemetry\": {\"snapshots\": %llu, \"send_failures\": %llu, "
      "\"clock\": {\"valid\": %s, \"offset_us\": %.3f, \"rtt_us\": %.3f}}",
      static_cast<unsigned long long>(publisher.published()),
      static_cast<unsigned long long>(publisher.send_failures()),
      sync.valid ? "true" : "false", sync.offset_us, sync.rtt_us);
}

int run_inproc(const Args& args, const Shared& shared) {
  core::GtvTrainer trainer(shared.shards, shared.config.options, args.seed);
  // No LiveStatus in process; samples carry round 0 / phase "idle" tags but
  // still attribute CPU to the hot kernels.
  obs::sampler::Sampler* prof = start_sampler(args, nullptr);
  trainer.train(args.rounds, [](std::size_t round, const gan::RoundLosses& losses) {
    obs::bb::note_loss(round, losses.d_loss, losses.g_loss, losses.gp,
                       losses.wasserstein);
  });
  serve::Checkpoint ckpt = trainer.make_checkpoint();
  ckpt.model_hash = serve::model_hash_of(ckpt);
  if (!args.checkpoint_out.empty()) serve::save_checkpoint(ckpt, args.checkpoint_out);
  finish_sampler(prof, args, "inproc");

  std::printf("{\n  \"role\": \"inproc\",\n  \"transport\": \"inproc\",\n");
  print_losses(trainer.history());
  print_traffic(trainer.traffic());
  print_health(trainer.telemetry());
  std::printf(",\n  \"model_hash\": \"%016llx\"",
              static_cast<unsigned long long>(ckpt.model_hash));
  if (!args.checkpoint_out.empty()) {
    std::printf(",\n  \"checkpoint\": \"%s\"", args.checkpoint_out.c_str());
  }
  print_sampler(prof);
  std::printf("\n}\n");
  return 0;
}

int run_server(const Args& args, Shared shared) {
  auto transport = std::make_shared<net::TcpTransport>("server");
  transport->listen(static_cast<std::uint16_t>(args.port));
  core::ServerNode node(shared.config, shared.g_widths, shared.d_widths);
  node.set_transport(maybe_straggle(transport, args));
  node.set_elastic(args.elastic);
  node.traffic().set_retry_policy(node_retry_policy(args));
  obs::agg::LiveStatus status;
  node.set_live_status(&status);
  obs::bb::StallWatchdog watchdog(&status.round, &status.phase, watchdog_options(args));
  if (!args.blackbox_dir.empty()) watchdog.start();
  auto publisher = start_publisher(args, "server", &status);
  obs::sampler::Sampler* prof = start_sampler(args, &status);
  node.run();
  if (publisher) publisher->stop();
  watchdog.stop();
  finish_sampler(prof, args, "server");
  std::printf("{\n  \"role\": \"server\",\n  \"transport\": \"tcp\",\n");
  print_traffic(node.traffic());
  if (publisher) print_publisher(*publisher);
  print_sampler(prof);
  std::printf("\n}\n");
  return 0;
}

int run_client(const Args& args, Shared shared, std::size_t id) {
  const std::string name = "client" + std::to_string(id);
  auto transport = std::make_shared<net::TcpTransport>(name);
  transport->connect_peer("server", args.host, static_cast<std::uint16_t>(args.port));
  transport->connect_peer("driver", args.host,
                          static_cast<std::uint16_t>(args.driver_port));
  core::ClientNode node(shared.config, id, std::move(shared.shards[id]),
                        shared.g_widths[id], shared.d_widths[id]);
  node.set_transport(maybe_straggle(transport, args));
  node.set_elastic(args.elastic);
  node.set_rejoin(args.rejoin);
  node.traffic().set_retry_policy(node_retry_policy(args));
  obs::agg::LiveStatus status;
  node.set_live_status(&status);
  obs::bb::StallWatchdog watchdog(&status.round, &status.phase, watchdog_options(args));
  if (!args.blackbox_dir.empty()) watchdog.start();
  auto publisher = start_publisher(args, name, &status);
  obs::sampler::Sampler* prof = start_sampler(args, &status);
  node.run();
  if (publisher) publisher->stop();
  watchdog.stop();
  finish_sampler(prof, args, name);
  std::printf("{\n  \"role\": \"%s\",\n  \"transport\": \"tcp\",\n", name.c_str());
  print_traffic(node.traffic());
  if (publisher) print_publisher(*publisher);
  print_sampler(prof);
  std::printf("\n}\n");
  return 0;
}

// Writes `text` to `path`; returns false (and warns) on failure.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gtv-node: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void print_collector(const obs::agg::Collector& collector, std::size_t expected) {
  const auto parties = collector.parties();
  std::size_t reported = 0;
  for (const auto& view : parties) {
    if (view.snapshots > 0) ++reported;
  }
  std::printf(",\n  \"collector\": {\"parties\": %zu, \"expected\": %zu, "
              "\"all_reported\": %s, \"snapshot_latency_p50_ms\": %.3f, "
              "\"snapshot_latency_p99_ms\": %.3f,\n    \"views\": [",
              parties.size(), expected, reported >= expected ? "true" : "false",
              collector.latency_ms(50), collector.latency_ms(99));
  for (std::size_t i = 0; i < parties.size(); ++i) {
    const auto& view = parties[i];
    std::printf("%s\n      {\"party\": \"%s\", \"snapshots\": %llu, \"stale\": %s, "
                "\"reconnects\": %llu, \"clock_valid\": %s, \"clock_offset_us\": %.3f, "
                "\"clock_rtt_us\": %.3f}",
                i == 0 ? "" : ",", view.latest.party.c_str(),
                static_cast<unsigned long long>(view.snapshots),
                view.stale ? "true" : "false",
                static_cast<unsigned long long>(view.reconnects),
                view.have_clock ? "true" : "false", view.clock_offset_us,
                view.clock_rtt_us);
  }
  std::printf("\n    ]}");
}

int run_driver(const Args& args, const Shared& shared) {
  obs::PartyScope scope(obs::kDriverPid);

  // The Collector lives in the driver process: telemetry converges where
  // the round schedule is decided, on sockets that never carry training.
  std::unique_ptr<obs::agg::Collector> collector;
  if (args.collector_port > 0) {
    collector = std::make_unique<obs::agg::Collector>();
    collector->listen(static_cast<std::uint16_t>(args.collector_port));
    if (args.metrics_port > 0) {
      collector->serve_http(static_cast<std::uint16_t>(args.metrics_port));
    }
  }

  auto transport = std::make_shared<net::TcpTransport>("driver");
  transport->listen(static_cast<std::uint16_t>(args.driver_port));
  transport->connect_peer("server", args.host, static_cast<std::uint16_t>(args.port));
  // The driver speaks first (command broadcast), so unlike the server it
  // must wait for every client to finish the rendezvous.
  for (std::size_t i = 0; i < args.clients; ++i) {
    const std::string peer = "client" + std::to_string(i);
    if (!transport->wait_for_peer(peer, 60000)) {
      throw net::TransportError("driver: " + peer + " never connected");
    }
  }
  core::DriverNode node(shared.config);
  node.set_transport(maybe_straggle(transport, args));
  node.traffic().set_retry_policy(node_retry_policy(args));
  if (!args.checkpoint_out.empty()) node.set_checkpoint_out(args.checkpoint_out);
  if (!args.train_ckpt.empty()) node.set_train_checkpoint(args.train_ckpt, args.ckpt_every);
  if (!args.resume.empty()) node.set_resume(args.resume);
  node.set_rejoin_wait_ms(args.rejoin_wait_ms);
  obs::agg::LiveStatus status;
  node.set_live_status(&status);
  obs::bb::StallWatchdog watchdog(&status.round, &status.phase, watchdog_options(args));
  if (!args.blackbox_dir.empty()) watchdog.start();
  auto publisher = start_publisher(args, "driver", &status, "127.0.0.1");
  obs::sampler::Sampler* prof = start_sampler(args, &status);

  // A SIGKILL'd party makes node.run() throw, so the end-of-run offsets
  // write below never happens — on exactly the runs gtv-obs postmortem needs
  // offsets for. A side thread writes them as soon as every party has
  // clock info, and writes whatever arrived if the run unwinds first.
  std::atomic<bool> offsets_stop{false};
  std::thread offsets_thread;
  struct OffsetsJoin {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~OffsetsJoin() {
      stop->store(true);
      if (thread->joinable()) thread->join();
    }
  } offsets_join{&offsets_stop, &offsets_thread};
  if (collector && !args.offsets_out.empty()) {
    offsets_thread = std::thread([&collector, &offsets_stop, &args] {
      obs::set_current_thread_name("gtv-offsets");
      const std::size_t expected = args.clients + 2;
      while (!offsets_stop.load()) {
        std::size_t clocked = 0;
        for (const auto& view : collector->parties()) {
          if (view.have_clock) ++clocked;
        }
        if (clocked >= expected) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      write_file(args.offsets_out, collector->offsets_json() + "\n");
    });
  }

  const auto history = node.run();
  if (publisher) publisher->stop();
  watchdog.stop();
  finish_sampler(prof, args, "driver");

  if (collector) {
    // Parties flush a final snapshot on their way out; give the plane a
    // moment so the summary below reflects everyone.
    collector->wait_for_snapshots(args.clients + 2, 1, 5000);
    if (!args.offsets_out.empty()) {
      // Retire the early writer first so the final (most complete) offsets
      // are what lands on disk.
      offsets_stop.store(true);
      if (offsets_thread.joinable()) offsets_thread.join();
      write_file(args.offsets_out, collector->offsets_json() + "\n");
    }
    if (args.linger_ms > 0) {
      // Keep /metrics and /status scrapeable after training ends — smoke
      // tests and dashboards get a deterministic window.
      std::this_thread::sleep_for(std::chrono::milliseconds(args.linger_ms));
    }
  }

  std::printf("{\n  \"role\": \"driver\",\n  \"transport\": \"tcp\",\n");
  print_losses(history);
  print_traffic(node.traffic());
  print_health(node.telemetry());
  if (!args.checkpoint_out.empty()) {
    std::printf(",\n  \"checkpoint\": \"%s\",\n  \"model_hash\": \"%016llx\"",
                args.checkpoint_out.c_str(),
                static_cast<unsigned long long>(node.checkpoint_hash()));
  }
  if (args.elastic) {
    std::printf(",\n  \"resumed_from\": %zu,\n  \"recoveries\": %zu",
                node.resumed_from(), node.recoveries());
  }
  if (publisher) print_publisher(*publisher);
  if (collector) print_collector(*collector, args.clients + 2);
  print_sampler(prof);
  std::printf("\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    open_blackbox(args, args.role);
    install_graceful_handlers();
    Shared shared = build_shared(args);
    declare_parties(args.clients);
    int rc = 2;
    if (args.role == "inproc") {
      rc = run_inproc(args, shared);
    } else if (args.role == "server") {
      rc = run_server(args, std::move(shared));
    } else if (args.role == "driver") {
      rc = run_driver(args, shared);
    } else if (args.role.rfind("client", 0) == 0) {
      const std::size_t id = std::strtoul(args.role.c_str() + 6, nullptr, 10);
      if (id >= args.clients) usage("client id out of range");
      rc = run_client(args, std::move(shared), id);
    } else {
      usage(("unknown role " + args.role).c_str());
    }
    // The ring's last word: a clean exit. A SIGKILL'd party never gets
    // here, which is precisely how gtv-obs postmortem tells the dead from the
    // survivors.
    obs::bb::note_shutdown(0, "clean");
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtv-node(%s): %s\n", args.role.c_str(), e.what());
    obs::bb::note_shutdown(1, e.what());
    return 1;
  }
}
