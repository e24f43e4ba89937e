// gtv-serve — batched synthesis-serving daemon for GTV checkpoints.
//
// Daemon mode loads a versioned checkpoint container (written by
// gtv-node --checkpoint-out or serve::save_checkpoint) and serves
// seeded SampleRequests over the gtv::net framed transport, coalescing
// concurrent clients into single generator forwards:
//
//   gtv-serve --checkpoint model.ckpt --port 47540
//     [--max-batch N] [--max-wait-us N]
//     [--metrics-port P]      (in-process /metrics + /status endpoint)
//     [--blackbox-dir DIR]    (flight recorder: <dir>/serve.bbox)
//     [--sample-hz HZ] [--profile-dir DIR]
//
// SIGTERM/SIGINT drain gracefully: admitted requests finish, new ones are
// refused, the black box gets a clean shutdown record, and the JSON
// summary still prints. Client mode sends one seeded request:
//
//   gtv-serve --connect 127.0.0.1:47540 --rows 1000 --seed 42
//     [--cond column=category] [--name alice] [--csv]
//
// A seeded request is byte-identical across runs and across batching —
// the daemon's coalescing cannot perturb any client's stream.
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

#include "data/table.h"
#include "net/tcp.h"
#include "obs/agg.h"
#include "obs/blackbox.h"
#include "obs/sampler.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "serve/engine.h"

namespace {

using namespace gtv;

struct Args {
  // Daemon mode.
  std::string checkpoint;
  int port = 47540;
  std::size_t max_batch = 1024;
  int max_wait_us = 2000;
  int metrics_port = 0;
  std::string blackbox_dir;
  int sample_hz = 0;
  std::string profile_dir = ".";
  // Client mode.
  std::string connect;  // host:port
  std::size_t rows = 100;
  std::uint64_t seed = 42;
  std::string cond;  // column=category
  std::string name = "client";
  bool csv = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "gtv-serve: %s\n", msg);
  std::fprintf(stderr,
               "usage (daemon): gtv-serve --checkpoint FILE [--port P]\n"
               "  [--max-batch N] [--max-wait-us N] [--metrics-port P]\n"
               "  [--blackbox-dir DIR] [--sample-hz HZ] [--profile-dir DIR]\n"
               "usage (client): gtv-serve --connect HOST:PORT [--rows N] [--seed S]\n"
               "  [--cond column=category] [--name NAME] [--csv]\n");
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
    if (flag == "--checkpoint") {
      args.checkpoint = value(i);
    } else if (flag == "--port") {
      args.port = std::atoi(value(i));
    } else if (flag == "--max-batch") {
      args.max_batch = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--max-wait-us") {
      args.max_wait_us = std::atoi(value(i));
    } else if (flag == "--metrics-port") {
      args.metrics_port = std::atoi(value(i));
    } else if (flag == "--blackbox-dir") {
      args.blackbox_dir = value(i);
    } else if (flag == "--sample-hz") {
      args.sample_hz = std::atoi(value(i));
    } else if (flag == "--profile-dir") {
      args.profile_dir = value(i);
    } else if (flag == "--connect") {
      args.connect = value(i);
    } else if (flag == "--rows") {
      args.rows = std::strtoul(value(i), nullptr, 10);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value(i), nullptr, 10);
    } else if (flag == "--cond") {
      args.cond = value(i);
    } else if (flag == "--name") {
      args.name = value(i);
    } else if (flag == "--csv") {
      args.csv = true;
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (args.checkpoint.empty() == args.connect.empty()) {
    usage("exactly one of --checkpoint (daemon) or --connect (client) is required");
  }
  return args;
}

int run_daemon(const Args& args) {
  if (!args.blackbox_dir.empty()) {
    obs::bb::RunHeaderRecord header;
    header.party = serve::kServeParty;
    obs::bb::BlackBox::open_global(args.blackbox_dir + "/serve.bbox", header);
    obs::bb::install_crash_handlers();
  }
  serve::install_drain_handler();

  const serve::Checkpoint checkpoint = serve::load_checkpoint(args.checkpoint);
  serve::Synthesizer synth(checkpoint);
  std::fprintf(stderr,
               "gtv-serve: loaded %s (model %016llx, %zu clients, %zu columns)\n",
               args.checkpoint.c_str(),
               static_cast<unsigned long long>(synth.model_hash()),
               synth.n_clients(), synth.n_cols());

  obs::TraceSink::instance().declare_party(98, serve::kServeParty);
  auto transport = std::make_shared<net::TcpTransport>(serve::kServeParty);
  const std::uint16_t port = transport->listen(static_cast<std::uint16_t>(args.port));
  std::fprintf(stderr, "gtv-serve: listening on port %u\n", port);

  // Self-contained telemetry plane: a serving process has no driver to host
  // the Collector, so it runs its own and publishes into it on loopback.
  obs::agg::LiveStatus status;
  std::unique_ptr<obs::agg::Collector> collector;
  std::unique_ptr<obs::agg::SnapshotPublisher> publisher;
  if (args.metrics_port > 0) {
    collector = std::make_unique<obs::agg::Collector>();
    const std::uint16_t collector_port = collector->listen(0);
    collector->serve_http(static_cast<std::uint16_t>(args.metrics_port));
    publisher = std::make_unique<obs::agg::SnapshotPublisher>(
        serve::kServeParty, "127.0.0.1", collector_port);
    publisher->set_status(&status);
    publisher->start();
    std::fprintf(stderr, "gtv-serve: /metrics on port %d\n", args.metrics_port);
  }

  obs::sampler::Sampler* prof = nullptr;
  if (args.sample_hz > 0) {
    obs::sampler::SamplerOptions options;
    options.cpu_hz = args.sample_hz;
    prof = obs::sampler::Sampler::start_global(options, &status.round, &status.phase);
  }

  serve::DaemonOptions options;
  options.max_batch = args.max_batch;
  options.max_wait_us = args.max_wait_us;
  options.status = &status;
  serve::ServeDaemon daemon(synth, options);
  daemon.set_transport(transport);
  daemon.start();
  daemon.watch_peers(transport.get());

  // Park until SIGTERM/SIGINT; the handler only latches a flag so the
  // drain runs on this thread with everything still alive.
  while (!serve::drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "gtv-serve: drain requested\n");
  daemon.drain();
  if (publisher) publisher->stop();
  if (prof != nullptr) {
    prof->stop();
    prof->write_folded((args.profile_dir.empty() ? "." : args.profile_dir) +
                           "/serve.folded",
                       serve::kServeParty);
  }

  const serve::ServeStats stats = daemon.stats();
  std::printf("{\n  \"role\": \"serve\",\n  \"checkpoint\": \"%s\",\n"
              "  \"model_hash\": \"%016llx\",\n  \"port\": %u,\n"
              "  \"requests\": %llu,\n  \"rows\": %llu,\n  \"batches\": %llu,\n"
              "  \"errors\": %llu\n}\n",
              args.checkpoint.c_str(),
              static_cast<unsigned long long>(synth.model_hash()), port,
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.errors));
  obs::bb::note_shutdown(0, "drained");
  return 0;
}

int run_client(const Args& args) {
  const std::size_t colon = args.connect.rfind(':');
  if (colon == std::string::npos) usage("--connect wants HOST:PORT");
  const std::string host = args.connect.substr(0, colon);
  const int port = std::atoi(args.connect.c_str() + colon + 1);
  if (port <= 0 || port > 65535) usage("bad port in --connect");

  serve::Synthesizer::Condition cond;
  const serve::Synthesizer::Condition* cond_ptr = nullptr;
  if (!args.cond.empty()) {
    const std::size_t eq = args.cond.find('=');
    if (eq == std::string::npos) usage("--cond wants column=category");
    cond.column = args.cond.substr(0, eq);
    cond.category = args.cond.substr(eq + 1);
    cond_ptr = &cond;
  }

  serve::ServeClient client(args.name);
  client.connect(host, static_cast<std::uint16_t>(port));
  const serve::Welcome welcome = client.hello();
  const auto t0 = std::chrono::steady_clock::now();
  const serve::ServeClient::Result result = client.sample(args.rows, args.seed, cond_ptr);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0).count();

  if (args.csv) {
    // Header row is "name:<type>" tokens straight from the welcome.
    for (std::size_t c = 0; c < welcome.columns.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : ",", welcome.columns[c].c_str());
    }
    std::printf("\n");
    for (std::uint64_t r = 0; r < result.n_rows; ++r) {
      for (std::uint64_t c = 0; c < result.n_cols; ++c) {
        std::printf("%s%.17g", c == 0 ? "" : ",", result.cells[r * result.n_cols + c]);
      }
      std::printf("\n");
    }
    return 0;
  }
  std::printf("{\n  \"role\": \"client\",\n  \"model_hash\": \"%016llx\",\n"
              "  \"columns\": %zu,\n  \"rows\": %llu,\n  \"batches\": %llu,\n"
              "  \"seed\": %llu,\n  \"elapsed_ms\": %.3f,\n  \"cells_hash\": \"%016llx\"\n}\n",
              static_cast<unsigned long long>(welcome.model_hash),
              welcome.columns.size(),
              static_cast<unsigned long long>(result.n_rows),
              static_cast<unsigned long long>(result.batches),
              static_cast<unsigned long long>(args.seed), ms,
              static_cast<unsigned long long>([&result] {
                // FNV-1a over the received cells: lets smoke tests compare
                // two runs without storing the full payload.
                std::uint64_t h = 0xcbf29ce484222325ULL;
                auto mix = [&h](std::uint64_t v) {
                  for (int i = 0; i < 8; ++i) {
                    h ^= (v >> (8 * i)) & 0xffu;
                    h *= 0x100000001b3ULL;
                  }
                };
                mix(result.n_rows);
                mix(result.n_cols);
                for (const double cell : result.cells) {
                  std::uint64_t bits;
                  std::memcpy(&bits, &cell, 8);
                  mix(bits);
                }
                return h;
              }()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.connect.empty() ? run_daemon(args) : run_client(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtv-serve: %s\n", e.what());
    obs::bb::note_shutdown(1, e.what());
    return 1;
  }
}
