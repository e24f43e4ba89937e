// serve_open: an open-loop, seeded Poisson request stream against a
// ServeDaemon with gtv-serve's defaults, over two pipelined loopback
// connections driven by one sender and one receiver thread.
//
// The arrival rate climbs a fixed ladder of steps. Latency is timed from
// each request's due time to its last RowBatch, so a stall is charged to
// every request it delays. A step whose sender ran late is invalid.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "core/gtv.h"
#include "net/tcp.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace perfbench {

namespace serve = gtv::serve;

namespace {

constexpr std::size_t kConnections = 2;
// Offered request rates (requests/s), one step each, in order, and each
// step's share of the run. The middle step, whose latencies are the
// end-to-end numbers, runs longest; the top step is above capacity.
constexpr double kLadder[] = {100, 200, 350, 550, 900};
constexpr double kStepWeight[] = {3, 3, 8, 3, 3};
// The middle step's p50 and p99 are medians over this many equal slices
// (each ~1000 small requests at 30 s), so a stall of the whole host in one
// slice does not move them.
constexpr std::size_t kSlices = 4;
constexpr std::size_t kSteps = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr std::size_t kMiddleStep = kSteps / 2;
constexpr double kLatencyLimitMs = 100;   // small-request p99 limit for serve.max_rps
constexpr double kLateLimitMs = 5;        // sender lateness p99 that invalidates a step
constexpr double kBacklogLimitS = 0.25;   // outstanding arrivals at step end, in seconds of load
constexpr std::size_t kSmallMaxRows = 64;
constexpr std::size_t kCheckEvery = 32;   // every 32nd reply is compared byte for byte

struct Request {
  double due_s = 0;  // offset from the stream start
  std::size_t rows = 0;
  std::uint64_t seed = 0;
  std::size_t step = 0;
  bool large = false;
};

// Start of step `s` (s == kSteps: the end of the ladder), in seconds.
double step_start(std::size_t s, double seconds) {
  double total = 0, before = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    total += kStepWeight[i];
    if (i < s) before += kStepWeight[i];
  }
  return seconds * before / total;
}

// The seeded stream: Poisson arrivals per ladder step; sizes mostly
// 1..64 rows, and every 200th request 1100..1400 rows, larger than
// max_batch (split in two forwards and streamed). Fixing the share and
// span of large requests keeps each step's head-of-line blocking, and so
// its latency tail, alike across seeds.
std::vector<Request> make_stream(std::uint64_t seed, double seconds) {
  gtv::Rng rng(seed ^ 0x5e7e0badULL);
  std::vector<Request> stream;
  for (std::size_t s = 0; s < kSteps; ++s) {
    double t = step_start(s, seconds);
    const double end = step_start(s + 1, seconds);
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / kLadder[s];
      if (t >= end) break;
      Request r;
      r.due_s = t;
      r.step = s;
      r.large = stream.size() % 200 == 199;
      r.rows = r.large ? 1100 + static_cast<std::size_t>(rng.uniform() * 300)
                       : 1 + static_cast<std::size_t>(rng.uniform() * kSmallMaxRows);
      r.rows = std::min(r.rows, r.large ? std::size_t{1400} : kSmallMaxRows);
      r.seed = rng.next_u64();
      stream.push_back(r);
    }
  }
  return stream;
}

// One serving stack: checkpoint load -> Synthesizer -> daemon on an
// ephemeral port -> client connections with a completed hello.
struct Stack {
  std::unique_ptr<serve::Synthesizer> synth;
  std::shared_ptr<gtv::net::TcpTransport> tcp;
  std::shared_ptr<ProbeTransport> probe;  // the daemon's side
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::vector<std::shared_ptr<ProbeTransport>> conns;  // the load generator's side

  ~Stack() {
    if (daemon) daemon->drain();
    daemon.reset();
    conns.clear();
  }
};

std::string conn_name(std::size_t c) { return "lg" + std::to_string(c); }

std::unique_ptr<Stack> boot(const std::string& checkpoint_path) {
  auto stack = std::make_unique<Stack>();
  stack->synth = std::make_unique<serve::Synthesizer>(serve::load_checkpoint(checkpoint_path));
  stack->tcp = std::make_shared<gtv::net::TcpTransport>(serve::kServeParty);
  const std::uint16_t port = stack->tcp->listen(0);
  stack->probe = std::make_shared<ProbeTransport>(stack->tcp, "serve");
  stack->daemon = std::make_unique<serve::ServeDaemon>(*stack->synth, serve::DaemonOptions{});
  stack->daemon->set_transport(stack->probe);
  stack->daemon->start();
  stack->daemon->watch_peers(stack->tcp.get());
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto tcp = std::make_shared<gtv::net::TcpTransport>(conn_name(c));
    tcp->connect_peer(serve::kServeParty, "127.0.0.1", port);
    stack->conns.push_back(std::make_shared<ProbeTransport>(tcp, "loadgen"));
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    stack->conns[c]->send(conn_name(c) + "->serve", serve::encode_hello(serve::Hello{}));
    const auto reply = stack->conns[c]->recv("serve->" + conn_name(c), 10000);
    const serve::Welcome welcome = serve::decode_welcome(reply);
    if (welcome.model_hash != stack->synth->model_hash()) {
      throw std::runtime_error("serve_open: welcome carries the wrong model hash");
    }
  }
  return stack;
}

struct Outcome {
  Clock::time_point done{};
  std::size_t rows_got = 0;
  bool complete = false;
  bool failed = false;
  bool traced = false;
  std::vector<double> cells;  // kept for the byte-for-byte check only
};

struct Delivery {
  Clock::time_point at;
  std::size_t rows;
};

}  // namespace

void run_serve_open(const Args& args, Report& report) {
  const SplitTable data = make_split_loan(400, args.seed);

  // Input: a checkpoint trained briefly with train_paper's configuration.
  constexpr std::size_t kCheckpointRounds = 3;
  gtv::core::GtvTrainer trainer(data.shards, paper_options(), args.seed);
  std::vector<gtv::obs::RoundTelemetry> telemetry;
  trainer.train(kCheckpointRounds,
                [&](std::size_t, const gtv::gan::RoundLosses&, const gtv::obs::RoundTelemetry& t) {
                  telemetry.push_back(t);
                });
  serve::Checkpoint checkpoint = trainer.make_checkpoint();
  checkpoint.model_hash = serve::hash_table(serve::Synthesizer(checkpoint).sample(64, args.seed));
  std::filesystem::create_directories(".perfbench_out");
  const std::string ckpt_path = ".perfbench_out/serve-" + std::to_string(args.seed) + ".gtvk";
  serve::save_checkpoint(checkpoint, ckpt_path);

  // Set-up, five times: what a gtv-serve process does before its first
  // request, plus the clients' connect and hello.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < 5; ++i) {
    stack.reset();
    const auto t0 = Clock::now();
    stack = boot(ckpt_path);
    setups.push_back(seconds_since(t0));
  }
  std::filesystem::remove(ckpt_path);
  report.e2e("setup_s", median(setups), "s");

  const std::vector<Request> stream = make_stream(args.seed, args.seconds);
  std::vector<Outcome> outcomes(stream.size());
  std::vector<double> lateness_ms(stream.size(), 0);
  std::vector<Delivery> deliveries;

  // The daemon's own latency histograms, read over the middle step only.
  auto& registry = gtv::obs::MetricsRegistry::instance();
  gtv::obs::Histogram& request_ms = registry.histogram("serve.request_ms");
  gtv::obs::Histogram& batch_ms = registry.histogram("serve.batch_ms");
  double daemon_request_p50 = 0, daemon_batch_p50 = 0;
  const serve::ServeStats stats0 = stack->daemon->stats();
  gtv::obs::reset_memory_peak();
  const std::uint64_t allocs0 = gtv::obs::memory_stats().alloc_count;
  const double cpu0 = process_cpu_s();

  std::atomic<bool> sender_failed{false};
  double rss_before_top_mb = 0;
  std::exception_ptr sender_error;
  std::exception_ptr receiver_error;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(stream[i].due_s));
  };

  std::thread sender([&] {
    try {
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i == 0 || stream[i].step != stream[i - 1].step) {
          if (stream[i].step == kMiddleStep) {
            request_ms.reset();
            batch_ms.reset();
          } else if (stream[i].step == kMiddleStep + 1) {
            daemon_request_p50 = request_ms.percentile(50);
            daemon_batch_p50 = batch_ms.percentile(50);
          }
        }
        if (stream[i].step == kSteps - 1 && rss_before_top_mb == 0) {
          // Peak RSS is taken before the top step: above capacity, its queue
          // (and so the memory the queued plans hold) grows by design.
          rss_before_top_mb = peak_rss_mb();
        }
        std::this_thread::sleep_until(due(i));
        // Traced runs record spans in alternate half-second slices; the
        // others are the control for trace.overhead_frac.
        const bool traced = args.trace && static_cast<long>(stream[i].due_s / 0.5) % 2 == 0;
        SpanLog::instance().set_enabled(traced);
        outcomes[i].traced = traced;
        serve::SampleRequest req;
        req.request_id = i + 1;
        req.n_rows = stream[i].rows;
        req.seed = stream[i].seed;
        const std::size_t c = i % kConnections;
        lateness_ms[i] = ms_between(due(i), Clock::now());
        stack->conns[c]->send(conn_name(c) + "->serve", serve::encode_sample_request(req));
      }
    } catch (...) {
      sender_error = std::current_exception();
      sender_failed.store(true);
    }
  });

  std::thread receiver([&] {
    try {
      const auto give_up = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds + 60.0));
      std::size_t remaining = stream.size();
      while (remaining > 0 && Clock::now() < give_up && !sender_failed.load()) {
        bool got = false;
        for (std::size_t c = 0; c < kConnections; ++c) {
          std::vector<std::uint8_t> payload;
          try {
            payload = stack->conns[c]->recv("serve->" + conn_name(c), 0);
          } catch (const gtv::net::TimeoutError&) {
            continue;
          }
          got = true;
          const auto now = Clock::now();
          std::uint64_t id = 0;
          bool done = false;
          if (serve::peek_type(payload) == serve::MsgType::kError) {
            id = serve::decode_error(payload).request_id;
            if (id == 0 || id > stream.size()) throw std::runtime_error("error reply without a request");
            outcomes[id - 1].failed = true;
            done = true;
          } else {
            serve::RowBatch batch = serve::decode_row_batch(payload);
            id = batch.request_id;
            if (id == 0 || id > stream.size()) throw std::runtime_error("reply for an unknown request");
            Outcome& o = outcomes[id - 1];
            if (batch.start_row != o.rows_got) o.failed = true;  // out of order
            o.rows_got += batch.n_rows;
            deliveries.push_back({now, batch.n_rows});
            if ((id - 1) % kCheckEvery == 0) {
              o.cells.insert(o.cells.end(), batch.cells.begin(), batch.cells.end());
            }
            done = batch.done;
          }
          if (done) {
            Outcome& o = outcomes[id - 1];
            if (o.rows_got != stream[id - 1].rows) o.failed = true;
            o.done = now;
            o.complete = true;
            SpanLog::instance().record("request", "loadgen", id, due(id - 1), now);
            --remaining;
          }
        }
        if (!got) std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });
  sender.join();
  receiver.join();
  const auto end = Clock::now();
  SpanLog::instance().set_enabled(args.trace);
  report.check(!sender_error && !receiver_error, "serve_open: load generator ran without transport errors");

  // --- accounting -------------------------------------------------------------
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Outcome& o = outcomes[i];
    if (!o.complete) o.failed = true;
    report.op(!o.failed);
  }
  report.check(report.failed == 0, "serve_open: every request answered in full, in order");

  const auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(offset_s));
  };
  struct StepResult {
    double p50 = 0, p99 = 0, late_p99 = 0, rows_per_s = 0;
    std::size_t backlog = 0, failed = 0;
    bool valid = true, meets = false;
  };
  std::vector<StepResult> steps(kSteps);
  std::vector<double> traced_lat, plain_lat;
  for (std::size_t s = 0; s < kSteps; ++s) {
    const double step_s = step_start(s + 1, args.seconds) - step_start(s, args.seconds);
    const auto step_end = at(step_start(s + 1, args.seconds));
    std::vector<double> small, late;
    StepResult& r = steps[s];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (due(i) < step_end && (!o.complete || o.done > step_end)) ++r.backlog;
      if (stream[i].step != s) continue;
      late.push_back(lateness_ms[i]);
      if (o.failed) ++r.failed;
      if (stream[i].large) continue;
      // A failed request misses any latency limit.
      const double ms = o.failed ? std::numeric_limits<double>::infinity()
                                 : ms_between(due(i), o.done);
      small.push_back(ms);
      if (s == kMiddleStep && !o.failed) (o.traced ? traced_lat : plain_lat).push_back(ms);
    }
    std::size_t rows = 0;
    for (const auto& d : deliveries) {
      if (d.at >= at(step_start(s, args.seconds)) && d.at < step_end) rows += d.rows;
    }
    r.p50 = percentile(small, 50);
    r.p99 = percentile(small, 99);
    r.late_p99 = percentile(late, 99);
    r.rows_per_s = static_cast<double>(rows) / step_s;
    r.valid = r.late_p99 <= kLateLimitMs;
    r.meets = r.valid && r.failed == 0 && r.p99 <= kLatencyLimitMs &&
              static_cast<double>(r.backlog) <= kLadder[s] * kBacklogLimitS;
    std::printf("# step %zu rate=%.0f/s requests=%zu p50_ms=%.3f p99_ms=%.3f late_p99_ms=%.3f "
                "backlog_end=%zu rows_per_s=%.1f failed=%zu valid=%d meets_limit=%d\n",
                s, kLadder[s], small.size(), r.p50, r.p99, r.late_p99, r.backlog, r.rows_per_s,
                r.failed, r.valid ? 1 : 0, r.meets ? 1 : 0);
  }
  double max_rps = 0;
  for (std::size_t s = 0; s < kSteps; ++s) {
    if (steps[s].meets) max_rps = kLadder[s];
  }
  report.e2e("throughput_per_s", steps.back().rows_per_s, "1/s");
  report.e2e("peak_rss_mb", rss_before_top_mb, "MB");
  const double mid0 = step_start(kMiddleStep, args.seconds);
  const double slice_s = (step_start(kMiddleStep + 1, args.seconds) - mid0) / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].step != kMiddleStep || stream[i].large) continue;
    const auto k = std::min(kSlices - 1, static_cast<std::size_t>((stream[i].due_s - mid0) / slice_s));
    slices[k].push_back(outcomes[i].failed ? std::numeric_limits<double>::infinity()
                                           : ms_between(due(i), outcomes[i].done));
  }
  std::vector<double> slice_p50, slice_p99;
  for (const auto& lat : slices) {
    slice_p50.push_back(percentile(lat, 50));
    slice_p99.push_back(percentile(lat, 99));
    std::printf("# middle slice requests=%zu p50_ms=%.3f p99_ms=%.3f\n", lat.size(),
                slice_p50.back(), slice_p99.back());
  }
  report.e2e("latency_p50_ms", median(slice_p50), "ms");
  report.e2e("latency_tail_ms", median(slice_p99), "ms");

  // --- output checks ---------------------------------------------------------------
  serve::Synthesizer reference(checkpoint);
  std::size_t compared = 0;
  bool identical = true;
  for (std::size_t i = 0; i < stream.size(); i += kCheckEvery) {
    const Outcome& o = outcomes[i];
    if (o.failed) continue;
    const gtv::data::Table table = reference.sample(stream[i].rows, stream[i].seed);
    std::vector<double> cells;
    for (std::size_t r = 0; r < table.n_rows(); ++r) {
      for (std::size_t c = 0; c < table.n_cols(); ++c) cells.push_back(table.cell(r, c));
    }
    identical = identical && cells.size() == o.cells.size() &&
                std::memcmp(cells.data(), o.cells.data(), cells.size() * sizeof(double)) == 0;
    ++compared;
  }
  report.check(identical && compared > 0,
               "serve_open: " + std::to_string(compared) +
                   " sampled replies byte-identical to in-process Synthesizer::sample");
  check_fidelity(checkpoint, data.joined, args.seed, 0.25, "serve_open", report);

  // --- per-layer ---------------------------------------------------------------------
  const double n = static_cast<double>(std::max<std::size_t>(stream.size(), 1));
  ProbeTransport::Window net = stack->probe->window(start, end);
  std::vector<ProbeTransport::Event> frames = stack->probe->deliveries();
  for (const auto& conn : stack->conns) {
    net += conn->window(start, end);
    const auto d = conn->deliveries();
    frames.insert(frames.end(), d.begin(), d.end());
  }
  report_traffic(net, stream.size(), report);
  report.layer("tensor.allocs_per_op",
               static_cast<double>(gtv::obs::memory_stats().alloc_count - allocs0) / n, "count");
  report.layer("tensor.live_peak_mb",
               static_cast<double>(gtv::obs::memory_stats().peak_bytes) / 1e6, "MB");
  report.layer("proc.cpu_per_wall", (process_cpu_s() - cpu0) / (ms_between(start, end) / 1e3), "1");
  const serve::ServeStats stats1 = stack->daemon->stats();
  const std::uint64_t batches = stats1.batches - stats0.batches;
  report.layer("serve.batch_rows_avg",
               batches == 0 ? 0 : static_cast<double>(stats1.rows - stats0.rows) / static_cast<double>(batches),
               "count");
  report.layer("serve.request_ms_p50", daemon_request_p50, "ms");
  report.layer("serve.batch_ms_p50", daemon_batch_p50, "ms");
  report.layer("serve.max_rps", max_rps, "1/s");
  report.layer("loadgen.lateness_ms_p99", percentile(lateness_ms, 99), "ms");
  report.layer("loadgen.backlog_end", static_cast<double>(steps.back().backlog), "count");
  if (args.trace) {
    if (!traced_lat.empty() && !plain_lat.empty()) {
      report.layer("trace.overhead_frac", median(traced_lat) / median(plain_lat) - 1.0, "1");
    }
    double round_ms = 0;
    for (const auto& t : telemetry) round_ms += t.total_ms;
    report_phases(telemetry, round_ms / static_cast<double>(telemetry.size()), report);
    LayerShapes shapes;
    shapes.gemm_rows = 1024;  // a full coalesced batch
    shapes.frame_bytes = byte_weighted_median(frames);
    measure_layers(shapes, data.shards, paper_options().gan.encoder, checkpoint, report);
  }
  stack.reset();
}

}  // namespace perfbench
