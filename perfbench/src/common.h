// perfbench — shared pieces of the benchmark: clocks and statistics, the
// result report, the in-memory span log and the transport probe.
//
// Everything here lives outside the library: layers are timed around calls
// into their public functions, and the cross-party traffic is observed by a
// net::Transport decorator wrapped around the real transports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "data/table.h"
#include "encode/encoder.h"
#include "net/transport.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50); }
double mean(const std::vector<double>& values);

double peak_rss_mb();    // getrusage high-water mark of this process
double process_cpu_s();  // user + system CPU seconds of this process

// Runs `fn` repeatedly until at least `min_seconds` have passed (and at
// least `min_reps` times); returns the median milliseconds per call.
template <typename Fn>
double time_ms(Fn&& fn, double min_seconds = 0.2, int min_reps = 5) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || seconds_since(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(samples));
}

// The run's result: correctness, op accounting and two metric sets. The
// last stdout line is the JSON object the benchmark contract asks for; it
// carries the end-to-end metrics on an untraced run and the per-layer
// metrics on a traced one.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  // A failed check makes the run incorrect (non-zero exit); `what` goes to
  // stderr either way.
  void check(bool ok, const std::string& what);
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return correct_; }

  void print_human(const Args& args) const;
  std::string json(bool traced) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  static void put(std::vector<Metric>& list, const std::string& name, double value,
                  const std::string& unit);
  bool correct_ = true;
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
};

// In-memory span log. Spans are recorded by benchmark code around calls
// into the library (rounds, party recv waits, serve requests, layer
// probes) only while tracing is enabled, and written as JSON lines at exit.
class SpanLog {
 public:
  static SpanLog& instance();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  // Spans of one round or request share `group` (0 = none); a party's
  // recv_wait and deliver spans nest in time inside its round's span.
  void record(const char* name, const char* party, std::uint64_t group, Clock::time_point t0,
              Clock::time_point t1);
  std::size_t size() const;
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* party;
    std::uint64_t group;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
  };
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Transport decorator for one party: records each fetch_frame call (time
// spent waiting for a peer) and each deliver_frame call (handing a frame to
// the wire, with its size), and the return times of fetches on one watched
// link (the driver watches "server->driver" to find round boundaries).
class ProbeTransport : public gtv::net::Transport {
 public:
  struct Event {
    Clock::time_point t0;
    Clock::time_point t1;
    std::size_t bytes = 0;  // frame size (deliveries only)
  };
  // Totals over the events that start inside [from, to); waits are clipped
  // to the window.
  struct Window {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    double deliver_ms = 0;
    double wait_ms = 0;
    Window& operator+=(const Window& o) {
      frames += o.frames;
      bytes += o.bytes;
      deliver_ms += o.deliver_ms;
      wait_ms += o.wait_ms;
      return *this;
    }
  };

  ProbeTransport(std::shared_ptr<gtv::net::Transport> inner, const char* party,
                 std::string watched_link = {});

  std::string kind() const override { return "probe+" + inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int timeout_ms) override;
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override {
    return inner_->wait_for_live_peer(peer, timeout_ms);
  }

  // Called with the running count after each fetch returns on the watched
  // link. Set before the party starts.
  void set_on_watched(std::function<void(std::size_t)> fn) { on_watched_ = std::move(fn); }

  Window window(Clock::time_point from, Clock::time_point to) const;
  std::vector<Event> deliveries() const;
  std::vector<Clock::time_point> watched_returns() const;

 private:
  std::shared_ptr<gtv::net::Transport> inner_;
  const char* party_;
  std::string watched_;
  std::function<void(std::size_t)> on_watched_;
  mutable std::mutex mu_;
  std::vector<Event> delivers_;
  std::vector<Event> waits_;
  std::vector<Clock::time_point> watched_returns_;
};

// Size of the frame below which half of the delivered bytes travel.
std::size_t byte_weighted_median(std::vector<ProbeTransport::Event> deliveries);

// wire_mb_per_op and the net.* per-op metrics from the traffic of `ops`
// rounds or requests.
void report_traffic(const ProbeTransport::Window& net, std::size_t ops, Report& report);

// Registers every end-to-end and per-layer metric (value 0) so all
// workloads report the same set; each workload overwrites what it measures.
void declare_metrics(Report& report);

// --- shared workload inputs ----------------------------------------------------

// Seeded loan table split column-wise between two clients (first half of
// the columns to client 0), as the node tests and gtv-node do.
struct SplitTable {
  gtv::data::Table joined;
  std::vector<gtv::data::Table> shards;
};
SplitTable make_split_loan(std::size_t rows, std::uint64_t seed);

// Set-up is timed on a table made from this fixed seed, not the run's: the
// encoders' EM fits stop at a convergence tolerance, so their cost follows
// the data, and set-up must measure the code.
inline constexpr std::uint64_t kSetupSeed = 1;

// The paper's training configuration (loan: D/G 256, noise 128, batch 128,
// e = 5) in the server-local gradient-penalty mode gtv-node deploys.
gtv::core::GtvOptions paper_options();

// Mean per-round phase times from a trainer's RoundTelemetry, and the share
// of `round_ms` they account for.
void report_phases(const std::vector<gtv::obs::RoundTelemetry>& rounds, double round_ms,
                   Report& report);

// Fidelity guard: the average JSD of a fixed seeded 2000-row Synthesizer
// sample against `real` must lie in (0, limit). Reported as the per-layer
// eval.synth_avg_jsd: it depends on the seed's data far more than any
// end-to-end bound allows.
void check_fidelity(const gtv::serve::Checkpoint& checkpoint, const gtv::data::Table& real,
                    std::uint64_t seed, double limit, const std::string& workload,
                    Report& report);

// --- workloads -------------------------------------------------------------------

// Per-layer probes at a workload's shapes (traced runs only).
struct LayerShapes {
  std::size_t d_hidden = 256;   // total critic width
  std::size_t g_hidden = 256;   // total generator width
  std::size_t gemm_rows = 128;  // rows of the workload's dominant gemm
  std::size_t frame_bytes = 0;  // median frame size the workload put on the wire
};
void measure_layers(const LayerShapes& shapes, const std::vector<gtv::data::Table>& shards,
                    const gtv::encode::EncoderOptions& encoder_options,
                    const gtv::serve::Checkpoint& checkpoint, Report& report);

void run_train_paper(const Args& args, Report& report);
void run_train_tall_tcp(const Args& args, Report& report);
void run_serve_open(const Args& args, Report& report);

}  // namespace perfbench
