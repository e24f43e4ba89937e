// gtv::serve — batched synthesis-serving daemon over gtv::net.
//
// One ServeDaemon per serving process (party name "serve"). Clients talk
// the serve/protocol.h vocabulary on "<client>->serve" / "serve-><client>"
// links. Requests are admitted by per-peer handler threads and coalesced
// by ONE batcher thread into single generator forward passes:
//
//   handler (per peer)                  batcher (single)
//   ─ recv SampleRequest                ─ wait for pending rows
//   ─ Synthesizer::plan(seed)           ─ linger up to max_wait_us
//     (thread-safe, pre-draws all         (or until max_batch rows)
//      randomness for the request)      ─ concat plan slices, ONE
//   ─ enqueue PendingRequest              Synthesizer::run()
//                                       ─ slice decoded rows per request,
//                                         stream RowBatch frames back
//
// Because a request's randomness is fully pre-drawn at admission and
// run() is row-independent, coalescing cannot perturb any client's
// stream: a seeded request returns byte-identical rows whether it shares
// a batch with 63 other clients or runs alone. Requests larger than
// max_batch are split across several forwards and streamed as multiple
// RowBatch frames (done=true on the last).
//
// Concurrency over the shared transport: handler threads (welcomes,
// errors) and the batcher (row batches) all reply on one serve-><peer>
// link, and net::Transport::send allows one sender per link at a time —
// two concurrent senders could overtake each other's sequence numbers,
// and the client would drop the overtaken frame as stale. So every send
// goes through ONE send meter under send_mu_. Handlers receive straight
// from the (thread-safe) Transport — traffic is charged sender-side, so
// nothing is lost by not metering receives.
//
// Observability: serve.requests / serve.rows / serve.batches /
// serve.errors counters, serve.batch_rows occupancy histogram and
// serve.request_ms / serve.batch_ms latency histograms in the global
// MetricsRegistry (scrapable via /metrics), plus LiveStatus phases
// kServeWait / kServeBatch / kServeDrain so gtv-obs top, the sampler and the
// black box work on a serving process unchanged.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "net/wire.h"
#include "obs/snapshot.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace gtv::serve {

// The party name a serving daemon announces on its transport.
inline constexpr const char* kServeParty = "serve";

struct DaemonOptions {
  std::size_t max_batch = 1024;  // coalesced rows per generator forward
  int max_wait_us = 2000;        // linger before running a partial batch
  int recv_timeout_ms = 50;      // per-peer poll cadence (drain latency)
  int peer_poll_ms = 20;         // watch_peers() discovery cadence
  obs::agg::LiveStatus* status = nullptr;  // optional live phase/round hook
};

struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t errors = 0;
};

class ServeDaemon {
 public:
  ServeDaemon(Synthesizer& synth, DaemonOptions options = {});
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Must be called before start(). The transport is shared by every
  // handler and the batcher (it is thread-safe; the meters are per-thread).
  void set_transport(std::shared_ptr<net::Transport> transport);

  // Starts the batcher thread. Peers are added explicitly (inproc tests)
  // or discovered via watch_peers (TCP daemon).
  void start();

  // Spawns a handler thread for `peer` (idempotent).
  void add_peer(const std::string& peer);

  // Polls `tcp`->peers() and add_peer()s every new connection. `tcp` must
  // outlive the daemon (it is normally the same object passed to
  // set_transport).
  void watch_peers(net::TcpTransport* tcp);

  // Graceful shutdown: stop admitting new requests (handlers answer
  // ErrorReply "draining"), finish every request already admitted, then
  // join all threads. Idempotent; also called by the destructor.
  void drain();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  ServeStats stats() const;

 private:
  struct PendingRequest {
    std::string peer;
    std::uint64_t request_id = 0;
    std::size_t rows_total = 0;
    std::size_t next_row = 0;  // first row not yet synthesized
    Synthesizer::Plan plan;
    std::uint64_t admit_us = 0;
  };

  void handler_loop(const std::string& peer);
  void watch_loop(net::TcpTransport* tcp);
  void batch_loop();
  void handle_message(const std::string& peer,
                      const std::vector<std::uint8_t>& payload);
  // All daemon->client sends funnel through here (one meter, one lock).
  void send_to(const std::string& peer, const std::vector<std::uint8_t>& payload);
  void send_error(const std::string& peer, std::uint64_t request_id,
                  const std::string& message);
  void set_phase(obs::agg::Phase phase);

  Synthesizer& synth_;
  const DaemonOptions options_;
  std::shared_ptr<net::Transport> transport_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};  // set after the queue drains; ends handlers
  bool started_ = false;
  bool drained_ = false;

  std::mutex send_mu_;
  net::TrafficMeter send_meter_;

  std::mutex peers_mu_;
  std::map<std::string, std::thread> handlers_;
  std::set<std::string> done_peers_;  // handlers whose peer disconnected
  std::thread watch_thread_;
  std::thread batch_thread_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  std::size_t pending_rows_ = 0;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> errors_{0};
};

// Blocking client for the serve protocol. Owns its transport and meter;
// NOT thread-safe — one ServeClient per client thread.
class ServeClient {
 public:
  explicit ServeClient(std::string name);

  // Dials the daemon and completes the transport handshake.
  void connect(const std::string& host, std::uint16_t port);

  // Version check + model identity. Throws net::VersionError on a serve
  // protocol mismatch.
  Welcome hello();

  struct Result {
    std::uint64_t n_rows = 0;
    std::uint64_t n_cols = 0;
    std::vector<double> cells;  // row-major
    std::uint64_t batches = 0;  // RowBatch frames this request arrived in
  };

  // Sends one seeded request and blocks until every row arrived. Throws
  // std::runtime_error carrying the daemon's message on ErrorReply.
  Result sample(std::size_t rows, std::uint64_t seed,
                const Synthesizer::Condition* cond = nullptr);

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::string link_out_;  // "<name>->serve"
  std::string link_in_;   // "serve-><name>"
  std::shared_ptr<net::TcpTransport> transport_;
  net::TrafficMeter meter_;
  std::uint64_t next_request_id_ = 1;
};

// SIGTERM/SIGINT latch for serving processes: the handler only sets an
// atomic flag so the daemon can drain gracefully from the main thread.
void install_drain_handler();
bool drain_requested();

}  // namespace gtv::serve
