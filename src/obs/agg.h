// gtv::obs::agg — live cross-party telemetry plane.
//
// A driver-side Collector listens on a dedicated TCP port (never the
// training links), each party runs a SnapshotPublisher that pushes
// obs::agg::Snapshot frames on "<party>->collector" at a fixed interval,
// and the Collector folds them into per-party views:
//
//     party process                       driver process
//   ┌────────────────┐   @hello+@clock   ┌──────────────────┐
//   │ LiveStatus ◄────── node loop       │ Collector        │
//   │ SnapshotPublisher ────────────────►│  · PartyView map │──► /metrics
//   │  (own TcpTransport)   snapshots    │  · staleness     │──► /status
//   └────────────────┘                   │  · clock offsets │──► gtv-obs top
//                                        └──────────────────┘
//
// Clock alignment rides on the transport handshake: every publisher dial
// runs the NTP-style @clock exchange (net/tcp.h), so the Collector knows
// peer_clock - collector_clock per party and can timestamp-align incoming
// frames (and export the offsets file, obs/json.h, for gtv-obs --offsets).
//
// Robustness contract: a party that goes silent is marked stale after
// stale_after_ms (the Collector keeps serving its last snapshot); a party
// that reconnects resumes cleanly — the transport swaps the dead
// connection for the new one and the Collector bypasses Transport::recv's
// seq dedup (it decodes raw frames, CRC still enforced) so a publisher
// restart cannot be mistaken for replayed traffic.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace gtv::obs::agg {

// The party name every Collector transport announces in its HELLO.
inline constexpr const char* kCollectorParty = "collector";

struct PublisherOptions {
  int interval_ms = 200;            // snapshot cadence
  int reconnect_backoff_ms = 100;   // doubled per failed dial…
  int reconnect_backoff_max_ms = 2000;  // …up to this cap
  net::TcpOptions tcp;  // per-dial socket options (attempts forced to 1)
};

// Pushes this process's snapshots to a Collector from a background thread.
// Never blocks training: snapshots read atomics and registry counters
// only. Connection loss triggers a re-dial with exponential backoff; the
// snapshot seq keeps counting across reconnects.
class SnapshotPublisher {
 public:
  SnapshotPublisher(std::string party, std::string host, std::uint16_t port,
                    PublisherOptions options = {});
  ~SnapshotPublisher();

  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  // Optional: live training status to sample (must outlive the publisher).
  void set_status(const LiveStatus* status) { status_ = status; }

  void start();
  // Pushes one final snapshot (so the Collector sees the end state) and
  // joins the thread. Idempotent; also called by the destructor.
  void stop();

  std::uint64_t published() const { return published_.load(); }
  std::uint64_t send_failures() const { return send_failures_.load(); }
  // Clock offset measured against the Collector on the latest dial.
  net::ClockSync clock_sync() const;

 private:
  void run();
  bool ensure_connected();
  bool publish_once(std::uint64_t seq);

  const std::string party_;
  const std::string host_;
  const std::uint16_t port_;
  const PublisherOptions options_;
  const std::string link_;
  const LiveStatus* status_ = nullptr;

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  mutable std::mutex mu_;  // guards transport_ swaps vs clock_sync()
  std::unique_ptr<net::TcpTransport> transport_;
  bool connected_ = false;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::thread thread_;
};

// Everything the Collector knows about one party. `stale`/`age_ms` are
// computed at query time against CollectorOptions::stale_after_ms.
struct PartyView {
  Snapshot latest;
  std::uint64_t snapshots = 0;   // frames ingested
  std::uint64_t reconnects = 0;  // transport generations beyond the first
  bool have_clock = false;
  double clock_offset_us = 0;  // party_clock - collector_clock
  double clock_rtt_us = 0;     // min-RTT bound on the offset error
  std::uint64_t last_seen_us = 0;  // collector clock at last ingest
  double age_ms = 0;
  bool stale = false;
  // (round, d_loss, g_loss) per round, newest last, bounded ring.
  std::vector<std::array<double, 3>> loss_history;
};

struct CollectorOptions {
  int stale_after_ms = 2000;  // silent longer than this -> stale
  int poll_interval_ms = 10;  // ingest sweep cadence when idle
  std::size_t history = 160;  // loss-history ring length per party
};

// Driver-side aggregation point. listen() starts the telemetry socket,
// serve_http() the scrape endpoint; both are optional and independent so
// tests can ingest() synthetic snapshots without any socket.
class Collector {
 public:
  explicit Collector(CollectorOptions options = {});
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Binds the snapshot ingest socket on 127.0.0.1:`port` (0 = ephemeral)
  // and starts the ingest thread. Returns the bound port.
  std::uint16_t listen(std::uint16_t port);

  // Minimal HTTP/1.0 endpoint: GET /metrics (Prometheus text aggregated
  // across parties with party labels), GET /status (JSON for gtv-obs top),
  // GET /healthz. Returns the bound port.
  std::uint16_t serve_http(std::uint16_t port);

  void stop();

  // Folds one snapshot into the party views. The socket ingest path goes
  // through here; tests can call it directly.
  void ingest(Snapshot snap);

  std::vector<PartyView> parties() const;
  std::size_t party_count() const;

  // Blocks until at least `min_parties` parties have each reported at
  // least `min_snapshots` frames, or `timeout_ms` elapses.
  bool wait_for_snapshots(std::size_t min_parties, std::uint64_t min_snapshots,
                          int timeout_ms) const;

  // JSON document for gtv-obs top: collector info + one entry per party.
  std::string status_json() const;

  // Aggregated Prometheus exposition: every party's dump re-labeled with
  // party="<name>", plus the collector's own gtv_agg_* series.
  std::string prometheus() const;

  // The clock-offsets file (json::offsets_json) of every party with a
  // measured clock, relative to this collector's clock.
  std::string offsets_json() const;

  // Ingest latency (send->ingest, clock-aligned) distribution, ms.
  double latency_ms(double percentile) const;

 private:
  void ingest_loop();
  void http_loop();
  void handle_http_client(int fd);
  void fill_derived_locked(PartyView& view, std::uint64_t now_us) const;

  const CollectorOptions options_;
  std::atomic<bool> stopping_{false};

  std::unique_ptr<net::TcpTransport> transport_;
  std::thread ingest_thread_;

  int http_fd_ = -1;
  std::thread http_thread_;

  mutable std::mutex mu_;
  mutable std::condition_variable views_cv_;
  std::map<std::string, PartyView> views_;  // by party name
  Histogram latency_;                       // snapshot send->ingest, ms
  std::uint64_t bad_frames_ = 0;
  std::uint64_t started_us_ = 0;
};

// Injects party="<party>" as the first label of one Prometheus sample
// line (creating the label set if absent). Label values are escaped per
// the exposition format (backslash, quote, newline).
std::string inject_party_label(const std::string& line, const std::string& party);

// Merges per-party exposition dumps: samples gain party labels, families
// keep a single # TYPE header (first party's wins), family order follows
// first appearance.
std::string aggregate_prometheus(
    const std::vector<std::pair<std::string, std::string>>& per_party);

}  // namespace gtv::obs::agg
