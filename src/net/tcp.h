// gtv::net — real TCP transport between GTV parties (POSIX sockets).
//
// One TcpTransport per party process. A party either listens (server,
// driver) or connects (clients connect to both), and each accepted /
// established connection is identified by the peer's party name via a
// HELLO handshake frame that also carries the protocol version — a
// mismatch fails the handshake with VersionError before any payload moves.
// The handshake then runs an NTP-style clock-sync exchange (@clock frames,
// four timestamps per ping, min-RTT sample wins) so either side can map
// the peer's trace clock onto its own; see clock_sync().
//
// Frames are length-prefixed by their own header (net/transport.h), so a
// per-connection reader thread splits the byte stream, demultiplexes by
// the link name in each header, and parks raw frames in per-link queues;
// fetch_frame() waits on those queues. Sends route by the link's
// destination party ("a->b" goes out on the connection to "b") under a
// per-connection write lock.
//
// connect_peer() retries with bounded exponential backoff (rendezvous:
// party processes start in arbitrary order), and recv timeouts are
// enforced by the queue wait — the TrafficMeter bounds how many expired
// waits a receive tolerates.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace gtv::net {

struct TcpOptions {
  int connect_attempts = 120;       // bounded retry while the peer boots
  int connect_backoff_ms = 25;      // initial backoff, doubled per attempt…
  int connect_backoff_max_ms = 400;  // …up to this cap
  int handshake_timeout_ms = 10000;
  int clock_sync_pings = 8;  // NTP-style pings after HELLO; 0 disables
};

// One four-timestamp clock-sync exchange (all values in trace-clock µs):
// t0 = dialer send, t1 = acceptor receive, t2 = acceptor send, t3 = dialer
// receive. Offset/RTT follow the classic NTP estimator.
struct ClockSyncSample {
  double t0 = 0;
  double t1 = 0;
  double t2 = 0;
  double t3 = 0;
};

// Estimated relationship between a peer's trace clock and ours:
// peer_now ≈ self_now + offset_us, with |error| bounded by rtt_us / 2.
struct ClockSync {
  bool valid = false;
  double offset_us = 0;  // peer_clock - self_clock at the min-RTT sample
  double rtt_us = 0;     // round-trip time of the winning sample
};

// Picks the min-RTT sample (least queueing noise) and returns its offset.
// Samples with negative RTT (clock stepped mid-exchange) are discarded;
// an empty or all-bad set yields valid == false.
ClockSync estimate_clock_offset(const std::vector<ClockSyncSample>& samples);

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(std::string self_name, TcpOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting peers.
  // Returns the bound port.
  std::uint16_t listen(std::uint16_t port);

  // Connects to a listening peer and completes the HELLO handshake,
  // retrying with exponential backoff until the attempt budget runs out.
  void connect_peer(const std::string& peer, const std::string& host,
                    std::uint16_t port);

  // Rendezvous: waits until a connection to `peer` exists (accepted or
  // dialed). Returns false on timeout.
  bool wait_for_peer(const std::string& peer, int timeout_ms);

  // Crash recovery: waits until a connection to `peer` exists AND has not
  // been marked closed. wait_for_peer counts a dead connection as present
  // (good enough for the boot rendezvous, wrong for readmitting a crashed
  // party); this variant only accepts a live one, so it completes exactly
  // when the restarted process has re-dialed us.
  bool wait_for_live_peer(const std::string& peer, int timeout_ms) override;

  // Crash recovery: drops raw frames parked on `link` (half-delivered state
  // from the round being replayed).
  void discard_queued(const std::string& link) override;

  std::vector<std::string> peers() const;
  std::uint64_t connect_retries() const { return connect_retries_.load(); }
  const std::string& self() const { return self_; }

  // Clock offset measured against `peer` during the HELLO handshake
  // (dialer measures, acceptor receives the dialer's report negated so
  // both sides agree on peer_clock - self_clock). valid == false when the
  // peer is unknown or clock sync was disabled.
  ClockSync clock_sync(const std::string& peer) const;

  // How many connections `peer` has established with us (1 = original,
  // each reconnect after a drop increments). 0 if never connected.
  std::uint64_t conn_generation(const std::string& peer) const;

  std::string kind() const override { return "tcp"; }
  void deliver_frame(const std::string& link,
                     std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> fetch_frame(const std::string& link,
                                        int timeout_ms) override;

 private:
  struct Conn {
    int fd = -1;
    std::string peer;
    std::thread reader;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
  };

  void accept_loop();
  void reader_loop(Conn* conn);
  void add_conn(int fd, const std::string& peer);
  // Runs on the raw fd between HELLO and reader start; stores the result
  // under `peer`. The dialer drives the exchange, the acceptor echoes.
  void clock_sync_as_dialer(int fd, const std::string& peer);
  void clock_sync_as_acceptor(int fd, const std::string& peer);
  void store_clock_sync(const std::string& peer, const ClockSync& sync);
  void push_frame(const std::string& link, std::vector<std::uint8_t> frame);
  // Party name after "->" in `link`; the connection a send routes to.
  static std::string link_destination(const std::string& link);
  static std::string link_source(const std::string& link);

  std::string self_;
  TcpOptions options_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> connect_retries_{0};

  int listen_fd_ = -1;
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::map<std::string, std::unique_ptr<Conn>> conns_;  // by peer name
  std::map<std::string, ClockSync> clock_;              // by peer name
  std::map<std::string, std::uint64_t> conn_generation_;

  mutable std::mutex queues_mu_;
  std::condition_variable queues_cv_;
  std::map<std::string, std::deque<std::vector<std::uint8_t>>> queues_;
};

}  // namespace gtv::net
