#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <utility>

#include "obs/blackbox.h"
#include "obs/thread_name.h"
#include "obs/trace.h"
#include "tensor/bytes.h"

namespace gtv::net {

namespace {

// HELLO frames travel on this pseudo-link; the payload is the sender's
// party name. The frame header itself carries (and validates) the
// protocol version.
constexpr const char* kHelloLink = "@hello";

// Clock-sync frames exchanged right after HELLO, before the reader thread
// takes over the stream. Payload layout (little-endian):
//   ping   [u8 kind=0][u32 idx][u64 t0]
//   pong   [u8 kind=1][u32 idx][u64 t0][u64 t1][u64 t2]
//   report [u8 kind=2][u8 valid][i64 offset_us][u64 rtt_us]  (dialer's estimate)
constexpr const char* kClockLink = "@clock";
constexpr std::uint8_t kClockPing = 0;
constexpr std::uint8_t kClockPong = 1;
constexpr std::uint8_t kClockReport = 2;

bool read_full(int fd, std::uint8_t* buf, std::size_t n, int timeout_ms) {
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  while (got < n) {
    if (timeout_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, wait_ms > 0 ? wait_ms : 1);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) return false;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

// Completes a connect() that was interrupted by a signal. POSIX: after
// EINTR the connection attempt continues asynchronously, and the socket is
// *already* committed — dialing again on a fresh fd would burn an attempt
// for nothing. Wait for writability, then read the final status from
// SO_ERROR.
bool finish_connect(int fd, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, wait_ms > 0 ? wait_ms : 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    break;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

bool write_full(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

// Reads exactly one frame off `fd` (header, then body). Returns an empty
// vector on EOF/timeout/error.
std::vector<std::uint8_t> read_frame(int fd, int timeout_ms) {
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes);
  if (!read_full(fd, bytes.data(), kFrameHeaderBytes, timeout_ms)) return {};
  const FrameHeader header = decode_frame_header(bytes.data(), bytes.size());
  bytes.resize(header.total_bytes());
  if (header.total_bytes() > kFrameHeaderBytes &&
      !read_full(fd, bytes.data() + kFrameHeaderBytes,
                 header.total_bytes() - kFrameHeaderBytes, timeout_ms)) {
    return {};
  }
  return bytes;
}

void send_hello(int fd, const std::string& self) {
  Frame hello;
  hello.link = kHelloLink;
  hello.payload.assign(self.begin(), self.end());
  const auto bytes = encode_frame(hello);
  if (!write_full(fd, bytes.data(), bytes.size())) {
    throw TransportError("tcp: handshake write failed");
  }
}

std::string recv_hello(int fd, int timeout_ms) {
  const auto bytes = read_frame(fd, timeout_ms);
  if (bytes.empty()) throw TransportError("tcp: handshake read failed");
  const Frame frame = decode_frame(bytes);  // VersionError on mismatch
  if (frame.link != kHelloLink) throw TransportError("tcp: expected HELLO frame");
  return std::string(frame.payload.begin(), frame.payload.end());
}

void send_clock_frame(int fd, std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.link = kClockLink;
  frame.payload = std::move(payload);
  const auto bytes = encode_frame(frame);
  if (!write_full(fd, bytes.data(), bytes.size())) {
    throw TransportError("tcp: clock-sync write failed");
  }
}

Frame recv_clock_frame(int fd, int timeout_ms) {
  const auto bytes = read_frame(fd, timeout_ms);
  if (bytes.empty()) throw TransportError("tcp: clock-sync read failed");
  const Frame frame = decode_frame(bytes);
  if (frame.link != kClockLink) {
    throw TransportError("tcp: expected @clock frame, got '" + frame.link + "'");
  }
  if (frame.payload.empty()) throw TransportError("tcp: empty clock-sync frame");
  return frame;
}

}  // namespace

ClockSync estimate_clock_offset(const std::vector<ClockSyncSample>& samples) {
  ClockSync best;
  for (const ClockSyncSample& s : samples) {
    const double rtt = (s.t3 - s.t0) - (s.t2 - s.t1);
    if (rtt < 0) continue;  // a clock stepped mid-exchange; unusable
    if (!best.valid || rtt < best.rtt_us) {
      best.valid = true;
      best.rtt_us = rtt;
      best.offset_us = ((s.t1 - s.t0) + (s.t2 - s.t3)) / 2.0;
    }
  }
  return best;
}

TcpTransport::TcpTransport(std::string self_name, TcpOptions options)
    : self_(std::move(self_name)), options_(options) {}

TcpTransport::~TcpTransport() {
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [peer, conn] : conns_) {
      conn->closed.store(true);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  // Readers exit once their socket is shut down.
  for (auto& [peer, conn] : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
  }
  queues_cv_.notify_all();
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw TransportError("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw TransportError("tcp: bind 127.0.0.1:" + std::to_string(port) + " failed: " +
                         std::strerror(errno));
  }
  if (::listen(listen_fd_, 16) != 0) throw TransportError("tcp: listen() failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw TransportError("tcp: getsockname() failed");
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return ntohs(addr.sin_port);
}

void TcpTransport::accept_loop() {
  obs::set_current_thread_name("gtv-tcp-accept");
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    // poll() is never auto-restarted, even under SA_RESTART; an EINTR from
    // the sampling signals just re-enters the bounded wait.
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    // EINTR/ECONNABORTED on accept are routine under signal load; every
    // error path re-polls rather than tearing the listener down.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    try {
      const std::string peer = recv_hello(fd, options_.handshake_timeout_ms);
      // A peer that still has a live connection gets no answer, so its
      // handshake fails instead of returning a socket add_conn would close:
      // a stray dial cannot take over a healthy link, and a relaunched peer
      // whose old connection's EOF the reader has not yet seen redials after
      // its backoff.
      if (wait_for_live_peer(peer, 0)) {
        ::close(fd);
        continue;
      }
      send_hello(fd, self_);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      clock_sync_as_acceptor(fd, peer);
      add_conn(fd, peer);
      obs::bb::note_net_event(obs::bb::NetEvent::kAccept, peer.c_str());
    } catch (const TransportError&) {
      ::close(fd);  // bad handshake: reject the connection, keep listening
    }
  }
}

void TcpTransport::connect_peer(const std::string& peer, const std::string& host,
                                std::uint16_t port) {
  int backoff_ms = options_.connect_backoff_ms;
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      connect_retries_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.connect_backoff_max_ms);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw TransportError("tcp: bad host " + host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const bool interrupted = errno == EINTR || errno == EINPROGRESS;
      if (!interrupted || !finish_connect(fd, options_.handshake_timeout_ms)) {
        ::close(fd);
        continue;
      }
    }
    try {
      send_hello(fd, self_);
      const std::string name = recv_hello(fd, options_.handshake_timeout_ms);
      if (name != peer) {
        ::close(fd);
        throw TransportError("tcp: expected peer '" + peer + "', got '" + name + "'");
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      clock_sync_as_dialer(fd, peer);
      add_conn(fd, peer);
      obs::bb::note_net_event(obs::bb::NetEvent::kConnect, peer.c_str());
      return;
    } catch (const VersionError&) {
      ::close(fd);
      throw;  // wrong protocol version is not retryable
    } catch (const TransportError&) {
      ::close(fd);
      // handshake raced a dying peer: retry within the attempt budget
    }
  }
  throw TransportError("tcp: connect to " + peer + " at " + host + ":" +
                       std::to_string(port) + " failed after " +
                       std::to_string(options_.connect_attempts) + " attempts");
}

void TcpTransport::clock_sync_as_dialer(int fd, const std::string& peer) {
  if (options_.clock_sync_pings <= 0) return;
  std::vector<ClockSyncSample> samples;
  samples.reserve(static_cast<std::size_t>(options_.clock_sync_pings));
  for (int i = 0; i < options_.clock_sync_pings; ++i) {
    std::vector<std::uint8_t> payload;
    payload.push_back(kClockPing);
    bytes::put_u32(payload, static_cast<std::uint32_t>(i));
    const std::uint64_t t0 = obs::TraceSink::now_us();
    bytes::put_u64(payload, t0);
    send_clock_frame(fd, std::move(payload));
    const Frame pong = recv_clock_frame(fd, options_.handshake_timeout_ms);
    const std::uint64_t t3 = obs::TraceSink::now_us();
    if (pong.payload.size() != 1 + 4 + 8 * 3 || pong.payload[0] != kClockPong ||
        bytes::get_u32(pong.payload.data() + 1) != static_cast<std::uint32_t>(i) ||
        bytes::get_u64(pong.payload.data() + 5) != t0) {
      throw TransportError("tcp: malformed clock-sync pong from " + peer);
    }
    ClockSyncSample s;
    s.t0 = static_cast<double>(t0);
    s.t1 = static_cast<double>(bytes::get_u64(pong.payload.data() + 13));
    s.t2 = static_cast<double>(bytes::get_u64(pong.payload.data() + 21));
    s.t3 = static_cast<double>(t3);
    samples.push_back(s);
  }
  const ClockSync sync = estimate_clock_offset(samples);
  // Report the estimate so the acceptor learns the offset too (negated on
  // its side: the report is dialer-relative).
  std::vector<std::uint8_t> report;
  report.push_back(kClockReport);
  report.push_back(sync.valid ? 1 : 0);
  bytes::put_u64(report, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(sync.valid ? sync.offset_us : 0)));
  bytes::put_u64(report, static_cast<std::uint64_t>(sync.valid ? sync.rtt_us : 0));
  send_clock_frame(fd, std::move(report));
  store_clock_sync(peer, sync);
}

void TcpTransport::clock_sync_as_acceptor(int fd, const std::string& peer) {
  if (options_.clock_sync_pings <= 0) return;
  // The dialer decides how many pings it sends; answer until its report
  // arrives. Bound the loop defensively against a misbehaving dialer.
  for (int i = 0; i < 1024; ++i) {
    const Frame frame = recv_clock_frame(fd, options_.handshake_timeout_ms);
    const std::uint64_t t1 = obs::TraceSink::now_us();
    if (frame.payload[0] == kClockPing) {
      if (frame.payload.size() != 1 + 4 + 8) {
        throw TransportError("tcp: malformed clock-sync ping from " + peer);
      }
      std::vector<std::uint8_t> pong;
      pong.push_back(kClockPong);
      bytes::put_u32(pong, bytes::get_u32(frame.payload.data() + 1));
      bytes::put_u64(pong, bytes::get_u64(frame.payload.data() + 5));  // echo t0
      bytes::put_u64(pong, t1);
      bytes::put_u64(pong, obs::TraceSink::now_us());  // t2: just before send
      send_clock_frame(fd, std::move(pong));
      continue;
    }
    if (frame.payload[0] == kClockReport) {
      if (frame.payload.size() != 2 + 8 * 2) {
        throw TransportError("tcp: malformed clock-sync report from " + peer);
      }
      const auto offset =
          static_cast<std::int64_t>(bytes::get_u64(frame.payload.data() + 2));
      const std::uint64_t rtt = bytes::get_u64(frame.payload.data() + 10);
      ClockSync sync;
      sync.valid = frame.payload[1] != 0;
      sync.offset_us = -static_cast<double>(offset);  // flip to peer - self
      sync.rtt_us = static_cast<double>(rtt);
      store_clock_sync(peer, sync);
      return;
    }
    throw TransportError("tcp: unexpected clock-sync frame kind from " + peer);
  }
  throw TransportError("tcp: clock-sync report from " + peer + " never arrived");
}

void TcpTransport::store_clock_sync(const std::string& peer, const ClockSync& sync) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  clock_[peer] = sync;
}

ClockSync TcpTransport::clock_sync(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = clock_.find(peer);
  return it == clock_.end() ? ClockSync{} : it->second;
}

std::uint64_t TcpTransport::conn_generation(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conn_generation_.find(peer);
  return it == conn_generation_.end() ? 0 : it->second;
}

void TcpTransport::add_conn(int fd, const std::string& peer) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->peer = peer;
  Conn* raw = conn.get();
  std::unique_ptr<Conn> replaced;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(peer);
    if (it != conns_.end()) {
      if (!it->second->closed.load()) {
        ::close(fd);
        return;  // duplicate dial while the first is healthy; keep the first
      }
      // The old connection died (reader saw EOF / a write failed): this is
      // the peer reconnecting. Swap the fresh socket in.
      replaced = std::move(it->second);
      conns_.erase(it);
    }
    conns_[peer] = std::move(conn);
    ++conn_generation_[peer];
  }
  if (replaced) {
    ::shutdown(replaced->fd, SHUT_RDWR);
    if (replaced->reader.joinable()) replaced->reader.join();
    ::close(replaced->fd);
  }
  raw->reader = std::thread([this, raw] { reader_loop(raw); });
  conns_cv_.notify_all();
}

void TcpTransport::reader_loop(Conn* conn) {
  obs::set_current_thread_name(("gtv-rd-" + conn->peer).c_str());
  while (!stopping_.load() && !conn->closed.load()) {
    std::vector<std::uint8_t> bytes;
    try {
      bytes = read_frame(conn->fd, /*timeout_ms=*/0);  // block until EOF
    } catch (const TransportError&) {
      break;  // stream desync (bad magic/version): drop the connection
    }
    if (bytes.empty()) break;  // EOF
    std::string link;
    try {
      const FrameHeader header = decode_frame_header(bytes.data(), bytes.size());
      link.assign(reinterpret_cast<const char*>(bytes.data()) + kFrameHeaderBytes,
                  header.link_len);
    } catch (const TransportError&) {
      break;
    }
    push_frame(link, std::move(bytes));
  }
  if (!conn->closed.exchange(true) && !stopping_.load()) {
    obs::bb::note_net_event(obs::bb::NetEvent::kDisconnect, conn->peer.c_str());
  }
  queues_cv_.notify_all();  // wake waiters so they can fail fast
}

void TcpTransport::push_frame(const std::string& link, std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(queues_mu_);
    queues_[link].push_back(std::move(frame));
  }
  queues_cv_.notify_all();
}

std::string TcpTransport::link_destination(const std::string& link) {
  const std::size_t arrow = link.find("->");
  if (arrow == std::string::npos) {
    throw TransportError("tcp: link '" + link + "' has no '->' destination");
  }
  return link.substr(arrow + 2);
}

std::string TcpTransport::link_source(const std::string& link) {
  const std::size_t arrow = link.find("->");
  return arrow == std::string::npos ? std::string() : link.substr(0, arrow);
}

void TcpTransport::deliver_frame(const std::string& link,
                                 std::vector<std::uint8_t> frame) {
  const std::string dest = link_destination(link);
  if (dest == self_) {
    throw TransportError("tcp: refusing to send '" + link + "' to self");
  }
  Conn* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(dest);
    if (it != conns_.end()) conn = it->second.get();
  }
  if (conn == nullptr) {
    throw TransportError("tcp: no connection to '" + dest + "' for link " + link);
  }
  std::lock_guard<std::mutex> wlock(conn->write_mu);
  if (conn->closed.load() || !write_full(conn->fd, frame.data(), frame.size())) {
    if (!conn->closed.exchange(true)) {
      obs::bb::note_net_event(obs::bb::NetEvent::kDisconnect, conn->peer.c_str());
    }
    throw TransportError("tcp: write on " + link + " failed (peer gone?)");
  }
}

std::vector<std::uint8_t> TcpTransport::fetch_frame(const std::string& link,
                                                    int timeout_ms) {
  const std::string src = link_source(link);
  auto source_gone = [&] {
    if (src.empty()) return false;
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(src);
    return it != conns_.end() && it->second->closed.load();
  };
  std::unique_lock<std::mutex> lock(queues_mu_);
  auto ready = [&] {
    auto it = queues_.find(link);
    return it != queues_.end() && !it->second.empty();
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  const std::uint64_t generation = src.empty() ? 0 : conn_generation(src);
  // A closed source conn usually means the peer died, and waiters must fail
  // fast instead of burning the full retry budget. But a reconnecting peer
  // (telemetry collector, crash rejoin) lands its replacement conn a few
  // milliseconds after the EOF — so only fail once the source has stayed
  // dead through a short grace window.
  constexpr auto kDeadSourceGrace = std::chrono::milliseconds(250);
  std::chrono::steady_clock::time_point dead_since{};
  bool seen_dead = false;
  while (!ready()) {
    if (source_gone()) {
      const auto now = std::chrono::steady_clock::now();
      if (!seen_dead) {
        seen_dead = true;
        dead_since = now;
      } else if (now - dead_since >= kDeadSourceGrace) {
        throw TransportError("tcp: peer '" + src + "' disconnected while waiting on " +
                             link);
      }
    } else {
      seen_dead = false;
    }
    if (timeout_ms <= 0) throw TimeoutError("tcp: no frame on " + link);
    // A source that reconnected meanwhile is a restarted process: it will
    // never send what this wait expects.
    if (generation != 0 && conn_generation(src) != generation) {
      throw TransportError("tcp: peer '" + src + "' restarted while waiting on " + link);
    }
    // Wake periodically to re-check peer liveness.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) throw TimeoutError("tcp: no frame on " + link);
    const auto slice = std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    deadline - now),
                                std::chrono::milliseconds(200));
    queues_cv_.wait_for(lock, slice);
  }
  auto& queue = queues_[link];
  std::vector<std::uint8_t> frame = std::move(queue.front());
  queue.pop_front();
  return frame;
}

bool TcpTransport::wait_for_peer(const std::string& peer, int timeout_ms) {
  std::unique_lock<std::mutex> lock(conns_mu_);
  return conns_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return conns_.count(peer) > 0; });
}

bool TcpTransport::wait_for_live_peer(const std::string& peer, int timeout_ms) {
  std::unique_lock<std::mutex> lock(conns_mu_);
  return conns_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    auto it = conns_.find(peer);
    return it != conns_.end() && !it->second->closed.load();
  });
}

void TcpTransport::discard_queued(const std::string& link) {
  std::lock_guard<std::mutex> lock(queues_mu_);
  queues_.erase(link);
}

std::vector<std::string> TcpTransport::peers() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::vector<std::string> out;
  for (const auto& [peer, conn] : conns_) out.push_back(peer);
  return out;
}

}  // namespace gtv::net
