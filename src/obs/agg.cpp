#include "obs/agg.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/json.h"
#include "obs/thread_name.h"
#include "obs/trace.h"

namespace gtv::obs::agg {

namespace {

// Prometheus label-value escaping: backslash, double quote, newline.
std::string label_escape(const std::string& s) { return json::prom_label_escape(s); }

// Base family name of a sample line: metric name with any histogram
// series suffix stripped. Fallback for dumps missing # TYPE headers.
std::string family_of_sample(const std::string& line) {
  std::size_t end = line.find_first_of("{ ");
  if (end == std::string::npos) end = line.size();
  std::string name = line.substr(0, end);
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::size_t n = std::strlen(suffix);
    if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) {
      return name.substr(0, name.size() - n);
    }
  }
  return name;
}

}  // namespace

std::string inject_party_label(const std::string& line, const std::string& party) {
  if (line.empty() || line[0] == '#') return line;
  const std::string label = "party=\"" + label_escape(party) + "\"";
  const std::size_t brace = line.find('{');
  const std::size_t space = line.find(' ');
  if (brace != std::string::npos && (space == std::string::npos || brace < space)) {
    // Existing label set: party goes first. "{}" (empty set) gets no comma.
    const bool empty_set = brace + 1 < line.size() && line[brace + 1] == '}';
    return line.substr(0, brace + 1) + label + (empty_set ? "" : ",") +
           line.substr(brace + 1);
  }
  if (space == std::string::npos) return line;  // not a sample line; pass through
  return line.substr(0, space) + "{" + label + "}" + line.substr(space);
}

std::string aggregate_prometheus(
    const std::vector<std::pair<std::string, std::string>>& per_party) {
  struct Family {
    std::string type_line;
    std::vector<std::string> samples;
  };
  std::vector<std::string> order;
  std::map<std::string, Family> families;

  for (const auto& [party, text] : per_party) {
    std::string current;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream header(line.substr(7));
        header >> current;
        if (families.find(current) == families.end()) {
          order.push_back(current);
          families[current].type_line = line;
        }
        continue;
      }
      if (line[0] == '#') continue;  // HELP and friends: dropped on merge
      std::string family = current;
      if (family.empty()) {
        family = family_of_sample(line);
        if (families.find(family) == families.end()) order.push_back(family);
      }
      families[family].samples.push_back(inject_party_label(line, party));
    }
  }

  std::ostringstream out;
  for (const std::string& name : order) {
    const Family& fam = families[name];
    if (!fam.type_line.empty()) out << fam.type_line << "\n";
    for (const std::string& sample : fam.samples) out << sample << "\n";
  }
  return out.str();
}

// --- SnapshotPublisher -----------------------------------------------------------

SnapshotPublisher::SnapshotPublisher(std::string party, std::string host,
                                     std::uint16_t port, PublisherOptions options)
    : party_(std::move(party)),
      host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      link_(party_ + "->" + kCollectorParty) {}

SnapshotPublisher::~SnapshotPublisher() { stop(); }

void SnapshotPublisher::start() {
  if (started_) return;
  started_ = true;
  stopping_.store(false);
  thread_ = std::thread([this] { run(); });
}

void SnapshotPublisher::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_.store(true);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

net::ClockSync SnapshotPublisher::clock_sync() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_ ? transport_->clock_sync(kCollectorParty) : net::ClockSync{};
}

bool SnapshotPublisher::ensure_connected() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (connected_) return true;
  }
  // One dial per call; run() owns the backoff between calls so stop() can
  // interrupt the wait.
  net::TcpOptions tcp = options_.tcp;
  tcp.connect_attempts = 1;
  auto fresh = std::make_unique<net::TcpTransport>(party_, tcp);
  try {
    fresh->connect_peer(kCollectorParty, host_, port_);
  } catch (const net::TransportError&) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  transport_ = std::move(fresh);
  connected_ = true;
  return true;
}

bool SnapshotPublisher::publish_once(std::uint64_t seq) {
  Snapshot snap = collect_snapshot(party_, status_);
  snap.seq = seq;
  const auto payload = serialize_snapshot(snap);
  std::lock_guard<std::mutex> lock(mu_);
  if (!transport_) return false;
  try {
    transport_->send(link_, payload);
    return true;
  } catch (const net::TransportError&) {
    connected_ = false;
    return false;
  }
}

void SnapshotPublisher::run() {
  set_current_thread_name("gtv-snap-pub");
  int backoff_ms = options_.reconnect_backoff_ms;
  std::uint64_t seq = 0;
  auto wait_ms = [this](int ms) {
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                      [this] { return stopping_.load(); });
  };
  while (!stopping_.load()) {
    if (!ensure_connected()) {
      wait_ms(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, options_.reconnect_backoff_max_ms);
      continue;
    }
    backoff_ms = options_.reconnect_backoff_ms;
    if (publish_once(++seq)) {
      published_.fetch_add(1);
      wait_ms(options_.interval_ms);
    } else {
      send_failures_.fetch_add(1);
    }
  }
  // Final flush so the Collector sees the party's end state even when the
  // last interval tick landed mid-round.
  if (ensure_connected() && publish_once(++seq)) published_.fetch_add(1);
}

// --- Collector -------------------------------------------------------------------

Collector::Collector(CollectorOptions options)
    : options_(options), latency_(default_latency_bounds_ms()) {
  started_us_ = TraceSink::now_us();
}

Collector::~Collector() { stop(); }

std::uint16_t Collector::listen(std::uint16_t port) {
  transport_ = std::make_unique<net::TcpTransport>(kCollectorParty);
  const std::uint16_t bound = transport_->listen(port);
  ingest_thread_ = std::thread([this] { ingest_loop(); });
  return bound;
}

void Collector::stop() {
  stopping_.store(true);
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // Join before closing: the HTTP loop polls http_fd_ (its poll times out
  // within 200 ms), and a descriptor closed under it could be reused by a
  // new socket that the old loop would then accept on.
  if (http_thread_.joinable()) http_thread_.join();
  if (http_fd_ >= 0) {
    ::close(http_fd_);
    http_fd_ = -1;
  }
  transport_.reset();
}

void Collector::ingest_loop() {
  set_current_thread_name("gtv-agg-ingest");
  while (!stopping_.load()) {
    bool drained_any = false;
    for (const std::string& peer : transport_->peers()) {
      const std::string link = peer + "->" + kCollectorParty;
      // Drain everything queued; decode raw frames (CRC enforced) instead
      // of Transport::recv so a reconnecting publisher's restarted seq
      // numbering is not mistaken for duplicates.
      for (;;) {
        std::vector<std::uint8_t> bytes;
        try {
          bytes = transport_->fetch_frame(link, /*timeout_ms=*/0);
        } catch (const net::TimeoutError&) {
          break;  // queue empty
        } catch (const net::TransportError&) {
          break;  // peer dropped with nothing queued; publisher will re-dial
        }
        try {
          const net::Frame frame = net::decode_frame(bytes);
          ingest(deserialize_snapshot(frame.payload));
          drained_any = true;
        } catch (const net::TransportError&) {
          std::lock_guard<std::mutex> lock(mu_);
          ++bad_frames_;
        }
      }
    }
    if (!drained_any && !stopping_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_interval_ms));
    }
  }
}

void Collector::ingest(Snapshot snap) {
  const std::uint64_t now_us = TraceSink::now_us();
  net::ClockSync sync;
  std::uint64_t generation = 0;
  if (transport_) {
    sync = transport_->clock_sync(snap.party);
    generation = transport_->conn_generation(snap.party);
  }
  std::lock_guard<std::mutex> lock(mu_);
  PartyView& view = views_[snap.party];
  view.snapshots += 1;
  view.last_seen_us = now_us;
  if (generation > 0) view.reconnects = generation - 1;
  if (sync.valid) {
    view.have_clock = true;
    view.clock_offset_us = sync.offset_us;
    view.clock_rtt_us = sync.rtt_us;
    // Align the sender's timestamp onto our clock; clamp at zero in case
    // the offset error exceeds the actual transit time.
    const double sent_here_us = static_cast<double>(snap.t_us) - sync.offset_us;
    const double lat_ms =
        std::max(0.0, (static_cast<double>(now_us) - sent_here_us) / 1000.0);
    latency_.record(lat_ms);
  }
  const double round = static_cast<double>(snap.round);
  if (view.loss_history.empty() || view.loss_history.back()[0] != round) {
    view.loss_history.push_back({round, snap.d_loss, snap.g_loss});
    if (view.loss_history.size() > options_.history) {
      view.loss_history.erase(view.loss_history.begin());
    }
  } else {
    view.loss_history.back() = {round, snap.d_loss, snap.g_loss};
  }
  view.latest = std::move(snap);
  views_cv_.notify_all();
}

void Collector::fill_derived_locked(PartyView& view, std::uint64_t now_us) const {
  view.age_ms = view.last_seen_us <= now_us
                    ? static_cast<double>(now_us - view.last_seen_us) / 1000.0
                    : 0.0;
  view.stale = view.age_ms > static_cast<double>(options_.stale_after_ms);
}

std::vector<PartyView> Collector::parties() const {
  const std::uint64_t now_us = TraceSink::now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PartyView> out;
  out.reserve(views_.size());
  for (const auto& [party, view] : views_) {
    out.push_back(view);
    fill_derived_locked(out.back(), now_us);
  }
  return out;
}

std::size_t Collector::party_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

bool Collector::wait_for_snapshots(std::size_t min_parties,
                                   std::uint64_t min_snapshots,
                                   int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  return views_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    std::size_t satisfied = 0;
    for (const auto& [party, view] : views_) {
      if (view.snapshots >= min_snapshots) ++satisfied;
    }
    return satisfied >= min_parties;
  });
}

double Collector::latency_ms(double percentile) const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_.percentile(percentile);
}

std::string Collector::status_json() const {
  const std::uint64_t now_us = TraceSink::now_us();
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"schema_version\":1,\"collector\":{\"uptime_ms\":"
     << static_cast<double>(now_us - started_us_) / 1000.0
     << ",\"stale_after_ms\":" << options_.stale_after_ms
     << ",\"bad_frames\":" << bad_frames_
     << ",\"snapshot_latency_p50_ms\":" << latency_.percentile(50)
     << ",\"snapshot_latency_p99_ms\":" << latency_.percentile(99)
     << ",\"parties\":" << views_.size() << "},\"parties\":[";
  bool first = true;
  for (const auto& [party, stored] : views_) {
    PartyView view = stored;
    fill_derived_locked(view, now_us);
    if (!first) os << ",";
    first = false;
    os << "{\"party\":\"" << json_escape(party) << "\",\"stale\":"
       << (view.stale ? "true" : "false") << ",\"age_ms\":" << view.age_ms
       << ",\"snapshots\":" << view.snapshots
       << ",\"reconnects\":" << view.reconnects << ",\"clock\":{\"valid\":"
       << (view.have_clock ? "true" : "false")
       << ",\"offset_us\":" << json::fixed_us(view.clock_offset_us)
       << ",\"rtt_us\":" << json::fixed_us(view.clock_rtt_us) << "},\"snapshot\":"
       << view.latest.to_json() << ",\"loss_history\":[";
    for (std::size_t i = 0; i < view.loss_history.size(); ++i) {
      if (i > 0) os << ",";
      os << "[" << view.loss_history[i][0] << "," << view.loss_history[i][1] << ","
         << view.loss_history[i][2] << "]";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string Collector::prometheus() const {
  const std::uint64_t now_us = TraceSink::now_us();
  std::vector<std::pair<std::string, std::string>> per_party;
  std::ostringstream own;
  {
    std::lock_guard<std::mutex> lock(mu_);
    per_party.reserve(views_.size());
    own << "# TYPE gtv_agg_snapshots_total counter\n";
    for (const auto& [party, view] : views_) {
      per_party.emplace_back(party, view.latest.prom);
      own << "gtv_agg_snapshots_total{party=\"" << label_escape(party) << "\"} "
          << view.snapshots << "\n";
    }
    own << "# TYPE gtv_agg_up gauge\n";
    for (const auto& [party, stored] : views_) {
      PartyView view = stored;
      fill_derived_locked(view, now_us);
      own << "gtv_agg_up{party=\"" << label_escape(party) << "\"} "
          << (view.stale ? 0 : 1) << "\n";
    }
    own << "# TYPE gtv_agg_clock_offset_us gauge\n";
    for (const auto& [party, view] : views_) {
      if (!view.have_clock) continue;
      own << "gtv_agg_clock_offset_us{party=\"" << label_escape(party) << "\"} "
          << view.clock_offset_us << "\n";
    }
  }
  return aggregate_prometheus(per_party) + own.str();
}

std::string Collector::offsets_json() const {
  json::ClockOffsets offsets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [party, view] : views_) {
      if (view.have_clock) offsets[party] = {view.clock_offset_us, view.clock_rtt_us};
    }
  }
  return json::offsets_json(kCollectorParty, offsets);
}

// --- HTTP scrape endpoint --------------------------------------------------------

std::uint16_t Collector::serve_http(std::uint16_t port) {
  http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (http_fd_ < 0) throw net::TransportError("agg: http socket() failed");
  const int one = 1;
  ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(http_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw net::TransportError("agg: http bind 127.0.0.1:" + std::to_string(port) +
                              " failed: " + std::strerror(errno));
  }
  if (::listen(http_fd_, 16) != 0) throw net::TransportError("agg: http listen failed");
  socklen_t len = sizeof(addr);
  if (::getsockname(http_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw net::TransportError("agg: http getsockname failed");
  }
  http_thread_ = std::thread([this] { http_loop(); });
  return ntohs(addr.sin_port);
}

void Collector::http_loop() {
  set_current_thread_name("gtv-agg-http");
  while (!stopping_.load()) {
    pollfd pfd{http_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    const int fd = ::accept(http_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Requests are one GET line from a scraper or gtv-obs top; serving them
    // inline keeps the endpoint single-threaded and unkillable by a slow
    // client (bounded read below).
    handle_http_client(fd);
    ::close(fd);
  }
}

void Collector::handle_http_client(int fd) {
  std::string request;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    pollfd pfd{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    if (::poll(&pfd, 1, std::max(wait_ms, 1)) <= 0) return;
    char buf[1024];
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;  // sampler signal; re-poll
    if (r <= 0) return;
    request.append(buf, static_cast<std::size_t>(r));
  }
  std::istringstream line(request.substr(0, request.find("\r\n")));
  std::string method, path;
  line >> method >> path;

  std::string body;
  std::string content_type = "text/plain; charset=utf-8";
  std::string status = "200 OK";
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = prometheus();
  } else if (path == "/status") {
    content_type = "application/json";
    body = status_json();
  } else if (path == "/" || path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }

  std::ostringstream response;
  response << "HTTP/1.0 " << status << "\r\nContent-Type: " << content_type
           << "\r\nContent-Length: " << body.size()
           << "\r\nConnection: close\r\n\r\n" << body;
  const std::string out = response.str();
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace gtv::obs::agg
