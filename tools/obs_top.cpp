// gtv-obs top — live terminal view of a federated GTV training run.
//
// Attaches to a Collector's HTTP endpoint (tools/gtv-node --metrics-port)
// and refreshes a per-party table: round progress, phase, losses, bytes
// and retries/timeouts on the training links, health alert counts, clock
// offset, and a staleness indicator for parties that stopped reporting.
//
//   gtv-obs top --port 9464 [--host 127.0.0.1] [--interval-ms 500]
//   gtv-obs top --port 9464 --once       # one frame, no screen clearing
//   gtv-obs top --port 9464 --frames N   # stop after N polls
//
// Every poll counts toward --frames (--once is --frames 1), reached or not.
// Exit codes: 0 when some poll reached the collector, 1 when none did (lets
// smoke tests poll "is the plane up yet" with --once).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtv_obs.h"
#include "obs/json.h"

namespace gtv::obs::cli {
namespace {

// Minimal HTTP/1.0 GET; returns the response body or empty on any failure.
std::string http_get(const std::string& host, int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + host + "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (w < 0 && errno == EINTR) continue;  // profiler signal; retry the send
    if (w <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(w);
  }
  std::string response;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(3000);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    pollfd pfd{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count());
    if (::poll(&pfd, 1, std::max(wait_ms, 1)) <= 0) break;
    char buf[4096];
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // EOF: server closed after the body
    response.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos || response.rfind("HTTP/", 0) != 0) return {};
  return response.substr(body + 4);
}

// Sparkline over the (round, d_loss, g_loss) history; plots g_loss.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  const std::size_t start = values.size() > width ? values.size() - width : 0;
  double lo = values[start], hi = values[start];
  for (std::size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    const double norm = hi > lo ? (values[i] - lo) / (hi - lo) : 0.5;
    out += kBlocks[std::min<std::size_t>(7, static_cast<std::size_t>(norm * 7.999))];
  }
  return out;
}

std::string render(const json::Value& status) {
  std::ostringstream out;
  const auto& collector = status.at("collector");
  out << "gtv-obs top — parties: " << collector.num_or("parties", 0)
      << "  uptime: " << static_cast<long>(collector.num_or("uptime_ms", 0) / 1000.0)
      << "s  snapshot latency p50/p99: " << collector.num_or("snapshot_latency_p50_ms", 0)
      << "/" << collector.num_or("snapshot_latency_p99_ms", 0) << " ms  bad frames: "
      << collector.num_or("bad_frames", 0) << "\n\n";
  char line[320];
  std::snprintf(line, sizeof(line),
                "%-10s %-6s %-10s %-10s %10s %10s %9s %7s %7s %8s %10s %8s  %s\n",
                "PARTY", "STATE", "ROUND", "PHASE", "D_LOSS", "G_LOSS", "BYTES",
                "MSGS", "RETRY", "ALERTS", "OFFSET_US", "AGE_MS", "HOT");
  out << line;
  for (const auto& party : status.at("parties").array) {
    const auto& snap = party.at("snapshot");
    const bool stale = party.has("stale") && party.at("stale").boolean;
    const auto& alerts = snap.at("alerts");
    const std::string round = std::to_string(static_cast<long>(snap.num_or("round", 0))) +
                              "/" +
                              std::to_string(static_cast<long>(snap.num_or("rounds_total", 0)));
    const std::string alert_str =
        std::to_string(static_cast<long>(alerts.num_or("warn", 0))) + "w/" +
        std::to_string(static_cast<long>(alerts.num_or("fatal", 0)))
        + "f";
    const auto& clock = party.at("clock");
    char offset[32];
    if (clock.num_or("valid", 0) > 0 || (clock.has("valid") && clock.at("valid").boolean)) {
      std::snprintf(offset, sizeof(offset), "%+.0f", clock.num_or("offset_us", 0));
    } else {
      std::snprintf(offset, sizeof(offset), "n/a");
    }
    // Hottest sampled function for the party (--sample-hz runs only): the
    // snapshot's hot list arrives pre-sorted, entry 0 is the top leaf.
    std::string hot = "-";
    if (snap.has("hot") && !snap.at("hot").array.empty()) {
      const auto& top = snap.at("hot").array[0];
      hot = top.str_or("frame", "?");
      if (hot.size() > 36) hot = hot.substr(0, 34) + "..";
      const bool on_cpu = top.has("on_cpu") && top.at("on_cpu").boolean;
      hot += on_cpu ? "" : " [blocked]";
      const double total = snap.num_or("samples_total", 0);
      if (total > 0) {
        char pct[16];
        std::snprintf(pct, sizeof(pct), " %.0f%%",
                      100.0 * top.num_or("samples", 0) / total);
        hot += pct;
      }
    }
    std::snprintf(line, sizeof(line),
                  "%-10s %-6s %-10s %-10s %10.4f %10.4f %9s %7ld %7ld %8s %10s %8.0f  %s\n",
                  party.str_or("party", "?").c_str(), stale ? "STALE" : "live",
                  round.c_str(), snap.str_or("phase", "?").c_str(),
                  snap.num_or("d_loss", 0), snap.num_or("g_loss", 0),
                  human_bytes(snap.num_or("bytes", 0)).c_str(),
                  static_cast<long>(snap.num_or("messages", 0)),
                  static_cast<long>(snap.num_or("retries", 0)), alert_str.c_str(),
                  offset, party.num_or("age_ms", 0), hot.c_str());
    out << line;
  }
  // Loss curve from whichever party carries the driver's merged view.
  for (const auto& party : status.at("parties").array) {
    if (party.str_or("party", "") != "driver" || !party.has("loss_history")) continue;
    std::vector<double> g_losses;
    for (const auto& point : party.at("loss_history").array) {
      if (point.array.size() >= 3) g_losses.push_back(point.array[2].number);
    }
    if (!g_losses.empty()) {
      out << "\ng_loss  " << sparkline(g_losses, 60) << "  (last "
          << std::min<std::size_t>(g_losses.size(), 60) << " rounds)\n";
    }
  }
  return out.str();
}

}  // namespace

int run_top(int argc, char** argv) {
  const Args args = parse_args(argc, argv, {"--port", "--host", "--interval-ms", "--frames"},
                               {"--once", "--no-clear"}, false);
  const int port = static_cast<int>(args.num("--port", 0));
  if (port <= 0) usage_error("top: --port is required");
  const std::string host = args.get("--host", "127.0.0.1");
  const auto interval =
      std::chrono::milliseconds(static_cast<int>(args.num("--interval-ms", 500)));
  const bool once = args.has("--once");
  const int frames = once ? 1 : static_cast<int>(args.num("--frames", 0));  // 0 = forever
  bool ever_connected = false;
  int polled = 0;
  for (;;) {
    const std::string body = http_get(host, port, "/status");
    if (body.empty()) {
      std::cerr << "gtv-obs top: no collector at " << host << ":" << port << "\n";
    } else {
      const std::string frame = render(json::parse(body));
      ever_connected = true;
      if (!args.has("--no-clear") && !once) std::cout << "\x1b[H\x1b[2J";  // home + clear
      std::cout << frame << std::flush;
    }
    if (frames > 0 && ++polled >= frames) break;
    std::this_thread::sleep_for(interval);
  }
  return ever_connected ? 0 : 1;
}

}  // namespace gtv::obs::cli
