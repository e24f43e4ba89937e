// Tests for the live telemetry plane (obs/snapshot.h + obs/agg.h): the
// snapshot wire codec, Prometheus re-labeling/aggregation, the Collector's
// ingest/staleness/reconnect logic, the HTTP scrape endpoint, and the
// end-to-end publisher path including the clock-alignment bound.
#include "obs/agg.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "obs/json.h"
#include "obs/snapshot.h"

namespace gtv::obs::agg {
namespace {

Snapshot sample_snapshot() {
  Snapshot snap;
  snap.party = "client0";
  snap.seq = 42;
  snap.t_us = 123456789;
  snap.round = 7;
  snap.rounds_total = 20;
  snap.phase = static_cast<std::uint32_t>(Phase::kCritic);
  snap.d_loss = -1.25f;
  snap.g_loss = 0.5f;
  snap.gp = 0.03125f;
  snap.wasserstein = 2.0f;
  snap.bytes = 1'000'000;
  snap.messages = 321;
  snap.retries = 4;
  snap.timeouts = 2;
  snap.corrupt_frames = 1;
  snap.mem_live_bytes = 4096;
  snap.mem_peak_bytes = 65536;
  snap.alerts_info = 3;
  snap.alerts_warn = 1;
  snap.alerts_fatal = 0;
  snap.links.push_back({"client0->server", 900, 300});
  snap.links.push_back({"driver->client0", 100, 21});
  snap.samples_total = 1234;
  snap.hot.push_back({"gtv::detail::gemm_nn", 600, 1});
  snap.hot.push_back({"read", 77, 0});
  snap.prom = "# TYPE x counter\nx 1\n";
  return snap;
}

// --- snapshot codec --------------------------------------------------------

TEST(SnapshotCodecTest, RoundTripPreservesEveryField) {
  const Snapshot snap = sample_snapshot();
  const Snapshot back = deserialize_snapshot(serialize_snapshot(snap));
  EXPECT_EQ(back.party, snap.party);
  EXPECT_EQ(back.seq, snap.seq);
  EXPECT_EQ(back.t_us, snap.t_us);
  EXPECT_EQ(back.round, snap.round);
  EXPECT_EQ(back.rounds_total, snap.rounds_total);
  EXPECT_EQ(back.phase, snap.phase);
  EXPECT_EQ(back.d_loss, snap.d_loss);
  EXPECT_EQ(back.g_loss, snap.g_loss);
  EXPECT_EQ(back.gp, snap.gp);
  EXPECT_EQ(back.wasserstein, snap.wasserstein);
  EXPECT_EQ(back.bytes, snap.bytes);
  EXPECT_EQ(back.messages, snap.messages);
  EXPECT_EQ(back.retries, snap.retries);
  EXPECT_EQ(back.timeouts, snap.timeouts);
  EXPECT_EQ(back.corrupt_frames, snap.corrupt_frames);
  EXPECT_EQ(back.mem_live_bytes, snap.mem_live_bytes);
  EXPECT_EQ(back.mem_peak_bytes, snap.mem_peak_bytes);
  EXPECT_EQ(back.alerts_info, snap.alerts_info);
  EXPECT_EQ(back.alerts_warn, snap.alerts_warn);
  EXPECT_EQ(back.alerts_fatal, snap.alerts_fatal);
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.links[0].link, "client0->server");
  EXPECT_EQ(back.links[0].bytes, 900u);
  EXPECT_EQ(back.links[0].messages, 300u);
  EXPECT_EQ(back.links[1].link, "driver->client0");
  EXPECT_EQ(back.samples_total, snap.samples_total);
  ASSERT_EQ(back.hot.size(), 2u);
  EXPECT_EQ(back.hot[0].frame, "gtv::detail::gemm_nn");
  EXPECT_EQ(back.hot[0].samples, 600u);
  EXPECT_EQ(back.hot[0].on_cpu, 1u);
  EXPECT_EQ(back.hot[1].frame, "read");
  EXPECT_EQ(back.hot[1].on_cpu, 0u);
  EXPECT_EQ(back.prom, snap.prom);
}

TEST(SnapshotCodecTest, TruncationAtEveryLengthThrows) {
  const auto bytes = serialize_snapshot(sample_snapshot());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(deserialize_snapshot(cut), net::WireError) << "len=" << len;
  }
}

TEST(SnapshotCodecTest, TrailingGarbageAndBadVersionThrow) {
  auto bytes = serialize_snapshot(sample_snapshot());
  bytes.push_back(0);
  EXPECT_THROW(deserialize_snapshot(bytes), net::WireError);
  bytes = serialize_snapshot(sample_snapshot());
  bytes[0] ^= 0xff;  // schema version is the first LE u32
  EXPECT_THROW(deserialize_snapshot(bytes), net::WireError);
}

TEST(SnapshotCodecTest, ToJsonParsesAndOmitsProm) {
  const Snapshot snap = sample_snapshot();
  const json::Value doc = json::parse(snap.to_json());
  EXPECT_EQ(doc.str_or("party", ""), "client0");
  EXPECT_EQ(doc.num_or("round", 0), 7);
  EXPECT_EQ(doc.str_or("phase", ""), "critic");
  EXPECT_NEAR(doc.num_or("d_loss", 0), -1.25, 1e-6);
  EXPECT_FALSE(doc.has("prom"));
  EXPECT_EQ(doc.num_or("prom_bytes", 0), static_cast<double>(snap.prom.size()));
  // Profiler block: total plus the hot-frame list, states preserved.
  EXPECT_EQ(doc.num_or("samples_total", 0), 1234);
  EXPECT_NE(snap.to_json().find("\"frame\":\"gtv::detail::gemm_nn\""),
            std::string::npos);
  EXPECT_NE(snap.to_json().find("\"on_cpu\":false"), std::string::npos);
}

// --- Prometheus re-labeling ------------------------------------------------

TEST(InjectPartyLabelTest, CreatesPrependsAndEscapes) {
  EXPECT_EQ(inject_party_label("m 1", "srv"), "m{party=\"srv\"} 1");
  EXPECT_EQ(inject_party_label("m{le=\"5\"} 2", "srv"),
            "m{party=\"srv\",le=\"5\"} 2");
  EXPECT_EQ(inject_party_label("m{} 3", "srv"), "m{party=\"srv\"} 3");
  // Exposition-format escaping in the label value.
  EXPECT_EQ(inject_party_label("m 1", "a\\b\"c\nd"),
            "m{party=\"a\\\\b\\\"c\\nd\"} 1");
  // Comments and non-sample lines pass through untouched.
  EXPECT_EQ(inject_party_label("# TYPE m counter", "srv"), "# TYPE m counter");
  EXPECT_EQ(inject_party_label("", "srv"), "");
}

TEST(AggregatePrometheusTest, MergesFamiliesWithSingleTypeHeader) {
  const std::string server_dump =
      "# TYPE gtv_rounds counter\n"
      "gtv_rounds 5\n"
      "# TYPE gtv_lat histogram\n"
      "gtv_lat_bucket{le=\"1\"} 2\n"
      "gtv_lat_bucket{le=\"+Inf\"} 3\n"
      "gtv_lat_sum 4.5\n"
      "gtv_lat_count 3\n";
  const std::string client_dump =
      "# TYPE gtv_rounds counter\n"
      "gtv_rounds 4\n";
  const std::string merged =
      aggregate_prometheus({{"server", server_dump}, {"client0", client_dump}});
  EXPECT_EQ(merged,
            "# TYPE gtv_rounds counter\n"
            "gtv_rounds{party=\"server\"} 5\n"
            "gtv_rounds{party=\"client0\"} 4\n"
            "# TYPE gtv_lat histogram\n"
            "gtv_lat_bucket{party=\"server\",le=\"1\"} 2\n"
            "gtv_lat_bucket{party=\"server\",le=\"+Inf\"} 3\n"
            "gtv_lat_sum{party=\"server\"} 4.5\n"
            "gtv_lat_count{party=\"server\"} 3\n");
}

// --- Collector (synthetic ingest, no sockets) ------------------------------

TEST(CollectorTest, IngestAggregatesStatusPrometheusAndHistory) {
  Collector collector;
  Snapshot first = sample_snapshot();
  first.round = 1;
  first.g_loss = 0.25f;
  collector.ingest(first);
  Snapshot second = sample_snapshot();
  second.seq = 43;
  second.round = 2;
  second.g_loss = 0.125f;
  collector.ingest(second);
  Snapshot other = sample_snapshot();
  other.party = "server";
  other.prom = "# TYPE x counter\nx 9\n";
  collector.ingest(other);

  EXPECT_EQ(collector.party_count(), 2u);
  EXPECT_TRUE(collector.wait_for_snapshots(2, 1, 100));
  EXPECT_FALSE(collector.wait_for_snapshots(3, 1, 50));

  const auto views = collector.parties();
  ASSERT_EQ(views.size(), 2u);  // sorted by party name
  EXPECT_EQ(views[0].latest.party, "client0");
  EXPECT_EQ(views[0].snapshots, 2u);
  EXPECT_FALSE(views[0].stale);
  ASSERT_EQ(views[0].loss_history.size(), 2u);
  EXPECT_EQ(views[0].loss_history[1][0], 2.0);
  EXPECT_NEAR(views[0].loss_history[1][2], 0.125, 1e-6);

  const json::Value status = json::parse(collector.status_json());
  EXPECT_EQ(status.at("collector").num_or("parties", 0), 2);
  EXPECT_EQ(status.at("parties").array.size(), 2u);
  EXPECT_EQ(status.at("parties").array[0].str_or("party", ""), "client0");
  EXPECT_EQ(status.at("parties").array[0].at("snapshot").num_or("round", 0), 2);

  const std::string prom = collector.prometheus();
  EXPECT_NE(prom.find("x{party=\"client0\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("x{party=\"server\"} 9"), std::string::npos);
  EXPECT_NE(prom.find("gtv_agg_snapshots_total{party=\"client0\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("gtv_agg_up{party=\"server\"} 1"), std::string::npos);
  // Exactly one # TYPE header for the shared family.
  EXPECT_EQ(prom.find("# TYPE x counter"), prom.rfind("# TYPE x counter"));
  // No transport -> no measured clocks -> empty offsets map.
  EXPECT_EQ(json::parse(collector.offsets_json()).at("offsets").object.size(), 0u);
}

TEST(CollectorTest, LossHistoryDedupsByRoundAndStaysBounded) {
  CollectorOptions options;
  options.history = 4;
  Collector collector(options);
  for (int round = 0; round < 10; ++round) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      Snapshot snap = sample_snapshot();
      snap.round = static_cast<std::uint64_t>(round);
      snap.g_loss = static_cast<float>(round) + 0.1f * static_cast<float>(repeat);
      collector.ingest(snap);
    }
  }
  const auto views = collector.parties();
  ASSERT_EQ(views.size(), 1u);
  ASSERT_EQ(views[0].loss_history.size(), 4u);  // bounded ring
  EXPECT_EQ(views[0].loss_history.back()[0], 9.0);
  // The last repeat of a round wins (dedup-by-round keeps it fresh).
  EXPECT_NEAR(views[0].loss_history.back()[2], 9.2, 1e-5);
}

// --- HTTP endpoint ---------------------------------------------------------

std::string http_get(int port, const std::string& path,
                     std::string* status_line = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: t\r\nConnection: close\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;
    response.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return {};
  if (status_line) *status_line = response.substr(0, response.find("\r\n"));
  return response.substr(body + 4);
}

TEST(CollectorHttpTest, ServesMetricsStatusAndHealthz) {
  Collector collector;
  collector.ingest(sample_snapshot());
  const std::uint16_t port = collector.serve_http(0);
  ASSERT_GT(port, 0);

  std::string status_line;
  const std::string metrics = http_get(port, "/metrics", &status_line);
  EXPECT_EQ(status_line, "HTTP/1.0 200 OK");
  // Golden: the synthetic party's dump re-labeled, plus the agg series.
  EXPECT_NE(metrics.find("# TYPE x counter\nx{party=\"client0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("gtv_agg_snapshots_total{party=\"client0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("gtv_agg_up{party=\"client0\"} 1\n"), std::string::npos);

  const json::Value status = json::parse(http_get(port, "/status"));
  EXPECT_EQ(status.at("parties").array.size(), 1u);
  EXPECT_EQ(http_get(port, "/healthz"), "ok\n");
  std::string not_found_status;
  http_get(port, "/nope", &not_found_status);
  EXPECT_EQ(not_found_status, "HTTP/1.0 404 Not Found");
}

// stop() must retire the HTTP loop before closing its socket: a listener
// opened while (or right after) the Collector stops may be handed the
// same descriptor number, and then only that listener may accept its own
// connections — never the old loop, still polling the number.
TEST(CollectorHttpTest, StopRetiresHttpLoopBeforeClosingItsSocket) {
  for (int trial = 0; trial < 3; ++trial) {
    Collector collector;
    ASSERT_GT(collector.serve_http(0), 0);
    std::thread stopper([&collector] { collector.stop(); });
    for (int i = 0; i < 8; ++i) {
      const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(listener, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(addr);
      ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      ASSERT_EQ(::listen(listener, 4), 0);
      ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
      const int client = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      pollfd pfd{listener, POLLIN, 0};
      EXPECT_EQ(::poll(&pfd, 1, 1000), 1) << "trial " << trial << " listener " << i;
      const int accepted = ::accept(listener, nullptr, nullptr);
      EXPECT_GE(accepted, 0) << "the connection was accepted elsewhere";
      if (accepted >= 0) ::close(accepted);
      ::close(client);
      ::close(listener);
    }
    stopper.join();
  }
}

// --- end to end: publishers over TCP ---------------------------------------

TEST(CollectorEndToEndTest, PublishersReportWithClockAlignedWithinRttBound) {
  Collector collector;
  const std::uint16_t port = collector.listen(0);
  ASSERT_GT(port, 0);

  LiveStatus status;
  status.rounds_total.store(10);
  status.set_round(3);
  status.set_phase(Phase::kGenerator);
  status.set_losses(-0.5f, 0.25f, 0.01f, 1.5f);

  PublisherOptions options;
  options.interval_ms = 50;
  SnapshotPublisher server("server", "127.0.0.1", port, options);
  server.set_status(&status);
  SnapshotPublisher client("client0", "127.0.0.1", port, options);
  server.start();
  client.start();

  ASSERT_TRUE(collector.wait_for_snapshots(2, 2, 10000));
  server.stop();
  client.stop();

  EXPECT_GE(server.published(), 2u);
  const auto views = collector.parties();
  ASSERT_EQ(views.size(), 2u);
  for (const auto& view : views) {
    EXPECT_GE(view.snapshots, 2u);
    // Both ends live in this process and share one trace clock, so the
    // true offset is zero: the measured one must respect the NTP error
    // bound of the winning min-RTT sample (plus scheduling slack).
    ASSERT_TRUE(view.have_clock) << view.latest.party;
    EXPECT_LE(std::abs(view.clock_offset_us), view.clock_rtt_us / 2 + 1000.0)
        << view.latest.party;
  }
  // The sampled LiveStatus made it across the wire.
  const json::Value status_doc = json::parse(collector.status_json());
  bool saw_server = false;
  for (const auto& party : status_doc.at("parties").array) {
    if (party.str_or("party", "") != "server") continue;
    saw_server = true;
    const auto& snap = party.at("snapshot");
    EXPECT_EQ(snap.num_or("round", 0), 3);
    EXPECT_EQ(snap.str_or("phase", ""), "generator");
    EXPECT_NEAR(snap.num_or("g_loss", 0), 0.25, 1e-6);
  }
  EXPECT_TRUE(saw_server);
  // Measured offsets are exported for gtv-prof --offsets.
  const json::Value offsets = json::parse(collector.offsets_json());
  EXPECT_EQ(offsets.num_or("schema_version", 0), 1);
  EXPECT_EQ(offsets.at("offsets").object.size(), 2u);
  // Clock-aligned ingest latency is tracked (finite, non-negative).
  EXPECT_GE(collector.latency_ms(50), 0.0);
  EXPECT_TRUE(std::isfinite(collector.latency_ms(99)));
}

TEST(CollectorEndToEndTest, MarksSilentPartyStaleAndResumesOnReconnect) {
  CollectorOptions options;
  options.stale_after_ms = 150;
  Collector collector(options);
  const std::uint16_t port = collector.listen(0);

  PublisherOptions pub_options;
  pub_options.interval_ms = 30;
  {
    SnapshotPublisher first("client0", "127.0.0.1", port, pub_options);
    first.start();
    ASSERT_TRUE(collector.wait_for_snapshots(1, 2, 10000));
  }  // destructor stops the publisher; the party goes silent

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto views = collector.parties();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(views[0].stale);
  EXPECT_GT(views[0].age_ms, 150.0);
  const std::uint64_t before = views[0].snapshots;

  // Same party dials again: the collector's transport must swap the dead
  // connection for the new one and ingest must resume (the fresh publisher
  // restarts seq at 1 — raw-frame decoding keeps those frames).
  SnapshotPublisher second("client0", "127.0.0.1", port, pub_options);
  second.start();
  ASSERT_TRUE(collector.wait_for_snapshots(1, before + 2, 10000));
  second.stop();

  views = collector.parties();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_FALSE(views[0].stale);
  EXPECT_GT(views[0].snapshots, before);
  EXPECT_GE(views[0].reconnects, 1u);
}

}  // namespace
}  // namespace gtv::obs::agg
