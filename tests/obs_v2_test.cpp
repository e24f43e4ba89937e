// gtv::obs v2 — op profiler, memory accounting, JSON reader, and
// cross-party flow correlation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autograd/autograd.h"
#include "net/wire.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace gtv::obs {
namespace {

// Restores the profiling switch so tests cannot leak state into each other.
class ProfilingGuard {
 public:
  ProfilingGuard() : was_(profiling_enabled()) {}
  ~ProfilingGuard() { set_profiling_enabled(was_); }

 private:
  bool was_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// --- JSON reader -------------------------------------------------------------

TEST(JsonReaderTest, ParsesScalarsArraysAndObjects) {
  const json::Value v = json::parse(
      R"({"name":"gtv","pi":3.5,"neg":-2e3,"on":true,"off":false,"nil":null,)"
      R"("arr":[1,2,3],"nested":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").str, "gtv");
  EXPECT_DOUBLE_EQ(v.at("pi").number, 3.5);
  EXPECT_DOUBLE_EQ(v.at("neg").number, -2000.0);
  EXPECT_TRUE(v.at("on").boolean);
  EXPECT_FALSE(v.at("off").boolean);
  EXPECT_TRUE(v.at("nil").is_null());
  ASSERT_TRUE(v.at("arr").is_array());
  ASSERT_EQ(v.at("arr").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").array[1].number, 2.0);
  EXPECT_EQ(v.at("nested").str_or("k", ""), "v");
  EXPECT_DOUBLE_EQ(v.num_or("missing", -1.0), -1.0);
  EXPECT_FALSE(v.has("missing"));
}

TEST(JsonReaderTest, DecodesStringEscapes) {
  const json::Value v = json::parse(R"("a\"b\\c\nd\tA")");
  EXPECT_EQ(v.str, "a\"b\\c\nd\tA");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::parse("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(json::parse(""), std::runtime_error);
}

TEST(JsonReaderTest, RoundTripsEmitterOutput) {
  // The reader must accept what the obs emitters produce.
  auto& registry = MetricsRegistry::instance();
  registry.counter("obs_v2.roundtrip").add(5);
  registry.histogram("obs_v2.roundtrip_hist").record(1.5);
  const json::Value v = json::parse(registry.to_json());
  EXPECT_DOUBLE_EQ(v.at("counters").num_or("obs_v2.roundtrip", -1), 5.0);
  EXPECT_DOUBLE_EQ(v.at("histograms").at("obs_v2.roundtrip_hist").num_or("count", -1),
                   1.0);
}

// --- profiler ----------------------------------------------------------------

TEST(ProfilerTest, DisabledScopesRecordNothing) {
  ProfilingGuard guard;
  set_profiling_enabled(false);
  Profiler::instance().reset();
  {
    OpScope scope("obs_v2.disabled");
    OpScope::charge_bytes(1024);
  }
  EXPECT_TRUE(Profiler::instance().snapshot().empty());
}

TEST(ProfilerTest, SelfTimeExcludesNestedScopes) {
  ProfilingGuard guard;
  set_profiling_enabled(true);
  Profiler::instance().reset();
  {
    OpScope outer("obs_v2.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      OpScope inner("obs_v2.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  const auto stats = Profiler::instance().snapshot();
  ASSERT_TRUE(stats.count("obs_v2.outer"));
  ASSERT_TRUE(stats.count("obs_v2.inner"));
  const OpStats& outer = stats.at("obs_v2.outer");
  const OpStats& inner = stats.at("obs_v2.inner");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  // Outer total covers both sleeps; outer *self* excludes the inner scope.
  EXPECT_GE(outer.total_us, inner.total_us);
  EXPECT_EQ(outer.self_us, outer.total_us - inner.total_us);
  EXPECT_GE(inner.total_us, 3000u);
  EXPECT_LT(outer.self_us, outer.total_us);
}

TEST(ProfilerTest, BytesChargeToInnermostScope) {
  ProfilingGuard guard;
  set_profiling_enabled(true);
  Profiler::instance().reset();
  {
    OpScope outer("obs_v2.bytes_outer");
    OpScope::charge_bytes(100);
    {
      OpScope inner("obs_v2.bytes_inner");
      OpScope::charge_bytes(7);
    }
    OpScope::charge_bytes(23);
  }
  const auto stats = Profiler::instance().snapshot();
  EXPECT_EQ(stats.at("obs_v2.bytes_outer").bytes, 123u);
  EXPECT_EQ(stats.at("obs_v2.bytes_inner").bytes, 7u);
}

TEST(ProfilerTest, AutogradOpsRecordForwardAndBackward) {
  ProfilingGuard guard;
  set_profiling_enabled(true);
  Profiler::instance().reset();

  ag::Var a(Tensor::of({{1, 2}, {3, 4}}), /*requires_grad=*/true);
  ag::Var b(Tensor::of({{5, 6}, {7, 8}}), /*requires_grad=*/true);
  ag::Var loss = ag::sum_all(ag::matmul(a, b));
  ag::backward(loss);

  const auto stats = Profiler::instance().snapshot();
  ASSERT_TRUE(stats.count("matmul")) << Profiler::instance().report();
  ASSERT_TRUE(stats.count("matmul.bwd"));
  ASSERT_TRUE(stats.count("sum_all.bwd"));
  ASSERT_TRUE(stats.count("autograd.backward"));
  // Each matmul-family call touches two 2x2 operands and one 2x2 result.
  // The backward pass is transpose-free: g·B^T records under "matmul_nt"
  // and A^T·g under "matmul_tn" — no "transpose" op appears at all.
  EXPECT_EQ(stats.at("matmul").calls, 1u);
  EXPECT_EQ(stats.at("matmul").bytes,
            stats.at("matmul").calls * 3u * 4u * sizeof(float));
  ASSERT_TRUE(stats.count("matmul_nt"));
  ASSERT_TRUE(stats.count("matmul_tn"));
  EXPECT_EQ(stats.at("matmul_nt").calls, 1u);
  EXPECT_EQ(stats.at("matmul_tn").calls, 1u);
  EXPECT_EQ(stats.count("transpose"), 0u);
}

TEST(ProfilerTest, ReportAndJsonCarrySchemaAndOps) {
  ProfilingGuard guard;
  set_profiling_enabled(true);
  Profiler::instance().reset();
  { OpScope scope("obs_v2.report_op"); }

  const std::string table = Profiler::instance().report();
  EXPECT_NE(table.find("obs_v2.report_op"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);

  const json::Value v = json::parse(Profiler::instance().to_json());
  EXPECT_DOUBLE_EQ(v.num_or("schema_version", 0), 1.0);
  ASSERT_TRUE(v.at("ops").has("obs_v2.report_op"));
  EXPECT_DOUBLE_EQ(v.at("ops").at("obs_v2.report_op").num_or("calls", 0), 1.0);
}

// --- memory accounting -------------------------------------------------------

TEST(MemoryTest, TensorAllocationsMoveTheLedger) {
  const MemStats before = memory_stats();
  {
    Tensor t(64, 64);  // 16 KiB of tracked floats
    const MemStats during = memory_stats();
    EXPECT_GE(during.live_bytes, before.live_bytes + 64 * 64 * sizeof(float));
    EXPECT_GT(during.alloc_count, before.alloc_count);
  }
  const MemStats after = memory_stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_GT(after.free_count, before.free_count);
  EXPECT_GE(after.peak_bytes, before.live_bytes + 64 * 64 * sizeof(float));
}

TEST(MemoryTest, PeakScopeSeesOnlyItsWindow) {
  Tensor persistent(32, 32);  // alive across the scope
  std::uint64_t peak = 0;
  {
    MemPeakScope scope(&peak);
    const std::uint64_t base = memory_stats().live_bytes;
    { Tensor big(128, 128); }
    EXPECT_GE(scope.peak_bytes(), base + 128 * 128 * sizeof(float));
  }
  EXPECT_GE(peak, 128 * 128 * sizeof(float));
}

TEST(MemoryTest, PeakScopeFoldsByMaxAcrossReentry) {
  std::uint64_t peak = 0;
  {
    MemPeakScope scope(&peak);
    Tensor big(64, 64);
  }
  const std::uint64_t first = peak;
  {
    MemPeakScope scope(&peak);
    Tensor small(2, 2);
  }
  // The second, smaller window must not shrink the recorded worst case.
  EXPECT_GE(peak, first);
}

TEST(MemoryTest, NestedScopesTrackIndependently) {
  std::uint64_t outer_peak = 0, inner_peak = 0;
  {
    MemPeakScope outer(&outer_peak);
    { Tensor a(64, 64); }
    {
      MemPeakScope inner(&inner_peak);
      Tensor b(16, 16);
    }
  }
  EXPECT_GT(outer_peak, 0u);
  EXPECT_GT(inner_peak, 0u);
  EXPECT_GE(outer_peak, inner_peak);
}

TEST(MemoryTest, GaugesPublishLedger) {
  Tensor keep(8, 8);
  publish_memory_gauges();
  auto& registry = MetricsRegistry::instance();
  const MemStats stats = memory_stats();
  EXPECT_DOUBLE_EQ(registry.gauge("tensor.mem.live_bytes").value(),
                   static_cast<double>(stats.live_bytes));
  EXPECT_DOUBLE_EQ(registry.gauge("tensor.mem.peak_bytes").value(),
                   static_cast<double>(stats.peak_bytes));
  EXPECT_GT(registry.gauge("tensor.mem.alloc_count").value(), 0.0);
}

// --- party rows + flow correlation ------------------------------------------

TEST(PartyScopeTest, NestsAndRestores) {
  EXPECT_EQ(TraceSink::current_party(), kDriverPid);
  {
    PartyScope server(0);
    EXPECT_EQ(TraceSink::current_party(), 0);
    {
      PartyScope client(3);
      EXPECT_EQ(TraceSink::current_party(), 3);
    }
    EXPECT_EQ(TraceSink::current_party(), 0);
  }
  EXPECT_EQ(TraceSink::current_party(), kDriverPid);
}

TEST(TraceFlowTest, SendRecvEmitPartySpansAndFlowPair) {
  const std::string path = ::testing::TempDir() + "obs_v2_flow_test.jsonl";
  TraceSink& sink = TraceSink::instance();
  sink.declare_party(0, "server");
  sink.declare_party(1, "client0");
  sink.open(path);
  ASSERT_TRUE(sink.active());

  // One meter plays both parties: the link's first send and first receive
  // both take flow ordinal 0, so their ids pair.
  net::TrafficMeter meter;
  meter.send_tensor("client0->server", Tensor::of({{1, 2, 3}}));
  meter.recv_tensor("client0->server");
  sink.close();

  bool saw_send = false, saw_recv = false, saw_s = false, saw_f = false;
  std::set<std::string> process_names;
  double flow_id_s = -1, flow_id_f = -2;
  for (const std::string& line : read_lines(path)) {
    const json::Value v = json::parse(line);  // every line must parse back
    const std::string ph = v.str_or("ph", "");
    const std::string name = v.str_or("name", "");
    if (ph == "M" && name == "process_name") {
      process_names.insert(v.at("args").str_or("name", ""));
    } else if (ph == "X" && name == "send client0->server") {
      saw_send = true;
      EXPECT_EQ(v.num_or("pid", -1), 1.0);  // client0 sends
      EXPECT_GE(v.num_or("dur", 0), 1.0);
    } else if (ph == "X" && name == "recv client0->server") {
      saw_recv = true;
      EXPECT_EQ(v.num_or("pid", -1), 0.0);  // server receives
    } else if (ph == "s") {
      saw_s = true;
      flow_id_s = v.num_or("id", -1);
      EXPECT_EQ(v.num_or("pid", -1), 1.0);
    } else if (ph == "f") {
      saw_f = true;
      flow_id_f = v.num_or("id", -2);
      EXPECT_EQ(v.num_or("pid", -1), 0.0);
      EXPECT_EQ(v.str_or("bp", ""), "e");  // bind finish to enclosing slice
    }
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_f);
  EXPECT_EQ(flow_id_s, flow_id_f);  // one flow, shared id across parties
  EXPECT_TRUE(process_names.count("server"));
  EXPECT_TRUE(process_names.count("client0"));
  std::remove(path.c_str());
}

TEST(TraceFlowTest, PeerToPeerLinksResolveClientPids) {
  const std::string path = ::testing::TempDir() + "obs_v2_p2p_test.jsonl";
  TraceSink& sink = TraceSink::instance();
  sink.open(path);
  net::TrafficMeter meter;
  meter.send_indices("client2->client0", std::vector<std::size_t>{1, 2, 3});
  meter.recv_indices("client2->client0");
  sink.close();

  bool saw_pair = false;
  for (const std::string& line : read_lines(path)) {
    const json::Value v = json::parse(line);
    if (v.str_or("ph", "") == "s") {
      EXPECT_EQ(v.num_or("pid", -1), 3.0);  // client2 = pid 3
    } else if (v.str_or("ph", "") == "f") {
      EXPECT_EQ(v.num_or("pid", -1), 1.0);  // client0 = pid 1
      saw_pair = true;
    }
  }
  EXPECT_TRUE(saw_pair);
  std::remove(path.c_str());
}

TEST(TraceConcurrencyTest, ParallelSpanEmissionYieldsUntornJsonl) {
  const std::string path = ::testing::TempDir() + "obs_v2_concurrent_test.jsonl";
  TraceSink& sink = TraceSink::instance();
  sink.open(path);
  ASSERT_TRUE(sink.active());

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      PartyScope party(t % 3);
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedTimer span("concurrent_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  sink.close();

  const auto lines = read_lines(path);
  std::set<double> tids;
  std::size_t spans = 0;
  for (const std::string& line : lines) {
    const json::Value v = json::parse(line);  // throws on a torn/interleaved line
    if (v.str_or("name", "") != "concurrent_span") continue;  // party metadata
    ++spans;
    EXPECT_EQ(v.str_or("ph", ""), "X");
    tids.insert(v.num_or("tid", -1));
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gtv::obs
