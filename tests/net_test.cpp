#include "net/wire.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace gtv::net {
namespace {

TEST(WireTest, TensorRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::uniform(7, 5, -3.0f, 3.0f, rng);
  Tensor back = deserialize_tensor(serialize_tensor(t));
  EXPECT_FLOAT_EQ(t.max_abs_diff(back), 0.0f);
  EXPECT_EQ(back.rows(), 7u);
  EXPECT_EQ(back.cols(), 5u);
}

TEST(WireTest, EmptyTensorRoundTrip) {
  Tensor t(0, 4);
  Tensor back = deserialize_tensor(serialize_tensor(t));
  EXPECT_EQ(back.rows(), 0u);
  EXPECT_EQ(back.cols(), 4u);
}

TEST(WireTest, IndicesRoundTrip) {
  std::vector<std::size_t> idx = {0, 5, 5, 999999, 3};
  EXPECT_EQ(deserialize_indices(serialize_indices(idx)), idx);
  EXPECT_TRUE(deserialize_indices(serialize_indices({})).empty());
}

TEST(WireTest, TruncatedPayloadThrows) {
  auto bytes = serialize_tensor(Tensor(2, 2, 1.0f));
  bytes.pop_back();
  EXPECT_THROW(deserialize_tensor(bytes), std::runtime_error);
  auto ibytes = serialize_indices({1, 2, 3});
  ibytes.resize(10);
  EXPECT_THROW(deserialize_indices(ibytes), std::runtime_error);
}

TEST(WireTest, MalformedBuffersThrowTypedWireError) {
  // The typed error subclasses std::runtime_error, so existing catch sites
  // keep working while new code can catch net::WireError specifically.
  auto bytes = serialize_tensor(Tensor(2, 2, 1.0f));
  bytes.pop_back();
  EXPECT_THROW(deserialize_tensor(bytes), WireError);
  EXPECT_THROW(deserialize_indices(std::vector<std::uint8_t>(3, 0)), WireError);
}

TEST(WireTest, TruncationAtEveryLengthThrows) {
  const auto bytes = serialize_tensor(Tensor(3, 2, 0.5f));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(deserialize_tensor(cut), WireError) << "len=" << len;
  }
  const auto ibytes = serialize_indices({9, 8, 7});
  for (std::size_t len = 0; len < ibytes.size(); ++len) {
    std::vector<std::uint8_t> cut(ibytes.begin(), ibytes.begin() + len);
    EXPECT_THROW(deserialize_indices(cut), WireError) << "len=" << len;
  }
}

TEST(WireTest, TrailingBytesRejected) {
  auto bytes = serialize_tensor(Tensor(2, 3, 1.0f));
  bytes.push_back(0);
  EXPECT_THROW(deserialize_tensor(bytes), WireError);
  auto ibytes = serialize_indices({1, 2});
  ibytes.push_back(0xff);
  EXPECT_THROW(deserialize_indices(ibytes), WireError);
}

TEST(WireTest, OversizedHeaderCannotForceHugeAllocation) {
  // Header claims 2^40 x 2^40 elements on a 16-byte buffer: the overflow
  // check must reject it before any allocation is attempted.
  std::vector<std::uint8_t> bytes(16, 0);
  bytes[5] = 1;   // rows = 2^40 (little-endian byte 5)
  bytes[13] = 1;  // cols = 2^40
  EXPECT_THROW(deserialize_tensor(bytes), WireError);
  // Same for an indices count far beyond the buffer.
  std::vector<std::uint8_t> ibytes(8, 0xff);
  EXPECT_THROW(deserialize_indices(ibytes), WireError);
}

TEST(WireTest, LayoutIsPinnedLittleEndian) {
  // rows=1, cols=2, values {1.0f, -2.0f}: 16-byte header + 8 payload bytes.
  Tensor t(1, 2);
  t(0, 0) = 1.0f;
  t(0, 1) = -2.0f;
  const auto bytes = serialize_tensor(t);
  ASSERT_EQ(bytes.size(), 24u);
  EXPECT_EQ(bytes[0], 1u);   // rows LSB
  EXPECT_EQ(bytes[8], 2u);   // cols LSB
  // 1.0f = 0x3f800000 little-endian.
  EXPECT_EQ(bytes[16], 0x00u);
  EXPECT_EQ(bytes[19], 0x3fu);
  // -2.0f = 0xc0000000.
  EXPECT_EQ(bytes[23], 0xc0u);

  const auto ibytes = serialize_indices({0x0102030405060708ULL});
  ASSERT_EQ(ibytes.size(), 16u);
  EXPECT_EQ(ibytes[0], 1u);     // count LSB
  EXPECT_EQ(ibytes[8], 0x08u);  // value LSB first
  EXPECT_EQ(ibytes[15], 0x01u);
}

TEST(WireTest, CorruptedBufferFuzzNeverCrashes) {
  // Byte-level fuzz over header bytes and structural positions: every
  // mutation must either round-trip to a well-formed value or throw a typed
  // WireError — never crash or mis-size.
  Rng rng(99);
  const Tensor t = Tensor::uniform(4, 3, -2.0f, 2.0f, rng);
  const auto base = serialize_tensor(t);
  for (std::size_t pos = 0; pos < 16; ++pos) {  // header bytes
    for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
      auto fuzzed = base;
      fuzzed[pos] ^= mask;
      try {
        const Tensor out = deserialize_tensor(fuzzed);
        // A surviving parse must describe exactly the bytes present.
        EXPECT_EQ(16 + out.size() * 4, fuzzed.size());
      } catch (const WireError&) {
        // expected for most header mutations
      }
    }
  }
  const auto ibase = serialize_indices({5, 6, 7, 8});
  for (std::size_t pos = 0; pos < 8; ++pos) {
    for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
      auto fuzzed = ibase;
      fuzzed[pos] ^= mask;
      try {
        const auto out = deserialize_indices(fuzzed);
        EXPECT_EQ(8 + out.size() * 8, fuzzed.size());
      } catch (const WireError&) {
      }
    }
  }
}

// The meter's default InProcTransport queues a send until a recv on the
// same meter takes it, so one meter plays both ends of a link.
TEST(TrafficMeterTest, CountsBytesAndMessagesPerLink) {
  TrafficMeter meter;
  Tensor t(4, 8);  // 16-byte header + 128 bytes payload
  meter.send_tensor("a->b", t);
  meter.send_tensor("a->b", t);
  meter.send_indices("b->a", std::vector<std::size_t>{1, 2, 3});
  meter.recv_tensor("a->b");
  meter.recv_tensor("a->b");
  meter.recv_indices("b->a");
  EXPECT_EQ(meter.stats("a->b").messages, 2u);
  EXPECT_EQ(meter.stats("a->b").bytes, 2u * (16 + 4 * 8 * 4));
  EXPECT_EQ(meter.stats("b->a").messages, 1u);
  EXPECT_EQ(meter.stats("b->a").bytes, 8u + 3 * 8);
  EXPECT_EQ(meter.total().messages, 3u);
  EXPECT_EQ(meter.stats("unknown").bytes, 0u);
}

TEST(TrafficMeterTest, RecvReturnsEqualValue) {
  TrafficMeter meter;
  Rng rng(2);
  Tensor t = Tensor::normal(3, 3, 0.0f, 1.0f, rng);
  meter.send_tensor("x", t);
  Tensor out = meter.recv_tensor("x");
  EXPECT_FLOAT_EQ(t.max_abs_diff(out), 0.0f);
  std::vector<std::size_t> idx = {7, 0, 7};
  meter.send_indices("x", idx);
  EXPECT_EQ(meter.recv_indices("x"), idx);
}

TEST(TrafficMeterTest, ResetClears) {
  TrafficMeter meter;
  meter.send_tensor("x", Tensor(1, 1));
  meter.recv_tensor("x");
  meter.reset();
  EXPECT_EQ(meter.total().bytes, 0u);
  EXPECT_TRUE(meter.all().empty());
}

TEST(TrafficMeterTest, PublishesPerLinkCountersToRegistry) {
  auto& registry = obs::MetricsRegistry::instance();
  // The registry counters are cumulative across meters, so assert deltas.
  const auto bytes_before = registry.counter("net.meter-test->peer.bytes").value();
  const auto msgs_before = registry.counter("net.meter-test->peer.messages").value();

  TrafficMeter meter;
  Tensor t(4, 8);
  meter.send_tensor("meter-test->peer", t);
  meter.send_indices("meter-test->peer", std::vector<std::size_t>{1, 2, 3});
  meter.recv_tensor("meter-test->peer");
  meter.recv_indices("meter-test->peer");

  const auto& local = meter.stats("meter-test->peer");
  EXPECT_EQ(registry.counter("net.meter-test->peer.bytes").value() - bytes_before,
            local.bytes);
  EXPECT_EQ(registry.counter("net.meter-test->peer.messages").value() - msgs_before,
            local.messages);
}

TEST(TrafficMeterTest, RegistryCountersSurviveMeterReset) {
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.counter("net.reset-test->peer.bytes").value();
  TrafficMeter meter;
  meter.send_tensor("reset-test->peer", Tensor(2, 2));
  meter.recv_tensor("reset-test->peer");
  const auto charged = meter.stats("reset-test->peer").bytes;
  meter.reset();
  meter.send_tensor("reset-test->peer", Tensor(2, 2));
  meter.recv_tensor("reset-test->peer");
  // Local stats rewound; the registry keeps the cumulative total.
  EXPECT_EQ(meter.stats("reset-test->peer").bytes, charged);
  EXPECT_EQ(registry.counter("net.reset-test->peer.bytes").value() - before, 2 * charged);
}

}  // namespace
}  // namespace gtv::net
