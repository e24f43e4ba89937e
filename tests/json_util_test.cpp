// obs::json emitter helpers — the single shared home for the string/number
// escaping that metrics, health and Prometheus emission all lean on — and
// the clock-offsets file's one writer and one reader.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "obs/metrics.h"

namespace gtv::obs::json {
namespace {

TEST(JsonEscapeTest, PassesPlainStringsThrough) {
  EXPECT_EQ(escape("net.server->client0.bytes"), "net.server->client0.bytes");
  EXPECT_EQ(escape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndWhitespaceControls) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("a\nb\rc\td"), "a\\nb\\rc\\td");
}

TEST(JsonEscapeTest, UEscapesOtherControlCharacters) {
  EXPECT_EQ(escape(std::string("a") + '\x01' + "b"), "a\\u0001b");
  EXPECT_EQ(escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscapeTest, EverythingEscapedParsesBack) {
  // The contract with the reader half of obs::json: a string embedded via
  // escape() round-trips through parse().
  std::string nasty;
  for (int c = 1; c < 0x80; ++c) nasty.push_back(static_cast<char>(c));
  const Value doc = parse("{\"s\":\"" + escape(nasty) + "\"}");
  EXPECT_EQ(doc.at("s").str, nasty);
}

TEST(JsonEscapeTest, MetricsJsonEscapeDelegatesHere) {
  // obs::json_escape (metrics.h) is now a thin wrapper — identical output.
  const std::string sample = "a\"b\\c\nd\x02";
  EXPECT_EQ(obs::json_escape(sample), escape(sample));
}

TEST(SafeNumTest, ClampsNonFiniteOnly) {
  EXPECT_EQ(safe_num(0.5), 0.5);
  EXPECT_EQ(safe_num(-123.0), -123.0);
  EXPECT_EQ(safe_num(std::numeric_limits<double>::quiet_NaN()), 0.0);
  EXPECT_EQ(safe_num(std::numeric_limits<double>::infinity()), 1e308);
  EXPECT_EQ(safe_num(-std::numeric_limits<double>::infinity()), -1e308);
}

TEST(PromLabelEscapeTest, EscapesExactlyThePrometheusSet) {
  EXPECT_EQ(prom_label_escape("client0"), "client0");
  EXPECT_EQ(prom_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_label_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_label_escape("a\nb"), "a\\nb");
  // Unlike JSON escaping, other bytes — tabs included — pass untouched.
  EXPECT_EQ(prom_label_escape("a\tb"), "a\tb");
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

TEST(OffsetsFileTest, RoundTripsOffsetsOfASecondAndMore) {
  // Offsets past 1e6 us are what a party started a second or more after
  // the collector gets; the stream default of 6 significant digits would
  // drop their microseconds (1234567.25 -> 1.23457e+06, 2.75 us off).
  const ClockOffsets written = {{"a", {1234567.25, 38.5}}, {"b", {-12345678.5, 41.0}}};
  const std::string path = ::testing::TempDir() + "json_util_offsets.json";
  write_text(path, offsets_json("collector", written));
  const ClockOffsets read = load_offsets(path);
  ASSERT_EQ(read.size(), 2u);
  for (const auto& [party, off] : written) {
    ASSERT_EQ(read.count(party), 1u) << party;
    EXPECT_NEAR(read.at(party).offset_us, off.offset_us, 0.001) << party;
    EXPECT_NEAR(read.at(party).rtt_us, off.rtt_us, 0.001) << party;
  }
  const Value doc = parse_file(path);
  EXPECT_EQ(doc.num_or("schema_version", -1), 1.0);
  EXPECT_EQ(doc.str_or("reference", ""), "collector");
  std::remove(path.c_str());
}

TEST(OffsetsFileTest, RejectsOtherSchemaVersionsAndMissingFiles) {
  const std::string path = ::testing::TempDir() + "json_util_offsets_v2.json";
  write_text(path, R"({"schema_version":2,"reference":"collector","offsets":{}})");
  EXPECT_THROW(load_offsets(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(load_offsets(::testing::TempDir() + "json_util_no_such_offsets.json"),
               std::runtime_error);
}

TEST(FixedUsTest, KeepsThreeDecimalsAtAnyMagnitude) {
  EXPECT_EQ(fixed_us(2.75), "2.750");
  EXPECT_EQ(fixed_us(-12345678.5), "-12345678.500");
  EXPECT_EQ(fixed_us(std::numeric_limits<double>::quiet_NaN()), "0.000");
}

}  // namespace
}  // namespace gtv::obs::json
