#include "eval/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"

namespace gtv::eval {
namespace {

TEST(MetricsTest, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(accuracy({0, 1, 1, 0}, {0, 1, 0, 0}), 0.75);
  EXPECT_DOUBLE_EQ(accuracy({1}, {1}), 1.0);
  EXPECT_THROW(accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW(accuracy({1, 2}, {1}), std::invalid_argument);
}

TEST(MetricsTest, MacroF1PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(macro_f1({0, 1, 0, 1}, {0, 1, 0, 1}, 2), 1.0);
  EXPECT_DOUBLE_EQ(macro_f1({0, 0, 0, 0}, {1, 1, 1, 1}, 2), 0.0);
}

TEST(MetricsTest, MacroF1HandlesImbalance) {
  // 9 of class 0 predicted right, the one class-1 sample missed.
  std::vector<std::size_t> truth(10, 0), pred(10, 0);
  truth[9] = 1;
  const double f1 = macro_f1(truth, pred, 2);
  // class0 F1 = 18/19, class1 F1 = 0 -> macro ~0.4737
  EXPECT_NEAR(f1, 0.5 * 18.0 / 19.0, 1e-9);
}

TEST(MetricsTest, BinaryAucPerfectSeparation) {
  std::vector<std::size_t> truth = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(binary_auc(truth, {0.1, 0.2, 0.8, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(binary_auc(truth, {0.9, 0.8, 0.2, 0.1}), 0.0);
}

TEST(MetricsTest, BinaryAucChanceAndTies) {
  // All scores tied -> AUC 0.5 with tie correction.
  EXPECT_DOUBLE_EQ(binary_auc({0, 1, 0, 1}, {0.5, 0.5, 0.5, 0.5}), 0.5);
  EXPECT_THROW(binary_auc({0, 0}, {0.1, 0.2}), std::invalid_argument);
}

TEST(MetricsTest, MacroAucMulticlassPerfect) {
  std::vector<std::size_t> truth = {0, 1, 2};
  Tensor scores = Tensor::of({{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.0, 0.2, 0.8}});
  EXPECT_DOUBLE_EQ(macro_auc(truth, scores), 1.0);
}

TEST(MetricsTest, MacroAucSkipsAbsentClasses) {
  std::vector<std::size_t> truth = {0, 1, 0, 1};  // class 2 never appears
  Tensor scores = Tensor::of(
      {{0.8, 0.1, 0.1}, {0.2, 0.7, 0.1}, {0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}});
  EXPECT_DOUBLE_EQ(macro_auc(truth, scores), 1.0);
}

// TrafficMeter::reset() rewinds only the meter's local view; the registry
// counters are cumulative across meters and resets — including the
// receive-side fault counters (retries/timeouts/corrupt_frames).
TEST(TrafficCountersTest, MeterResetKeepsCumulativeRegistryCounters) {
  auto& registry = obs::MetricsRegistry::instance();
  const std::string link = "metrics-reset-test->peer";
  const auto bytes_before = registry.counter("net." + link + ".bytes").value();
  const auto retries_before = registry.counter("net." + link + ".retries").value();
  const auto timeouts_before = registry.counter("net." + link + ".timeouts").value();

  net::TrafficMeter meter;
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.recv_timeout_ms = 1;
  meter.set_retry_policy(policy);

  // 30 delivered messages, then one receive on the drained link: it waits
  // max_attempts times (3 timeouts, 2 retries) and throws.
  const auto exchange = [&] {
    const std::vector<std::size_t> idx = {1, 2, 3, 4};
    for (int i = 0; i < 30; ++i) {
      meter.send_indices(link, idx);
      EXPECT_EQ(meter.recv_indices(link), idx);
    }
    EXPECT_THROW(meter.recv_indices(link), net::TimeoutError);
  };
  exchange();
  const net::LinkStats first = meter.stats(link);
  ASSERT_EQ(first.timeouts, 3u);
  ASSERT_EQ(first.retries, 2u);

  meter.reset();
  EXPECT_EQ(meter.stats(link).bytes, 0u);
  EXPECT_EQ(meter.stats(link).retries, 0u);
  // Registry still carries the pre-reset totals...
  EXPECT_EQ(registry.counter("net." + link + ".bytes").value() - bytes_before,
            first.bytes);
  EXPECT_EQ(registry.counter("net." + link + ".retries").value() - retries_before,
            first.retries);
  EXPECT_EQ(registry.counter("net." + link + ".timeouts").value() - timeouts_before,
            first.timeouts);

  // ...and keeps accumulating across the reset while the local stats start
  // from zero again.
  exchange();
  const net::LinkStats second = meter.stats(link);
  EXPECT_EQ(second.bytes, first.bytes);  // same traffic, fresh local count
  EXPECT_EQ(second.timeouts, first.timeouts);
  EXPECT_EQ(registry.counter("net." + link + ".bytes").value() - bytes_before,
            first.bytes + second.bytes);
  EXPECT_EQ(registry.counter("net." + link + ".retries").value() - retries_before,
            first.retries + second.retries);
  EXPECT_EQ(registry.counter("net." + link + ".timeouts").value() - timeouts_before,
            first.timeouts + second.timeouts);
}

// --- Prometheus exposition -------------------------------------------------

// The registry is a process-wide singleton shared with every other test in
// this binary, so these tests register uniquely-named metrics and assert on
// their own lines instead of comparing the whole dump.

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(PrometheusTest, SanitizesNamesAndEmitsTypedSamples) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("prom.test-a->b.bytes").add(7);
  registry.gauge("prom.test.gauge").set(2.5);
  const std::string text = registry.to_prometheus();
  // '.', '-' and '>' all sanitize to '_'; the raw name never appears.
  EXPECT_NE(text.find("# TYPE prom_test_a__b_bytes counter\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_a__b_bytes 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_test_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_gauge 2.5\n"), std::string::npos);
  EXPECT_EQ(text.find("prom.test"), std::string::npos);
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithInfAndSumCount) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& hist = registry.histogram("prom.test.hist", {1.0, 10.0, 100.0});
  hist.record(0.5);
  hist.record(5.0);
  hist.record(5.0);
  hist.record(50.0);
  hist.record(5000.0);  // overflow bucket
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE prom_test_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_bucket{le=\"10\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_bucket{le=\"100\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("prom_test_hist_count 5\n"), std::string::npos);
  // Cumulativeness holds for every histogram in the dump, whatever other
  // tests registered: bucket counts never decrease and +Inf == _count.
  std::map<std::string, std::uint64_t> last_bucket;
  std::map<std::string, std::uint64_t> inf_bucket, count_sample;
  for (const std::string& line : split_lines(text)) {
    const std::size_t brace = line.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string family = line.substr(0, brace);
      const std::size_t close = line.find("\"} ");
      ASSERT_NE(close, std::string::npos) << line;
      const std::uint64_t value = std::stoull(line.substr(close + 3));
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        inf_bucket[family] = value;
      } else {
        EXPECT_GE(value, last_bucket[family]) << line;
      }
      last_bucket[family] = std::max(last_bucket[family], value);
    } else if (line.size() > 7 &&
               line.rfind("# ", 0) != 0 &&
               line.find("_count ") != std::string::npos) {
      const std::size_t at = line.find("_count ");
      count_sample[line.substr(0, at)] = std::stoull(line.substr(at + 7));
    }
  }
  for (const auto& [family, inf] : inf_bucket) {
    auto it = count_sample.find(family);
    ASSERT_NE(it, count_sample.end()) << family;
    EXPECT_EQ(inf, it->second) << family;
  }
}

}  // namespace
}  // namespace gtv::eval
