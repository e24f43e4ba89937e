#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "data/datasets.h"
#include "eval/similarity.h"
#include "serve/engine.h"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- Report ------------------------------------------------------------------------

void Report::put(std::vector<Metric>& list, const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}

void Report::e2e(const std::string& name, double value, const std::string& unit) {
  put(e2e_, name, value, unit);
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  put(layers_, name, value, unit);
}

void Report::check(bool ok, const std::string& what) {
  std::fprintf(stderr, "perfbench: check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

void Report::print_human(const Args& args) const {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# ops attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), correct_ ? "true" : "false");
  for (const auto& m : e2e_) {
    std::printf("e2e   %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    for (const auto& m : layers_) {
      std::printf("layer %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

std::string Report::json(bool traced) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  const auto& list = traced ? layers_ : e2e_;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const double v = std::isfinite(list[i].value) ? list[i].value : 0.0;
    out << (i == 0 ? "" : ", ") << '"' << list[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << list[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- SpanLog -----------------------------------------------------------------------

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const char* name, const char* party, std::uint64_t group,
                     Clock::time_point t0, Clock::time_point t1) {
  if (!enabled()) return;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, party, group, ns(t0), ns(t1)});
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"party\":\"" << s.party << "\",\"group\":" << s.group
        << ",\"t0_ns\":" << s.t0_ns << ",\"t1_ns\":" << s.t1_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

// --- ProbeTransport ------------------------------------------------------------------

ProbeTransport::ProbeTransport(std::shared_ptr<gtv::net::Transport> inner, const char* party,
                               std::string watched_link)
    : inner_(std::move(inner)), party_(party), watched_(std::move(watched_link)) {}

void ProbeTransport::deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) {
  const std::size_t bytes = frame.size();
  const auto t0 = Clock::now();
  inner_->deliver_frame(link, std::move(frame));
  const auto t1 = Clock::now();
  SpanLog::instance().record("deliver", party_, 0, t0, t1);
  std::lock_guard<std::mutex> lock(mu_);
  delivers_.push_back({t0, t1, bytes});
}

std::vector<std::uint8_t> ProbeTransport::fetch_frame(const std::string& link, int timeout_ms) {
  const auto t0 = Clock::now();
  auto note = [&](bool returned) {
    const auto t1 = Clock::now();
    SpanLog::instance().record("recv_wait", party_, 0, t0, t1);
    std::size_t count = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      waits_.push_back({t0, t1, 0});
      if (returned && link == watched_) {
        watched_returns_.push_back(t1);
        count = watched_returns_.size();
      }
    }
    if (count > 0 && on_watched_) on_watched_(count);
  };
  try {
    std::vector<std::uint8_t> frame = inner_->fetch_frame(link, timeout_ms);
    note(true);
    return frame;
  } catch (const gtv::net::TimeoutError&) {
    // An empty zero-timeout poll is not a wait.
    if (timeout_ms > 0) note(false);
    throw;
  } catch (...) {
    note(false);
    throw;
  }
}

ProbeTransport::Window ProbeTransport::window(Clock::time_point from, Clock::time_point to) const {
  Window w;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : delivers_) {
    if (e.t0 < from || e.t0 >= to) continue;
    ++w.frames;
    w.bytes += e.bytes;
    w.deliver_ms += ms_between(e.t0, e.t1);
  }
  for (const auto& e : waits_) {
    const auto a = std::max(e.t0, from);
    const auto b = std::min(e.t1, to);
    if (a < b) w.wait_ms += ms_between(a, b);
  }
  return w;
}

std::vector<ProbeTransport::Event> ProbeTransport::deliveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivers_;
}

std::vector<Clock::time_point> ProbeTransport::watched_returns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watched_returns_;
}

std::size_t byte_weighted_median(std::vector<ProbeTransport::Event> deliveries) {
  std::sort(deliveries.begin(), deliveries.end(),
            [](const auto& a, const auto& b) { return a.bytes < b.bytes; });
  std::uint64_t total = 0;
  for (const auto& e : deliveries) total += e.bytes;
  std::uint64_t running = 0;
  for (const auto& e : deliveries) {
    running += e.bytes;
    if (2 * running >= total) return e.bytes;
  }
  return 0;
}

void declare_metrics(Report& report) {
  const std::pair<const char*, const char*> e2e[] = {
      {"setup_s", "s"},           {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},  {"wire_mb_per_op", "MB"},    {"peak_rss_mb", "MB"},
  };
  for (const auto& [name, unit] : e2e) report.e2e(name, 0, unit);
  const std::pair<const char*, const char*> layers[] = {
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"tensor.elementwise_ns_per_elem", "ns"},
      {"tensor.allocs_per_op", "count"},
      {"tensor.live_peak_mb", "MB"},
      {"proc.cpu_per_wall", "1"},
      {"nn.fn_block_fwd_bwd_ms", "ms"},
      {"nn.rn_block_fwd_bwd_ms", "ms"},
      {"gan.gradient_penalty_ms", "ms"},
      {"nn.rn_block_fwd_ms", "ms"},
      {"core.cv_generation_ms", "ms"},
      {"core.fake_forward_ms", "ms"},
      {"core.real_forward_ms", "ms"},
      {"core.critic_backward_ms", "ms"},
      {"core.gradient_penalty_ms", "ms"},
      {"core.generator_step_ms", "ms"},
      {"core.shuffle_ms", "ms"},
      {"core.phase_cover_frac", "1"},
      {"core.server.recv_wait_ms", "ms"},
      {"core.server.busy_ms", "ms"},
      {"core.client0.recv_wait_ms", "ms"},
      {"core.client0.busy_ms", "ms"},
      {"core.client1.recv_wait_ms", "ms"},
      {"core.client1.busy_ms", "ms"},
      {"core.driver.recv_wait_ms", "ms"},
      {"core.driver.busy_ms", "ms"},
      {"net.codec_mb_per_s", "MB/s"},
      {"net.frames_per_op", "count"},
      {"net.mb_per_frame", "MB"},
      {"net.deliver_ms_per_op", "ms"},
      {"net.retries", "count"},
      {"net.timeouts", "count"},
      {"encode.fit_s", "s"},
      {"eval.synth_avg_jsd", "1"},
      {"serve.plan_ms_per_krow", "ms"},
      {"serve.run_ms_per_krow_64", "ms"},
      {"serve.run_ms_per_krow_1024", "ms"},
      {"serve.rowbatch_codec_mb_per_s", "MB/s"},
      {"serve.batch_rows_avg", "count"},
      {"serve.request_ms_p50", "ms"},
      {"serve.batch_ms_p50", "ms"},
      {"serve.max_rps", "1/s"},
      {"loadgen.lateness_ms_p99", "ms"},
      {"loadgen.backlog_end", "count"},
      {"trace.overhead_frac", "1"},
      {"trace.spans", "count"},
  };
  for (const auto& [name, unit] : layers) report.layer(name, 0, unit);
}

void report_traffic(const ProbeTransport::Window& net, std::size_t ops, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  report.e2e("wire_mb_per_op", static_cast<double>(net.bytes) / 1e6 / n, "MB");
  report.layer("net.frames_per_op", static_cast<double>(net.frames) / n, "count");
  report.layer("net.mb_per_frame",
               net.frames == 0 ? 0 : static_cast<double>(net.bytes) / 1e6 / static_cast<double>(net.frames),
               "MB");
  report.layer("net.deliver_ms_per_op", net.deliver_ms / n, "ms");
}

// --- shared inputs -------------------------------------------------------------------

gtv::core::GtvOptions paper_options() {
  gtv::core::GtvOptions o;
  o.gan.noise_dim = 128;
  o.gan.hidden = 256;
  o.generator_hidden = 256;
  o.gan.batch_size = 128;
  o.gan.d_steps_per_round = 5;
  o.exact_gradient_penalty = false;  // the mode gtv-node deploys
  return o;
}

// Mean per-round phase times from the trainer's RoundTelemetry, and the
// share of `round_ms` they account for (gradient penalty is a sub-span of
// critic_backward, so it is not added again).
void report_phases(const std::vector<gtv::obs::RoundTelemetry>& rounds, double round_ms, Report& report) {
  if (rounds.empty()) return;
  const gtv::obs::RoundTelemetry sum = gtv::obs::aggregate(rounds);
  const double n = static_cast<double>(rounds.size());
  report.layer("core.cv_generation_ms", sum.cv_generation_ms / n, "ms");
  report.layer("core.fake_forward_ms", sum.fake_forward_ms / n, "ms");
  report.layer("core.real_forward_ms", sum.real_forward_ms / n, "ms");
  report.layer("core.critic_backward_ms", sum.critic_backward_ms / n, "ms");
  report.layer("core.gradient_penalty_ms", sum.gradient_penalty_ms / n, "ms");
  report.layer("core.generator_step_ms", sum.generator_step_ms / n, "ms");
  report.layer("core.shuffle_ms", sum.shuffle_ms / n, "ms");
  const double phases = sum.cv_generation_ms + sum.fake_forward_ms + sum.real_forward_ms +
                        sum.critic_backward_ms + sum.generator_step_ms + sum.shuffle_ms;
  report.layer("core.phase_cover_frac", round_ms > 0 ? phases / n / round_ms : 0, "1");
}

SplitTable make_split_loan(std::size_t rows, std::uint64_t seed) {
  gtv::Rng rng(seed ^ 0xda7a5eedULL);
  SplitTable split;
  split.joined = gtv::data::make_dataset("loan", rows, rng);
  std::vector<std::vector<std::size_t>> groups(2);
  const std::size_t cols = split.joined.n_cols();
  for (std::size_t c = 0; c < cols; ++c) groups[c < (cols + 1) / 2 ? 0 : 1].push_back(c);
  split.shards = gtv::data::vertical_split(split.joined, groups);
  return split;
}

void check_fidelity(const gtv::serve::Checkpoint& checkpoint, const gtv::data::Table& real,
                    std::uint64_t seed, double limit, const std::string& workload,
                    Report& report) {
  gtv::serve::Synthesizer synth(checkpoint);
  const double jsd = gtv::eval::average_jsd(real, synth.sample(2000, seed ^ 0x15dULL));
  report.check(std::isfinite(jsd) && jsd > 0 && jsd < limit,
               workload + ": synthetic avg JSD " + std::to_string(jsd) + " in (0, " +
                   std::to_string(limit) + ")");
  report.layer("eval.synth_avg_jsd", jsd, "1");
}

}  // namespace perfbench
