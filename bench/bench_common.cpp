#include "bench/bench_common.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/health.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace gtv::bench {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

}  // namespace

BenchConfig BenchConfig::from_env() {
  BenchConfig config;
  config.rows = std::stoul(env_or("GTV_BENCH_ROWS", std::to_string(config.rows)));
  config.rounds = std::stoul(env_or("GTV_BENCH_ROUNDS", std::to_string(config.rounds)));
  config.repeats = std::stoul(env_or("GTV_BENCH_REPEATS", std::to_string(config.repeats)));
  config.seed = std::stoull(env_or("GTV_BENCH_SEED", std::to_string(config.seed)));
  config.out_dir = env_or("GTV_BENCH_OUT", config.out_dir);
  const double scale = std::stod(env_or("GTV_BENCH_SCALE", "1.0"));
  config.rows = static_cast<std::size_t>(static_cast<double>(config.rows) * scale);
  config.rounds = static_cast<std::size_t>(static_cast<double>(config.rounds) * scale);
  const std::string datasets = env_or("GTV_BENCH_DATASETS", "");
  if (datasets.empty()) {
    config.datasets = data::dataset_names();
  } else {
    std::stringstream ss(datasets);
    std::string item;
    while (std::getline(ss, item, ',')) config.datasets.push_back(item);
  }
  return config;
}

PreparedData prepare_dataset(const std::string& name, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed ^ std::hash<std::string>{}(name));
  // Generate 25% extra so the 80/20 split leaves `rows` for training.
  data::Table full = data::make_dataset(name, rows + rows / 4, rng);
  const std::size_t target = full.column_index(data::target_column(name));
  auto [train, test] = full.train_test_split(0.2, rng, target);
  return {std::move(train), std::move(test), target, name};
}

MetricRow& MetricRow::operator+=(const MetricRow& other) {
  acc_diff += other.acc_diff;
  f1_diff += other.f1_diff;
  auc_diff += other.auc_diff;
  avg_jsd += other.avg_jsd;
  avg_wd += other.avg_wd;
  diff_corr += other.diff_corr;
  avg_client_corr += other.avg_client_corr;
  across_client_corr += other.across_client_corr;
  return *this;
}

MetricRow MetricRow::operator/(double d) const {
  MetricRow out = *this;
  out.acc_diff /= d;
  out.f1_diff /= d;
  out.auc_diff /= d;
  out.avg_jsd /= d;
  out.avg_wd /= d;
  out.diff_corr /= d;
  out.avg_client_corr /= d;
  out.across_client_corr /= d;
  return out;
}

MetricRow evaluate_synthetic(const PreparedData& data, const data::Table& synthetic,
                             const std::vector<std::vector<std::size_t>>& client_groups,
                             std::uint64_t seed) {
  Rng rng(seed);
  MetricRow row;
  auto utility =
      eval::ml_utility_difference(data.train, synthetic, data.test, data.target, rng);
  row.acc_diff = utility.difference.accuracy;
  row.f1_diff = utility.difference.f1;
  row.auc_diff = utility.difference.auc;
  auto similarity = eval::similarity_report(data.train, synthetic);
  row.avg_jsd = similarity.avg_jsd;
  row.avg_wd = similarity.avg_wd;
  row.diff_corr = similarity.diff_corr;
  if (client_groups.size() == 2) {
    // Avg-client: mean of each client's intra-shard Diff. Corr.
    double intra = 0.0;
    for (const auto& group : client_groups) {
      data::Table real_shard = data.train.select_columns(group);
      data::Table synth_shard = synthetic.select_columns(group);
      intra += eval::correlation_difference(real_shard, synth_shard);
    }
    row.avg_client_corr = intra / 2.0;
    row.across_client_corr = eval::correlation_difference_between(
        data.train, synthetic, client_groups[0], client_groups[1]);
  }
  return row;
}

std::vector<std::vector<std::size_t>> even_split_columns(std::size_t n_cols,
                                                         std::size_t n_clients) {
  if (n_clients == 0 || n_cols < n_clients) {
    throw std::invalid_argument("even_split_columns: too few columns");
  }
  std::vector<std::vector<std::size_t>> groups(n_clients);
  const std::size_t base = n_cols / n_clients;
  std::size_t extra = n_cols % n_clients;
  std::size_t cursor = 0;
  for (std::size_t g = 0; g < n_clients; ++g) {
    const std::size_t take = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    for (std::size_t i = 0; i < take; ++i) groups[g].push_back(cursor++);
  }
  return groups;
}

data::Table restore_column_order(const data::Table& joined,
                                 const std::vector<std::vector<std::size_t>>& groups) {
  std::vector<std::size_t> flattened;
  for (const auto& group : groups) {
    flattened.insert(flattened.end(), group.begin(), group.end());
  }
  std::vector<std::size_t> inverse(flattened.size());
  for (std::size_t pos = 0; pos < flattened.size(); ++pos) inverse[flattened[pos]] = pos;
  return joined.select_columns(inverse);
}

MetricRow gtv_experiment(const PreparedData& data,
                         const std::vector<std::vector<std::size_t>>& groups,
                         const core::GtvOptions& options, std::size_t rounds,
                         std::uint64_t seed) {
  auto shards = data::vertical_split(data.train, groups);
  data::Table joined = run_gtv(shards, options, rounds, data.train.n_rows(), seed);
  data::Table synthetic = restore_column_order(joined, groups);
  const auto& client_groups = groups.size() == 2
                                  ? groups
                                  : std::vector<std::vector<std::size_t>>{};
  return evaluate_synthetic(data, synthetic, client_groups, seed ^ 0xea1);
}

MetricRow centralized_experiment(const PreparedData& data,
                                 const std::vector<std::vector<std::size_t>>& client_groups,
                                 const gan::GanOptions& options, std::size_t rounds,
                                 std::uint64_t seed) {
  gan::CentralizedTabularGan gan(data.train, options, seed);
  gan.train(rounds);
  data::Table synthetic = gan.sample(data.train.n_rows());
  return evaluate_synthetic(data, synthetic, client_groups, seed ^ 0xea1);
}

gan::GanOptions default_gan_options(const BenchConfig& config) {
  gan::GanOptions options;
  options.batch_size = config.batch;
  options.d_steps_per_round = config.d_steps;
  options.hidden = 256;  // paper width
  options.noise_dim = 64;
  // CT-GAN's 2e-4 is tuned for batch 500; at the CPU-scale batch of 64 a
  // proportionally larger step converges to the same quality in far fewer
  // rounds (see bench/convergence.cpp).
  options.adam.lr = 1e-3f;
  if (const char* lr = std::getenv("GTV_BENCH_LR")) {
    options.adam.lr = std::stof(lr);
  }
  return options;
}

core::GtvOptions default_gtv_options(const BenchConfig& config) {
  core::GtvOptions options;
  options.gan = default_gan_options(config);
  options.generator_hidden = 256;
  return options;
}

data::Table run_gtv(const std::vector<data::Table>& shards, const core::GtvOptions& options,
                    std::size_t rounds, std::size_t synth_rows, std::uint64_t seed) {
  core::GtvTrainer trainer(shards, options, seed);
  trainer.train(rounds);
  return trainer.sample(synth_rows);
}

void write_csv(const std::string& out_dir, const std::string& file,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  std::filesystem::create_directories(out_dir);
  std::ofstream out(out_dir + "/" + file);
  if (!out) throw std::runtime_error("write_csv: cannot open " + out_dir + "/" + file);
  for (std::size_t i = 0; i < header.size(); ++i) {
    out << header[i] << (i + 1 < header.size() ? "," : "\n");
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << row[i] << (i + 1 < row.size() ? "," : "\n");
    }
  }
  // Every figure records the phase/traffic breakdown it was produced under.
  const std::string stem = file.substr(0, file.find_last_of('.'));
  write_telemetry_json(out_dir, stem + ".telemetry.json");
  if (obs::profiling_enabled()) {
    std::ofstream prof(out_dir + "/" + stem + ".profile.json");
    if (!prof) {
      throw std::runtime_error("write_csv: cannot open " + out_dir + "/" + stem +
                               ".profile.json");
    }
    prof << obs::Profiler::instance().to_json() << "\n";
  }
  if (obs::health_enabled()) {
    obs::write_health_json(out_dir + "/" + stem + ".health.json");
  }
}

void write_telemetry_json(const std::string& out_dir, const std::string& file) {
  std::filesystem::create_directories(out_dir);
  std::ofstream out(out_dir + "/" + file);
  if (!out) {
    throw std::runtime_error("write_telemetry_json: cannot open " + out_dir + "/" + file);
  }
  obs::publish_memory_gauges();
  const obs::MemStats mem = obs::memory_stats();
  out << "{\"schema_version\":3,\"memory\":{\"live_bytes\":" << mem.live_bytes
      << ",\"peak_bytes\":" << mem.peak_bytes << ",\"alloc_count\":" << mem.alloc_count
      << ",\"free_count\":" << mem.free_count
      << "},\"metrics\":" << obs::MetricsRegistry::instance().to_json()
      << ",\"health\":" << obs::HealthLog::instance().summary_json() << "}\n";
}

void parallel_tasks(std::vector<std::function<void()>> tasks) {
  std::size_t workers = std::min<std::size_t>(
      8, std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2));
  if (const char* env = std::getenv("GTV_BENCH_PARALLEL")) {
    workers = std::max<std::size_t>(1, std::stoul(env));
  }
  workers = std::min(workers, tasks.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= tasks.size()) return;
        tasks[i]();
      }
    });
  }
  for (auto& t : threads) t.join();
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace gtv::bench
