// Shared harness for the paper-reproduction benchmarks (one binary per
// table/figure). Handles configuration via environment variables, dataset
// preparation, synthetic-data evaluation against the paper's eight metrics,
// and CSV emission.
//
// Environment knobs (all optional):
//   GTV_BENCH_ROWS     training rows per dataset      (default 250)
//   GTV_BENCH_ROUNDS   GAN training rounds            (default 100)
//   GTV_BENCH_REPEATS  repetitions averaged           (default 1; paper: 3)
//   GTV_BENCH_SCALE    multiplies rows & rounds       (default 1.0)
//   GTV_BENCH_SEED     data split + training seed     (default 2025)
//   GTV_BENCH_DATASETS comma list                     (default all five)
//   GTV_BENCH_OUT      output directory for CSVs      (default bench_results)
//
// Observability (gtv::obs; see README "Observability"):
//   GTV_TRACE=<path>   write a chrome://tracing-compatible JSONL span
//                      trace of every training phase to <path>
//   GTV_METRICS=1      enable clock-sampling instrumentation (per-call
//                      client/server forward/backward histograms,
//                      thread-pool busy/idle accounting)
//   GTV_PROFILE=1      enable the op-level autograd profiler
//   GTV_HEALTH=1       enable training-health monitoring (gradient stats,
//                      WGAN-GP divergence detectors, sample-quality probes)
// Every write_csv() also drops a `<name>.telemetry.json` snapshot next to
// the CSV: a schema_version-stamped envelope holding the tensor-memory
// ledger, the process-wide MetricsRegistry (phase-duration percentiles +
// per-link traffic) and the HealthLog summary, so each figure records its
// phase breakdown. Under GTV_PROFILE=1 a `<name>.profile.json` per-op table
// is written as well; under GTV_HEALTH=1 a `<name>.health.json` alert log.
// Merge the artefacts with tools/gtv-prof / tools/gtv-health.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "eval/ml_utility.h"
#include "eval/similarity.h"

namespace gtv::bench {

struct BenchConfig {
  // Defaults; from_env() falls back to them (see the knob table above).
  std::size_t rows = 250;
  std::size_t rounds = 100;
  std::size_t batch = 64;
  std::size_t d_steps = 2;
  std::size_t repeats = 1;
  std::uint64_t seed = 2025;
  std::vector<std::string> datasets;
  std::string out_dir = "bench_results";

  static BenchConfig from_env();
};

struct PreparedData {
  data::Table train;
  data::Table test;
  std::size_t target = 0;  // target column index in both splits
  std::string name;
};

// Generates the synthetic stand-in dataset and splits 80/20 stratified on
// the target (the paper's pipeline).
PreparedData prepare_dataset(const std::string& name, std::size_t rows, std::uint64_t seed);

// The eight paper metrics for one (real, synthetic) pair. Difference
// metrics: lower is better.
struct MetricRow {
  double acc_diff = 0;
  double f1_diff = 0;
  double auc_diff = 0;
  double avg_jsd = 0;
  double avg_wd = 0;
  double diff_corr = 0;
  // Two-client variants (0 when no client split was supplied).
  double avg_client_corr = 0;
  double across_client_corr = 0;

  MetricRow& operator+=(const MetricRow& other);
  MetricRow operator/(double d) const;
};

// Evaluates synthetic data on all metrics. When `client_groups` holds the
// two clients' column index sets (over the joined layout), the Avg-client /
// Across-client Diff. Corr. variants are filled in.
MetricRow evaluate_synthetic(const PreparedData& data, const data::Table& synthetic,
                             const std::vector<std::vector<std::size_t>>& client_groups,
                             std::uint64_t seed);

// Contiguous even column split preserving order (paper §4.3.1); with an odd
// column count the first groups get one extra column.
std::vector<std::vector<std::size_t>> even_split_columns(std::size_t n_cols,
                                                         std::size_t n_clients);

// The joined GTV output has columns in group order; this restores the
// original column order so it can be compared against the source table.
data::Table restore_column_order(const data::Table& joined,
                                 const std::vector<std::vector<std::size_t>>& groups);

// One full GTV run on `data` with the given vertical split + evaluation.
MetricRow gtv_experiment(const PreparedData& data,
                         const std::vector<std::vector<std::size_t>>& groups,
                         const core::GtvOptions& options, std::size_t rounds,
                         std::uint64_t seed);

// Centralized baseline run + evaluation (client_groups only affect the
// Avg/Across-client correlation variants).
MetricRow centralized_experiment(const PreparedData& data,
                                 const std::vector<std::vector<std::size_t>>& client_groups,
                                 const gan::GanOptions& options, std::size_t rounds,
                                 std::uint64_t seed);

// Default GTV options matching the bench config (paper widths: 256).
core::GtvOptions default_gtv_options(const BenchConfig& config);
gan::GanOptions default_gan_options(const BenchConfig& config);

// Trains GTV on the given client shards and returns the published
// synthetic table (same size as the training data).
data::Table run_gtv(const std::vector<data::Table>& shards, const core::GtvOptions& options,
                    std::size_t rounds, std::size_t synth_rows, std::uint64_t seed);

// CSV emission: writes header + rows into <out_dir>/<file>, plus a
// MetricsRegistry snapshot into <out_dir>/<stem>.telemetry.json.
void write_csv(const std::string& out_dir, const std::string& file,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

// Writes one JSON object to <out_dir>/<file>:
//   {"schema_version":3,"memory":{<tensor ledger>},"metrics":{<registry>},
//    "health":{<HealthLog summary>}}
// where metrics is the process-wide MetricsRegistry snapshot (counters,
// gauges, phase-duration histograms) and health the alert-count summary
// (all-zero when GTV_HEALTH is unset).
void write_telemetry_json(const std::string& out_dir, const std::string& file);

// Runs the tasks on up to GTV_BENCH_PARALLEL threads (default: half the
// hardware threads, capped at 8). Tasks must be independent; results keep
// task order. Used to fan experiment grids across cores.
void parallel_tasks(std::vector<std::function<void()>> tasks);

std::string format_double(double v, int precision = 4);

}  // namespace gtv::bench
