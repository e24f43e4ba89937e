// gtv::obs::health — training-health monitoring for the GTV stack.
//
// PR 1/2 gave the repo *system* observability (spans, op profiler, memory
// ledger, cross-party flows); this layer watches whether the GAN itself is
// healthy. WGAN-GP training fails silently — exploding critic gradients,
// drifting Wasserstein estimates, mode collapse — and the eval stack only
// notices after a full run. Three collection tiers feed one rule engine:
//
//   1. per-module gradient/weight/update statistics (L2 norm, max-abs,
//      update-to-weight ratio, NaN/Inf sentinels) harvested from every
//      nn::Adam step (AdamStepStats);
//   2. WGAN-GP detectors over the round losses — gradient-penalty
//      magnitude, Wasserstein-estimate drift and sign flips,
//      critic/generator loss divergence, and a stalled-training detector;
//   3. per-round sample-quality probes: every K rounds the trainer draws a
//      small generated batch and compares per-column marginals against the
//      real shards (categorical JSD, continuous mean/std drift), catching
//      collapse long before the eval stack runs.
//
// Each rule is an EWMA/threshold check emitting a structured
// HealthAlert{severity, rule, round, value, threshold}. Alerts land in the
// round's RoundHealth record (rides inside RoundTelemetry), in the
// process-wide HealthLog (serialized to `<fig>.health.json` by the
// benches), in the MetricsRegistry (`gtv.health.*` gauges/counters, so
// they are Prometheus-scrapeable), and — when a trace sink is open — as
// instant events on the trainer's Perfetto row.
//
// Gating follows the PR 2 profiler contract: everything here is disarmed
// to a single relaxed atomic load per hook site unless GTV_HEALTH is set
// (any value except "0") or set_health_enabled(true) was called.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gtv::obs {

// Global switch for health collection (see file comment).
bool health_enabled();
void set_health_enabled(bool enabled);

enum class Severity { kInfo = 0, kWarn = 1, kFatal = 2 };
const char* to_string(Severity severity);

// One structured alert from a health rule. `value` is the observation that
// tripped the rule, `threshold` the limit it was compared against.
struct HealthAlert {
  Severity severity = Severity::kInfo;
  std::string rule;
  std::size_t round = 0;
  double value = 0.0;
  double threshold = 0.0;
  // Free-form context: which module/column, what the EWMA baseline was.
  std::string detail;

  // One JSON object (single line, no trailing newline).
  std::string to_json() const;
};

// Per-module optimizer-step statistics, one record per (party, network)
// pair and round ("server.D", "client0.G", ...). Produced from
// nn::AdamStepStats by the trainer.
struct ModuleGradStats {
  std::string module;
  double grad_norm = 0.0;     // L2 over all parameter gradients
  double weight_norm = 0.0;   // L2 over all parameter values (post-step)
  double update_norm = 0.0;   // L2 over the applied Adam deltas
  double grad_max_abs = 0.0;
  std::uint64_t nonfinite = 0;  // NaN/Inf gradient elements seen

  // Relative step size ||update|| / ||weights||; the classic "is the LR
  // sane" signal (healthy Adam sits around 1e-3 .. 1e-2 per step).
  double update_ratio() const;
  std::string to_json() const;
};

// One column's sample-quality probe result. Categorical columns report the
// marginal Jensen-Shannon divergence (base 2, in [0,1]) against the real
// shard; continuous/mixed columns report mean/std drift in units of the
// real column's standard deviation. `jsd` is -1 for non-categoricals.
struct ColumnProbe {
  std::string column;  // "client<k>.<column name>"
  double jsd = -1.0;
  double mean_drift = 0.0;
  double std_drift = 0.0;

  std::string to_json() const;
};

// The per-round health record that rides inside RoundTelemetry. Default
// state is "not collected": all vectors empty (no allocations) and the
// telemetry JSON omits the block entirely, so disarmed output is
// byte-identical to the pre-health format.
struct RoundHealth {
  bool collected = false;
  std::vector<ModuleGradStats> modules;
  std::vector<ColumnProbe> probes;  // empty on rounds without a probe
  std::vector<HealthAlert> alerts;

  std::uint64_t nonfinite_grads() const;
  bool has_fatal() const;
  std::string to_json() const;
};

// Rule thresholds. Defaults are deliberately conservative: a healthy
// seed-config run must stay silent (pinned by health_divergence_test),
// while a destabilized critic LR must turn fatal within a few rounds.
struct HealthThresholds {
  // --- gradient rules (per module, every round) -----------------------------
  double grad_norm_fatal = 1e3;     // critic_grad_norm / generator_grad_norm
  double grad_growth_ratio = 25.0;  // warn: grad norm vs its own EWMA
  double update_ratio_max = 0.5;    // warn: ||update||/||weights|| per step
  // --- WGAN-GP loss rules ---------------------------------------------------
  double gp_max = 100.0;                  // warn: raw penalty value
  double wasserstein_drift_ratio = 10.0;  // warn: |w - ewma| vs |ewma|
  std::size_t sign_flip_window = 8;       // rounds of sign history kept
  std::size_t sign_flip_max = 6;          // warn at >= this many flips
  double loss_divergence_ratio = 20.0;    // warn: fast/slow |d_loss| EWMA
  // --- stalled-training detector --------------------------------------------
  std::size_t stall_window = 20;   // rounds without progress before alerting
  double stall_epsilon = 1e-4;     // relative |d_loss|+|g_loss| change floor
  // --- sample-quality probe rules --------------------------------------------
  double probe_jsd_max = 0.6;       // warn: per-column marginal JSD
  double probe_mean_drift_max = 3.0;  // warn: |mean drift| in real-std units
  double probe_std_drift_max = 0.9;   // warn: collapse/blow-up of column std
  // --- warmups ---------------------------------------------------------------
  // EWMA-relative rules need a baseline; probe rules exempt early training
  // (an untrained generator legitimately has terrible marginals).
  std::size_t detector_warmup_rounds = 10;
  std::size_t probe_warmup_rounds = 20;
  double ewma_alpha = 0.2;
};

// Trainer-facing configuration (lives in GtvOptions::health).
struct HealthOptions {
  HealthThresholds thresholds;
  // Draw a probe batch every `probe_interval` rounds (0 disables probes).
  std::size_t probe_interval = 10;
  std::size_t probe_rows = 64;
  // When true, GtvTrainer::train_round() throws FatalHealthError after
  // recording a fatal alert. Default off: alert-only, training continues.
  bool abort_on_fatal = false;
};

// The rule engine. One instance per trainer; holds the EWMA state the
// drift/growth/stall rules compare against. Not thread-safe (the trainer
// calls it from the training thread only).
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthThresholds thresholds = {});

  // Evaluates every rule for one round. Appends fired alerts to
  // `health.alerts`, records them in HealthLog + MetricsRegistry
  // (`gtv.health.*`), and emits trace instant events when a sink is open.
  void evaluate(std::size_t round, float d_loss, float g_loss, float gp,
                float wasserstein, RoundHealth& health);

  const HealthThresholds& thresholds() const { return thresholds_; }

 private:
  struct Ewma {
    double value = 0.0;
    std::size_t samples = 0;
    void update(double v, double alpha);
    bool primed() const { return samples >= 3; }
  };

  void emit(HealthAlert alert, RoundHealth& health);

  HealthThresholds thresholds_;
  std::map<std::string, Ewma> grad_ewma_;  // per-module grad-norm baseline
  Ewma wasserstein_ewma_;
  Ewma loss_fast_;
  Ewma loss_slow_;
  std::vector<int> wasserstein_signs_;  // ring, size <= sign_flip_window
  double last_progress_ = 0.0;
  std::size_t stalled_rounds_ = 0;
};

// Process-wide alert accumulator. HealthMonitor::evaluate records every
// alert here; benches serialize it to `<fig>.health.json` and tests to the
// alert JSONL artefact. Thread-safe.
class HealthLog {
 public:
  static HealthLog& instance();

  void record(const HealthAlert& alert);
  std::vector<HealthAlert> snapshot() const;
  std::size_t total() const;
  std::size_t count(Severity severity) const;
  void reset();

  // JSON array of HealthAlert::to_json records.
  std::string alerts_json() const;
  // One alert object per line (the alert JSONL artefact shape).
  std::string alerts_jsonl() const;
  // {"enabled":..,"total":..,"info":..,"warn":..,"fatal":..,"rules":{...}}
  std::string summary_json() const;

  HealthLog(const HealthLog&) = delete;
  HealthLog& operator=(const HealthLog&) = delete;

 private:
  HealthLog() = default;

  mutable std::mutex mu_;
  std::vector<HealthAlert> alerts_;
};

// Writes {"schema_version":1,"summary":{...},"alerts":[...]} to `path`
// from the process-wide HealthLog (the `<fig>.health.json` artefact).
void write_health_json(const std::string& path);

// Jensen-Shannon divergence (base 2, in [0, 1]) between two unnormalized
// non-negative weight vectors of equal length. Used by the marginal probes;
// unit-tested directly (identical marginals => 0, disjoint => 1).
double jensen_shannon(const std::vector<double>& p, const std::vector<double>& q);

// One sample-quality probe: a generated column against the real one. With
// `categories` > 0 the values are category indices and the probe is the
// JSD of their frequencies; otherwise it is the mean and standard-deviation
// drift in units of the real column's deviation.
ColumnProbe probe_column(std::string name, const std::vector<double>& real,
                         const std::vector<double>& fake, std::size_t categories);

}  // namespace gtv::obs
