#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/blackbox.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtv::obs {

namespace {

// -1 = uninitialised, 0 = off, 1 = on (same discipline as timing_enabled).
std::atomic<int> g_health_state{-1};

int health_state_from_env() {
  const char* v = std::getenv("GTV_HEALTH");
  if (v == nullptr || v[0] == '\0' || std::string(v) == "0") return 0;
  return 1;
}

Counter& severity_counter(Severity severity) {
  return MetricsRegistry::instance().counter(std::string("gtv.health.alerts.") +
                                             to_string(severity));
}

// JSON has no NaN/Inf literals; clamp pathological observations (the very
// thing health monitoring exists to catch) into representable numbers.
double json_num(double v) { return json::safe_num(v); }

}  // namespace

bool health_enabled() {
  int state = g_health_state.load(std::memory_order_relaxed);
  if (state < 0) {
    state = health_state_from_env();
    g_health_state.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void set_health_enabled(bool enabled) {
  g_health_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kFatal: return "fatal";
  }
  return "unknown";
}

std::string HealthAlert::to_json() const {
  std::ostringstream os;
  os << "{\"severity\":\"" << to_string(severity) << "\",\"rule\":\""
     << json_escape(rule) << "\",\"round\":" << round << ",\"value\":" << json_num(value)
     << ",\"threshold\":" << json_num(threshold) << ",\"detail\":\"" << json_escape(detail)
     << "\"}";
  return os.str();
}

double ModuleGradStats::update_ratio() const {
  return update_norm / (weight_norm + 1e-12);
}

std::string ModuleGradStats::to_json() const {
  std::ostringstream os;
  os << "{\"module\":\"" << json_escape(module) << "\",\"grad_norm\":" << json_num(grad_norm)
     << ",\"weight_norm\":" << json_num(weight_norm) << ",\"update_norm\":" << json_num(update_norm)
     << ",\"grad_max_abs\":" << json_num(grad_max_abs) << ",\"update_ratio\":" << json_num(update_ratio())
     << ",\"nonfinite\":" << nonfinite << "}";
  return os.str();
}

std::string ColumnProbe::to_json() const {
  std::ostringstream os;
  os << "{\"column\":\"" << json_escape(column) << "\",\"jsd\":" << json_num(jsd)
     << ",\"mean_drift\":" << json_num(mean_drift) << ",\"std_drift\":" << json_num(std_drift) << "}";
  return os.str();
}

std::uint64_t RoundHealth::nonfinite_grads() const {
  std::uint64_t total = 0;
  for (const auto& m : modules) total += m.nonfinite;
  return total;
}

bool RoundHealth::has_fatal() const {
  for (const auto& a : alerts) {
    if (a.severity == Severity::kFatal) return true;
  }
  return false;
}

std::string RoundHealth::to_json() const {
  std::ostringstream os;
  os << "{\"collected\":" << (collected ? "true" : "false") << ",\"modules\":[";
  for (std::size_t i = 0; i < modules.size(); ++i) {
    os << (i == 0 ? "" : ",") << modules[i].to_json();
  }
  os << "],\"probes\":[";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    os << (i == 0 ? "" : ",") << probes[i].to_json();
  }
  os << "],\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    os << (i == 0 ? "" : ",") << alerts[i].to_json();
  }
  os << "]}";
  return os.str();
}

// --- HealthMonitor -----------------------------------------------------------

void HealthMonitor::Ewma::update(double v, double alpha) {
  value = samples == 0 ? v : (1.0 - alpha) * value + alpha * v;
  ++samples;
}

HealthMonitor::HealthMonitor(HealthThresholds thresholds) : thresholds_(thresholds) {}

void HealthMonitor::emit(HealthAlert alert, RoundHealth& health) {
  severity_counter(alert.severity).add();
  MetricsRegistry::instance().counter("gtv.health.alerts.total").add();
  TraceSink& sink = TraceSink::instance();
  if (sink.active()) {
    const std::string name = "health." + alert.rule;
    sink.emit_instant(name.c_str(), TraceSink::now_us(), to_string(alert.severity),
                      alert.value, alert.threshold);
  }
  HealthLog::instance().record(alert);
  health.alerts.push_back(std::move(alert));
}

void HealthMonitor::evaluate(std::size_t round, float d_loss, float g_loss, float gp,
                             float wasserstein, RoundHealth& health) {
  const HealthThresholds& t = thresholds_;
  MetricsRegistry& registry = MetricsRegistry::instance();

  // --- tier 1: per-module gradient rules --------------------------------------
  for (const auto& m : health.modules) {
    registry.gauge("gtv.health." + m.module + ".grad_norm").set(m.grad_norm);
    registry.gauge("gtv.health." + m.module + ".update_ratio").set(m.update_ratio());

    if (m.nonfinite > 0) {
      emit({Severity::kFatal, "nonfinite_grad", round,
            static_cast<double>(m.nonfinite), 0.0,
            m.module + ": NaN/Inf gradient elements"},
           health);
      // Norms computed over non-finite grads are meaningless; skip the rest.
      continue;
    }
    const bool critic = m.module.size() >= 2 &&
                        m.module.compare(m.module.size() - 2, 2, ".D") == 0;
    if (m.grad_norm > t.grad_norm_fatal) {
      emit({critic ? Severity::kFatal : Severity::kWarn,
            critic ? "critic_grad_norm" : "generator_grad_norm", round, m.grad_norm,
            t.grad_norm_fatal, m.module + ": gradient L2 norm exploded"},
           health);
    }
    if (m.update_ratio() > t.update_ratio_max) {
      emit({Severity::kWarn, "update_ratio", round, m.update_ratio(),
            t.update_ratio_max, m.module + ": update-to-weight ratio (LR too hot?)"},
           health);
    }
    auto& ewma = grad_ewma_[m.module];
    if (ewma.primed() && m.grad_norm > t.grad_growth_ratio * (ewma.value + 1e-12)) {
      emit({Severity::kWarn, "grad_norm_growth", round, m.grad_norm,
            t.grad_growth_ratio * ewma.value,
            m.module + ": grad norm vs EWMA baseline " + std::to_string(ewma.value)},
           health);
    }
    ewma.update(m.grad_norm, t.ewma_alpha);
  }

  // --- tier 2: WGAN-GP loss detectors -----------------------------------------
  if (!std::isfinite(d_loss) || !std::isfinite(g_loss) || !std::isfinite(gp) ||
      !std::isfinite(wasserstein)) {
    emit({Severity::kFatal, "nonfinite_loss", round, 0.0, 0.0,
          "d_loss/g_loss/gp/wasserstein contains NaN or Inf"},
         health);
  } else {
    // Recorded only for finite penalties — a NaN would poison the histogram.
    registry.histogram("gtv.health.gp").record(std::abs(static_cast<double>(gp)));
    if (std::abs(gp) > t.gp_max) {
      emit({Severity::kWarn, "gp_magnitude", round, std::abs(gp), t.gp_max,
            "gradient-penalty value left its healthy band"},
           health);
    }

    const bool warmed = round >= t.detector_warmup_rounds;
    const double w = wasserstein;
    if (warmed && wasserstein_ewma_.primed()) {
      const double baseline = std::abs(wasserstein_ewma_.value) + 1e-3;
      const double drift = std::abs(w - wasserstein_ewma_.value);
      if (drift > t.wasserstein_drift_ratio * baseline) {
        emit({Severity::kWarn, "wasserstein_drift", round, drift,
              t.wasserstein_drift_ratio * baseline,
              "Wasserstein estimate drifted from EWMA " +
                  std::to_string(wasserstein_ewma_.value)},
             health);
      }
    }
    wasserstein_ewma_.update(w, t.ewma_alpha);

    wasserstein_signs_.push_back(w >= 0.0 ? 1 : -1);
    if (wasserstein_signs_.size() > t.sign_flip_window) {
      wasserstein_signs_.erase(wasserstein_signs_.begin());
    }
    if (warmed && wasserstein_signs_.size() == t.sign_flip_window) {
      std::size_t flips = 0;
      for (std::size_t i = 1; i < wasserstein_signs_.size(); ++i) {
        if (wasserstein_signs_[i] != wasserstein_signs_[i - 1]) ++flips;
      }
      if (flips >= t.sign_flip_max) {
        emit({Severity::kWarn, "wasserstein_sign_flip", round,
              static_cast<double>(flips), static_cast<double>(t.sign_flip_max),
              "Wasserstein estimate oscillating around zero"},
             health);
      }
    }

    const double d_mag = std::abs(static_cast<double>(d_loss));
    loss_fast_.update(d_mag, 0.5);
    loss_slow_.update(d_mag, 0.05);
    if (round >= t.detector_warmup_rounds &&
        loss_fast_.value > t.loss_divergence_ratio * (loss_slow_.value + 1e-6)) {
      emit({Severity::kWarn, "loss_divergence", round, loss_fast_.value,
            t.loss_divergence_ratio * loss_slow_.value,
            "critic loss magnitude diverging from its slow baseline"},
           health);
    }

    // Stalled training: the loss signal stopped moving at all.
    const double progress = d_mag + std::abs(static_cast<double>(g_loss));
    const double rel_change =
        std::abs(progress - last_progress_) / (std::abs(last_progress_) + 1e-9);
    stalled_rounds_ = (round > 0 && rel_change < t.stall_epsilon) ? stalled_rounds_ + 1 : 0;
    last_progress_ = progress;
    if (stalled_rounds_ >= t.stall_window) {
      emit({Severity::kInfo, "training_stalled", round,
            static_cast<double>(stalled_rounds_), static_cast<double>(t.stall_window),
            "no loss movement for " + std::to_string(stalled_rounds_) + " rounds"},
           health);
      stalled_rounds_ = 0;  // re-arm instead of alerting every round
    }
  }

  // --- tier 3: sample-quality probe rules --------------------------------------
  if (round >= t.probe_warmup_rounds) {
    for (const auto& p : health.probes) {
      if (p.jsd >= 0.0 && p.jsd > t.probe_jsd_max) {
        emit({Severity::kWarn, "probe_jsd", round, p.jsd, t.probe_jsd_max,
              p.column + ": marginal diverged from real shard (collapse?)"},
             health);
      }
      if (p.jsd < 0.0 && std::abs(p.mean_drift) > t.probe_mean_drift_max) {
        emit({Severity::kWarn, "probe_mean_drift", round, std::abs(p.mean_drift),
              t.probe_mean_drift_max, p.column + ": generated mean drifted"},
             health);
      }
      if (p.jsd < 0.0 && std::abs(p.std_drift) > t.probe_std_drift_max) {
        emit({Severity::kWarn, "probe_std_drift", round, std::abs(p.std_drift),
              t.probe_std_drift_max,
              p.column + ": generated spread collapsed or blew up"},
             health);
      }
    }
  }
}

// --- HealthLog ---------------------------------------------------------------

HealthLog& HealthLog::instance() {
  static HealthLog log;
  return log;
}

void HealthLog::record(const HealthAlert& alert) {
  bb::note_alert(static_cast<std::uint32_t>(alert.severity), alert.round,
                 alert.rule.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  alerts_.push_back(alert);
}

std::vector<HealthAlert> HealthLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::size_t HealthLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_.size();
}

std::size_t HealthLog::count(Severity severity) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& a : alerts_) {
    if (a.severity == severity) ++n;
  }
  return n;
}

void HealthLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  alerts_.clear();
}

std::string HealthLog::alerts_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    os << (i == 0 ? "" : ",") << alerts_[i].to_json();
  }
  os << ']';
  return os.str();
}

std::string HealthLog::alerts_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& a : alerts_) os << a.to_json() << '\n';
  return os.str();
}

std::string HealthLog::summary_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t by_severity[3] = {0, 0, 0};
  std::map<std::string, std::size_t> rules;
  for (const auto& a : alerts_) {
    by_severity[static_cast<int>(a.severity)] += 1;
    rules[a.rule] += 1;
  }
  std::ostringstream os;
  os << "{\"enabled\":" << (health_enabled() ? "true" : "false")
     << ",\"total\":" << alerts_.size() << ",\"info\":" << by_severity[0]
     << ",\"warn\":" << by_severity[1] << ",\"fatal\":" << by_severity[2]
     << ",\"rules\":{";
  bool first = true;
  for (const auto& [rule, n] : rules) {
    os << (first ? "" : ",") << '"' << json_escape(rule) << "\":" << n;
    first = false;
  }
  os << "}}";
  return os.str();
}

void write_health_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_health_json: cannot open " + path);
  HealthLog& log = HealthLog::instance();
  out << "{\"schema_version\":1,\"summary\":" << log.summary_json()
      << ",\"alerts\":" << log.alerts_json() << "}\n";
}

// --- probe math --------------------------------------------------------------

double jensen_shannon(const std::vector<double>& p, const std::vector<double>& q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("jensen_shannon: length mismatch");
  }
  double sp = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0.0 || q[i] < 0.0) {
      throw std::invalid_argument("jensen_shannon: negative weight");
    }
    sp += p[i];
    sq += q[i];
  }
  if (sp <= 0.0 || sq <= 0.0) return 0.0;
  double div = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i] / sp;
    const double qi = q[i] / sq;
    const double mi = 0.5 * (pi + qi);
    if (pi > 0.0) div += 0.5 * pi * std::log2(pi / mi);
    if (qi > 0.0) div += 0.5 * qi * std::log2(qi / mi);
  }
  return std::clamp(div, 0.0, 1.0);
}

ColumnProbe probe_column(std::string name, const std::vector<double>& real,
                         const std::vector<double>& fake, std::size_t categories) {
  ColumnProbe probe;
  probe.column = std::move(name);
  if (categories > 0) {
    const auto frequencies = [categories](const std::vector<double>& col) {
      std::vector<double> freq(categories, 0.0);
      for (const double v : col) {
        const auto k = static_cast<std::size_t>(v);
        if (k < categories) freq[k] += 1.0;
      }
      return freq;
    };
    probe.jsd = jensen_shannon(frequencies(real), frequencies(fake));
    return probe;
  }
  const auto moments = [](const std::vector<double>& col) {
    double sum = 0.0, sq = 0.0;
    for (const double v : col) {
      sum += v;
      sq += v * v;
    }
    const double inv = col.empty() ? 0.0 : 1.0 / static_cast<double>(col.size());
    const double mean = sum * inv;
    return std::pair<double, double>{mean, std::sqrt(std::max(0.0, sq * inv - mean * mean))};
  };
  const auto [real_mean, real_std] = moments(real);
  const auto [fake_mean, fake_std] = moments(fake);
  const double scale = std::max(real_std, 1e-6);
  probe.mean_drift = (fake_mean - real_mean) / scale;
  probe.std_drift = (fake_std - real_std) / scale;
  return probe;
}

}  // namespace gtv::obs
