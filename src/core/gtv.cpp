#include "core/gtv.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "obs/health.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtv::core {

GtvTrainer::GtvTrainer(std::vector<data::Table> client_tables, GtvOptions options,
                       std::uint64_t seed)
    : options_(options), health_monitor_(options.health.thresholds) {
  if (client_tables.empty()) throw std::invalid_argument("GtvTrainer: no clients");
  const std::size_t rows = client_tables.front().n_rows();
  std::vector<std::size_t> feature_counts;
  for (const auto& t : client_tables) {
    if (t.n_rows() != rows) {
      throw std::invalid_argument("GtvTrainer: client tables must be row-aligned");
    }
    feature_counts.push_back(t.n_cols());
  }
  initial_joined_ = data::Table::concat_columns(client_tables);

  NodeConfig config;
  config.options = options_;
  config.n_clients = client_tables.size();
  config.rounds = 0;  // rounds are driven one train_round() at a time
  config.seed = seed;
  config.train_rows = rows;
  const auto ratios = ratio_vector(feature_counts);
  const auto g_widths = proportional_widths(options_.generator_hidden, ratios);
  const auto d_widths = proportional_widths(options_.gan.hidden, ratios);
  for (std::size_t i = 0; i < client_tables.size(); ++i) {
    clients_.push_back(std::make_unique<ClientNode>(config, i, std::move(client_tables[i]),
                                                    g_widths[i], d_widths[i], &meter_));
  }
  server_ = std::make_unique<ServerNode>(config, g_widths, d_widths, &meter_);
  driver_ = std::make_unique<DriverNode>(config, &meter_);

  // Name the Perfetto rows up front (remembered even if the sink opens
  // later): server = pid 0, client k = pid k + 1, trainer loop = driver.
  obs::TraceSink& sink = obs::TraceSink::instance();
  sink.declare_party(0, "server");
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    sink.declare_party(static_cast<int>(i) + 1, "client" + std::to_string(i));
  }
  sink.declare_party(obs::kDriverPid, "trainer");

  // Attack layout: global CV bit -> (joined-table column, category). The
  // paper argues the server can infer this structure from the one-hot
  // patterns; we hand it over for evaluation.
  std::vector<ServerInferenceAttack::CvBit> bits;
  std::size_t column_offset = 0;
  for (const auto& node : clients_) {
    const GtvClient& client = node->client();
    for (const auto& span : client.encoder().discrete_spans()) {
      for (std::size_t k = 0; k < span.cardinality; ++k) {
        bits.push_back({column_offset + span.source_column, k});
      }
    }
    column_offset += client.n_features();
  }
  server_->set_attack_layout(std::move(bits));
}

GtvTrainer::~GtvTrainer() {
  if (fleet_ == nullptr) return;
  if (!fleet_->stopped()) {
    try {
      driver_->finish();
    } catch (...) {
      // The join below still ends every party: stop() wakes their waits.
    }
  }
  fleet_->stop();
  for (auto& party : parties_) party.join();
}

void GtvTrainer::start_parties() {
  std::set<std::string> command_links = {"driver->server"};
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    command_links.insert("driver->client" + std::to_string(i));
  }
  fleet_ = std::make_shared<net::FleetTransport>(meter_.shared_transport(),
                                                 std::move(command_links));
  meter_.set_transport(fleet_);
  const auto launch = [this](std::function<void()> run) {
    parties_.emplace_back([this, run = std::move(run)] {
      try {
        run();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(failure_mu_);
          if (party_failure_ == nullptr) party_failure_ = std::current_exception();
        }
        fleet_->stop();
      }
    });
  };
  try {
    launch([this] { server_->run(); });
    for (auto& client : clients_) launch([&client] { client->run(); });
  } catch (...) {
    fleet_->stop();
    throw;
  }
}

void GtvTrainer::drive(const std::function<void()>& exchange) {
  if (fleet_ == nullptr) start_parties();
  try {
    fleet_->await_quiescent();  // a no-op unless the setup handshake still runs
    exchange();
    fleet_->await_quiescent();
  } catch (...) {
    std::exception_ptr failure;
    {
      std::lock_guard<std::mutex> lock(failure_mu_);
      failure = party_failure_;
    }
    if (failure != nullptr) std::rethrow_exception(failure);
    // A driver-side error that left every party parked (a rejected
    // checkpoint, say) leaves the fleet usable; anything else ends it.
    if (!fleet_->quiescent()) fleet_->stop();
    throw;
  }
}

GtvServer& GtvTrainer::server() {
  drive([] {});
  return server_->server();
}

gan::RoundLosses GtvTrainer::train_round() {
  static obs::Histogram& round_hist =
      obs::MetricsRegistry::instance().histogram("gtv.phase.round_ms");
  const std::map<std::string, net::LinkStats> traffic_before = meter_.all();
  gan::RoundLosses losses;
  double round_ms = 0.0;
  {
    obs::ScopedTimer round_span("round", &round_hist, &round_ms, /*always=*/true);
    drive([&] { losses = driver_->train_round(); });
  }
  obs::publish_memory_gauges();
  obs::RoundTelemetry telemetry = server_->take_phases();
  telemetry.round = telemetry_.size();
  telemetry.total_ms = round_ms;
  // The clients shuffle concurrently; the slowest one gates the next round.
  for (auto& client : clients_) {
    telemetry.shuffle_ms = std::max(telemetry.shuffle_ms, client->take_shuffle_ms());
  }
  telemetry.d_loss = losses.d_loss;
  telemetry.g_loss = losses.g_loss;
  telemetry.gp = losses.gp;
  telemetry.wasserstein = losses.wasserstein;
  // Per-link deltas charged by this round (links can appear mid-run).
  for (const auto& [link, stats] : meter_.all()) {
    const auto it = traffic_before.find(link);
    const net::LinkStats before = it == traffic_before.end() ? net::LinkStats{} : it->second;
    if (stats.bytes == before.bytes && stats.messages == before.messages) continue;
    telemetry.links.push_back(
        {link, stats.bytes - before.bytes, stats.messages - before.messages});
  }
  history_.push_back(losses);
  telemetry_.push_back(std::move(telemetry));
  if (obs::health_enabled()) collect_health(losses);
  return losses;
}

std::vector<obs::HealthAlert> GtvTrainer::health_alerts() const {
  std::vector<obs::HealthAlert> out;
  for (const auto& t : telemetry_) {
    out.insert(out.end(), t.health.alerts.begin(), t.health.alerts.end());
  }
  return out;
}

void GtvTrainer::collect_health(const gan::RoundLosses& losses) {
  obs::RoundHealth& health = telemetry_.back().health;
  health.collected = true;
  const std::size_t round = telemetry_.back().round;

  // Tier 1: optimizer-step statistics. The discriminator stats describe the
  // round's last critic step, the generator stats its single generator step
  // (same convention RoundLosses uses for d_loss/g_loss).
  const auto add = [&health](const std::string& module, const nn::AdamStepStats& s) {
    if (!s.collected) return;
    health.modules.push_back(
        {module, s.grad_norm, s.weight_norm, s.update_norm, s.grad_max_abs, s.nonfinite});
  };
  GtvServer& server = server_->server();
  add("server.G", server.adam_generator().last_step_stats());
  add("server.D", server.adam_discriminator().last_step_stats());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const std::string prefix = "client" + std::to_string(i);
    add(prefix + ".G", client(i).adam_generator().last_step_stats());
    add(prefix + ".D", client(i).adam_discriminator().last_step_stats());
  }

  // Tier 3 collection (rule evaluation for it is warmup-gated downstream).
  if (options_.health.probe_interval > 0 &&
      (round + 1) % options_.health.probe_interval == 0) {
    run_probe(health);
  }

  health_monitor_.evaluate(round, losses.d_loss, losses.g_loss, losses.gp,
                           losses.wasserstein, health);

  if (on_alert_) {
    for (const auto& alert : health.alerts) on_alert_(alert);
  }
  if (options_.health.abort_on_fatal && health.has_fatal()) {
    for (const auto& alert : health.alerts) {
      if (alert.severity == obs::Severity::kFatal) throw FatalHealthError(alert);
    }
  }
}

void GtvTrainer::run_probe(obs::RoundHealth& health) {
  // Synthesis perturbs the server/client RNG streams (noise, CV sampling,
  // decode); snapshot and restore them so a probed run follows the exact
  // training trajectory of an unprobed one. The probe also bypasses the
  // TrafficMeter: it is local introspection, not protocol traffic.
  GtvServer& server = server_->server();
  const Rng server_rng = server.rng();
  std::vector<Rng> client_rngs;
  for (std::size_t i = 0; i < n_clients(); ++i) client_rngs.push_back(client(i).rng());
  server.set_training(false);
  const auto shards = synthesize(std::max<std::size_t>(options_.health.probe_rows, 1));
  server.set_training(true);
  server.rng() = server_rng;
  for (std::size_t i = 0; i < n_clients(); ++i) client(i).rng() = client_rngs[i];

  // The real shards are shuffled every round, which keeps their marginals.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const data::Table& real = client(i).local_table();
    for (std::size_t c = 0; c < real.n_cols(); ++c) {
      const data::ColumnSpec& spec = real.spec(c);
      health.probes.push_back(obs::probe_column(
          "client" + std::to_string(i) + "." + spec.name, real.column(c), shards[i].column(c),
          spec.type == data::ColumnType::kCategorical ? spec.cardinality() : 0));
    }
  }
}

std::vector<data::Table> GtvTrainer::synthesize(std::size_t rows) {
  GtvServer& server = server_->server();
  const std::size_t p = server.select_cv_client();
  const Tensor global_cv =
      server.assemble_global_cv(p, client(p).sample_cv_original(rows), rows);
  const auto slices = server.generator_forward(global_cv, /*retain_graph=*/false);
  std::vector<data::Table> shards;
  for (std::size_t i = 0; i < slices.size(); ++i) shards.push_back(client(i).synthesize(slices[i]));
  return shards;
}

void GtvTrainer::train(
    std::size_t rounds, const std::function<void(std::size_t, const gan::RoundLosses&)>& on_round) {
  for (std::size_t r = 0; r < rounds; ++r) {
    gan::RoundLosses losses = train_round();
    if (on_round) on_round(r, losses);
  }
}

void GtvTrainer::train(
    std::size_t rounds,
    const std::function<void(std::size_t, const gan::RoundLosses&, const obs::RoundTelemetry&)>&
        on_round) {
  for (std::size_t r = 0; r < rounds; ++r) {
    gan::RoundLosses losses = train_round();
    if (on_round) on_round(r, losses, telemetry_.back());
  }
}

std::vector<data::Table> GtvTrainer::sample_per_client(std::size_t rows) {
  GtvServer& server = this->server();
  const std::size_t n = clients_.size();
  server.set_training(false);
  std::vector<std::vector<data::Table>> chunks(n);
  const std::size_t batch = std::max<std::size_t>(options_.gan.batch_size, 1);
  for (std::size_t produced = 0; produced < rows;) {
    const std::size_t take = std::min(batch, rows - produced);
    auto shards = synthesize(take);
    for (std::size_t i = 0; i < n; ++i) chunks[i].push_back(std::move(shards[i]));
    produced += take;
  }
  server.set_training(true);

  std::vector<data::Table> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data::Table shard(chunks[i].front().schema());
    for (const auto& chunk : chunks[i]) {
      for (std::size_t r = 0; r < chunk.n_rows(); ++r) {
        std::vector<double> row(chunk.n_cols());
        for (std::size_t c = 0; c < chunk.n_cols(); ++c) row[c] = chunk.cell(r, c);
        shard.append_row(row);
      }
    }
    shards.push_back(std::move(shard));
  }
  // Secure publication: every client applies the same secret permutation so
  // the server cannot map generator inputs to published rows, while the
  // shards stay row-aligned with each other.
  const std::uint64_t publish_seed = driver_->publish_stream().next_u64();
  for (auto& shard : shards) {
    Rng rng(publish_seed);
    shard.permute_rows(rng.permutation(shard.n_rows()));
  }
  return shards;
}

data::Table GtvTrainer::sample(std::size_t rows) {
  return data::Table::concat_columns(sample_per_client(rows));
}

serve::Checkpoint GtvTrainer::make_checkpoint() {
  serve::Checkpoint ckpt;
  drive([&] { ckpt = driver_->collect_checkpoint(history_.size()); });
  return ckpt;
}

serve::TrainCheckpoint GtvTrainer::make_train_checkpoint() {
  serve::TrainCheckpoint ckpt;
  drive([&] { ckpt = driver_->collect_train_checkpoint(history_); });
  return ckpt;
}

void GtvTrainer::restore_train_state(const serve::TrainCheckpoint& ckpt) {
  drive([&] { driver_->restore(ckpt); });
  history_ = ckpt.history;
  // Keep telemetry_ parallel to history_ (train_round indexes rounds by
  // telemetry_.size()). Pre-crash phase timings are gone; the skeleton
  // records carry the round index and losses so reports stay coherent.
  telemetry_.clear();
  for (std::size_t r = 0; r < history_.size(); ++r) {
    obs::RoundTelemetry t;
    t.round = r;
    t.d_loss = history_[r].d_loss;
    t.g_loss = history_[r].g_loss;
    t.gp = history_[r].gp;
    t.wasserstein = history_[r].wasserstein;
    telemetry_.push_back(std::move(t));
  }
}

void GtvTrainer::save_train_checkpoint(const std::string& path) {
  serve::save_train_checkpoint(make_train_checkpoint(), path);
}

void GtvTrainer::restore_train_state(const std::string& path) {
  restore_train_state(serve::load_train_checkpoint(path));
}

ServerInferenceAttack::Evaluation GtvTrainer::attack_evaluation() const {
  return attack().evaluate(initial_joined_);
}

const PeerSelectionFrequencyAttack& GtvTrainer::peer_attack() const {
  peer_attack_ = PeerSelectionFrequencyAttack{};
  for (const auto& node : clients_) peer_attack_.merge(node->peer_attack());
  return peer_attack_;
}

PeerSelectionFrequencyAttack::Evaluation GtvTrainer::peer_attack_evaluation(
    std::size_t joined_column) const {
  if (initial_joined_.spec(joined_column).type != data::ColumnType::kCategorical) {
    throw std::invalid_argument("peer_attack_evaluation: column must be categorical");
  }
  std::vector<std::size_t> categories;
  categories.reserve(initial_joined_.n_rows());
  for (double v : initial_joined_.column(joined_column)) {
    categories.push_back(static_cast<std::size_t>(v));
  }
  return peer_attack().evaluate(categories);
}

}  // namespace gtv::core
