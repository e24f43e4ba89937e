#include "core/gtv.h"

#include <map>
#include <stdexcept>

#include "obs/memory.h"
#include "obs/trace.h"

namespace gtv::core {

GtvTrainer::GtvTrainer(std::vector<data::Table> client_tables, GtvOptions options,
                       std::uint64_t seed)
    : options_(options) {
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
  fleet_ = std::make_shared<net::FleetTransport>(meter_.shared_transport());
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
    exchange();
  } catch (...) {
    fleet_->stop();  // the exchange may have left replies unread: the fleet is done
    std::lock_guard<std::mutex> lock(failure_mu_);
    if (party_failure_ != nullptr) std::rethrow_exception(party_failure_);
    throw;
  }
}

GtvServer& GtvTrainer::server() {
  if (history().empty()) throw std::logic_error("GtvTrainer::server(): no round has run");
  return server_->server();
}

gan::RoundLosses GtvTrainer::train_round() {
  const std::map<std::string, net::LinkStats> traffic_before = meter_.all();
  obs::RoundTelemetry* record = nullptr;
  drive([&] { record = &driver_->train_round(); });
  obs::publish_memory_gauges();
  // Per-link deltas charged by this round, a health probe's included
  // (links can appear mid-run).
  for (const auto& [link, stats] : meter_.all()) {
    const auto it = traffic_before.find(link);
    const net::LinkStats before = it == traffic_before.end() ? net::LinkStats{} : it->second;
    if (stats.bytes == before.bytes && stats.messages == before.messages) continue;
    record->links.push_back({link, stats.bytes - before.bytes, stats.messages - before.messages});
  }
  if (on_alert_) {
    for (const auto& alert : record->health.alerts) on_alert_(alert);
  }
  if (const obs::HealthAlert* fatal = abort_alert(options_.health, record->health)) {
    throw FatalHealthError(*fatal);
  }
  return history().back();
}

std::vector<obs::HealthAlert> GtvTrainer::health_alerts() const {
  std::vector<obs::HealthAlert> out;
  for (const auto& t : telemetry()) {
    out.insert(out.end(), t.health.alerts.begin(), t.health.alerts.end());
  }
  return out;
}

void GtvTrainer::train(
    std::size_t rounds, const std::function<void(std::size_t, const gan::RoundLosses&)>& on_round) {
  train(rounds, [&](std::size_t r, const gan::RoundLosses& losses, const obs::RoundTelemetry&) {
    if (on_round) on_round(r, losses);
  });
}

void GtvTrainer::train(
    std::size_t rounds,
    const std::function<void(std::size_t, const gan::RoundLosses&, const obs::RoundTelemetry&)>&
        on_round) {
  for (std::size_t r = 0; r < rounds; ++r) {
    gan::RoundLosses losses = train_round();
    if (on_round) on_round(r, losses, telemetry().back());
  }
}

std::vector<data::Table> GtvTrainer::sample_per_client(std::size_t rows) {
  const serve::Checkpoint checkpoint = make_checkpoint();
  Rng& publish = driver_->publish_stream();
  std::vector<data::Table> shards = sample_shards(checkpoint, rows, publish.next_u64());
  // Secure publication: every client applies the same secret permutation so
  // the server cannot map generator inputs to published rows, while the
  // shards stay row-aligned with each other.
  const std::vector<std::size_t> permutation = Rng(publish.next_u64()).permutation(rows);
  for (auto& shard : shards) shard.permute_rows(permutation);
  return shards;
}

data::Table GtvTrainer::sample(std::size_t rows) {
  return data::Table::concat_columns(sample_per_client(rows));
}

serve::Checkpoint GtvTrainer::make_checkpoint() {
  serve::Checkpoint ckpt;
  drive([&] { ckpt = driver_->collect_checkpoint(); });
  return ckpt;
}

serve::TrainCheckpoint GtvTrainer::make_train_checkpoint() {
  serve::TrainCheckpoint ckpt;
  drive([&] { ckpt = driver_->collect_train_checkpoint(); });
  return ckpt;
}

void GtvTrainer::restore_train_state(const serve::TrainCheckpoint& ckpt) {
  driver_->check_restorable(ckpt);  // a rejected checkpoint leaves the fleet untouched
  drive([&] { driver_->restore(ckpt); });
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
