#include "core/node.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/resume.h"
#include "gan/losses.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/thread_name.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "tensor/bytes.h"

namespace gtv::core {

using ag::Var;

void NodeConfig::validate() const {
  if (n_clients == 0) throw std::invalid_argument("NodeConfig: no clients");
  if (train_rows == 0) throw std::invalid_argument("NodeConfig: train_rows is 0");
  if (options.exact_gradient_penalty) {
    throw std::invalid_argument(
        "NodeConfig: exact_gradient_penalty was removed — it differentiated through every "
        "party's bottom model in one graph, and a 10-seed ablation showed no quality gain "
        "over the server-local penalty; leave it false");
  }
  // DP noise is deliberately NOT rejected: each client owns its noise
  // stream (GtvClient::privatize, seeded from the client's party seed), so
  // dp_noise_std > 0 partitions cleanly and runs over TCP.
}

std::vector<std::uint64_t> party_seeds(std::uint64_t seed, std::size_t n_clients) {
  Rng seeder(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(n_clients + 1);
  for (std::size_t i = 0; i <= n_clients; ++i) seeds.push_back(seeder.next_u64());
  return seeds;  // [0..n-1] clients, [n] server
}

std::vector<data::Table> sample_shards(const serve::Checkpoint& checkpoint, std::size_t rows,
                                       std::uint64_t seed) {
  const data::Table joined = serve::Synthesizer(checkpoint).sample(rows, seed);
  std::vector<data::Table> shards;
  std::size_t first = 0;
  for (const serve::ClientPart& part : checkpoint.clients) {
    std::vector<std::size_t> columns(part.encoder.schema_table().n_cols());
    std::iota(columns.begin(), columns.end(), first);
    first += columns.size();
    shards.push_back(joined.select_columns(columns));
  }
  return shards;
}

const obs::HealthAlert* abort_alert(const obs::HealthOptions& options,
                                    const obs::RoundHealth& health) {
  const auto fatal = std::find_if(health.alerts.begin(), health.alerts.end(), [](const auto& a) {
    return a.severity == obs::Severity::kFatal;
  });
  return options.abort_on_fatal && fatal != health.alerts.end() ? &*fatal : nullptr;
}

namespace {

std::string client_name(std::size_t i) { return "client" + std::to_string(i); }
std::string link(const std::string& from, const std::string& to) { return from + "->" + to; }
std::string up_link(std::size_t client) { return link(client_name(client), "server"); }
std::string down_link(std::size_t client) { return link("server", client_name(client)); }

std::vector<std::size_t> recv_command(net::TrafficMeter& meter, const std::string& on) {
  auto cmd = meter.recv_indices(on);
  if (cmd.empty()) throw net::WireError("node: empty command on " + on);
  return cmd;
}

// Reports — losses, optimizer-step stats, phase timings, probe columns and
// their scores — travel as flat f64 vectors, which hold every float loss
// and integer count exactly:
//   critic step      server -> driver  d_loss gp wasserstein | D^t stats
//   generator step   server -> driver  g_loss | G^t stats | phases
//   round ack        client -> driver  G^b stats | D^b stats | shuffle_ms
//   kCmdProbe        driver -> client  the columns, one after another
//   probe scores     client -> driver  jsd mean_drift std_drift per column
void send_report(net::TrafficMeter& meter, const std::string& on,
                 const std::vector<double>& values) {
  std::vector<std::uint8_t> out;
  bytes::put_f64s(out, values.data(), values.size());
  meter.send_payload(on, out);
}

// Throws WireError unless the frame holds exactly `size` values, so a
// park poison (an empty frame) fails the receive like any other.
std::vector<double> recv_report(net::TrafficMeter& meter, const std::string& on,
                                std::size_t size) {
  const std::vector<std::uint8_t> in = meter.recv_payload(on);
  if (in.size() != size * sizeof(double)) {
    throw net::WireError("node: expected a report of " + std::to_string(size) +
                         " values on " + on);
  }
  bytes::Reader reader(in.data(), in.size(), "node report");
  std::vector<double> values(size);
  reader.f64s(values.data(), size, "value");
  return values;
}

// nn::AdamStepStats: collected, grad/weight/update norm, max |grad|, non-finites.
constexpr std::size_t kStatsValues = 6;

void put_stats(std::vector<double>& out, const nn::AdamStepStats& s) {
  out.insert(out.end(), {s.collected ? 1.0 : 0.0, s.grad_norm, s.weight_norm, s.update_norm,
                         s.grad_max_abs, static_cast<double>(s.nonfinite)});
}

// Health tier 1: one module record from stats at `v`, if they were collected.
void add_module(obs::RoundHealth& health, std::string module, const double* v) {
  if (v[0] == 0.0) return;
  health.modules.push_back(
      {std::move(module), v[1], v[2], v[3], v[4], static_cast<std::uint64_t>(v[5])});
}

// The server's phase timings and tensor-memory peaks, in wire order.
using Round = obs::RoundTelemetry;
using Peaks = Round::PhasePeaks;
constexpr double Round::*kPhaseMs[] = {
    &Round::cv_generation_ms,   &Round::fake_forward_ms,     &Round::real_forward_ms,
    &Round::critic_backward_ms, &Round::gradient_penalty_ms, &Round::generator_step_ms};
constexpr std::uint64_t Peaks::*kPhasePeaks[] = {
    &Peaks::cv_generation,   &Peaks::fake_forward,     &Peaks::real_forward,
    &Peaks::critic_backward, &Peaks::gradient_penalty, &Peaks::generator_step};
constexpr std::size_t kPhaseValues = std::size(kPhaseMs) + std::size(kPhasePeaks);

void put_phases(std::vector<double>& out, const Round& t) {
  for (const auto ms : kPhaseMs) out.push_back(t.*ms);
  for (const auto peak : kPhasePeaks) out.push_back(static_cast<double>(t.mem_peak_bytes.*peak));
}

void get_phases(const double* v, Round& t) {  // `total` is the largest phase peak
  for (const auto ms : kPhaseMs) t.*ms = *v++;
  for (const auto peak : kPhasePeaks) {
    t.mem_peak_bytes.*peak = static_cast<std::uint64_t>(*v++);
    t.mem_peak_bytes.total = std::max(t.mem_peak_bytes.total, t.mem_peak_bytes.*peak);
  }
}

// One phase at a time: a trace span, a gtv.phase.<name>_ms histogram
// sample, the phase's milliseconds and its tensor-memory peak. Only the
// server thread opens memory scopes (MemPeakScope keeps one process-wide
// nesting stack).
class PhaseTimer {
 public:
  void start(const char* name, double& ms, std::uint64_t& peak) {
    stop();
    obs::Histogram& hist = obs::MetricsRegistry::instance().histogram(
        std::string("gtv.phase.") + name + "_ms");
    span_.emplace(name, &hist, &ms, /*always=*/true);
    mem_.emplace(&peak);
  }
  void stop() {
    mem_.reset();
    span_.reset();
  }

 private:
  std::optional<obs::ScopedTimer> span_;
  std::optional<obs::MemPeakScope> mem_;  // declared last: closes first
};

}  // namespace

// --- ServerNode ------------------------------------------------------------------

ServerNode::ServerNode(NodeConfig config, std::vector<std::size_t> g_widths,
                       std::vector<std::size_t> d_widths, net::TrafficMeter* shared_meter)
    : NodeRole(shared_meter),
      config_(std::move(config)),
      g_widths_(std::move(g_widths)),
      d_widths_(std::move(d_widths)) {
  config_.validate();
  if (g_widths_.size() != config_.n_clients || d_widths_.size() != config_.n_clients) {
    throw std::invalid_argument("ServerNode: width vectors must have one entry per client");
  }
}

void ServerNode::set_attack_layout(std::vector<ServerInferenceAttack::CvBit> bits) {
  attack_.set_layout(std::move(bits));
  curious_ = true;
}

void ServerNode::run() {
  // Role-named thread on the server's trace row: sampler folded stacks and
  // blackbox thread dumps show "gtv-server" instead of the process name.
  obs::set_current_thread_name("gtv-server");
  obs::PartyScope party(0);
  const std::size_t n = config_.n_clients;
  if (status_ != nullptr) status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
  set_phase(obs::agg::Phase::kSetup);
  // Setup: each client reports its CV width; the split widths are public
  // (derived from feature counts), so this completes the ClientInfo table.
  std::vector<GtvServer::ClientInfo> infos;
  for (std::size_t i = 0; i < n; ++i) {
    const auto widths = meter_.recv_indices(up_link(i));
    if (widths.size() != 1) throw net::WireError("node: bad setup frame from client");
    infos.push_back({widths[0], g_widths_[i], d_widths_[i]});
  }
  server_ = std::make_unique<GtvServer>(config_.options, std::move(infos),
                                        party_seeds(config_.seed, n)[n]);

  for (;;) {
    const auto cmd = recv_command(meter_, "driver->server");
    switch (cmd[0]) {
      case kCmdCriticStep:
        set_phase(obs::agg::Phase::kCritic);
        try {
          critic_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          park_round();
        }
        break;
      case kCmdGeneratorStep:
        set_phase(obs::agg::Phase::kGenerator);
        try {
          generator_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          park_round();
          break;
        }
        if (status_ != nullptr) status_->round.fetch_add(1, std::memory_order_relaxed);
        break;
      case kCmdCheckpointTrain:
        meter_.send_payload("server->driver",
                            serve::encode_server_train_part(
                                capture_server_train_state(*server_)));
        break;
      case kCmdRestore:
        restore_train();
        break;
      case kCmdCheckpoint: {
        serve::ServerPart part;
        part.noise_dim = config_.options.gan.noise_dim;
        part.gumbel_tau = config_.options.gan.gumbel_tau;
        std::size_t g_total = 0;
        for (const std::size_t w : g_widths_) g_total += w;
        const serve::NetArch arch{
            config_.options.gan.noise_dim + server_->total_cv_width(),
            config_.options.generator_hidden, config_.options.partition.g_top, g_total};
        part.g_top = serve::snapshot_net(arch, server_->generator_top());
        meter_.send_payload("server->driver", serve::encode_server_part(part));
        break;
      }
      case kCmdFinish:
        set_phase(obs::agg::Phase::kDone);
        meter_.send_indices("server->driver", {kCmdFinish});
        return;
      default:
        throw net::WireError("node: unknown server command " + std::to_string(cmd[0]));
    }
  }
}

void ServerNode::park_round() {
  // A peer vanished mid-round. Drop half-finished split state and timings;
  // the driver will replay the round from the last coordinated checkpoint.
  server_->clear_pending();
  phases_ = obs::RoundTelemetry{};
  // Poke everyone still blocked on us: an empty payload fails whatever
  // recv consumes it (indices and tensors both reject it) without waiting
  // out the retry budget. Anything left queued is discarded at restore.
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    try {
      meter_.send_payload(down_link(i), {});
    } catch (const net::TransportError&) {
      // dead peer — exactly why we are parking
    }
  }
  try {
    meter_.send_payload("server->driver", {});
  } catch (const net::TransportError&) {
  }
}

void ServerNode::restore_train() {
  // Data-plane links restart from scratch: the rejoined party counts from
  // seq 0, and queued frames belong to the round being replayed. The
  // command links stay intact — they are in lockstep with the driver.
  net::Transport& t = meter_.transport();
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    t.discard_queued(up_link(i));
    t.reset_link(up_link(i));
    t.reset_link(down_link(i));
  }
  const serve::ServerTrainPart part =
      serve::decode_server_train_part(meter_.recv_payload("driver->server"));
  restore_server_train_state(*server_, part);
  meter_.send_indices("server->driver", {kCmdRestore});
}

void ServerNode::critic_step(std::size_t batch) {
  const std::size_t n = config_.n_clients;
  const GtvOptions& options = config_.options;
  const bool p2p = options.index_sharing == IndexSharing::kPeerToPeer;
  PhaseTimer phase;

  // --- CVGeneration (Algorithm 1, step 4): pick p, tell everyone, collect
  // p's CV — and its row indices, unless they went peer-to-peer ------------
  phase.start("cv_generation", phases_.cv_generation_ms, phases_.mem_peak_bytes.cv_generation);
  const std::size_t p = server_->select_cv_client();
  for (std::size_t i = 0; i < n; ++i) meter_.send_indices(down_link(i), {p});
  const Tensor cv_p = meter_.recv_tensor(up_link(p));
  std::vector<std::size_t> idx;
  if (!p2p) idx = meter_.recv_indices(up_link(p));
  const Tensor global_cv = server_->assemble_global_cv(p, cv_p, batch);
  if (curious_ && !p2p) attack_.observe(idx, global_cv);
  phase.stop();

  server_->zero_grad_discriminator();

  // --- fake path (steps 5-8): split slices down, bottom-critic logits back up
  phase.start("fake_forward", phases_.fake_forward_ms, phases_.mem_peak_bytes.fake_forward);
  const auto slices = server_->generator_forward(global_cv, /*retain_graph=*/false);
  std::vector<Var> fake_vars;
  fake_vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(down_link(i), slices[i]);
    fake_vars.emplace_back(meter_.recv_tensor(up_link(i)), /*requires_grad=*/true);
  }

  // --- real path (steps 9-15): clients that know the indices forward the
  // selected rows; the others forward ALL rows and the server selects -------
  phase.start("real_forward", phases_.real_forward_ms, phases_.mem_peak_bytes.real_forward);
  std::vector<Var> real_vars;
  real_vars.reserve(n);
  std::vector<std::size_t> real_full_rows(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor d_out = meter_.recv_tensor(up_link(i));
    real_full_rows[i] = d_out.rows();
    real_vars.emplace_back(i == p || p2p ? d_out : d_out.gather_rows(idx),
                           /*requires_grad=*/true);
  }
  phase.stop();

  // --- top loss (step 16); the penalty is a phase nested in the backward --------
  PhaseTimer backward;
  backward.start("critic_backward", phases_.critic_backward_ms,
                 phases_.mem_peak_bytes.critic_backward);
  Var cv_var = ag::constant(global_cv);
  Var d_fake = server_->critic_top(fake_vars, cv_var);
  Var d_real = server_->critic_top(real_vars, cv_var);
  Var critic = gan::wasserstein_critic_loss(d_real, d_fake);

  phase.start("gradient_penalty", phases_.gradient_penalty_ms,
              phases_.mem_peak_bytes.gradient_penalty);
  Var gp;
  if (options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gp = ag::constant(Tensor::scalar(0.0f));
  } else {
    // Server-local penalty on D^t's concatenated input logits — the only
    // penalty that never needs another party's autograd graph.
    std::vector<Tensor> fake_logits, real_logits;
    std::vector<std::size_t> widths;
    for (std::size_t i = 0; i < n; ++i) {
      fake_logits.push_back(fake_vars[i].value());
      real_logits.push_back(real_vars[i].value());
      widths.push_back(fake_vars[i].cols());
    }
    auto critic_fn = [&](const Var& x) {
      std::vector<Var> parts;
      std::size_t offset = 0;
      for (std::size_t w : widths) {
        parts.push_back(ag::slice_cols(x, offset, offset + w));
        offset += w;
      }
      return server_->critic_top(parts, cv_var);
    };
    gp = gan::gradient_penalty(critic_fn, Tensor::concat_cols(real_logits),
                               Tensor::concat_cols(fake_logits), server_->rng());
  }
  phase.stop();

  Var loss = ag::add(critic, ag::mul_scalar(gp, options.gan.gp_lambda));
  ag::backward(loss);

  // --- gradient return ------------------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(down_link(i), fake_vars[i].grad());
    Tensor real_grad = real_vars[i].grad();
    if (i != p && !p2p) {
      // Scatter the selected-row gradients back into the full-table shape
      // the client forwarded (rows may repeat: accumulate).
      Tensor full(real_full_rows[i], real_grad.cols());
      for (std::size_t b = 0; b < idx.size(); ++b) {
        for (std::size_t c = 0; c < real_grad.cols(); ++c) {
          full(idx[b], c) += real_grad(b, c);
        }
      }
      real_grad = std::move(full);
    }
    meter_.send_tensor(down_link(i), real_grad);
  }
  server_->step_discriminator();
  if (options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gan::clip_parameters(server_->discriminator_parameters(), options.gan.clip_value);
  }

  if (status_ != nullptr) {
    status_->d_loss.store(loss.value()(0, 0), std::memory_order_relaxed);
    status_->gp.store(gp.value()(0, 0), std::memory_order_relaxed);
    status_->wasserstein.store(-critic.value()(0, 0), std::memory_order_relaxed);
  }
  backward.stop();  // the round's timings are final before any reply
  std::vector<double> report = {loss.value()(0, 0), gp.value()(0, 0), -critic.value()(0, 0)};
  put_stats(report, server_->adam_discriminator().last_step_stats());
  send_report(meter_, "server->driver", report);
}

void ServerNode::generator_step(std::size_t batch) {
  const std::size_t n = config_.n_clients;
  PhaseTimer phase;
  phase.start("generator_step", phases_.generator_step_ms, phases_.mem_peak_bytes.generator_step);

  // CVGeneration (step 18). Under server index sharing the indices still
  // flow — protocol fidelity, and the curious server sees them — although
  // the generator update does not consume them.
  const std::size_t p = server_->select_cv_client();
  for (std::size_t i = 0; i < n; ++i) meter_.send_indices(down_link(i), {p});
  const Tensor cv_p = meter_.recv_tensor(up_link(p));
  const Tensor global_cv = server_->assemble_global_cv(p, cv_p, batch);
  if (config_.options.index_sharing == IndexSharing::kServer) {
    const std::vector<std::size_t> idx = meter_.recv_indices(up_link(p));
    if (curious_) attack_.observe(idx, global_cv);
  }

  server_->zero_grad_generator();

  const auto slices = server_->generator_forward(global_cv, /*retain_graph=*/true);
  std::vector<Var> fake_vars;
  fake_vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(down_link(i), slices[i]);
    fake_vars.emplace_back(meter_.recv_tensor(up_link(i)), /*requires_grad=*/true);
  }

  Var cv_var = ag::constant(global_cv);
  Var d_fake = server_->critic_top(fake_vars, cv_var);
  Var adv = gan::wasserstein_generator_loss(d_fake);
  ag::backward(adv);

  std::vector<Tensor> slice_grads;
  slice_grads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    meter_.send_tensor(down_link(i), fake_vars[i].grad());
    slice_grads.push_back(meter_.recv_tensor(up_link(i)));
  }
  server_->generator_backward(slice_grads);
  server_->step_generator();

  if (status_ != nullptr) {
    status_->g_loss.store(adv.value()(0, 0), std::memory_order_relaxed);
  }
  phase.stop();
  std::vector<double> report = {adv.value()(0, 0)};
  put_stats(report, server_->adam_generator().last_step_stats());
  put_phases(report, std::exchange(phases_, obs::RoundTelemetry{}));
  send_report(meter_, "server->driver", report);
}

// --- ClientNode ------------------------------------------------------------------

ClientNode::ClientNode(NodeConfig config, std::size_t id, data::Table local_table,
                       std::size_t g_width, std::size_t d_width,
                       net::TrafficMeter* shared_meter)
    : NodeRole(shared_meter), config_(std::move(config)), id_(id), g_width_(g_width) {
  config_.validate();
  if (id_ >= config_.n_clients) throw std::invalid_argument("ClientNode: id out of range");
  client_ = std::make_unique<GtvClient>(id_, std::move(local_table), config_.options,
                                        g_width, d_width,
                                        party_seeds(config_.seed, config_.n_clients)[id_]);
}

void ClientNode::run() {
  const std::string name = client_name(id_);
  obs::set_current_thread_name(("gtv-" + name).c_str());
  obs::PartyScope party(static_cast<int>(id_) + 1);
  if (status_ != nullptr) status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
  set_phase(obs::agg::Phase::kSetup);
  // A rejoining client skips the CV-width report: the surviving server
  // already holds every client's setup info, and an unexpected setup frame
  // would desync the replayed round.
  if (!rejoin_) meter_.send_indices(up_link(id_), {client_->cv_width()});
  const std::string cmd_link = link("driver", name);
  const std::string ack_link = link(name, "driver");
  for (;;) {
    const auto cmd = recv_command(meter_, cmd_link);
    switch (cmd[0]) {
      case kCmdCriticStep:
        set_phase(obs::agg::Phase::kCritic);
        try {
          critic_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          client_->clear_pending();  // park: the driver will replay the round
        }
        break;
      case kCmdGeneratorStep:
        set_phase(obs::agg::Phase::kGenerator);
        try {
          generator_step(cmd.at(1));
        } catch (const net::TransportError&) {
          if (!elastic_) throw;
          client_->clear_pending();
          break;
        }
        if (status_ != nullptr) status_->round.fetch_add(1, std::memory_order_relaxed);
        if (!config_.options.training_with_shuffling) ack_round(0.0);
        break;
      case kCmdShuffle: {
        set_phase(obs::agg::Phase::kShuffle);
        static obs::Histogram& hist =
            obs::MetricsRegistry::instance().histogram("gtv.phase.shuffle_ms");
        double shuffle_ms = 0.0;
        {
          obs::ScopedTimer span("shuffle", &hist, &shuffle_ms, /*always=*/true);
          client_->shuffle_local_data(static_cast<std::uint64_t>(cmd.at(1)));
        }
        ack_round(shuffle_ms);
        break;
      }
      case kCmdProbe:
        score_probe(cmd.at(1));
        break;
      case kCmdCheckpointTrain:
        meter_.send_payload(ack_link, serve::encode_client_train_part(
                                          capture_client_train_state(*client_)));
        break;
      case kCmdRestore:
        restore_train();
        break;
      case kCmdCheckpoint: {
        serve::ClientPart part;
        part.cv_width = client_->cv_width();
        part.g_slice_width = g_width_;
        const serve::NetArch arch{g_width_, g_width_, config_.options.partition.g_bottom,
                                  client_->encoded_width()};
        part.g_bottom = serve::snapshot_net(arch, client_->generator_bottom());
        part.encoder = client_->encoder();
        meter_.send_payload(ack_link, serve::encode_client_part(part));
        break;
      }
      case kCmdFinish:
        set_phase(obs::agg::Phase::kDone);
        meter_.send_indices(ack_link, {kCmdFinish});
        return;
      default:
        throw net::WireError("node: unknown client command " + std::to_string(cmd[0]));
    }
  }
}

void ClientNode::restore_train() {
  net::Transport& t = meter_.transport();
  t.discard_queued(down_link(id_));
  t.reset_link(down_link(id_));
  t.reset_link(up_link(id_));
  const std::string name = client_name(id_);
  const serve::ClientTrainPart part =
      serve::decode_client_train_part(meter_.recv_payload(link("driver", name)));
  restore_client_train_state(*client_, part);
  meter_.send_indices(link(name, "driver"), {kCmdRestore});
}

void ClientNode::ack_round(double shuffle_ms) {
  std::vector<double> report;
  put_stats(report, client_->adam_generator().last_step_stats());
  put_stats(report, client_->adam_discriminator().last_step_stats());
  report.push_back(shuffle_ms);
  send_report(meter_, link(client_name(id_), "driver"), report);
}

void ClientNode::score_probe(std::size_t rows) {
  const data::Table& real = client_->local_table();
  const std::string name = client_name(id_);
  const std::vector<double> fake = recv_report(meter_, link("driver", name), rows * real.n_cols());
  // The real shard is shuffled every round, which keeps its marginals.
  std::vector<double> scores;
  for (std::size_t c = 0; c < real.n_cols(); ++c) {
    const data::ColumnSpec& spec = real.spec(c);
    const auto column = fake.begin() + static_cast<std::ptrdiff_t>(c * rows);
    const obs::ColumnProbe probe = obs::probe_column(
        spec.name, real.column(c), std::vector<double>(column, column + rows),
        spec.type == data::ColumnType::kCategorical ? spec.cardinality() : 0);
    scores.insert(scores.end(), {probe.jsd, probe.mean_drift, probe.std_drift});
  }
  send_report(meter_, link(name, "driver"), scores);
}

void ClientNode::critic_step(std::size_t batch) {
  const std::size_t p = recv_command(meter_, down_link(id_))[0];
  const bool p2p = config_.options.index_sharing == IndexSharing::kPeerToPeer;

  // CVGeneration: the selected client samples CVs and matching rows; the
  // rows go to the server, or (P2P) straight to every other client.
  std::vector<std::size_t> rows;  // the batch's rows, when this client knows them
  if (p == id_) {
    auto sample = client_->sample_cv(batch);
    meter_.send_tensor(up_link(id_), sample.cv);
    if (p2p) {
      for (std::size_t i = 0; i < config_.n_clients; ++i) {
        if (i != id_) meter_.send_indices(link(client_name(id_), client_name(i)), sample.rows);
      }
    } else {
      meter_.send_indices(up_link(id_), sample.rows);
    }
    rows = std::move(sample.rows);
  } else if (p2p) {
    // §3.1.6's curious peer: it knows every shuffle seed, so it can map the
    // indices to stable row identities and count co-selections.
    rows = meter_.recv_indices(link(client_name(p), client_name(id_)));
    peer_attack_.observe(client_->original_rows(rows));
  }

  client_->zero_grad_discriminator();

  // Fake path: split slice down, D^b(G^b(slice)) back up. Outbound logits
  // pass through the client's own DP stream (no-op when disabled).
  const Tensor slice = meter_.recv_tensor(down_link(id_));
  meter_.send_tensor(
      up_link(id_),
      client_->privatize(client_->forward_fake(slice, /*train_generator=*/false)));

  // Real path: clients that know the batch's rows forward them; everyone
  // else forwards everything and lets the server select.
  meter_.send_tensor(up_link(id_),
                     client_->privatize(p == id_ || p2p ? client_->forward_real_selected(rows)
                                                        : client_->forward_real_all()));

  client_->backward_fake_discriminator(meter_.recv_tensor(down_link(id_)));
  client_->backward_real(meter_.recv_tensor(down_link(id_)));
  client_->step_discriminator();
  if (config_.options.gan.critic_mode == gan::CriticMode::kWeightClipping) {
    gan::clip_parameters(client_->discriminator_parameters(), config_.options.gan.clip_value);
  }
}

void ClientNode::generator_step(std::size_t batch) {
  const std::size_t p = recv_command(meter_, down_link(id_))[0];

  if (p == id_) {
    auto sample = client_->sample_cv(batch);
    meter_.send_tensor(up_link(id_), sample.cv);
    if (config_.options.index_sharing == IndexSharing::kServer) {
      meter_.send_indices(up_link(id_), sample.rows);
    }
    if (config_.options.gan.use_conditional_loss) client_->set_pending_condition(sample);
  }

  client_->zero_grad_generator();

  const Tensor slice = meter_.recv_tensor(down_link(id_));
  meter_.send_tensor(
      up_link(id_),
      client_->privatize(client_->forward_fake(slice, /*train_generator=*/true)));

  const Tensor d_out_grad = meter_.recv_tensor(down_link(id_));
  meter_.send_tensor(up_link(id_), client_->backward_generator(d_out_grad));
  client_->step_generator();
}

// --- DriverNode ------------------------------------------------------------------

DriverNode::DriverNode(NodeConfig config, net::TrafficMeter* shared_meter)
    : NodeRole(shared_meter),
      config_(std::move(config)),
      shuffle_stream_(config_.options.shuffle_seed),
      publish_stream_(config_.options.shuffle_seed ^ 0x9e3779b97f4a7c15ULL),
      health_monitor_(config_.options.health.thresholds) {
  config_.validate();
}

void DriverNode::set_train_checkpoint(std::string path, std::size_t every) {
  if (every == 0) throw std::invalid_argument("DriverNode: checkpoint interval is 0");
  train_ckpt_path_ = std::move(path);
  train_ckpt_every_ = every;
}

void DriverNode::set_resume(std::string path) { resume_path_ = std::move(path); }

void DriverNode::broadcast(NodeCommand code, std::size_t arg, bool include_server) {
  if (include_server) meter_.send_indices("driver->server", {code, arg});
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    meter_.send_indices(link("driver", client_name(i)), {code, arg});
  }
}

std::vector<gan::RoundLosses> DriverNode::run() {
  obs::set_current_thread_name("gtv-driver");
  if (status_ != nullptr) status_->rounds_total.store(config_.rounds, std::memory_order_relaxed);
  set_phase(obs::agg::Phase::kSetup);
  if (!resume_path_.empty()) {
    last_train_ckpt_ = std::make_unique<serve::TrainCheckpoint>(
        serve::load_train_checkpoint(resume_path_));
    if (last_train_ckpt_->round > config_.rounds) {
      throw serve::CheckpointError("train checkpoint is past the run's last round");
    }
    restore(*last_train_ckpt_);
    resumed_from_ = history_.size();
  }
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    generations_.push_back(meter_.transport().conn_generation(client_name(i)));
  }
  const obs::HealthAlert* fatal = nullptr;
  while (history_.size() < config_.rounds && fatal == nullptr) {
    try {
      const obs::RoundTelemetry& round = train_round();
      if (status_ != nullptr) {
        status_->set_losses(round.d_loss, round.g_loss, round.gp, round.wasserstein);
        status_->set_round(history_.size());
      }
      fatal = abort_alert(config_.options.health, round.health);
      if (fatal == nullptr && train_ckpt_every_ > 0 &&
          history_.size() % train_ckpt_every_ == 0) {
        auto ckpt = std::make_unique<serve::TrainCheckpoint>(collect_train_checkpoint());
        if (!train_ckpt_path_.empty()) serve::save_train_checkpoint(*ckpt, train_ckpt_path_);
        // Kept in memory as the crash-recovery replay point: recover() must
        // not depend on re-reading a file the crash may have raced.
        last_train_ckpt_ = std::move(ckpt);
      }
    } catch (const net::TransportError&) {
      // A party died mid-round. Without a coordinated checkpoint there is
      // nothing to replay from — surface the failure as before.
      if (last_train_ckpt_ == nullptr) throw;
      recover();
      ++recoveries_;
    }
  }
  if (fatal != nullptr) {
    finish();
    throw FatalHealthError(*fatal);
  }
  if (!checkpoint_out_.empty()) {
    serve::Checkpoint ckpt = collect_checkpoint();
    ckpt.model_hash = serve::model_hash_of(ckpt);
    checkpoint_hash_ = ckpt.model_hash;
    serve::save_checkpoint(ckpt, checkpoint_out_);
  }
  finish();
  set_phase(obs::agg::Phase::kDone);
  return history_;
}

obs::RoundTelemetry& DriverNode::train_round() {
  static obs::Histogram& round_hist =
      obs::MetricsRegistry::instance().histogram("gtv.phase.round_ms");
  const std::size_t batch = std::min(config_.options.gan.batch_size, config_.train_rows);
  obs::RoundTelemetry t;
  t.round = history_.size();
  std::optional<obs::ScopedTimer> round_span(std::in_place, "round", &round_hist, &t.total_ms,
                                             /*always=*/true);
  std::vector<double> critic(3 + kStatsValues, 0.0);
  for (std::size_t step = 0; step < config_.options.gan.d_steps_per_round; ++step) {
    set_phase(obs::agg::Phase::kCritic);
    broadcast(kCmdCriticStep, batch, /*include_server=*/true);
    critic = recv_report(meter_, "server->driver", critic.size());
  }
  t.d_loss = static_cast<float>(critic[0]);
  t.gp = static_cast<float>(critic[1]);
  t.wasserstein = static_cast<float>(critic[2]);
  set_phase(obs::agg::Phase::kGenerator);
  broadcast(kCmdGeneratorStep, batch, /*include_server=*/true);
  const std::vector<double> generator =
      recv_report(meter_, "server->driver", 1 + kStatsValues + kPhaseValues);
  t.g_loss = static_cast<float>(generator[0]);
  get_phases(&generator[1 + kStatsValues], t);

  if (config_.options.training_with_shuffling) {
    // Step 23. The shuffle seed is the clients' shared secret: the driver
    // plays the clients' side of that agreement and never tells the server.
    const std::uint64_t round_seed = shuffle_stream_.next_u64();
    broadcast(kCmdShuffle, static_cast<std::size_t>(round_seed), /*include_server=*/false);
  }
  // The discriminator stats describe the round's last critic step, the
  // generator stats its single generator step (as d_loss / g_loss do).
  add_module(t.health, "server.G", &generator[1]);
  add_module(t.health, "server.D", &critic[3]);
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    const std::vector<double> ack =
        recv_report(meter_, link(client_name(i), "driver"), 2 * kStatsValues + 1);
    add_module(t.health, client_name(i) + ".G", &ack[0]);
    add_module(t.health, client_name(i) + ".D", &ack[kStatsValues]);
    // The clients shuffle concurrently; the slowest one gates the next round.
    t.shuffle_ms = std::max(t.shuffle_ms, ack[2 * kStatsValues]);
  }

  if (obs::health_enabled()) {
    t.health.collected = true;
    const obs::HealthOptions& health = config_.options.health;
    // Tier 3 collection (rule evaluation for it is warmup-gated downstream).
    if (health.probe_interval > 0 && (t.round + 1) % health.probe_interval == 0) {
      probe(t.health);
    }
    health_monitor_.evaluate(t.round, t.d_loss, t.g_loss, t.gp, t.wasserstein, t.health);
  }
  round_span.reset();
  history_.push_back({t.d_loss, t.g_loss, t.gp, t.wasserstein});
  telemetry_.push_back(std::move(t));
  return telemetry_.back();
}

void DriverNode::probe(obs::RoundHealth& health) {
  const std::size_t rows = std::max<std::size_t>(config_.options.health.probe_rows, 1);
  const std::vector<data::Table> shards = sample_shards(collect_checkpoint(), rows, config_.seed);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string cmd = link("driver", client_name(i));
    std::vector<double> columns;
    for (std::size_t c = 0; c < shards[i].n_cols(); ++c) {
      columns.insert(columns.end(), shards[i].column(c).begin(), shards[i].column(c).end());
    }
    meter_.send_indices(cmd, {kCmdProbe, rows});
    send_report(meter_, cmd, columns);
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::size_t cols = shards[i].n_cols();
    const std::vector<double> scores =
        recv_report(meter_, link(client_name(i), "driver"), 3 * cols);
    for (std::size_t c = 0; c < cols; ++c) {
      health.probes.push_back({client_name(i) + "." + shards[i].spec(c).name, scores[3 * c],
                               scores[3 * c + 1], scores[3 * c + 2]});
    }
  }
}

serve::Checkpoint DriverNode::collect_checkpoint() {
  broadcast(kCmdCheckpoint, 0, /*include_server=*/true);
  serve::Checkpoint ckpt;
  ckpt.seed = config_.seed;
  ckpt.rounds = history_.size();
  serve::ServerPart server_part =
      serve::decode_server_part(meter_.recv_payload("server->driver"));
  ckpt.noise_dim = server_part.noise_dim;
  ckpt.gumbel_tau = server_part.gumbel_tau;
  ckpt.g_top = std::move(server_part.g_top);
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    ckpt.clients.push_back(
        serve::decode_client_part(meter_.recv_payload(link(client_name(i), "driver"))));
  }
  return ckpt;
}

serve::TrainCheckpoint DriverNode::collect_train_checkpoint() {
  broadcast(kCmdCheckpointTrain, 0, /*include_server=*/true);
  serve::TrainCheckpoint ckpt;
  ckpt.seed = config_.seed;
  ckpt.round = history_.size();
  ckpt.shuffle_stream = shuffle_stream_.state();
  ckpt.publish_stream = publish_stream_.state();
  ckpt.history = history_;
  ckpt.server = serve::decode_server_train_part(meter_.recv_payload("server->driver"));
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    ckpt.clients.push_back(serve::decode_client_train_part(
        meter_.recv_payload(link(client_name(i), "driver"))));
  }
  return ckpt;
}

void DriverNode::check_restorable(const serve::TrainCheckpoint& ckpt) const {
  if (ckpt.seed != config_.seed) {
    throw serve::CheckpointError("train checkpoint seed " + std::to_string(ckpt.seed) +
                                 " != run seed " + std::to_string(config_.seed));
  }
  if (ckpt.clients.size() != config_.n_clients) {
    throw serve::CheckpointError("train checkpoint has " +
                                 std::to_string(ckpt.clients.size()) + " clients, run " +
                                 std::to_string(config_.n_clients));
  }
  if (ckpt.history.size() != ckpt.round) {
    throw serve::CheckpointError("train checkpoint history/round mismatch");
  }
}

void DriverNode::restore(const serve::TrainCheckpoint& ckpt) {
  check_restorable(ckpt);
  const auto round_arg = static_cast<std::size_t>(ckpt.round);
  meter_.send_indices("driver->server", {kCmdRestore, round_arg});
  meter_.send_payload("driver->server", serve::encode_server_train_part(ckpt.server));
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    const std::string cmd = link("driver", client_name(i));
    meter_.send_indices(cmd, {kCmdRestore, round_arg});
    meter_.send_payload(cmd, serve::encode_client_train_part(ckpt.clients[i]));
  }
  await_restore_ack("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    await_restore_ack(link(client_name(i), "driver"));
  }
  shuffle_stream_.set_state(ckpt.shuffle_stream);
  publish_stream_.set_state(ckpt.publish_stream);
  history_ = ckpt.history;
  // The checkpointed rounds' timings are gone; bare records keep the round
  // index and losses so reports stay coherent.
  telemetry_.assign(history_.size(), {});
  for (std::size_t r = 0; r < history_.size(); ++r) {
    obs::RoundTelemetry& t = telemetry_[r];
    t.round = r;
    t.d_loss = history_[r].d_loss;
    t.g_loss = history_[r].g_loss;
    t.gp = history_[r].gp;
    t.wasserstein = history_[r].wasserstein;
  }
}

void DriverNode::finish() {
  broadcast(kCmdFinish, 0, /*include_server=*/true);
  meter_.recv_indices("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    meter_.recv_indices(link(client_name(i), "driver"));
  }
}

void DriverNode::recover() {
  net::Transport& transport = meter_.transport();
  // Short probe first: a live party answers immediately, so only genuinely
  // dead peers are made to wait out the rejoin window.
  std::vector<std::size_t> dead;
  if (!transport.wait_for_live_peer("server", 200)) {
    // A rejoined server cannot rebuild its per-client CV-width table (the
    // setup handshake already happened), so server loss is not recoverable.
    throw net::TransportError("DriverNode: server died; only client crashes are recoverable");
  }
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    // A relaunch may already have reconnected (and pass the liveness
    // probe): a replaced connection counts as a death too. Generation
    // second, so a reconnect during the probe is still seen.
    const bool live = transport.wait_for_live_peer(client_name(i), 200);
    if (!live || transport.conn_generation(client_name(i)) != generations_.at(i)) {
      dead.push_back(i);
    }
  }
  for (std::size_t i : dead) {
    const std::string peer = client_name(i);
    if (!transport.wait_for_live_peer(peer, rejoin_wait_ms_)) {
      throw net::TransportError("DriverNode: " + peer +
                                " did not rejoin within the wait window");
    }
    generations_[i] = transport.conn_generation(peer);
    // The restarted process starts every link at seq 0; forget the old
    // sequence bookkeeping on both directions of its driver links. (The
    // server resets its own data links to the rejoiner during kCmdRestore.)
    transport.reset_link(link("driver", peer));
    transport.reset_link(link(peer, "driver"));
    transport.discard_queued(link(peer, "driver"));
  }
  // Drop whatever the aborted round left queued on our in-links (stale
  // losses, park poison, half-collected checkpoint parts).
  transport.discard_queued("server->driver");
  for (std::size_t i = 0; i < config_.n_clients; ++i) {
    transport.discard_queued(link(client_name(i), "driver"));
  }
  restore(*last_train_ckpt_);
}

void DriverNode::await_restore_ack(const std::string& ack_link) {
  // The aborted round may still flush frames onto this link (a loss tensor
  // the server sent just before parking, the park poison frame itself).
  // Skip a bounded amount of junk; anything persistent is a real failure.
  constexpr int kMaxJunk = 32;
  for (int attempt = 0; attempt < kMaxJunk; ++attempt) {
    try {
      const std::vector<std::size_t> ack = meter_.recv_indices(ack_link);
      if (ack.size() == 1 && ack[0] == kCmdRestore) return;
    } catch (const net::TimeoutError&) {
      throw;  // retry budget already spent inside recv_indices
    } catch (const net::WireError&) {
      // Stale tensor payload or poison frame; keep draining.
    }
  }
  throw net::TransportError("DriverNode: no restore ack on " + ack_link);
}

}  // namespace gtv::core
