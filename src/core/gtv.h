// GtvTrainer — the public entry point of the GTV framework: Algorithm 1 of
// the paper with every party in one process.
//
// The trainer implements no protocol of its own. It builds the roles of
// core/node.h — one ServerNode and one ClientNode per vertical shard — and
// runs their command loops on party threads, which compute concurrently as
// real VFL parties do; the caller's thread plays the DriverNode. An
// in-process run therefore executes exactly the code tools/gtv-node
// deploys over TCP, and reproduces its losses bit-for-bit. Per round:
//
//   e x critic step:
//     CVGeneration: server picks client p ~ P_r; p samples local CVs and
//       matching row indices; both go to the server (wire).
//     fake path: G^t(Z ++ CV) -> Split -> clients -> G^b_i -> D^b_i -> server.
//     real path: client p forwards T_p[idx_p]; every other client forwards
//       ALL its rows; the server selects idx_p from their logits.
//     server computes the WGAN-GP critic loss on
//       D^t(Concat(..., D^s(CV))), with the gradient penalty on D^t's input
//       logits, and returns gradients over the wire; split backprop updates
//       {D^t, D^s, D^b_i}.
//   1 x generator step: same forward, loss -mean(D(fake)) + client-local
//     conditional term; split backprop updates {G^t, G^b_i}.
//   training-with-shuffling: every client permutes its rows with the same
//     secret per-round seed (server never sees it).
//
// Every cross-party tensor/index passes through one TrafficMeter
// (traffic()), which both enforces serializability and records the
// communication volume per link. The party threads start at the first call
// that needs them (train_round, a checkpoint, restore, sampling), so
// traffic().set_transport() must come before it; that transport then
// carries every frame. The trainer learns party state only from the
// parties' replies (round reports, health stats, probe scores, checkpoint
// parts; sampling runs a serve::Synthesizer on the latter). Every call ends
// with a reply from every party, after which the parties wait on their
// command links for as long as the caller likes. An exception on a party
// thread is rethrown by the call that was driving the parties and leaves
// the trainer unusable. The destructor finishes and joins every party.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/attack.h"
#include "core/client.h"
#include "core/node.h"
#include "core/options.h"
#include "core/server.h"
#include "net/fleet.h"
#include "net/wire.h"
#include "obs/health.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"

namespace gtv::core {

class GtvTrainer {
 public:
  // `client_tables` are the vertical shards (same row count, rows aligned).
  GtvTrainer(std::vector<data::Table> client_tables, GtvOptions options, std::uint64_t seed);
  ~GtvTrainer();
  GtvTrainer(const GtvTrainer&) = delete;
  GtvTrainer& operator=(const GtvTrainer&) = delete;

  gan::RoundLosses train_round();
  void train(std::size_t rounds,
             const std::function<void(std::size_t, const gan::RoundLosses&)>& on_round = {});
  // Timed variant: the callback additionally receives the round's
  // telemetry record (phase durations, losses, per-link traffic deltas).
  void train(std::size_t rounds,
             const std::function<void(std::size_t, const gan::RoundLosses&,
                                      const obs::RoundTelemetry&)>& on_round);

  // Secure publication (§3.1.7): serve::Synthesizer rows from a checkpoint
  // barrier, one secret shuffle for all clients, split into their shards
  // (row-aligned). No party RNG is touched: sampling never changes training.
  std::vector<data::Table> sample_per_client(std::size_t rows);
  // Horizontal concatenation of the published shards.
  data::Table sample(std::size_t rows);

  // --- serving (gtv::serve) ----------------------------------------------------
  // Snapshot of the full split generator stack (G^t + per-client G^b_i +
  // fitted encoders) as a versioned container for gtv-serve, assembled by
  // the driver's kCmdCheckpoint barrier. Its model_hash is 0 (unstamped);
  // serve::model_hash_of computes the stamp.
  serve::Checkpoint make_checkpoint();

  // --- elastic federation (train-resume) ---------------------------------------
  // Full training state as a GTVT container (kCmdCheckpointTrain barrier):
  // every party's module weights, Adam moments, RNG positions (including
  // each client's DP stream and row order), the driver streams, the
  // completed-round counter and loss history. restore_train_state() pushes
  // it back through the kCmdRestore barrier — a resumed run's loss
  // trajectory is bit-identical to the uninterrupted one. Throws
  // CheckpointError when the checkpoint's seed or party shapes don't match
  // this trainer (resume requires rebuilding from the same data and seed).
  serve::TrainCheckpoint make_train_checkpoint();
  void restore_train_state(const serve::TrainCheckpoint& checkpoint);
  void save_train_checkpoint(const std::string& path);
  void restore_train_state(const std::string& path);
  // Rounds fully completed so far (== history().size()).
  std::size_t rounds_completed() const { return history().size(); }

  // Evaluation access to the parties, valid between calls. The server's
  // model is built by the parties' setup handshake, so server() throws
  // std::logic_error until a round has run.
  std::size_t n_clients() const { return clients_.size(); }
  GtvClient& client(std::size_t i) { return clients_.at(i)->client(); }
  GtvServer& server();
  const net::TrafficMeter& traffic() const { return meter_; }
  net::TrafficMeter& traffic() { return meter_; }
  const std::vector<gan::RoundLosses>& history() const { return driver_->history(); }
  const GtvOptions& options() const { return options_; }

  // --- round telemetry (gtv::obs) ---------------------------------------------
  // One record per completed round, parallel to history() (the DriverNode
  // keeps both). The step phases are the ServerNode's, the shuffle the
  // slowest client's, and the round time the driver's. The per-link deltas
  // are exact: summed over all records they equal the TrafficMeter totals
  // accumulated by training.
  const std::vector<obs::RoundTelemetry>& telemetry() const { return driver_->telemetry(); }
  // Phase/loss/traffic sums over all recorded rounds (losses averaged).
  obs::RoundTelemetry telemetry_snapshot() const { return obs::aggregate(telemetry()); }
  // JSON array with one object per round (RoundTelemetry::to_json).
  std::string telemetry_json() const { return obs::telemetry_to_json(telemetry()); }

  // --- training health (gtv::obs::health) -------------------------------------
  // The DriverNode collects health records, as over TCP, only when
  // obs::health_enabled() (GTV_HEALTH=1); they ride in telemetry()[r].health.
  // The callback fires once per alert, whatever its severity, after the
  // round's records are written. abort_on_fatal (GtvOptions::health)
  // escalates fatal alerts to FatalHealthError, thrown by train_round().
  void set_on_alert(std::function<void(const obs::HealthAlert&)> cb) {
    on_alert_ = std::move(cb);
  }
  // All alerts fired so far, in round order (flattened from telemetry()).
  std::vector<obs::HealthAlert> health_alerts() const;

  // --- semi-honest server curiosity (evaluation) ------------------------------
  const ServerInferenceAttack& attack() const { return server_->attack(); }
  // Scores the attack against the clients' *initial* data order (what a
  // curious server would reconstruct).
  ServerInferenceAttack::Evaluation attack_evaluation() const;

  // --- curious-peer leak in the P2P index-sharing variant -----------------------
  // Only populated when options.index_sharing == kPeerToPeer: the
  // co-selection observations of all non-contributing clients, summed.
  const PeerSelectionFrequencyAttack& peer_attack() const;
  // Scores the co-selection leak against the categories of one categorical
  // column (joined-table index) using the clients' initial data.
  PeerSelectionFrequencyAttack::Evaluation peer_attack_evaluation(std::size_t joined_column) const;

 private:
  // Launches the party threads over the meter's current transport.
  void start_parties();
  // Runs one driver-side exchange with the parties (starting them first if
  // needed), which ends once every party has replied. Any error stops the
  // fleet; a party's failure is rethrown in place of the one it caused.
  void drive(const std::function<void()>& exchange);

  GtvOptions options_;
  net::TrafficMeter meter_;  // before the roles: they hold a reference to it
  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::unique_ptr<ServerNode> server_;
  std::unique_ptr<DriverNode> driver_;
  std::shared_ptr<net::FleetTransport> fleet_;  // null until the parties start
  std::vector<std::thread> parties_;
  std::mutex failure_mu_;
  std::exception_ptr party_failure_;  // the first exception a party thread threw
  data::Table initial_joined_;  // evaluation-only ground truth snapshot
  mutable PeerSelectionFrequencyAttack peer_attack_;  // rebuilt by peer_attack()
  std::function<void(const obs::HealthAlert&)> on_alert_;
};

}  // namespace gtv::core
