// The three roles of Algorithm 1 — the only implementation of the
// protocol. A ServerNode owns the GtvServer, each ClientNode one GtvClient,
// and a DriverNode plays the round loop (scheduling, the clients' secret
// shuffle stream, loss collection). All cross-party values travel through
// a TrafficMeter over a caller-supplied Transport. tools/gtv-node runs each
// role as an OS process over TCP; GtvTrainer (core/gtv.h) runs the server
// and clients on party threads, its caller's thread as the driver.
//
// Every party owns its RNG streams (party_seeds), so the losses depend on
// the seed and config only — not on the transport or thread scheduling.
// P2P index sharing needs client<->client links, which GtvTrainer has and
// gtv-node's TCP star does not.
//
// Control plane: the driver broadcasts one command frame per step
// ("driver->server", "driver->client<k>"); within a step the server tells
// the clients which one was selected as the CV contributor and reports the
// step's losses to the driver ("server->driver"). The server's steps are
// the round's critical path, so the server times the paper's phases
// (gtv.phase.*_ms histograms, trace spans, tensor-memory peaks).
//
// Frames are the only way the driver learns party state. Every exchange
// ends with a reply from every party, sent after its last state change,
// so once the driver holds all replies the parties are idle. The replies
// carry the round reports (optimizer stats, phase timings, shuffle time)
// the driver's health rules run on; its sample-quality probe has the
// clients score generated columns (kCmdProbe), so no raw column reaches it.
//
// Elastic federation: with set_train_checkpoint the driver periodically
// runs a kCmdCheckpointTrain barrier — every party ships its training
// state (core/resume.h) to the driver, which writes one atomic GTVT
// container. set_resume replays such a container through a kCmdRestore
// barrier before round 0. When a party dies mid-round (detected through
// the transport: a closed TCP connection fast-fails pending recvs), the
// survivors *park* — abandon the half round, drop split-backprop state and
// wait for driver commands — while the driver waits for the dead party to
// be relaunched with --rejoin, then replays the last coordinated
// checkpoint through the same kCmdRestore barrier. Every restored RNG
// stream resumes mid-sequence, so the recovered run's loss trajectory is
// bit-identical to an uninterrupted one.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/attack.h"
#include "core/client.h"
#include "core/options.h"
#include "core/server.h"
#include "gan/ctabgan.h"
#include "net/wire.h"
#include "obs/health.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"

namespace gtv::core {

// Thrown when options.health.abort_on_fatal is set and a round raised a
// fatal health alert, after the round's records are written.
class FatalHealthError : public std::runtime_error {
 public:
  explicit FatalHealthError(obs::HealthAlert alert)
      : std::runtime_error("fatal health alert: " + alert.rule + " (round " +
                           std::to_string(alert.round) + ")"),
        alert_(std::move(alert)) {}
  const obs::HealthAlert& alert() const { return alert_; }

 private:
  obs::HealthAlert alert_;
};

// Step commands broadcast by the driver as {code, arg}: batch size for the
// steps, the round's secret shuffle seed for kShuffle (clients only).
// After its last command of a round (the shuffle when shuffling is on,
// else the generator step) each client sends the driver its round ack.
// kCmdCheckpoint / kCmdCheckpointTrain make every party ship its serving /
// training part to the driver, which assembles the container without
// seeing raw data. kCmdRestore {code, round} is followed by the party's
// train part; the party resets its data links, restores, and acks.
// kCmdProbe {code, rows} (clients only) is followed by `rows` generated
// rows of the client's columns; the client scores them against its own
// shard and replies with three scalars per column.
enum NodeCommand : std::size_t {
  kCmdCriticStep = 1,
  kCmdGeneratorStep = 2,
  kCmdShuffle = 3,
  kCmdFinish = 4,
  kCmdCheckpoint = 5,
  kCmdCheckpointTrain = 6,
  kCmdRestore = 7,
  kCmdProbe = 8,
};

struct NodeConfig {
  GtvOptions options;
  std::size_t n_clients = 2;
  std::size_t rounds = 3;  // DriverNode::run()'s schedule; GtvTrainer leaves 0
  std::uint64_t seed = 7;
  std::size_t train_rows = 0;  // rows per shard; the batch is capped by it

  // Throws std::invalid_argument when exact_gradient_penalty is set (see
  // GtvOptions) or a count is 0.
  void validate() const;
};

// Seeds per party: clients in index order, then the server, so every
// process agrees without talking.
std::vector<std::uint64_t> party_seeds(std::uint64_t seed, std::size_t n_clients);

// `rows` rows drawn by serve::Synthesizer from `checkpoint` with `seed`,
// split into the clients' shards (row-aligned, client order).
std::vector<data::Table> sample_shards(const serve::Checkpoint& checkpoint, std::size_t rows,
                                       std::uint64_t seed);

// The round's first fatal alert if `options.abort_on_fatal`, else null.
const obs::HealthAlert* abort_alert(const obs::HealthOptions& options,
                                    const obs::RoundHealth& health);

// What the roles share: the TrafficMeter their frames are charged to (their
// own, or one an in-process fleet passes in and keeps alive), the live
// status hook, and the elastic switch of the server and clients.
class NodeRole {
 public:
  NodeRole(const NodeRole&) = delete;
  NodeRole& operator=(const NodeRole&) = delete;

  void set_transport(std::shared_ptr<net::Transport> transport) {
    meter_.set_transport(std::move(transport));
  }
  net::TrafficMeter& traffic() { return meter_; }
  // Optional telemetry hook (must outlive the node): round/phase/loss
  // progress is mirrored into `status` with relaxed atomic stores.
  void set_live_status(obs::agg::LiveStatus* status) { status_ = status; }
  // Server and clients: a TransportError during a step parks the round
  // (drops split state, returns to the command loop) instead of crashing,
  // so the driver can replay from the last train checkpoint.
  void set_elastic(bool elastic) { elastic_ = elastic; }

 protected:
  explicit NodeRole(net::TrafficMeter* shared_meter)
      : meter_(shared_meter != nullptr ? *shared_meter : own_meter_) {}
  ~NodeRole() = default;
  void set_phase(obs::agg::Phase phase) {
    if (status_ != nullptr) status_->set_phase(phase);
  }

  net::TrafficMeter own_meter_;
  net::TrafficMeter& meter_;
  obs::agg::LiveStatus* status_ = nullptr;
  bool elastic_ = false;
};

class ServerNode : public NodeRole {
 public:
  // `g_widths` / `d_widths` are the per-client split widths, computed from
  // the public feature counts (core::proportional_widths) — every process
  // derives them identically from the dataset spec.
  ServerNode(NodeConfig config, std::vector<std::size_t> g_widths,
             std::vector<std::size_t> d_widths, net::TrafficMeter* shared_meter = nullptr);

  // Semi-honest server curiosity (evaluation): given the meaning of every
  // global CV bit, the server records each (selected rows, global CV) pair
  // it legitimately observes. Without a layout nothing is recorded.
  void set_attack_layout(std::vector<ServerInferenceAttack::CvBit> bits);
  const ServerInferenceAttack& attack() const { return attack_; }

  // The GtvServer, built by run() when the setup handshake completes.
  GtvServer& server() { return *server_; }

  // Performs the setup handshake (clients report their CV widths), then
  // serves driver commands until kCmdFinish.
  void run();

 private:
  void critic_step(std::size_t batch);
  void generator_step(std::size_t batch);
  // Abandons a half-finished round: drops split state and delivers one
  // empty "poison" frame per peer link so parties blocked in a data recv
  // fail fast instead of burning their full retry budget.
  void park_round();
  // kCmdRestore: reset data links, receive + apply this party's train part,
  // ack the driver.
  void restore_train();

  NodeConfig config_;
  std::vector<std::size_t> g_widths_;
  std::vector<std::size_t> d_widths_;
  std::unique_ptr<GtvServer> server_;
  ServerInferenceAttack attack_;
  bool curious_ = false;  // a CV-bit layout was given
  obs::RoundTelemetry phases_;  // the round's phase timings so far
};

class ClientNode : public NodeRole {
 public:
  ClientNode(NodeConfig config, std::size_t id, data::Table local_table,
             std::size_t g_width, std::size_t d_width,
             net::TrafficMeter* shared_meter = nullptr);

  // Rejoin after a crash: skip the setup CV-width report (the surviving
  // server already holds it) and wait for the driver's kCmdRestore.
  void set_rejoin(bool rejoin) { rejoin_ = rejoin; }

  GtvClient& client() { return *client_; }
  // Peer-to-peer index sharing: the co-selections this client observed as
  // a receiving peer (empty under IndexSharing::kServer).
  const PeerSelectionFrequencyAttack& peer_attack() const { return peer_attack_; }

  // Reports this client's CV width to the server, then serves driver
  // commands until kCmdFinish.
  void run();

 private:
  void critic_step(std::size_t batch);
  void generator_step(std::size_t batch);
  void restore_train();
  // The round ack: this client's optimizer stats and shuffle time.
  void ack_round(double shuffle_ms);
  // kCmdProbe: score `rows` generated rows against the local shard.
  void score_probe(std::size_t rows);

  NodeConfig config_;
  std::size_t id_;
  std::size_t g_width_ = 0;  // this client's split-generator slice width
  std::unique_ptr<GtvClient> client_;
  bool rejoin_ = false;
  PeerSelectionFrequencyAttack peer_attack_;
};

class DriverNode : public NodeRole {
 public:
  explicit DriverNode(NodeConfig config, net::TrafficMeter* shared_meter = nullptr);

  // After training, collect every party's checkpoint part and write the
  // assembled serve::Checkpoint container here. The stamped model_hash is
  // the FNV-1a hash of a 64-row Synthesizer sample seeded with the run
  // seed, so repeat runs of the same config produce the same stamp.
  void set_checkpoint_out(std::string path) { checkpoint_out_ = std::move(path); }
  std::uint64_t checkpoint_hash() const { return checkpoint_hash_; }

  // Coordinated train checkpoints: after every `every` completed rounds the
  // driver runs a kCmdCheckpointTrain barrier and writes the assembled GTVT
  // container to `path` (atomic tmp+rename, each write replacing the last).
  // The in-memory copy doubles as the crash-recovery replay point.
  void set_train_checkpoint(std::string path, std::size_t every);
  // Resume: load `path` (a GTVT container) and push it through a
  // kCmdRestore barrier before round 0, then train the remaining rounds.
  void set_resume(std::string path);
  // How long recover() waits for a dead party to be relaunched.
  void set_rejoin_wait_ms(int ms) { rejoin_wait_ms_ = ms; }
  // Rounds skipped by --resume (0 when starting fresh).
  std::size_t resumed_from() const { return resumed_from_; }
  // Successful crash recoveries performed during run().
  std::size_t recoveries() const { return recoveries_; }

  // Runs config.rounds rounds (with the barriers and recovery requested
  // above), the checkpoint if requested, then kCmdFinish. Returns
  // history(). With options.health.abort_on_fatal a fatal alert finishes
  // the parties, then throws FatalHealthError.
  std::vector<gan::RoundLosses> run();

  // Completed rounds: losses and round records (a restored checkpoint's
  // rounds keep their losses in bare records).
  const std::vector<gan::RoundLosses>& history() const { return history_; }
  const std::vector<obs::RoundTelemetry>& telemetry() const { return telemetry_; }

  // --- the exchanges run() is made of; GtvTrainer calls them directly ---
  // The next round: d_steps critic steps, the generator step, the clients'
  // shuffle and round acks, then under obs::health_enabled() the health
  // rules, with a probe every probe_interval rounds. Appends to history()
  // and returns the round's record; the caller may add its link deltas.
  obs::RoundTelemetry& train_round();
  // kCmdCheckpoint: the assembled, unstamped serving container.
  serve::Checkpoint collect_checkpoint();
  // kCmdCheckpointTrain: every party's part plus the driver's streams.
  serve::TrainCheckpoint collect_train_checkpoint();
  // Throws CheckpointError unless the checkpoint fits this run (seed,
  // party count) and its history its round.
  void check_restorable(const serve::TrainCheckpoint& checkpoint) const;
  // kCmdRestore: pushes the parts, awaits the acks, restores the driver's
  // streams and history. Runs check_restorable() before sending anything.
  void restore(const serve::TrainCheckpoint& checkpoint);
  // kCmdFinish: every party acks and returns from run().
  void finish();
  // Publication-shuffle stream (advanced by GtvTrainer's sampling).
  Rng& publish_stream() { return publish_stream_; }

 private:
  void broadcast(NodeCommand code, std::size_t arg, bool include_server);
  // The sample-quality probe: probe_rows rows from a serve::Synthesizer on
  // a fresh checkpoint, scored by each client (kCmdProbe) into `health`.
  void probe(obs::RoundHealth& health);
  // Crash recovery: find dead clients (unreachable, or reconnected since last
  // admitted), await their --rejoin relaunch, reset their links, restore.
  void recover();
  // Reads index frames off `link` until one equals {kCmdRestore}, skipping
  // frames left over from the aborted round (stale losses, park poison).
  void await_restore_ack(const std::string& ack_link);

  NodeConfig config_;
  Rng shuffle_stream_;
  Rng publish_stream_;
  std::string checkpoint_out_;
  std::uint64_t checkpoint_hash_ = 0;
  std::string train_ckpt_path_;
  std::size_t train_ckpt_every_ = 0;
  std::string resume_path_;
  int rejoin_wait_ms_ = 30000;
  std::size_t resumed_from_ = 0;
  std::size_t recoveries_ = 0;
  std::unique_ptr<serve::TrainCheckpoint> last_train_ckpt_;
  std::vector<std::uint64_t> generations_;  // per client: the connection last admitted
  obs::HealthMonitor health_monitor_;
  std::vector<gan::RoundLosses> history_;
  std::vector<obs::RoundTelemetry> telemetry_;  // parallel to history_
};

}  // namespace gtv::core
