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
#include <utility>
#include <vector>

#include "core/attack.h"
#include "core/client.h"
#include "core/options.h"
#include "core/server.h"
#include "gan/ctabgan.h"
#include "net/wire.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"

namespace gtv::core {

// Step commands broadcast by the driver as {code, arg}: batch size for the
// steps, the round's secret shuffle seed for kShuffle (clients only).
// kCmdCheckpoint / kCmdCheckpointTrain make every party ship its serving /
// training part to the driver, which assembles the container without
// seeing raw data. kCmdRestore {code, round} is followed by the party's
// train part; the party resets its data links, restores, and acks.
enum NodeCommand : std::size_t {
  kCmdCriticStep = 1,
  kCmdGeneratorStep = 2,
  kCmdShuffle = 3,
  kCmdFinish = 4,
  kCmdCheckpoint = 5,
  kCmdCheckpointTrain = 6,
  kCmdRestore = 7,
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

  // Phase durations and tensor-memory peaks of the steps served since the
  // last call; `mem_peak_bytes.total` is the largest phase peak. The driver
  // fills in the rest of the round's record.
  obs::RoundTelemetry take_phases();

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
  obs::RoundTelemetry phases_;
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
  // Milliseconds spent shuffling since the last call.
  double take_shuffle_ms() { return std::exchange(shuffle_ms_, 0.0); }
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

  NodeConfig config_;
  std::size_t id_;
  std::size_t g_width_ = 0;  // this client's split-generator slice width
  std::unique_ptr<GtvClient> client_;
  bool rejoin_ = false;
  double shuffle_ms_ = 0.0;
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
  // above), the checkpoint if requested, then kCmdFinish. Returns one
  // RoundLosses per round.
  std::vector<gan::RoundLosses> run();

  // --- the exchanges run() is made of; GtvTrainer calls them directly ---
  // d_steps critic steps, the generator step, then the clients' shuffle.
  gan::RoundLosses train_round();
  // kCmdCheckpoint: the assembled, unstamped serving container.
  serve::Checkpoint collect_checkpoint(std::size_t rounds_completed);
  // kCmdCheckpointTrain: every party's part plus the driver's streams.
  serve::TrainCheckpoint collect_train_checkpoint(const std::vector<gan::RoundLosses>& history);
  // kCmdRestore: pushes the parts, awaits the acks, restores the driver's
  // streams. Throws CheckpointError, before sending anything, when the
  // seed or party count differ or the history disagrees with the round.
  void restore(const serve::TrainCheckpoint& checkpoint);
  // kCmdFinish: every party acks and returns from run().
  void finish();
  // Publication-shuffle stream (advanced by GtvTrainer's sampling).
  Rng& publish_stream() { return publish_stream_; }

 private:
  void broadcast(NodeCommand code, std::size_t arg, bool include_server);
  // Crash recovery: identify dead peers, wait for their --rejoin relaunch,
  // reset their links, then restore the last train checkpoint. Returns its
  // history.
  std::vector<gan::RoundLosses> recover();
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
};

}  // namespace gtv::core
