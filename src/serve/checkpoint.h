// gtv::serve — versioned, hash-stamped model checkpoints.
//
// A Checkpoint is everything needed to synthesize rows without the
// training data or the training processes: the server's top generator
// G^t, and per client the bottom generator G^b_i plus the full fitted
// encoder state (GMM components, categorical vocabularies, span layout,
// conditional-vector metadata). Network weights are captured with
// nn::snapshot_state (parameters AND buffers, so batchnorm running
// statistics survive and eval-mode forwards after reload match the
// training process bit-for-bit).
//
// On-disk container ("GTVK", all little-endian, mirroring the wire-frame
// discipline):
//
//   offset  size  field
//        0     4  magic        0x4B565447 ("GTVK")
//        4     4  version      kCheckpointVersion
//        8     8  payload_len
//       16     .  payload
//        .     4  crc32        CRC-32 (IEEE) over the payload bytes
//
// The payload carries the run identity (model_hash — the same FNV-1a
// table hash gtv-node stamps in its report — seed, rounds) followed by
// the architecture descriptor + tensor block of every net and the
// serialized encoders. Exact-size: trailing bytes after the CRC are
// rejected.
//
// The per-part codecs (encode_server_part / encode_client_part) are the
// distributed collection path: on kCmdCheckpoint each party encodes its
// own part and ships it to the driver, which assembles the container
// without ever seeing raw data.
//
// A sibling container ("GTVT", same envelope discipline) carries the
// *training* state needed for exact train-resume: every party's full
// module state (generator AND discriminator towers, parameters plus
// buffers), Adam moment estimates and step counters, RNG stream
// positions (including the Box-Muller spare), each client's current row
// order, the driver's shuffle/publish streams, the completed-round
// counter, and the loss history so far. Restoring it reproduces the
// uninterrupted run's loss trajectory bit-for-bit.
//
// Both containers are written and read by one envelope codec; every save
// is atomic (tmp + rename), so a crash mid-write leaves the previous file
// in place. GTVT checkpoints are rewritten mid-training, exactly when
// crashes happen.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "encode/encoder.h"
#include "gan/ctabgan.h"
#include "tensor/rng.h"

namespace gtv::serve {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B565447u;  // "GTVK"
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::uint32_t kTrainCheckpointMagic = 0x54565447u;  // "GTVT"
inline constexpr std::uint32_t kTrainCheckpointVersion = 1;

// Malformed container, version mismatch, CRC failure, or a tensor set
// that does not fit the declared architecture.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Constructor arguments of a gan::GeneratorNet — enough to rebuild the
// net and reject weight sets saved for a different architecture.
struct NetArch {
  std::uint64_t in_features = 0;
  std::uint64_t hidden = 0;
  std::uint64_t n_blocks = 0;
  std::uint64_t out_features = 0;

  bool operator==(const NetArch& other) const = default;
};

// One generator tower: architecture + full state (nn::snapshot_state
// order — parameters then buffers).
struct NetState {
  NetArch arch;
  std::vector<Tensor> tensors;
};

// Captures a net's current state under a declared architecture.
NetState snapshot_net(const NetArch& arch, nn::Module& net);

// Rebuilds a GeneratorNet from a NetState. Throws CheckpointError when
// the tensor set does not match the architecture (count or any shape).
std::unique_ptr<gan::GeneratorNet> build_generator(const NetState& state);

struct ClientPart {
  std::uint64_t cv_width = 0;
  std::uint64_t g_slice_width = 0;
  NetState g_bottom;
  encode::TableEncoder encoder;
};

struct ServerPart {
  std::uint64_t noise_dim = 0;
  float gumbel_tau = 0.2f;
  NetState g_top;
};

struct Checkpoint {
  std::uint64_t model_hash = 0;  // FNV-1a table hash from gtv-node's report
  std::uint64_t seed = 0;        // training seed of the producing run
  std::uint64_t rounds = 0;      // training rounds completed
  std::uint64_t noise_dim = 0;
  float gumbel_tau = 0.2f;
  NetState g_top;
  std::vector<ClientPart> clients;
};

// Per-party codecs for the driver-side distributed assembly.
std::vector<std::uint8_t> encode_server_part(const ServerPart& part);
ServerPart decode_server_part(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> encode_client_part(const ClientPart& part);
ClientPart decode_client_part(const std::vector<std::uint8_t>& bytes);

// --- training-state checkpoints ("GTVT") -----------------------------------------

// One party's training state. Module tensor lists are in
// nn::snapshot_state order (parameters then buffers); optimizer moments
// ride as nn::AdamState in constructor slot order.
struct ServerTrainPart {
  std::vector<Tensor> g_top;
  std::vector<Tensor> d_top;
  std::vector<Tensor> d_s;  // empty when the run has no discrete columns
  nn::AdamState adam_g;
  nn::AdamState adam_d;
  Rng::State rng;
};

struct ClientTrainPart {
  std::vector<Tensor> g_bottom;
  std::vector<Tensor> d_bottom;
  nn::AdamState adam_g;
  nn::AdamState adam_d;
  Rng::State rng;
  Rng::State dp_rng;
  // Current row r holds original (pre-training) row original_row[r]: the
  // net effect of every shuffle so far, so a resumed client reorders its
  // freshly-built shard into the exact mid-training permutation.
  std::vector<std::uint64_t> original_row;
};

struct TrainCheckpoint {
  std::uint64_t seed = 0;   // training seed; resume refuses a mismatch
  std::uint64_t round = 0;  // rounds fully completed when this was written
  // Driver-owned streams: the clients' secret shuffle agreement and the
  // publication shuffle. Never part of the server's state.
  Rng::State shuffle_stream;
  Rng::State publish_stream;
  std::vector<gan::RoundLosses> history;  // one entry per completed round
  ServerTrainPart server;
  std::vector<ClientTrainPart> clients;
};

// Per-party codecs for the kCmdCheckpointTrain barrier (each party ships
// its own training state to the driver; decode throws CheckpointError).
std::vector<std::uint8_t> encode_server_train_part(const ServerTrainPart& part);
ServerTrainPart decode_server_train_part(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> encode_client_train_part(const ClientTrainPart& part);
ClientTrainPart decode_client_train_part(const std::vector<std::uint8_t>& bytes);

// Whole-container file I/O for the GTVT envelope. save writes to
// `path`.tmp and renames, so a crash mid-write can never destroy the
// previous good checkpoint; throws std::runtime_error on I/O failure.
// load throws CheckpointError on any malformed input.
void save_train_checkpoint(const TrainCheckpoint& checkpoint, const std::string& path);
TrainCheckpoint load_train_checkpoint(const std::string& path);

// Whole-container file I/O. save writes `path`.tmp and renames, like
// save_train_checkpoint, and throws std::runtime_error on I/O failure;
// load throws CheckpointError on any malformed input.
void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);
Checkpoint load_checkpoint(const std::string& path);

// FNV-1a over a table's dimensions and cell bit patterns — the model_hash
// gtv-node stamps in its report and checkpoints carry.
std::uint64_t hash_table(const data::Table& table);

}  // namespace gtv::serve
