#include "serve/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "nn/serialize.h"
#include "tensor/bytes.h"

namespace gtv::serve {

namespace {

void append_net_state(std::vector<std::uint8_t>& out, const NetState& state) {
  bytes::put_u64(out, state.arch.in_features);
  bytes::put_u64(out, state.arch.hidden);
  bytes::put_u64(out, state.arch.n_blocks);
  bytes::put_u64(out, state.arch.out_features);
  nn::append_tensor_block(out, state.tensors);
}

NetState parse_net_state(const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  bytes::Reader r(data, size, "checkpoint", offset);
  NetState state;
  state.arch.in_features = r.u64("arch in");
  state.arch.hidden = r.u64("arch hidden");
  state.arch.n_blocks = r.u64("arch blocks");
  state.arch.out_features = r.u64("arch out");
  offset = r.offset;
  state.tensors = nn::parse_tensor_block(data, size, offset);
  return state;
}

void append_client_part(std::vector<std::uint8_t>& out, const ClientPart& part) {
  bytes::put_u64(out, part.cv_width);
  bytes::put_u64(out, part.g_slice_width);
  append_net_state(out, part.g_bottom);
  part.encoder.serialize(out);
}

ClientPart parse_client_part(const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  bytes::Reader r(data, size, "checkpoint", offset);
  ClientPart part;
  part.cv_width = r.u64("cv width");
  part.g_slice_width = r.u64("g slice width");
  offset = r.offset;
  part.g_bottom = parse_net_state(data, size, offset);
  part.encoder = encode::TableEncoder::deserialize(data, size, offset);
  return part;
}

// --- training-state codec helpers ------------------------------------------------

void append_rng_state(std::vector<std::uint8_t>& out, const Rng::State& state) {
  for (int i = 0; i < 4; ++i) bytes::put_u64(out, state.words[i]);
  bytes::put_u64(out, state.spare_bits);
  bytes::put_u8(out, state.has_spare ? 1 : 0);
}

Rng::State parse_rng_state(const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  bytes::Reader r(data, size, "train checkpoint", offset);
  Rng::State state;
  for (int i = 0; i < 4; ++i) state.words[i] = r.u64("rng word");
  state.spare_bits = r.u64("rng spare");
  state.has_spare = r.u8("rng has_spare") != 0;
  offset = r.offset;
  return state;
}

void append_adam_state(std::vector<std::uint8_t>& out, const nn::AdamState& state) {
  bytes::put_u64(out, state.step_count);
  nn::append_tensor_block(out, state.m);
  nn::append_tensor_block(out, state.v);
}

nn::AdamState parse_adam_state(const std::uint8_t* data, std::size_t size,
                               std::size_t& offset) {
  bytes::Reader r(data, size, "train checkpoint", offset);
  nn::AdamState state;
  state.step_count = r.u64("adam step count");
  offset = r.offset;
  state.m = nn::parse_tensor_block(data, size, offset);
  state.v = nn::parse_tensor_block(data, size, offset);
  if (state.m.size() != state.v.size()) {
    throw CheckpointError("train checkpoint: adam moment count mismatch");
  }
  return state;
}

void append_server_train_part(std::vector<std::uint8_t>& out, const ServerTrainPart& part) {
  nn::append_tensor_block(out, part.g_top);
  nn::append_tensor_block(out, part.d_top);
  bytes::put_u8(out, part.d_s.empty() ? 0 : 1);
  if (!part.d_s.empty()) nn::append_tensor_block(out, part.d_s);
  append_adam_state(out, part.adam_g);
  append_adam_state(out, part.adam_d);
  append_rng_state(out, part.rng);
}

ServerTrainPart parse_server_train_part(const std::uint8_t* data, std::size_t size,
                                        std::size_t& offset) {
  ServerTrainPart part;
  part.g_top = nn::parse_tensor_block(data, size, offset);
  part.d_top = nn::parse_tensor_block(data, size, offset);
  bytes::Reader r(data, size, "train checkpoint", offset);
  const bool has_d_s = r.u8("has d_s") != 0;
  offset = r.offset;
  if (has_d_s) part.d_s = nn::parse_tensor_block(data, size, offset);
  part.adam_g = parse_adam_state(data, size, offset);
  part.adam_d = parse_adam_state(data, size, offset);
  part.rng = parse_rng_state(data, size, offset);
  return part;
}

void append_client_train_part(std::vector<std::uint8_t>& out, const ClientTrainPart& part) {
  nn::append_tensor_block(out, part.g_bottom);
  nn::append_tensor_block(out, part.d_bottom);
  append_adam_state(out, part.adam_g);
  append_adam_state(out, part.adam_d);
  append_rng_state(out, part.rng);
  append_rng_state(out, part.dp_rng);
  bytes::put_u64(out, part.original_row.size());
  for (const std::uint64_t row : part.original_row) bytes::put_u64(out, row);
}

ClientTrainPart parse_client_train_part(const std::uint8_t* data, std::size_t size,
                                        std::size_t& offset) {
  ClientTrainPart part;
  part.g_bottom = nn::parse_tensor_block(data, size, offset);
  part.d_bottom = nn::parse_tensor_block(data, size, offset);
  part.adam_g = parse_adam_state(data, size, offset);
  part.adam_d = parse_adam_state(data, size, offset);
  part.rng = parse_rng_state(data, size, offset);
  part.dp_rng = parse_rng_state(data, size, offset);
  bytes::Reader r(data, size, "train checkpoint", offset);
  const std::uint64_t rows = r.u64("row order count");
  if (rows > size) throw CheckpointError("train checkpoint: implausible row count");
  part.original_row.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t i = 0; i < rows; ++i) part.original_row.push_back(r.u64("row order"));
  offset = r.offset;
  return part;
}

// --- container envelope ----------------------------------------------------------
// GTVK and GTVT share one envelope: u32 magic, u32 version, u64 payload
// length, payload, u32 CRC-32 of the payload (layout in checkpoint.h).

constexpr std::size_t kEnvelopeHeader = 16;

// Writes the envelope atomically (tmp + rename): checkpoints are rewritten
// in place, so a crash mid-write must leave the previous file intact.
void write_envelope(const std::string& path, std::uint32_t magic, std::uint32_t version,
                    const std::vector<std::uint8_t>& payload, const std::string& who) {
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + kEnvelopeHeader + 4);
  bytes::put_u32(out, magic);
  bytes::put_u32(out, version);
  bytes::put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  bytes::put_u32(out, nn::state_crc32(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error(who + ": cannot open '" + tmp + "'");
    file.write(reinterpret_cast<const char*>(out.data()),
               static_cast<std::streamsize>(out.size()));
    file.flush();
    if (!file) throw std::runtime_error(who + ": write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error(who + ": rename to '" + path + "' failed");
  }
}

// Reads the whole file in one go and validates magic, version, exact size
// and CRC. Returns the file bytes; the payload is the `payload_len` bytes
// from kEnvelopeHeader on.
std::vector<std::uint8_t> read_envelope(const std::string& path, std::uint32_t magic,
                                        std::uint32_t version, const std::string& who,
                                        std::size_t& payload_len) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw CheckpointError(who + ": cannot open '" + path + "'");
  const std::streamsize size = file.tellg();
  file.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(size));
  if (size > 0) file.read(reinterpret_cast<char*>(raw.data()), size);
  if (!file) throw CheckpointError(who + ": read failed for '" + path + "'");

  bytes::Reader header(raw.data(), raw.size(), who.c_str());
  if (header.u32("magic") != magic) {
    throw CheckpointError(who + ": bad magic in '" + path + "'");
  }
  const std::uint32_t got_version = header.u32("version");
  if (got_version != version) {
    throw CheckpointError(who + ": unsupported version " + std::to_string(got_version));
  }
  // The length comes from the file: compare it with the bytes present
  // rather than add to it, which could wrap around.
  const std::uint64_t len = header.u64("payload length");
  if (raw.size() < kEnvelopeHeader + 4 || len != raw.size() - kEnvelopeHeader - 4) {
    throw CheckpointError(who + ": size mismatch in '" + path +
                          "' (truncated or trailing bytes)");
  }
  payload_len = static_cast<std::size_t>(len);
  const std::uint8_t* payload = raw.data() + kEnvelopeHeader;
  if (bytes::get_u32(payload + payload_len) != nn::state_crc32(payload, payload_len)) {
    throw CheckpointError(who + ": CRC mismatch in '" + path + "'");
  }
  return raw;
}

}  // namespace

NetState snapshot_net(const NetArch& arch, nn::Module& net) {
  NetState state;
  state.arch = arch;
  state.tensors = nn::snapshot_state(net);
  return state;
}

std::unique_ptr<gan::GeneratorNet> build_generator(const NetState& state) {
  if (state.arch.in_features == 0 || state.arch.out_features == 0) {
    throw CheckpointError("checkpoint: generator architecture has zero-sized layers");
  }
  // The init weights are immediately overwritten by restore_state; the rng
  // only exists to satisfy the constructor.
  Rng init_rng(0);
  auto net = std::make_unique<gan::GeneratorNet>(
      static_cast<std::size_t>(state.arch.in_features),
      static_cast<std::size_t>(state.arch.hidden),
      static_cast<std::size_t>(state.arch.n_blocks),
      static_cast<std::size_t>(state.arch.out_features), init_rng);
  try {
    nn::restore_state(*net, state.tensors);
  } catch (const std::runtime_error& e) {
    throw CheckpointError(std::string("checkpoint: weights do not fit architecture: ") +
                          e.what());
  }
  net->set_training(false);
  return net;
}

std::vector<std::uint8_t> encode_server_part(const ServerPart& part) {
  std::vector<std::uint8_t> out;
  bytes::put_u64(out, part.noise_dim);
  bytes::put_f32(out, part.gumbel_tau);
  append_net_state(out, part.g_top);
  return out;
}

ServerPart decode_server_part(const std::vector<std::uint8_t>& bytes_in) {
  try {
    bytes::Reader r(bytes_in.data(), bytes_in.size(), "checkpoint server part");
    ServerPart part;
    part.noise_dim = r.u64("noise dim");
    part.gumbel_tau = r.f32("gumbel tau");
    std::size_t offset = r.offset;
    part.g_top = parse_net_state(bytes_in.data(), bytes_in.size(), offset);
    if (offset != bytes_in.size()) {
      throw CheckpointError("checkpoint: trailing bytes in server part");
    }
    return part;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

std::vector<std::uint8_t> encode_client_part(const ClientPart& part) {
  std::vector<std::uint8_t> out;
  append_client_part(out, part);
  return out;
}

ClientPart decode_client_part(const std::vector<std::uint8_t>& bytes_in) {
  try {
    std::size_t offset = 0;
    ClientPart part = parse_client_part(bytes_in.data(), bytes_in.size(), offset);
    if (offset != bytes_in.size()) {
      throw CheckpointError("checkpoint: trailing bytes in client part");
    }
    return part;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

std::vector<std::uint8_t> encode_server_train_part(const ServerTrainPart& part) {
  std::vector<std::uint8_t> out;
  append_server_train_part(out, part);
  return out;
}

ServerTrainPart decode_server_train_part(const std::vector<std::uint8_t>& bytes_in) {
  try {
    std::size_t offset = 0;
    ServerTrainPart part = parse_server_train_part(bytes_in.data(), bytes_in.size(), offset);
    if (offset != bytes_in.size()) {
      throw CheckpointError("train checkpoint: trailing bytes in server part");
    }
    return part;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

std::vector<std::uint8_t> encode_client_train_part(const ClientTrainPart& part) {
  std::vector<std::uint8_t> out;
  append_client_train_part(out, part);
  return out;
}

ClientTrainPart decode_client_train_part(const std::vector<std::uint8_t>& bytes_in) {
  try {
    std::size_t offset = 0;
    ClientTrainPart part = parse_client_train_part(bytes_in.data(), bytes_in.size(), offset);
    if (offset != bytes_in.size()) {
      throw CheckpointError("train checkpoint: trailing bytes in client part");
    }
    return part;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

void save_train_checkpoint(const TrainCheckpoint& checkpoint, const std::string& path) {
  std::vector<std::uint8_t> payload;
  bytes::put_u64(payload, checkpoint.seed);
  bytes::put_u64(payload, checkpoint.round);
  append_rng_state(payload, checkpoint.shuffle_stream);
  append_rng_state(payload, checkpoint.publish_stream);
  bytes::put_u64(payload, checkpoint.history.size());
  for (const auto& losses : checkpoint.history) {
    bytes::put_f32(payload, losses.d_loss);
    bytes::put_f32(payload, losses.g_loss);
    bytes::put_f32(payload, losses.gp);
    bytes::put_f32(payload, losses.wasserstein);
  }
  append_server_train_part(payload, checkpoint.server);
  bytes::put_u64(payload, checkpoint.clients.size());
  for (const auto& client : checkpoint.clients) append_client_train_part(payload, client);
  write_envelope(path, kTrainCheckpointMagic, kTrainCheckpointVersion, payload,
                 "save_train_checkpoint");
}

TrainCheckpoint load_train_checkpoint(const std::string& path) {
  try {
    std::size_t payload_len = 0;
    const std::vector<std::uint8_t> raw =
        read_envelope(path, kTrainCheckpointMagic, kTrainCheckpointVersion,
                      "load_train_checkpoint", payload_len);
    const std::uint8_t* payload = raw.data() + kEnvelopeHeader;

    bytes::Reader r(payload, payload_len, "load_train_checkpoint");
    TrainCheckpoint ckpt;
    ckpt.seed = r.u64("seed");
    ckpt.round = r.u64("round");
    std::size_t offset = r.offset;
    ckpt.shuffle_stream = parse_rng_state(payload, payload_len, offset);
    ckpt.publish_stream = parse_rng_state(payload, payload_len, offset);
    bytes::Reader hist(payload, payload_len, "load_train_checkpoint", offset);
    const std::uint64_t n_history = hist.u64("history count");
    if (n_history > payload_len) {
      throw CheckpointError("load_train_checkpoint: implausible history count");
    }
    for (std::uint64_t i = 0; i < n_history; ++i) {
      gan::RoundLosses losses;
      losses.d_loss = hist.f32("history d loss");
      losses.g_loss = hist.f32("history g loss");
      losses.gp = hist.f32("history gp");
      losses.wasserstein = hist.f32("history wasserstein");
      ckpt.history.push_back(losses);
    }
    offset = hist.offset;
    ckpt.server = parse_server_train_part(payload, payload_len, offset);
    bytes::Reader tail(payload, payload_len, "load_train_checkpoint", offset);
    const std::uint64_t n_clients = tail.u64("client count");
    if (n_clients > 4096) {
      throw CheckpointError("load_train_checkpoint: implausible client count");
    }
    offset = tail.offset;
    for (std::uint64_t i = 0; i < n_clients; ++i) {
      ckpt.clients.push_back(parse_client_train_part(payload, payload_len, offset));
    }
    if (offset != payload_len) {
      throw CheckpointError("load_train_checkpoint: trailing bytes inside payload");
    }
    return ckpt;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  std::vector<std::uint8_t> payload;
  bytes::put_u64(payload, checkpoint.model_hash);
  bytes::put_u64(payload, checkpoint.seed);
  bytes::put_u64(payload, checkpoint.rounds);
  bytes::put_u64(payload, checkpoint.noise_dim);
  bytes::put_f32(payload, checkpoint.gumbel_tau);
  append_net_state(payload, checkpoint.g_top);
  bytes::put_u64(payload, checkpoint.clients.size());
  for (const auto& client : checkpoint.clients) append_client_part(payload, client);
  write_envelope(path, kCheckpointMagic, kCheckpointVersion, payload, "save_checkpoint");
}

Checkpoint load_checkpoint(const std::string& path) {
  try {
    std::size_t payload_len = 0;
    const std::vector<std::uint8_t> raw = read_envelope(
        path, kCheckpointMagic, kCheckpointVersion, "load_checkpoint", payload_len);
    const std::uint8_t* payload = raw.data() + kEnvelopeHeader;

    bytes::Reader r(payload, payload_len, "load_checkpoint");
    Checkpoint ckpt;
    ckpt.model_hash = r.u64("model hash");
    ckpt.seed = r.u64("seed");
    ckpt.rounds = r.u64("rounds");
    ckpt.noise_dim = r.u64("noise dim");
    ckpt.gumbel_tau = r.f32("gumbel tau");
    std::size_t offset = r.offset;
    ckpt.g_top = parse_net_state(payload, payload_len, offset);
    bytes::Reader tail(payload, payload_len, "load_checkpoint", offset);
    const std::uint64_t n_clients = tail.u64("client count");
    if (n_clients > 4096) throw CheckpointError("load_checkpoint: implausible client count");
    offset = tail.offset;
    for (std::uint64_t i = 0; i < n_clients; ++i) {
      ckpt.clients.push_back(parse_client_part(payload, payload_len, offset));
    }
    if (offset != payload_len) {
      throw CheckpointError("load_checkpoint: trailing bytes inside payload");
    }
    return ckpt;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw CheckpointError(e.what());
  }
}

std::uint64_t hash_table(const data::Table& table) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(table.n_rows());
  mix(table.n_cols());
  for (std::size_t r = 0; r < table.n_rows(); ++r) {
    for (std::size_t c = 0; c < table.n_cols(); ++c) {
      const double cell = table.cell(r, c);
      std::uint64_t bits;
      std::memcpy(&bits, &cell, 8);
      mix(bits);
    }
  }
  return h;
}

}  // namespace gtv::serve
