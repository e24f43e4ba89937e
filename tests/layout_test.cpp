// Byte-layout pins: every encoder below runs on fixed, hand-filled inputs
// (no training, no clock), and the FNV-1a-64 digest of its output is
// compared with a constant. A round-trip test still passes when an encoder
// and its decoder change together; these fail on any change to the bytes.
//
// The constants were recorded from the codecs as they were before the
// codecs moved onto gtv::bytes. A deliberate layout change re-records them
// and says so. The digest is computed here, not with the codec under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "encode/encoder.h"
#include "net/wire.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "obs/blackbox.h"
#include "obs/snapshot.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"

namespace gtv {
namespace {

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void expect_digest(const char* name, const std::vector<std::uint8_t>& bytes,
                   std::uint64_t want) {
  const std::uint64_t got = digest(bytes);
  EXPECT_EQ(got, want) << name << ": digest 0x" << std::hex << got << std::dec << " over "
                       << bytes.size() << " bytes";
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// rows x cols values base, base + 0.25, ... — all exact in f32.
Tensor fixed(std::size_t rows, std::size_t cols, float base) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = base + 0.25f * static_cast<float>(i);
  return t;
}

Rng::State fixed_rng(std::uint64_t base) {
  Rng::State s;
  for (int i = 0; i < 4; ++i) s.words[i] = base + static_cast<std::uint64_t>(i);
  s.spare_bits = base ^ 0xffu;
  s.has_spare = (base & 1) != 0;
  return s;
}

nn::AdamState fixed_adam(std::uint64_t step) {
  nn::AdamState s;
  s.step_count = step;
  s.m = {fixed(2, 2, 0.5f), fixed(1, 2, -1.0f)};
  s.v = {fixed(2, 2, 0.125f), fixed(1, 2, 2.0f)};
  return s;
}

// A one-mode GMM on four fixed values: the fitted state is their mean and
// spread, independent of the EM initialisation.
encode::TableEncoder fixed_encoder() {
  data::Table table({{"amount", data::ColumnType::kContinuous, {}, {}},
                     {"kind", data::ColumnType::kCategorical, {"a", "b", "c"}, {}},
                     {"fee", data::ColumnType::kMixed, {}, {0.0}}});
  table.append_row({1.0, 0.0, 0.0});
  table.append_row({2.0, 1.0, 3.0});
  table.append_row({3.0, 1.0, 0.0});
  table.append_row({4.0, 2.0, 5.0});
  encode::EncoderOptions options;
  options.gmm.max_modes = 1;
  Rng rng(7);
  encode::TableEncoder encoder;
  encoder.fit(table, options, rng);
  return encoder;
}

TEST(LayoutTest, WireTensorIndicesAndFrame) {
  expect_digest("tensor", net::serialize_tensor(fixed(3, 2, -0.75f)), 0x9b7bf8715994aff9ULL);
  expect_digest("indices", net::serialize_indices({0, 7, 0x0102030405060708ULL}),
                0xcac8a48530b8d371ULL);
  net::Frame frame;
  frame.link = "client0->server";
  frame.seq = 0x1122334455ULL;
  frame.payload = {1, 2, 3, 250};
  expect_digest("frame", net::encode_frame(frame), 0x98057da091bd2f18ULL);
}

TEST(LayoutTest, Snapshot) {
  obs::agg::Snapshot snap;
  snap.party = "client1";
  snap.seq = 42;
  snap.t_us = 1234567;
  snap.round = 3;
  snap.rounds_total = 10;
  snap.phase = 4;
  snap.d_loss = -1.5f;
  snap.g_loss = 0.75f;
  snap.gp = 0.125f;
  snap.wasserstein = 2.25f;
  snap.bytes = 1 << 20;
  snap.messages = 99;
  snap.retries = 1;
  snap.timeouts = 2;
  snap.corrupt_frames = 3;
  snap.mem_live_bytes = 4096;
  snap.mem_peak_bytes = 8192;
  snap.alerts_info = 5;
  snap.alerts_warn = 6;
  snap.alerts_fatal = 7;
  snap.links = {{"client1->server", 1000, 10}, {"server->client1", 2000, 20}};
  snap.samples_total = 77;
  snap.hot = {{"gemm_kernel", 30, 1}, {"recv", 12, 0}};
  snap.prom = "# TYPE x counter\nx 1\n";
  expect_digest("snapshot", obs::agg::serialize_snapshot(snap), 0x5651bf88f593e497ULL);
}

TEST(LayoutTest, CheckpointFiles) {
  serve::Checkpoint ckpt;
  ckpt.model_hash = 0x0e0691b93a3204eaULL;
  ckpt.seed = 7;
  ckpt.rounds = 2;
  ckpt.noise_dim = 4;
  ckpt.gumbel_tau = 0.2f;
  ckpt.g_top.arch = {4, 8, 1, 3};
  ckpt.g_top.tensors = {fixed(4, 3, 0.0f), fixed(1, 3, 1.0f)};
  serve::ClientPart part;
  part.cv_width = 3;
  part.g_slice_width = 2;
  part.g_bottom.arch = {2, 4, 1, 5};
  part.g_bottom.tensors = {fixed(2, 5, -2.0f)};
  part.encoder = fixed_encoder();
  ckpt.clients = {part};
  const std::string gtvk = temp_path("gtv_layout_test.gtvk");
  serve::save_checkpoint(ckpt, gtvk);
  expect_digest("GTVK", file_bytes(gtvk), 0x1adbaaf44bcb66afULL);

  serve::TrainCheckpoint train;
  train.seed = 11;
  train.round = 3;
  train.shuffle_stream = fixed_rng(100);
  train.publish_stream = fixed_rng(201);
  train.history = {{1.0f, -2.0f, 0.5f, 0.25f}, {0.75f, -1.5f, 0.375f, 0.125f}};
  train.server.g_top = {fixed(2, 3, 0.5f)};
  train.server.d_top = {fixed(3, 1, -0.5f)};
  train.server.d_s = {fixed(1, 2, 4.0f)};
  train.server.adam_g = fixed_adam(5);
  train.server.adam_d = fixed_adam(6);
  train.server.rng = fixed_rng(300);
  serve::ClientTrainPart client;
  client.g_bottom = {fixed(2, 2, 1.5f)};
  client.d_bottom = {fixed(2, 1, -3.0f)};
  client.adam_g = fixed_adam(7);
  client.adam_d = fixed_adam(8);
  client.rng = fixed_rng(401);
  client.dp_rng = fixed_rng(500);
  client.original_row = {3, 0, 2, 1};
  train.clients = {client};
  const std::string gtvt = temp_path("gtv_layout_test.gtvt");
  serve::save_train_checkpoint(train, gtvt);
  expect_digest("GTVT", file_bytes(gtvt), 0xf19dfcd1bfa483a5ULL);

  Rng rng(1);
  nn::Linear linear(3, 2, rng);
  nn::restore_state(linear, {fixed(3, 2, -1.0f), fixed(1, 2, 0.5f)});
  const std::string gtvq = temp_path("gtv_layout_test.gtvq");
  nn::save_parameters(linear, gtvq);
  expect_digest("GTVQ", file_bytes(gtvq), 0x3960ec533c96b408ULL);
}

TEST(LayoutTest, ServeMessages) {
  expect_digest("hello", serve::encode_hello(serve::Hello{}), 0x29c7dd317360ac35ULL);
  serve::Welcome welcome;
  welcome.model_hash = 0xfeedfacecafebeefULL;
  welcome.columns = {"age", "income", "city"};
  expect_digest("welcome", serve::encode_welcome(welcome), 0xa45af4c78d4647ddULL);
  serve::SampleRequest request;
  request.request_id = 9;
  request.n_rows = 128;
  request.seed = 31337;
  expect_digest("sample request", serve::encode_sample_request(request), 0xa9ccf2807ad7b68ULL);
  request.has_cond = true;
  request.cond_column = "city";
  request.cond_category = "Paris";
  expect_digest("conditional sample request", serve::encode_sample_request(request),
                0x62639b548c722f70ULL);
  serve::RowBatch batch;
  batch.request_id = 9;
  batch.start_row = 64;
  batch.n_rows = 2;
  batch.n_cols = 3;
  batch.done = true;
  batch.cells = {1.0, -2.5, 3.25, 0.0, 1e-3, 12345.0};
  expect_digest("row batch", serve::encode_row_batch(batch), 0x8d340acf8a500cf5ULL);
  expect_digest("error", serve::encode_error(serve::ErrorReply{9, "unknown column"}),
                0x19b0accb5cf128ffULL);
}

TEST(LayoutTest, TableEncoderState) {
  std::vector<std::uint8_t> bytes;
  fixed_encoder().serialize(bytes);
  expect_digest("encoder", bytes, 0x59428c416d7284caULL);
}

TEST(LayoutTest, BlackBoxPayloads) {
  auto encoded = [](const auto& record) {
    std::vector<std::uint8_t> buf(512);
    buf.resize(record.encode(buf.data(), buf.size()));
    return buf;
  };
  obs::bb::RunHeaderRecord header;
  header.party = "server";
  header.n_clients = 2;
  header.rounds = 5;
  header.seed = 7;
  header.wall_us = 1700000000000000ULL;
  header.pid = 4242;
  expect_digest("run header", encoded(header), 0x9d0c8b250db33b44ULL);
  expect_digest("phase", encoded(obs::bb::PhaseRecord{3, 2}), 0x9b5dc69cb732424ULL);
  expect_digest("loss", encoded(obs::bb::LossRecord{3, -1.5f, 0.75f, 0.125f, 2.25f}),
                0x77a1eda6804cb734ULL);
  expect_digest("alert", encoded(obs::bb::AlertRecord{2, 3, "critic_grad_norm"}),
                0x55b7bfdb3675ac2cULL);
  expect_digest("net event", encoded(obs::bb::NetEventRecord{obs::bb::NetEvent::kAccept,
                                                              "client0"}),
                0x49e6a0e9fc69f99fULL);
  expect_digest("stall", encoded(obs::bb::StallRecord{2500, 3, 4}), 0x554da240150971a9ULL);
  expect_digest("thread stack",
                encoded(obs::bb::ThreadStackRecord{1234, {0x401000, 0x402abc, 0x7f0000001000}}),
                0xacc2c2b76654a023ULL);
  expect_digest("crash", encoded(obs::bb::CrashRecord{11, 0xdeadbeef, {0x401000, 0x402abc}}),
                0xd656829fff498f0ULL);
  expect_digest("shutdown", encoded(obs::bb::ShutdownRecord{1, "fatal: no peers"}),
                0x69cbbe97d9bb5157ULL);
}

}  // namespace
}  // namespace gtv
