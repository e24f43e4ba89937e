// Elastic federation: exact train-resume from GTVT checkpoints.
//
// The load-bearing properties pinned here:
//   - Rng::State captures the complete stream position (including the
//     Box-Muller spare), so a restored stream replays the exact draws the
//     captured one would have produced;
//   - Adam::state()/set_state round-trips the moment estimates and step
//     counter, and rejects mismatched snapshots without partial writes;
//   - a GtvTrainer restored from a mid-training checkpoint produces a
//     loss trajectory and sample hash bit-identical to the uninterrupted
//     run — in memory and through the GTVT container on disk;
//   - corrupt/truncated/mismatched GTVT containers are rejected with
//     CheckpointError, never a crash or a silently wrong model.
#include "core/resume.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "nn/adam.h"
#include "serve/checkpoint.h"
#include "tensor/rng.h"

namespace gtv::core {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GtvOptions small_options() {
  GtvOptions options;
  options.gan.batch_size = 16;
  options.gan.d_steps_per_round = 1;
  options.gan.hidden = 32;
  options.generator_hidden = 48;
  return options;
}

std::vector<data::Table> small_shards(std::uint64_t seed = 11) {
  Rng rng(seed ^ 0xda7aULL);
  const data::Table table = data::make_dataset("loan", 48, rng);
  std::vector<std::vector<std::size_t>> groups(2);
  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    groups[c < (table.n_cols() + 1) / 2 ? 0 : 1].push_back(c);
  }
  return data::vertical_split(table, groups);
}

TEST(RngStateTest, RoundTripResumesExactDrawSequence) {
  Rng rng(42);
  // Mixed draws; an odd normal() count leaves a Box-Muller spare cached,
  // the subtlest part of the stream position.
  for (int i = 0; i < 3; ++i) rng.next_u64();
  for (int i = 0; i < 7; ++i) rng.normal();

  const Rng::State state = rng.state();
  EXPECT_TRUE(state.has_spare);

  Rng restored(999);  // different seed: everything must come from the state
  restored.set_state(state);
  EXPECT_TRUE(restored.state() == state);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.next_u64(), rng.next_u64()) << "draw " << i;
  }
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(restored.normal(), rng.normal()) << "normal " << i;
  }
}

TEST(RngStateTest, SpareMattersForNormalSequence) {
  Rng a(7);
  a.normal();  // leaves a spare cached
  Rng b(7);
  b.normal();
  Rng::State stripped = a.state();
  stripped.has_spare = false;
  b.set_state(stripped);
  // Dropping the spare desynchronizes the normal stream — this is exactly
  // the bug the spare serialization exists to prevent.
  EXPECT_NE(a.normal(), b.normal());
}

TEST(AdamStateTest, RoundTripAndMismatchRejection) {
  ag::Var x(Tensor::of({{1.0f, 2.0f, 3.0f}}), true);
  nn::AdamOptions opts;
  opts.weight_decay = 0.0f;
  nn::Adam optimizer({x}, opts);
  for (int i = 0; i < 3; ++i) {
    optimizer.zero_grad();
    ag::backward(ag::sum_all(ag::square(x)));
    optimizer.step();
  }
  const nn::AdamState state = optimizer.state();
  EXPECT_EQ(state.step_count, 3u);
  ASSERT_EQ(state.m.size(), 1u);

  // A second optimizer over an identical parameter picks up the moments and
  // applies the exact same next update.
  ag::Var y(x.value(), true);
  nn::Adam twin({y}, opts);
  twin.set_state(state);
  optimizer.zero_grad();
  twin.zero_grad();
  ag::backward(ag::sum_all(ag::square(x)));
  ag::backward(ag::sum_all(ag::square(y)));
  optimizer.step();
  twin.step();
  EXPECT_FLOAT_EQ(x.value().max_abs_diff(y.value()), 0.0f);

  // Mismatched snapshots are rejected before any write.
  nn::AdamState bad = state;
  bad.m.clear();
  EXPECT_THROW(twin.set_state(bad), std::runtime_error);
  nn::AdamState bad_shape = state;
  bad_shape.m[0] = Tensor::zeros(2, 2);
  EXPECT_THROW(twin.set_state(bad_shape), std::runtime_error);
}

// The tentpole property, in-process: train K rounds, checkpoint, train to
// R; a fresh trainer rebuilt from the same data restores the checkpoint and
// reproduces rounds K..R and the final sample bit-for-bit.
TEST(TrainResumeTest, RestoredTrainerReproducesTrajectoryExactly) {
  const GtvOptions options = small_options();
  const auto shards = small_shards();

  GtvTrainer full(shards, options, 11);
  full.train(2);
  const serve::TrainCheckpoint ckpt = full.make_train_checkpoint();
  EXPECT_EQ(ckpt.round, 2u);
  EXPECT_EQ(ckpt.history.size(), 2u);
  full.train(3);  // rounds 3..5
  const auto expected = full.history();
  ASSERT_EQ(expected.size(), 5u);

  GtvTrainer resumed(shards, options, 11);
  resumed.restore_train_state(ckpt);
  EXPECT_EQ(resumed.rounds_completed(), 2u);
  resumed.train(3);
  const auto got = resumed.history();
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_FLOAT_EQ(got[r].d_loss, expected[r].d_loss) << "round " << r;
    EXPECT_FLOAT_EQ(got[r].g_loss, expected[r].g_loss) << "round " << r;
    EXPECT_FLOAT_EQ(got[r].gp, expected[r].gp) << "round " << r;
    EXPECT_FLOAT_EQ(got[r].wasserstein, expected[r].wasserstein) << "round " << r;
  }
  EXPECT_EQ(serve::hash_table(resumed.sample(64)), serve::hash_table(full.sample(64)));
}

TEST(TrainResumeTest, FileRoundTripPreservesEverything) {
  const GtvOptions options = small_options();
  const auto shards = small_shards();
  GtvTrainer trainer(shards, options, 11);
  trainer.train(2);
  const std::string path = temp_path("gtv_resume_roundtrip.gtvt");
  trainer.save_train_checkpoint(path);

  const serve::TrainCheckpoint loaded = serve::load_train_checkpoint(path);
  const serve::TrainCheckpoint direct = trainer.make_train_checkpoint();
  EXPECT_EQ(loaded.seed, direct.seed);
  EXPECT_EQ(loaded.round, direct.round);
  EXPECT_TRUE(loaded.shuffle_stream == direct.shuffle_stream);
  EXPECT_TRUE(loaded.publish_stream == direct.publish_stream);
  ASSERT_EQ(loaded.history.size(), direct.history.size());
  for (std::size_t r = 0; r < loaded.history.size(); ++r) {
    EXPECT_EQ(loaded.history[r].d_loss, direct.history[r].d_loss);
    EXPECT_EQ(loaded.history[r].g_loss, direct.history[r].g_loss);
  }
  ASSERT_EQ(loaded.clients.size(), direct.clients.size());
  for (std::size_t i = 0; i < loaded.clients.size(); ++i) {
    EXPECT_TRUE(loaded.clients[i].rng == direct.clients[i].rng);
    EXPECT_TRUE(loaded.clients[i].dp_rng == direct.clients[i].dp_rng);
    EXPECT_EQ(loaded.clients[i].original_row, direct.clients[i].original_row);
  }

  GtvTrainer resumed(shards, options, 11);
  resumed.restore_train_state(path);
  resumed.train(1);
  trainer.train(1);
  EXPECT_FLOAT_EQ(resumed.history().back().d_loss, trainer.history().back().d_loss);
  EXPECT_EQ(serve::hash_table(resumed.sample(32)), serve::hash_table(trainer.sample(32)));
  std::remove(path.c_str());
}

TEST(TrainResumeTest, MismatchedTrainerRejected) {
  const GtvOptions options = small_options();
  const auto shards = small_shards();
  GtvTrainer trainer(shards, options, 11);
  trainer.train(1);
  const serve::TrainCheckpoint ckpt = trainer.make_train_checkpoint();

  // Wrong seed: resume would rebuild different encoders and party streams.
  GtvTrainer other_seed(shards, options, 12);
  EXPECT_THROW(other_seed.restore_train_state(ckpt), serve::CheckpointError);

  // Wrong party count.
  serve::TrainCheckpoint dropped = ckpt;
  dropped.clients.pop_back();
  GtvTrainer same(shards, options, 11);
  EXPECT_THROW(same.restore_train_state(dropped), serve::CheckpointError);

  // Inconsistent round/history bookkeeping.
  serve::TrainCheckpoint skewed = ckpt;
  skewed.history.clear();
  EXPECT_THROW(same.restore_train_state(skewed), serve::CheckpointError);
}

TEST(TrainCheckpointTest, CorruptContainersRejected) {
  const GtvOptions options = small_options();
  GtvTrainer trainer(small_shards(), options, 11);
  trainer.train(1);
  const std::string path = temp_path("gtv_resume_corrupt.gtvt");
  trainer.save_train_checkpoint(path);
  const auto size = std::filesystem::file_size(path);

  // Bit flip inside the payload -> CRC mismatch.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  EXPECT_THROW(serve::load_train_checkpoint(path), serve::CheckpointError);

  // Truncations at many offsets must throw, never crash or misparse.
  trainer.save_train_checkpoint(path);
  for (std::uintmax_t cut = 0; cut < size; cut += size / 13 + 1) {
    std::filesystem::resize_file(path, cut);
    EXPECT_THROW(serve::load_train_checkpoint(path), serve::CheckpointError)
        << "cut=" << cut;
  }

  // Trailing garbage after the CRC.
  trainer.save_train_checkpoint(path);
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.put('x');
  }
  EXPECT_THROW(serve::load_train_checkpoint(path), serve::CheckpointError);

  // Wrong magic (a GTVK header is not a GTVT container), and no file at all.
  {
    std::ofstream file(path, std::ios::binary);
    const std::uint32_t junk = serve::kCheckpointMagic;
    file.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  EXPECT_THROW(serve::load_train_checkpoint(path), serve::CheckpointError);
  EXPECT_THROW(serve::load_train_checkpoint(temp_path("gtv_resume_missing.gtvt")),
               serve::CheckpointError);
  std::remove(path.c_str());
}

// Per-party codec fuzz: every truncation of an encoded train part must be
// rejected, and a decoded part survives an encode/decode round-trip.
TEST(TrainCheckpointTest, PartyCodecRoundTripAndTruncationFuzz) {
  const GtvOptions options = small_options();
  GtvTrainer trainer(small_shards(), options, 11);
  trainer.train(1);
  const serve::TrainCheckpoint ckpt = trainer.make_train_checkpoint();

  const auto server_bytes = serve::encode_server_train_part(ckpt.server);
  const serve::ServerTrainPart server2 =
      serve::decode_server_train_part(server_bytes);
  EXPECT_TRUE(server2.rng == ckpt.server.rng);
  EXPECT_EQ(server2.adam_g.step_count, ckpt.server.adam_g.step_count);
  ASSERT_EQ(server2.g_top.size(), ckpt.server.g_top.size());
  for (std::size_t t = 0; t < server2.g_top.size(); ++t) {
    EXPECT_FLOAT_EQ(server2.g_top[t].max_abs_diff(ckpt.server.g_top[t]), 0.0f);
  }

  const auto client_bytes = serve::encode_client_train_part(ckpt.clients[0]);
  const serve::ClientTrainPart client2 =
      serve::decode_client_train_part(client_bytes);
  EXPECT_TRUE(client2.dp_rng == ckpt.clients[0].dp_rng);
  EXPECT_EQ(client2.original_row, ckpt.clients[0].original_row);

  for (std::size_t cut = 0; cut < server_bytes.size();
       cut += server_bytes.size() / 29 + 1) {
    const std::vector<std::uint8_t> maimed(server_bytes.begin(),
                                           server_bytes.begin() + cut);
    EXPECT_THROW(serve::decode_server_train_part(maimed), serve::CheckpointError)
        << "cut=" << cut;
  }
  for (std::size_t cut = 0; cut < client_bytes.size();
       cut += client_bytes.size() / 29 + 1) {
    const std::vector<std::uint8_t> maimed(client_bytes.begin(),
                                           client_bytes.begin() + cut);
    EXPECT_THROW(serve::decode_client_train_part(maimed), serve::CheckpointError)
        << "cut=" << cut;
  }
  // Trailing bytes after a valid part are as suspicious as missing ones.
  auto padded = client_bytes;
  padded.push_back(0);
  EXPECT_THROW(serve::decode_client_train_part(padded), serve::CheckpointError);
}

// DP parity: with dp_noise_std > 0 every client draws from its own dp
// stream, so the loopback trainer and a restored run still agree exactly.
TEST(TrainResumeTest, DpNoiseResumeStaysExact) {
  GtvOptions options = small_options();
  options.dp_noise_std = 0.2f;
  const auto shards = small_shards();

  GtvTrainer full(shards, options, 11);
  full.train(1);
  const serve::TrainCheckpoint ckpt = full.make_train_checkpoint();
  full.train(2);

  GtvTrainer resumed(shards, options, 11);
  resumed.restore_train_state(ckpt);
  resumed.train(2);
  ASSERT_EQ(resumed.history().size(), full.history().size());
  EXPECT_FLOAT_EQ(resumed.history().back().d_loss, full.history().back().d_loss);
  EXPECT_FLOAT_EQ(resumed.history().back().g_loss, full.history().back().g_loss);
}

}  // namespace
}  // namespace gtv::core
