// gtv::serve — checkpoint container, synthesis engine, and serving daemon.
//
// The load-bearing properties pinned here:
//   - a checkpoint round-trips through disk bit-for-bit (weights, buffers,
//     encoder state, identity fields), and corrupt/mismatched containers
//     are rejected without touching any model;
//   - seeded sampling is deterministic AND batch-invariant: a request
//     yields byte-identical rows whether it runs alone, coalesced with
//     other requests, in-process or over TCP;
//   - the daemon drains gracefully: admitted requests complete, new ones
//     are refused, and the black box records the serve phases.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "net/tcp.h"
#include "obs/blackbox.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace gtv::serve {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// One tiny trained model shared by every test (training dominates runtime).
const Checkpoint& trained_checkpoint() {
  static const Checkpoint ckpt = [] {
    core::GtvOptions options;
    options.gan.noise_dim = 16;
    options.gan.batch_size = 16;
    options.gan.d_steps_per_round = 1;
    options.gan.hidden = 32;
    options.generator_hidden = 48;

    Rng rng(0xda7aULL);
    const data::Table table = data::make_dataset("loan", 48, rng);
    std::vector<std::vector<std::size_t>> groups(2);
    for (std::size_t c = 0; c < table.n_cols(); ++c) {
      groups[c < (table.n_cols() + 1) / 2 ? 0 : 1].push_back(c);
    }
    core::GtvTrainer trainer(data::vertical_split(table, groups), options, 11);
    trainer.train(1);
    Checkpoint out = trainer.make_checkpoint();
    out.model_hash = model_hash_of(out);
    return out;
  }();
  return ckpt;
}

std::vector<double> table_cells(const data::Table& table) {
  std::vector<double> cells;
  cells.reserve(table.n_rows() * table.n_cols());
  for (std::size_t r = 0; r < table.n_rows(); ++r) {
    for (std::size_t c = 0; c < table.n_cols(); ++c) cells.push_back(table.cell(r, c));
  }
  return cells;
}

// Picks a categorical joined column with >= 2 categories for condition
// tests; the loan dataset always has one.
Synthesizer::Condition some_condition(const Synthesizer& synth) {
  for (const auto& spec : synth.schema()) {
    if (spec.type == data::ColumnType::kCategorical && spec.categories.size() >= 2) {
      return {spec.name, spec.categories[1]};
    }
  }
  throw std::logic_error("test dataset has no categorical column");
}

TEST(CheckpointTest, SaveLoadRoundTripPreservesEverything) {
  const Checkpoint& ckpt = trained_checkpoint();
  const std::string path = temp_path("gtv_serve_roundtrip.ckpt");
  save_checkpoint(ckpt, path);
  const Checkpoint loaded = load_checkpoint(path);

  EXPECT_EQ(loaded.model_hash, ckpt.model_hash);
  EXPECT_EQ(loaded.seed, ckpt.seed);
  EXPECT_EQ(loaded.rounds, ckpt.rounds);
  EXPECT_EQ(loaded.noise_dim, ckpt.noise_dim);
  EXPECT_FLOAT_EQ(loaded.gumbel_tau, ckpt.gumbel_tau);
  ASSERT_EQ(loaded.clients.size(), ckpt.clients.size());
  ASSERT_TRUE(loaded.g_top.arch == ckpt.g_top.arch);
  ASSERT_EQ(loaded.g_top.tensors.size(), ckpt.g_top.tensors.size());
  for (std::size_t t = 0; t < loaded.g_top.tensors.size(); ++t) {
    EXPECT_FLOAT_EQ(loaded.g_top.tensors[t].max_abs_diff(ckpt.g_top.tensors[t]), 0.0f);
  }

  // The real contract: the reloaded model synthesizes byte-identical rows.
  Synthesizer original(ckpt);
  Synthesizer restored(loaded);
  EXPECT_EQ(restored.model_hash(), original.model_hash());
  const auto a = table_cells(original.sample(32, 99));
  const auto b = table_cells(restored.sample(32, 99));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "cell " << i;
  // And the stamped hash is reproducible from the container alone.
  EXPECT_EQ(hash_table(restored.sample(64, loaded.seed)), loaded.model_hash);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptContainersRejected) {
  const std::string path = temp_path("gtv_serve_corrupt.ckpt");
  save_checkpoint(trained_checkpoint(), path);
  const auto size = std::filesystem::file_size(path);

  // Bit flip inside the payload -> CRC mismatch.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);

  // Truncations at many offsets must throw, never crash or misparse.
  save_checkpoint(trained_checkpoint(), path);
  for (std::uintmax_t cut = 0; cut < size; cut += size / 13 + 1) {
    std::filesystem::resize_file(path, cut);
    EXPECT_THROW(load_checkpoint(path), CheckpointError) << "cut=" << cut;
  }

  // Trailing garbage after the CRC.
  save_checkpoint(trained_checkpoint(), path);
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.put('x');
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);

  // Wrong magic.
  {
    std::ofstream file(path, std::ios::binary);
    const std::uint32_t junk = 0xdeadbeefu;
    file.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  EXPECT_THROW(load_checkpoint(temp_path("gtv_serve_missing.ckpt")), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, WrappingPayloadLengthRejected) {
  // A bare 16-byte header whose payload length wraps 16 + len + 4 around
  // to the file size: the size check must not be fooled into reading a
  // CRC and payload that are not there.
  const std::string path = temp_path("gtv_serve_wrapping.ckpt");
  {
    std::ofstream file(path, std::ios::binary);
    const std::uint32_t magic = kCheckpointMagic, version = kCheckpointVersion;
    const std::uint64_t wrapping_len = ~std::uint64_t{0} - 3;  // 2^64 - 4
    file.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    file.write(reinterpret_cast<const char*>(&wrapping_len), sizeof(wrapping_len));
  }
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ArchitectureMismatchRejected) {
  Checkpoint ckpt = trained_checkpoint();
  // Weight set that does not fit the declared architecture.
  Checkpoint bad_tensors = ckpt;
  bad_tensors.g_top.tensors.pop_back();
  EXPECT_THROW(build_generator(bad_tensors.g_top), CheckpointError);
  // Mutually inconsistent parts (G^t input vs noise_dim + cv widths).
  Checkpoint bad_arch = ckpt;
  bad_arch.noise_dim += 1;
  EXPECT_THROW(Synthesizer{bad_arch}, CheckpointError);
  Checkpoint no_clients = ckpt;
  no_clients.clients.clear();
  EXPECT_THROW(Synthesizer{no_clients}, CheckpointError);
}

// Every serve message decoder rejects a cut, a trailing byte, and a row
// batch claiming more cells than its bytes hold, with net::WireError.
TEST(ProtocolTest, DecodersRejectTruncationTrailingBytesAndOversizeBatches) {
  Welcome welcome;
  welcome.model_hash = 7;
  welcome.columns = {"a", "bc"};
  SampleRequest request;
  request.request_id = 1;
  request.n_rows = 4;
  request.has_cond = true;
  request.cond_column = "a";
  request.cond_category = "x";
  RowBatch batch;
  batch.request_id = 1;
  batch.n_rows = 2;
  batch.n_cols = 2;
  batch.done = true;
  batch.cells = {1.0, 2.0, 3.0, 4.0};
  using Decode = std::function<void(const std::vector<std::uint8_t>&)>;
  const std::vector<std::pair<std::vector<std::uint8_t>, Decode>> cases = {
      {encode_hello(Hello{}), [](const auto& b) { decode_hello(b); }},
      {encode_welcome(welcome), [](const auto& b) { decode_welcome(b); }},
      {encode_sample_request(request), [](const auto& b) { decode_sample_request(b); }},
      {encode_row_batch(batch), [](const auto& b) { decode_row_batch(b); }},
      {encode_error(ErrorReply{1, "bad"}), [](const auto& b) { decode_error(b); }},
  };
  for (const auto& [encoded, decode] : cases) {
    EXPECT_NO_THROW(decode(encoded));
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      EXPECT_THROW(decode({encoded.begin(), encoded.begin() + len}), net::WireError)
          << "len=" << len;
    }
    auto padded = encoded;
    padded.push_back(0);
    EXPECT_THROW(decode(padded), net::WireError);
  }
  // 2^14 x 2^14 cells claimed by a header with no cells behind it.
  batch.cells.clear();
  batch.n_rows = batch.n_cols = 1 << 14;
  EXPECT_THROW(decode_row_batch(encode_row_batch(batch)), net::WireError);
}

TEST(SynthesizerTest, SeededSamplingIsDeterministicAndBatchInvariant) {
  Synthesizer synth(trained_checkpoint());
  const auto once = table_cells(synth.sample(24, 7));
  const auto twice = table_cells(synth.sample(24, 7));
  ASSERT_EQ(once, twice);

  // Batch invariance: two requests coalesced into ONE forward must equal
  // each request run alone — the daemon's correctness hinges on this.
  const Synthesizer::Plan plan_a = synth.plan(24, 7);
  const Synthesizer::Plan plan_b = synth.plan(16, 1234);
  Tensor input = Tensor::concat_rows({plan_a.input, plan_b.input});
  std::vector<Tensor> gumbel;
  for (std::size_t i = 0; i < plan_a.gumbel.size(); ++i) {
    gumbel.push_back(Tensor::concat_rows({plan_a.gumbel[i], plan_b.gumbel[i]}));
  }
  const data::Table coalesced = synth.run(input, gumbel);
  ASSERT_EQ(coalesced.n_rows(), 40u);
  const auto solo_b = table_cells(synth.sample(16, 1234));
  for (std::size_t r = 0; r < 24; ++r) {
    for (std::size_t c = 0; c < coalesced.n_cols(); ++c) {
      EXPECT_EQ(coalesced.cell(r, c), once[r * coalesced.n_cols() + c]);
    }
  }
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < coalesced.n_cols(); ++c) {
      EXPECT_EQ(coalesced.cell(24 + r, c), solo_b[r * coalesced.n_cols() + c]);
    }
  }
}

TEST(SynthesizerTest, ConditionValidatedAndDeterministic) {
  Synthesizer synth(trained_checkpoint());
  const Synthesizer::Condition cond = some_condition(synth);
  const auto once = table_cells(synth.sample(12, 5, &cond));
  const auto twice = table_cells(synth.sample(12, 5, &cond));
  EXPECT_EQ(once, twice);

  const Synthesizer::Condition bad_col{"no_such_column", "x"};
  EXPECT_THROW(synth.plan(4, 1, &bad_col), std::invalid_argument);
  Synthesizer::Condition bad_cat = cond;
  bad_cat.category = "no_such_category";
  EXPECT_THROW(synth.plan(4, 1, &bad_cat), std::invalid_argument);
}

TEST(ServeDaemonTest, ConcurrentTcpClientsMatchSingleClientReference) {
  Synthesizer synth(trained_checkpoint());
  auto transport = std::make_shared<net::TcpTransport>(kServeParty);
  const std::uint16_t port = transport->listen(0);

  DaemonOptions options;
  options.max_batch = 48;  // smaller than the total demand -> splits + coalesces
  options.max_wait_us = 3000;
  options.recv_timeout_ms = 10;
  ServeDaemon daemon(synth, options);
  daemon.set_transport(transport);
  daemon.start();
  daemon.watch_peers(transport.get());

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRows = 40;
  const Synthesizer::Condition cond = some_condition(synth);
  std::vector<ServeClient::Result> results(kClients);
  std::vector<std::uint64_t> hashes(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        ServeClient client("c" + std::to_string(i));
        client.connect("127.0.0.1", port);
        const Welcome welcome = client.hello();
        hashes[i] = welcome.model_hash;
        // Odd clients condition their request; seeds differ per client.
        results[i] = client.sample(kRows, 1000 + i, i % 2 == 1 ? &cond : nullptr);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << i << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Every client: byte-identical to the in-process reference path.
  Synthesizer reference(trained_checkpoint());
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(hashes[i], reference.model_hash());
    const auto expected = table_cells(
        reference.sample(kRows, 1000 + i, i % 2 == 1 ? &cond : nullptr));
    ASSERT_EQ(results[i].n_rows, kRows) << "client " << i;
    ASSERT_EQ(results[i].cells.size(), expected.size()) << "client " << i;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(results[i].cells[k], expected[k]) << "client " << i << " cell " << k;
    }
  }
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.rows, kClients * kRows);
  EXPECT_GE(stats.batches, 1u);
  daemon.drain();
}

TEST(ServeDaemonTest, BadRequestsGetErrorsAndZeroRowsComplete) {
  Synthesizer synth(trained_checkpoint());
  auto transport = std::make_shared<net::TcpTransport>(kServeParty);
  const std::uint16_t port = transport->listen(0);
  ServeDaemon daemon(synth, DaemonOptions{});
  daemon.set_transport(transport);
  daemon.start();
  daemon.watch_peers(transport.get());

  ServeClient client("c0");
  client.connect("127.0.0.1", port);
  client.hello();
  const Synthesizer::Condition bad{"no_such_column", "x"};
  EXPECT_THROW(client.sample(4, 1, &bad), std::runtime_error);
  // The error reply must not wedge the stream: the next request succeeds.
  const ServeClient::Result empty = client.sample(0, 1);
  EXPECT_EQ(empty.n_rows, 0u);
  EXPECT_EQ(empty.n_cols, synth.n_cols());
  const ServeClient::Result rows = client.sample(8, 42);
  EXPECT_EQ(rows.n_rows, 8u);
  daemon.drain();
  EXPECT_EQ(daemon.stats().errors, 1u);
}

TEST(ServeDaemonTest, DrainCompletesAdmittedWorkAndRecordsPhases) {
  const std::string bbox = temp_path("gtv_serve_drain.bbox");
  obs::bb::RunHeaderRecord header;
  header.party = "serve";
  header.seed = trained_checkpoint().seed;
  obs::bb::BlackBox::open_global(bbox, header);

  Synthesizer synth(trained_checkpoint());
  auto transport = std::make_shared<net::TcpTransport>(kServeParty);
  const std::uint16_t port = transport->listen(0);
  obs::agg::LiveStatus status;
  DaemonOptions options;
  options.max_batch = 32;  // force the admitted request across many batches
  options.status = &status;
  ServeDaemon daemon(synth, options);
  daemon.set_transport(transport);
  daemon.start();
  daemon.watch_peers(transport.get());

  ServeClient::Result result;
  std::thread client_thread([&] {
    ServeClient client("c0");
    client.connect("127.0.0.1", port);
    result = client.sample(200, 3);
  });
  // Wait for admission, then drain mid-flight: the request must still
  // complete in full before drain() returns.
  while (daemon.stats().requests == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  daemon.drain();
  EXPECT_EQ(status.get_phase(), obs::agg::Phase::kDone);
  client_thread.join();
  EXPECT_EQ(result.n_rows, 200u);
  EXPECT_GE(result.batches, 2u);

  obs::bb::note_shutdown(0, "drain complete");
  const obs::bb::ReadResult ring = obs::bb::read_ring(bbox);
  bool saw_drain_phase = false, saw_clean_shutdown = false;
  for (const auto& record : ring.records) {
    if (record.type == obs::bb::RecordType::kPhase) {
      const auto phase = obs::bb::PhaseRecord::decode(record.payload.data(),
                                                      record.payload.size());
      if (phase.phase == static_cast<std::uint32_t>(obs::agg::Phase::kServeDrain)) {
        saw_drain_phase = true;
      }
    }
    if (record.type == obs::bb::RecordType::kShutdown) {
      const auto down = obs::bb::ShutdownRecord::decode(record.payload.data(),
                                                        record.payload.size());
      saw_clean_shutdown = down.code == 0;
    }
  }
  EXPECT_TRUE(saw_drain_phase);
  EXPECT_TRUE(saw_clean_shutdown);
  std::remove(bbox.c_str());
}

TEST(ServeDaemonTest, DrainSignalLatchTripsOnSigterm) {
  install_drain_handler();
  EXPECT_FALSE(drain_requested());
  std::raise(SIGTERM);
  EXPECT_TRUE(drain_requested());
}

}  // namespace
}  // namespace gtv::serve
