// obs::sampler tests: the SIGPROF handler survives a sample storm while the
// thread pool is under real load, folded reports are deterministic and
// round-trip through write_folded, a thread parked in read() is attributed
// off-CPU by the wall sweep, and — the contract the whole feature rests on —
// sampling a GtvTrainer run perturbs neither its losses nor its model.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "data/table.h"
#include "obs/sampler.h"
#include "obs/thread_name.h"
#include "tensor/thread_pool.h"

namespace gtv::obs::sampler {
namespace {

// Spins the thread pool on real FP work for ~duration. The work is pure
// arithmetic so SIGPROF interrupts it at arbitrary instruction boundaries.
void burn_cpu(std::chrono::milliseconds duration) {
  const auto deadline = std::chrono::steady_clock::now() + duration;
  std::vector<double> acc(1 << 14, 1.0);
  while (std::chrono::steady_clock::now() < deadline) {
    parallel_for(acc.size(), 256, [&acc](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        acc[i] = std::sqrt(acc[i] + 1.5) * 1.0001;
      }
    });
  }
  // Keep the result observable so the loop cannot be optimized out.
  ASSERT_GT(acc[0], 0.0);
}

std::uint64_t table_hash(const data::Table& table) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
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

data::Table tiny_source(std::size_t rows) {
  Rng rng(7);
  data::Table t({{"a", data::ColumnType::kContinuous, {}, {}},
                 {"b", data::ColumnType::kContinuous, {}, {}}});
  for (std::size_t i = 0; i < rows; ++i) {
    const double z = rng.normal();
    t.append_row({z, 2 * z + rng.normal(0, 0.5)});
  }
  return t;
}

core::GtvOptions tiny_options() {
  core::GtvOptions options;
  options.gan.noise_dim = 4;
  options.gan.hidden = 8;
  options.generator_hidden = 8;
  options.gan.batch_size = 16;
  options.gan.d_steps_per_round = 1;
  return options;
}

TEST(SamplerTest, SampleStormDuringThreadPoolWork) {
  SamplerOptions options;
  options.cpu_hz = 997;  // storm: ~10x the production default
  options.wall_hz = 31;
  options.drain_interval_ms = 10;
  Sampler* prof = Sampler::start_global(options);
  ASSERT_NE(prof, nullptr);
  ASSERT_TRUE(prof->running());
  ASSERT_EQ(Sampler::get(), prof);
  burn_cpu(std::chrono::milliseconds(700));
  prof->stop();
  EXPECT_FALSE(prof->running());
  EXPECT_EQ(Sampler::get(), nullptr);

  const SamplerStats st = prof->stats();
  // 997 Hz over ~0.7 s of multi-thread CPU: even heavily loaded CI machines
  // land far above this floor.
  EXPECT_GE(st.cpu_samples, 50u);
  EXPECT_GE(st.threads_seen, 1u);
  // Folded output parses: magic first, every stack line ends in a count.
  const std::string folded = prof->folded("storm");
  std::istringstream lines(folded);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("# gtv-folded ", 0), 0u);
  std::size_t stacks = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++stacks;
    EXPECT_EQ(line.rfind("storm;", 0), 0u) << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u);
  }
  EXPECT_GT(stacks, 0u);
}

TEST(SamplerTest, FoldedIsDeterministicAndRoundTrips) {
  SamplerOptions options;
  options.cpu_hz = 499;
  Sampler* prof = Sampler::start_global(options);
  ASSERT_NE(prof, nullptr);
  burn_cpu(std::chrono::milliseconds(300));
  prof->stop();

  const std::string first = prof->folded("party-a");
  const std::string second = prof->folded("party-a");
  EXPECT_EQ(first, second);  // same fold state -> byte-identical report

  const std::string path = ::testing::TempDir() + "sampler_roundtrip.folded";
  ASSERT_TRUE(prof->write_folded(path, "party-a"));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), first);
}

TEST(SamplerTest, OffCpuAttributionOfThreadParkedInRead) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> started{false};
  std::thread blockee([&] {
    obs::set_current_thread_name("gtv-blockee");
    started.store(true);
    char byte;
    // Parks here for the whole sampling window; the wall sweep must tag it
    // blocked while SIGPROF never fires on it (zero CPU advance).
    while (::read(fds[0], &byte, 1) == 1) {
    }
  });
  while (!started.load()) std::this_thread::yield();

  SamplerOptions options;
  options.cpu_hz = 97;
  options.wall_hz = 67;  // fast sweep so a short test sees several ticks
  options.drain_interval_ms = 10;
  Sampler* prof = Sampler::start_global(options);
  ASSERT_NE(prof, nullptr);
  // Keep one core busy so the process CPU clock advances — a fully idle
  // process would never fire SIGPROF, but the sweep must still run.
  burn_cpu(std::chrono::milliseconds(900));
  prof->stop();
  ::close(fds[1]);  // EOF releases the blockee
  blockee.join();
  ::close(fds[0]);

  const SamplerStats st = prof->stats();
  EXPECT_GE(st.wall_sweeps, 3u);
  EXPECT_GE(st.offcpu_samples, 1u);
  const std::string folded = prof->folded("p");
  // The parked thread shows up off-CPU under its own name.
  EXPECT_NE(folded.find(";offcpu;"), std::string::npos);
  EXPECT_NE(folded.find(";gtv-blockee;"), std::string::npos);
  std::istringstream lines(folded);
  std::string line;
  bool blockee_offcpu = false;
  while (std::getline(lines, line)) {
    if (line.find(";offcpu;") != std::string::npos &&
        line.find(";gtv-blockee;") != std::string::npos) {
      blockee_offcpu = true;
    }
    // The blockee burns no CPU, so it must never appear as an on-CPU stack.
    if (line.find(";cpu;") != std::string::npos) {
      EXPECT_EQ(line.find(";gtv-blockee;"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(blockee_offcpu);
}

TEST(SamplerTest, TrainingParityWithSamplerOnVsOff) {
  const auto run = [](bool sample) {
    Rng rng(3);
    auto shards = data::vertical_split(tiny_source(48), {{0}, {1}});
    core::GtvTrainer trainer(std::move(shards), tiny_options(), 11);
    Sampler* prof = nullptr;
    if (sample) {
      SamplerOptions options;
      options.cpu_hz = 997;  // storm rate: maximize interference if any exists
      options.wall_hz = 67;
      options.drain_interval_ms = 5;
      prof = Sampler::start_global(options);
    }
    trainer.train(3);
    const std::uint64_t model = table_hash(trainer.sample(32));
    if (prof != nullptr) prof->stop();
    std::vector<std::uint64_t> bits;
    for (const auto& losses : trainer.history()) {
      for (const float loss : {losses.d_loss, losses.g_loss, losses.gp, losses.wasserstein}) {
        std::uint32_t b;
        std::memcpy(&b, &loss, sizeof(b));
        bits.push_back(b);
      }
    }
    bits.push_back(model);
    return bits;
  };
  const auto off = run(false);
  const auto on = run(true);
  // Bit-exact: the sampler touches no RNG stream and no training state.
  EXPECT_EQ(off, on);
}

TEST(SamplerTest, SymbolizeResolvesOwnFunctions) {
  // A pc inside this test binary must symbolize to a real name (dladdr or
  // the .symtab fallback), and the resolution predicate must agree.
  bool resolved = false;
  const auto pc = reinterpret_cast<std::uintptr_t>(&burn_cpu) + 4;
  const std::string frame = symbolize_pc(pc, &resolved);
  EXPECT_TRUE(resolved) << frame;
  EXPECT_TRUE(frame_is_resolved(frame)) << frame;
  EXPECT_NE(frame.find("burn_cpu"), std::string::npos) << frame;
  // Raw addresses never resolve.
  EXPECT_FALSE(frame_is_resolved("0xdeadbeef"));
  EXPECT_FALSE(frame_is_resolved("libc.so.6+0x1234"));
}

}  // namespace
}  // namespace gtv::obs::sampler
