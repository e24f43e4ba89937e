#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gan/ctabgan.h"

namespace gtv::nn {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, RoundTripRestoresExactWeights) {
  Rng rng(1);
  Sequential model;
  model.emplace<Linear>(4, 8, rng);
  model.emplace<ReLU>();
  model.emplace<Linear>(8, 3, rng);
  const std::string path = temp_path("gtv_serialize_roundtrip.bin");
  save_parameters(model, path);

  Sequential other;
  other.emplace<Linear>(4, 8, rng);  // different random init
  other.emplace<ReLU>();
  other.emplace<Linear>(8, 3, rng);
  load_parameters(other, path);

  auto a = model.parameters();
  auto b = other.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i].value().max_abs_diff(b[i].value()), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, GeneratorNetOutputsMatchAfterReload) {
  Rng rng(2);
  gan::GeneratorNet net(10, 16, 2, 6, rng);
  const std::string path = temp_path("gtv_serialize_gen.bin");
  save_parameters(net, path);
  gan::GeneratorNet restored(10, 16, 2, 6, rng);
  load_parameters(restored, path);
  net.set_training(false);
  restored.set_training(false);
  ag::NoGradGuard no_grad;
  Tensor x = Tensor::ones(3, 10);
  EXPECT_FLOAT_EQ(net.forward(ag::Var(x)).value().max_abs_diff(
                      restored.forward(ag::Var(x)).value()),
                  0.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, ArchitectureMismatchRejected) {
  Rng rng(3);
  Linear small(4, 4, rng);
  Linear big(8, 8, rng);
  const std::string path = temp_path("gtv_serialize_mismatch.bin");
  save_parameters(small, path);
  EXPECT_THROW(load_parameters(big, path), std::runtime_error);
  // big is untouched on failure.
  Sequential two;
  two.emplace<Linear>(4, 4, rng);
  two.emplace<Linear>(4, 4, rng);
  EXPECT_THROW(load_parameters(two, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptFilesRejected) {
  Rng rng(4);
  Linear model(3, 3, rng);
  const std::string path = temp_path("gtv_serialize_corrupt.bin");
  save_parameters(model, path);
  // Truncate.
  std::filesystem::resize_file(path, 10);
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  // Bad magic.
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint32_t junk = 0xdeadbeef;
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  // A well-formed file of the retired v1 format ("GTVP" magic, u64
  // parameter count, then per parameter u64 rows / u64 cols / raw floats,
  // native-endian, no CRC) is rejected like any other foreign file.
  {
    std::ofstream out(path, std::ios::binary);
    auto put = [&out](const void* p, std::size_t n) {
      out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    };
    const std::uint32_t magic = 0x47545650;
    put(&magic, 4);
    auto params = model.parameters();
    const std::uint64_t count = params.size();
    put(&count, 8);
    for (const auto& p : params) {
      const std::uint64_t rows = p.value().rows();
      const std::uint64_t cols = p.value().cols();
      put(&rows, 8);
      put(&cols, 8);
      put(p.value().data(), p.value().size() * sizeof(float));
    }
  }
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  EXPECT_THROW(load_parameters(model, temp_path("gtv_no_such_file.bin")), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeTest, BatchNormRunningStatsSurviveReload) {
  Rng rng(5);
  gan::GeneratorNet net(6, 12, 2, 4, rng);
  // Drive the running statistics away from their init with a few
  // train-mode forwards — these live in buffers, not parameters.
  net.set_training(true);
  for (int step = 0; step < 4; ++step) {
    Tensor x = Tensor::normal(8, 6, 0.0f, 1.0f, rng);
    net.forward(ag::Var(x));
  }
  const std::string path = temp_path("gtv_serialize_buffers.bin");
  save_parameters(net, path);

  gan::GeneratorNet restored(6, 12, 2, 4, rng);
  load_parameters(restored, path);
  for (std::size_t i = 0; i < net.buffers().size(); ++i) {
    EXPECT_FLOAT_EQ(net.buffers()[i]->max_abs_diff(*restored.buffers()[i]), 0.0f);
  }
  // Eval-mode outputs depend on the running stats, so this only passes if
  // the buffers really round-tripped.
  net.set_training(false);
  restored.set_training(false);
  ag::NoGradGuard no_grad;
  Tensor probe = Tensor::ones(3, 6);
  EXPECT_FLOAT_EQ(net.forward(ag::Var(probe)).value().max_abs_diff(
                      restored.forward(ag::Var(probe)).value()),
                  0.0f);
  std::remove(path.c_str());
}

TEST(SerializeTest, CrcCatchesBitFlipsAndTrailingBytes) {
  Rng rng(7);
  Linear model(4, 4, rng);
  const std::string path = temp_path("gtv_serialize_crc.bin");
  save_parameters(model, path);
  const auto size = std::filesystem::file_size(path);

  // Flip one bit in the middle of the payload.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);

  // A single appended byte must also fail (exact-size + CRC discipline).
  save_parameters(model, path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncationFuzzNeverCrashes) {
  Rng rng(8);
  gan::GeneratorNet net(5, 8, 1, 3, rng);
  const std::string path = temp_path("gtv_serialize_fuzz.bin");
  save_parameters(net, path);
  const auto size = std::filesystem::file_size(path);
  // Every truncation length must throw — never crash, never half-load.
  for (std::uintmax_t cut = 0; cut < size; cut += 3) {
    save_parameters(net, path);
    std::filesystem::resize_file(path, cut);
    EXPECT_THROW(load_parameters(net, path), std::runtime_error) << "cut=" << cut;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gtv::nn
