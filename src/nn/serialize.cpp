#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "tensor/bytes.h"

namespace gtv::nn {

namespace {

constexpr std::uint32_t kMagic = 0x47545651;  // "GTVQ"
constexpr std::uint32_t kVersion = 2;

std::vector<std::uint8_t> slurp(const std::string& path, const char* who) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error(std::string(who) + ": cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error(std::string(who) + ": read failed for '" + path + "'");
  return bytes;
}

}  // namespace

std::vector<Tensor> snapshot_state(Module& module) {
  std::vector<Tensor> tensors;
  for (const auto& p : module.parameters()) tensors.push_back(p.value());
  for (const Tensor* b : module.buffers()) tensors.push_back(*b);
  return tensors;
}

void restore_state(Module& module, const std::vector<Tensor>& tensors) {
  auto params = module.parameters();
  auto bufs = module.buffers();
  if (tensors.size() != params.size() + bufs.size()) {
    throw std::runtime_error("restore_state: tensor count mismatch (snapshot " +
                             std::to_string(tensors.size()) + ", module " +
                             std::to_string(params.size() + bufs.size()) + ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = tensors[i];
    if (t.rows() != params[i].value().rows() || t.cols() != params[i].value().cols()) {
      throw std::runtime_error("restore_state: parameter shape mismatch at index " +
                               std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const Tensor& t = tensors[params.size() + i];
    if (t.rows() != bufs[i]->rows() || t.cols() != bufs[i]->cols()) {
      throw std::runtime_error("restore_state: buffer shape mismatch at index " +
                               std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i].set_value(tensors[i]);
  for (std::size_t i = 0; i < bufs.size(); ++i) *bufs[i] = tensors[params.size() + i];
}

void append_tensor_block(std::vector<std::uint8_t>& out, const std::vector<Tensor>& tensors) {
  bytes::put_u64(out, tensors.size());
  for (const Tensor& t : tensors) put_tensor(out, t);
}

std::vector<Tensor> read_tensor_block(bytes::Reader& r) {
  const std::uint64_t count = r.u64("tensor count");
  // Every tensor takes at least its 16-byte shape.
  if (count > r.remaining() / 16) r.fail("implausible tensor count");
  std::vector<Tensor> tensors;
  tensors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) tensors.push_back(read_tensor(r));
  return tensors;
}

void save_parameters(Module& module, const std::string& path) {
  const auto params = module.parameters();
  const auto bufs = module.buffers();
  // Payload covers everything after the magic; the trailing CRC32 covers
  // exactly the payload bytes, mirroring the gtv::net frame discipline.
  std::vector<std::uint8_t> file;
  bytes::put_u32(file, kMagic);
  bytes::put_u32(file, kVersion);
  bytes::put_u64(file, params.size());
  bytes::put_u64(file, bufs.size());
  append_tensor_block(file, snapshot_state(module));
  bytes::put_u32(file, bytes::crc32(file.data() + 4, file.size() - 4));

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_parameters: cannot open '" + path + "'");
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  if (!out) throw std::runtime_error("save_parameters: write failed for '" + path + "'");
}

void load_parameters(Module& module, const std::string& path) {
  const auto file = slurp(path, "load_parameters");
  if (file.size() < 4 + 4 + 16 + 8 + 4) {
    throw std::runtime_error("load_parameters: truncated file '" + path + "'");
  }
  if (bytes::get_u32(file.data()) != kMagic) {
    throw std::runtime_error("load_parameters: bad magic in '" + path + "'");
  }
  // Verify the trailing CRC before parsing anything else.
  const std::size_t end = file.size() - 4;
  if (bytes::get_u32(file.data() + end) != bytes::crc32(file.data() + 4, end - 4)) {
    throw std::runtime_error("load_parameters: CRC mismatch in '" + path + "'");
  }
  bytes::Reader r(file.data(), end, "load_parameters", 4);
  const std::uint32_t version = r.u32("version");
  if (version != kVersion) {
    throw std::runtime_error("load_parameters: unsupported version " + std::to_string(version) +
                             " in '" + path + "'");
  }
  const std::uint64_t n_params = r.u64("param count");
  const std::uint64_t n_buffers = r.u64("buffer count");
  const auto tensors = read_tensor_block(r);
  r.expect_end();
  if (tensors.size() != n_params + n_buffers) {
    throw std::runtime_error("load_parameters: tensor count does not match header");
  }
  if (n_params != module.parameters().size() || n_buffers != module.buffers().size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch (file " +
                             std::to_string(n_params) + "+" + std::to_string(n_buffers) +
                             ", module " + std::to_string(module.parameters().size()) + "+" +
                             std::to_string(module.buffers().size()) + ")");
  }
  restore_state(module, tensors);
}

}  // namespace gtv::nn
