// Parameter checkpointing: saves/restores the full state of a Module
// (trainable parameters plus non-trainable buffers such as batchnorm
// running statistics) in declaration order.
//
// On-disk format ("GTVQ" version 2) mirrors the wire-frame discipline used
// by gtv::net: explicit little-endian encoding through gtv::bytes, a magic +
// version header, a trailing CRC32 over the payload, and exact-size checks
// so truncated or padded files are rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/bytes.h"

namespace gtv::nn {

// Writes all parameters and buffers of `module` to `path` in the v2
// envelope. Throws std::runtime_error on I/O failure.
void save_parameters(Module& module, const std::string& path);

// Restores state saved by save_parameters. The module must have the same
// architecture: tensor counts and every shape must match, otherwise throws
// std::runtime_error without modifying the module.
void load_parameters(Module& module, const std::string& path);

// Copies the module's full state (parameters then buffers, declaration
// order) as plain tensors — the canonical checkpoint ordering.
std::vector<Tensor> snapshot_state(Module& module);

// Restores a snapshot_state()-ordered tensor list. Counts and shapes are
// validated before anything is written back, so a mismatching snapshot
// throws std::runtime_error and leaves the module untouched.
void restore_state(Module& module, const std::vector<Tensor>& tensors);

// Tensor-block codec shared with gtv::serve's checkpoint containers: u64
// count, then each tensor in the layout of put_tensor (tensor/tensor.h).
void append_tensor_block(std::vector<std::uint8_t>& out, const std::vector<Tensor>& tensors);
// Reads a tensor block at the cursor. Throws std::runtime_error on
// truncation or a count or shape the bytes left cannot hold.
std::vector<Tensor> read_tensor_block(bytes::Reader& r);

}  // namespace gtv::nn
