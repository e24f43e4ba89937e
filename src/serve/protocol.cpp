#include "serve/protocol.h"

#include "net/transport.h"
#include "tensor/bytes.h"

namespace gtv::serve {

namespace {

constexpr std::size_t kMaxColumns = 1u << 20;
constexpr std::size_t kMaxBatchCells = std::size_t{1} << 28;

void put_tag(std::vector<std::uint8_t>& out, MsgType type) {
  bytes::put_u32(out, static_cast<std::uint32_t>(type));
}

bytes::Reader open(const std::vector<std::uint8_t>& payload, MsgType expect,
                   const char* what) {
  bytes::Reader r(payload.data(), payload.size(), what);
  const std::uint32_t tag = r.u32("type tag");
  if (tag != static_cast<std::uint32_t>(expect)) {
    throw net::WireError(std::string(what) + ": unexpected message type " +
                         std::to_string(tag));
  }
  return r;
}

}  // namespace

MsgType peek_type(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r(payload.data(), payload.size(), "serve peek_type");
    return static_cast<MsgType>(r.u32("type tag"));
  });
}

std::vector<std::uint8_t> encode_hello(const Hello& msg) {
  std::vector<std::uint8_t> out;
  put_tag(out, MsgType::kHello);
  bytes::put_u32(out, msg.version);
  return out;
}

Hello decode_hello(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r = open(payload, MsgType::kHello, "serve hello");
    Hello msg;
    msg.version = r.u32("version");
    r.expect_end();
    return msg;
  });
}

std::vector<std::uint8_t> encode_welcome(const Welcome& msg) {
  std::vector<std::uint8_t> out;
  put_tag(out, MsgType::kWelcome);
  bytes::put_u32(out, msg.version);
  bytes::put_u64(out, msg.model_hash);
  bytes::put_u64(out, msg.columns.size());
  for (const auto& column : msg.columns) bytes::put_string(out, column);
  return out;
}

Welcome decode_welcome(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r = open(payload, MsgType::kWelcome, "serve welcome");
    Welcome msg;
    msg.version = r.u32("version");
    msg.model_hash = r.u64("model hash");
    const std::uint64_t n = r.u64("column count");
    if (n > kMaxColumns) throw net::WireError("serve welcome: implausible column count");
    msg.columns.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) msg.columns.push_back(r.str("column"));
    r.expect_end();
    return msg;
  });
}

std::vector<std::uint8_t> encode_sample_request(const SampleRequest& msg) {
  std::vector<std::uint8_t> out;
  put_tag(out, MsgType::kSampleRequest);
  bytes::put_u64(out, msg.request_id);
  bytes::put_u64(out, msg.n_rows);
  bytes::put_u64(out, msg.seed);
  bytes::put_u8(out, msg.has_cond ? 1 : 0);
  if (msg.has_cond) {
    bytes::put_string(out, msg.cond_column);
    bytes::put_string(out, msg.cond_category);
  }
  return out;
}

SampleRequest decode_sample_request(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r = open(payload, MsgType::kSampleRequest, "serve sample request");
    SampleRequest msg;
    msg.request_id = r.u64("request id");
    msg.n_rows = r.u64("row count");
    msg.seed = r.u64("seed");
    const std::uint8_t flag = r.u8("condition flag");
    if (flag > 1) throw net::WireError("serve sample request: bad condition flag");
    msg.has_cond = flag == 1;
    if (msg.has_cond) {
      msg.cond_column = r.str("condition column");
      msg.cond_category = r.str("condition category");
    }
    r.expect_end();
    return msg;
  });
}

std::vector<std::uint8_t> encode_row_batch(const RowBatch& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(37 + 8 * msg.cells.size());
  put_tag(out, MsgType::kRowBatch);
  bytes::put_u64(out, msg.request_id);
  bytes::put_u64(out, msg.start_row);
  bytes::put_u64(out, msg.n_rows);
  bytes::put_u64(out, msg.n_cols);
  bytes::put_u8(out, msg.done ? 1 : 0);
  bytes::put_f64s(out, msg.cells.data(), msg.cells.size());
  return out;
}

RowBatch decode_row_batch(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r = open(payload, MsgType::kRowBatch, "serve row batch");
    RowBatch msg;
    msg.request_id = r.u64("request id");
    msg.start_row = r.u64("start row");
    msg.n_rows = r.u64("row count");
    msg.n_cols = r.u64("column count");
    const std::uint8_t flag = r.u8("done flag");
    if (flag > 1) throw net::WireError("serve row batch: bad done flag");
    msg.done = flag == 1;
    if (msg.n_cols != 0 && msg.n_rows > kMaxBatchCells / msg.n_cols) {
      throw net::WireError("serve row batch: cell count overflow");
    }
    const std::size_t cells =
        static_cast<std::size_t>(msg.n_rows) * static_cast<std::size_t>(msg.n_cols);
    if (cells > r.remaining() / 8) r.fail("cells exceed the input");  // before allocating
    msg.cells.resize(cells);
    r.f64s(msg.cells.data(), cells, "cells");
    r.expect_end();
    return msg;
  });
}

std::vector<std::uint8_t> encode_error(const ErrorReply& msg) {
  std::vector<std::uint8_t> out;
  put_tag(out, MsgType::kError);
  bytes::put_u64(out, msg.request_id);
  bytes::put_string(out, msg.message);
  return out;
}

ErrorReply decode_error(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r = open(payload, MsgType::kError, "serve error");
    ErrorReply msg;
    msg.request_id = r.u64("request id");
    msg.message = r.str("message");
    r.expect_end();
    return msg;
  });
}

}  // namespace gtv::serve
