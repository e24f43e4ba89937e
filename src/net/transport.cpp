#include "net/transport.h"

#include <array>
#include <chrono>
#include <cstring>

namespace gtv::net {

namespace {

// --- little-endian primitives ---------------------------------------------------

void put_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  const auto& table = crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.link.size() > kMaxLinkNameBytes) {
    throw WireError("frame: link name too long: " + frame.link);
  }
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    throw WireError("frame: payload too large on " + frame.link);
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.link.size() + frame.payload.size());
  put_u32_le(out, kFrameMagic);
  put_u16_le(out, kProtocolVersion);
  put_u16_le(out, static_cast<std::uint16_t>(frame.link.size()));
  put_u32_le(out, static_cast<std::uint32_t>(frame.payload.size()));
  put_u64_le(out, frame.seq);
  // CRC over link + payload; decode_frame_header validates the header.
  std::uint32_t crc = 0xffffffffu;
  {
    const auto& table = crc_table();
    for (char ch : frame.link) {
      crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (crc >> 8);
    }
    for (std::uint8_t b : frame.payload) {
      crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
    }
    crc ^= 0xffffffffu;
  }
  put_u32_le(out, crc);
  out.insert(out.end(), frame.link.begin(), frame.link.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t len) {
  if (len < kFrameHeaderBytes) throw WireError("frame: truncated header");
  if (get_u32_le(data) != kFrameMagic) throw WireError("frame: bad magic");
  const std::uint16_t version = get_u16_le(data + 4);
  if (version != kProtocolVersion) {
    throw VersionError("frame: protocol version " + std::to_string(version) +
                       " (expected " + std::to_string(kProtocolVersion) + ")");
  }
  FrameHeader header;
  header.link_len = get_u16_le(data + 6);
  header.payload_len = get_u32_le(data + 8);
  header.seq = get_u64_le(data + 12);
  if (header.link_len > kMaxLinkNameBytes) throw WireError("frame: link name too long");
  if (header.payload_len > kMaxFramePayloadBytes) {
    throw WireError("frame: payload length exceeds cap");
  }
  return header;
}

Frame decode_frame(const std::uint8_t* data, std::size_t len) {
  const FrameHeader header = decode_frame_header(data, len);
  if (len != header.total_bytes()) {
    throw WireError("frame: size mismatch (header says " +
                    std::to_string(header.total_bytes()) + ", buffer has " +
                    std::to_string(len) + ")");
  }
  const std::uint32_t want_crc = get_u32_le(data + 20);
  const std::uint8_t* body = data + kFrameHeaderBytes;
  const std::size_t body_len = static_cast<std::size_t>(header.link_len) + header.payload_len;
  if (crc32(body, body_len) != want_crc) {
    throw CorruptFrameError("frame: checksum mismatch");
  }
  Frame frame;
  frame.link.assign(reinterpret_cast<const char*>(body), header.link_len);
  frame.seq = header.seq;
  frame.payload.assign(body + header.link_len, body + body_len);
  return frame;
}

// --- Transport base --------------------------------------------------------------

void Transport::send(const std::string& link, const std::vector<std::uint8_t>& payload) {
  Frame frame;
  frame.link = link;
  frame.payload = payload;
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    frame.seq = send_seq_[link]++;
  }
  deliver_frame(link, encode_frame(frame));
}

std::vector<std::uint8_t> Transport::recv(const std::string& link, int timeout_ms) {
  for (;;) {
    std::vector<std::uint8_t> raw = fetch_frame(link, timeout_ms);
    Frame frame = decode_frame(raw.data(), raw.size());  // may throw Corrupt/WireError
    if (frame.link != link) {
      throw WireError("transport: misrouted frame for " + frame.link + " on " + link);
    }
    std::unique_lock<std::mutex> lock(seq_mu_);
    std::uint64_t& expected = recv_expected_[link];
    if (frame.seq < expected) {
      // Older than a message already delivered on this link.
      ++stale_dropped_;
      continue;
    }
    expected = frame.seq + 1;
    return std::move(frame.payload);
  }
}

std::uint64_t Transport::stale_frames_dropped() const {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return stale_dropped_;
}

void Transport::reset_link(const std::string& link) {
  std::lock_guard<std::mutex> lock(seq_mu_);
  send_seq_.erase(link);
  recv_expected_.erase(link);
}

// --- InProcTransport -------------------------------------------------------------

void InProcTransport::deliver_frame(const std::string& link,
                                    std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[link].push_back(std::move(frame));
  }
  cv_.notify_all();
}

std::vector<std::uint8_t> InProcTransport::fetch_frame(const std::string& link,
                                                       int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto ready = [&] {
    auto it = queues_.find(link);
    return it != queues_.end() && !it->second.empty();
  };
  if (!ready()) {
    if (timeout_ms <= 0 ||
        !cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
      throw TimeoutError("inproc: no frame on " + link);
    }
  }
  auto& queue = queues_[link];
  std::vector<std::uint8_t> frame = std::move(queue.front());
  queue.pop_front();
  return frame;
}

void InProcTransport::discard_queued(const std::string& link) {
  std::lock_guard<std::mutex> lock(mu_);
  queues_.erase(link);
}

}  // namespace gtv::net
