#include "net/transport.h"

#include <chrono>
#include <string_view>

#include "tensor/bytes.h"

namespace gtv::net {

namespace {

// Writes one frame: header, link, then payload, copied once from the
// caller's buffer.
std::vector<std::uint8_t> encode(std::string_view link, std::uint64_t seq,
                                 const std::uint8_t* payload, std::size_t payload_len) {
  if (link.size() > kMaxLinkNameBytes) {
    throw WireError("frame: link name too long: " + std::string(link));
  }
  if (payload_len > kMaxFramePayloadBytes) {
    throw WireError("frame: payload too large on " + std::string(link));
  }
  const auto* link_bytes = reinterpret_cast<const std::uint8_t*>(link.data());
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + link.size() + payload_len);
  bytes::put_u32(out, kFrameMagic);
  bytes::put_u16(out, kProtocolVersion);
  bytes::put_u16(out, static_cast<std::uint16_t>(link.size()));
  bytes::put_u32(out, static_cast<std::uint32_t>(payload_len));
  bytes::put_u64(out, seq);
  // CRC over link + payload; decode_frame_header validates the header.
  bytes::put_u32(out, bytes::crc32(payload, payload_len, bytes::crc32(link_bytes, link.size())));
  out.insert(out.end(), link_bytes, link_bytes + link.size());
  out.insert(out.end(), payload, payload + payload_len);
  return out;
}

// Validates one complete frame where it lies: header, size, then CRC.
// Throws as decode_frame documents.
FrameHeader check(const std::uint8_t* data, std::size_t len) {
  const FrameHeader header = decode_frame_header(data, len);
  if (len != header.total_bytes()) {
    throw WireError("frame: size mismatch (header says " +
                    std::to_string(header.total_bytes()) + ", buffer has " +
                    std::to_string(len) + ")");
  }
  const std::size_t body_len = static_cast<std::size_t>(header.link_len) + header.payload_len;
  if (bytes::crc32(data + kFrameHeaderBytes, body_len) != bytes::get_u32(data + 20)) {
    throw CorruptFrameError("frame: checksum mismatch");
  }
  return header;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  return encode(frame.link, frame.seq, frame.payload.data(), frame.payload.size());
}

FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t len) {
  if (len < kFrameHeaderBytes) throw WireError("frame: truncated header");
  if (bytes::get_u32(data) != kFrameMagic) throw WireError("frame: bad magic");
  const std::uint16_t version = bytes::get_u16(data + 4);
  if (version != kProtocolVersion) {
    throw VersionError("frame: protocol version " + std::to_string(version) +
                       " (expected " + std::to_string(kProtocolVersion) + ")");
  }
  FrameHeader header;
  header.link_len = bytes::get_u16(data + 6);
  header.payload_len = bytes::get_u32(data + 8);
  header.seq = bytes::get_u64(data + 12);
  if (header.link_len > kMaxLinkNameBytes) throw WireError("frame: link name too long");
  if (header.payload_len > kMaxFramePayloadBytes) {
    throw WireError("frame: payload length exceeds cap");
  }
  return header;
}

Frame decode_frame(const std::uint8_t* data, std::size_t len) {
  const FrameHeader header = check(data, len);
  const std::uint8_t* link = data + kFrameHeaderBytes;
  Frame frame;
  frame.link.assign(reinterpret_cast<const char*>(link), header.link_len);
  frame.seq = header.seq;
  frame.payload.assign(link + header.link_len, data + len);
  return frame;
}

// --- Transport base --------------------------------------------------------------

void Transport::send(const std::string& link, const std::vector<std::uint8_t>& payload) {
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    seq = send_seq_[link]++;
  }
  deliver_frame(link, encode(link, seq, payload.data(), payload.size()));
}

std::vector<std::uint8_t> Transport::recv(const std::string& link, int timeout_ms) {
  const std::string source = link.substr(0, link.find("->"));
  if (const std::uint64_t generation = conn_generation(source); generation != 0) {
    std::lock_guard<std::mutex> lock(seq_mu_);
    if (recv_source_.emplace(link, generation).first->second != generation) {
      throw TransportError("transport: " + source + " restarted since " + link + " was reset");
    }
  }
  for (;;) {
    // The frame is checked where it lies, and its own buffer, with header
    // and link erased, becomes the payload.
    std::vector<std::uint8_t> raw = fetch_frame(link, timeout_ms);
    const FrameHeader header = check(raw.data(), raw.size());  // may throw Corrupt/WireError
    const std::string_view frame_link(reinterpret_cast<const char*>(raw.data()) + kFrameHeaderBytes,
                                      header.link_len);
    if (frame_link != link) {
      throw WireError("transport: misrouted frame for " + std::string(frame_link) + " on " + link);
    }
    {
      std::lock_guard<std::mutex> lock(seq_mu_);
      const auto expected = recv_expected_.find(link);
      if (expected == recv_expected_.end() ? header.seq != 0 : header.seq < expected->second) {
        // Older than a message already delivered on this link, or, on a
        // link that delivered nothing since its reset, from an earlier
        // sender.
        ++stale_dropped_;
        continue;
      }
      recv_expected_[link] = header.seq + 1;
    }
    raw.erase(raw.begin(), raw.begin() + kFrameHeaderBytes + header.link_len);
    return raw;
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
  recv_source_.erase(link);
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
