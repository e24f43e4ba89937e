#include "net/transport.h"

#include <chrono>

#include "tensor/bytes.h"

namespace gtv::net {

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.link.size() > kMaxLinkNameBytes) {
    throw WireError("frame: link name too long: " + frame.link);
  }
  if (frame.payload.size() > kMaxFramePayloadBytes) {
    throw WireError("frame: payload too large on " + frame.link);
  }
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.link.size() + frame.payload.size());
  bytes::put_u32(out, kFrameMagic);
  bytes::put_u16(out, kProtocolVersion);
  bytes::put_u16(out, static_cast<std::uint16_t>(frame.link.size()));
  bytes::put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  bytes::put_u64(out, frame.seq);
  // CRC over link + payload; decode_frame_header validates the header.
  const auto* link = reinterpret_cast<const std::uint8_t*>(frame.link.data());
  bytes::put_u32(out, bytes::crc32(frame.payload.data(), frame.payload.size(),
                                   bytes::crc32(link, frame.link.size())));
  out.insert(out.end(), frame.link.begin(), frame.link.end());
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
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
  const FrameHeader header = decode_frame_header(data, len);
  if (len != header.total_bytes()) {
    throw WireError("frame: size mismatch (header says " +
                    std::to_string(header.total_bytes()) + ", buffer has " +
                    std::to_string(len) + ")");
  }
  const std::uint32_t want_crc = bytes::get_u32(data + 20);
  const std::uint8_t* body = data + kFrameHeaderBytes;
  const std::size_t body_len = static_cast<std::size_t>(header.link_len) + header.payload_len;
  if (bytes::crc32(body, body_len) != want_crc) {
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
  const std::string source = link.substr(0, link.find("->"));
  if (const std::uint64_t generation = conn_generation(source); generation != 0) {
    std::lock_guard<std::mutex> lock(seq_mu_);
    if (recv_source_.emplace(link, generation).first->second != generation) {
      throw TransportError("transport: " + source + " restarted since " + link + " was reset");
    }
  }
  for (;;) {
    std::vector<std::uint8_t> raw = fetch_frame(link, timeout_ms);
    Frame frame = decode_frame(raw.data(), raw.size());  // may throw Corrupt/WireError
    if (frame.link != link) {
      throw WireError("transport: misrouted frame for " + frame.link + " on " + link);
    }
    std::unique_lock<std::mutex> lock(seq_mu_);
    const auto expected = recv_expected_.find(link);
    if (expected == recv_expected_.end() ? frame.seq != 0 : frame.seq < expected->second) {
      // Older than a message already delivered on this link, or, on a link
      // that delivered nothing since its reset, from an earlier sender.
      ++stale_dropped_;
      continue;
    }
    recv_expected_[link] = frame.seq + 1;
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
