#include "net/wire.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/blackbox.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gtv::net {

namespace {

// --- little-endian primitives ----------------------------------------------------
// The wire layouts are pinned little-endian so files/streams produced on one
// host parse identically on another (and on big-endian hosts, should one
// ever appear).

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t read_u64_le(const std::vector<std::uint8_t>& bytes, std::size_t& offset) {
  if (offset + 8 > bytes.size()) throw WireError("wire: truncated payload");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[offset + i];
  offset += 8;
  return v;
}

void append_f32_le(std::vector<std::uint8_t>& out, float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, 4);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

float read_f32_le(const std::uint8_t* p) {
  std::uint32_t bits = 0;
  for (int i = 3; i >= 0; --i) bits = (bits << 8) | p[i];
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

// Trace pid for a link endpoint name: "server" = 0, "clientK" = K + 1.
// Unrecognised endpoints land on the driver row.
int endpoint_pid(const std::string& endpoint) {
  if (endpoint == "server") return 0;
  if (endpoint == "serve") return 98;  // serving daemon (tools/gtv-serve)
  if (endpoint.rfind("client", 0) == 0) {
    const char* digits = endpoint.c_str() + 6;
    if (digits[0] != '\0') {
      char* end = nullptr;
      const long k = std::strtol(digits, &end, 10);
      if (end != nullptr && *end == '\0' && k >= 0) return static_cast<int>(k) + 1;
    }
  }
  return obs::kDriverPid;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

// --- serialization ---------------------------------------------------------------

std::vector<std::uint8_t> serialize_tensor(const Tensor& t) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + t.size() * sizeof(float));
  append_u64_le(out, t.rows());
  append_u64_le(out, t.cols());
  const float* p = t.data();
  for (std::size_t i = 0; i < t.size(); ++i) append_f32_le(out, p[i]);
  return out;
}

Tensor deserialize_tensor(const std::vector<std::uint8_t>& bytes) {
  std::size_t offset = 0;
  const std::uint64_t rows64 = read_u64_le(bytes, offset);
  const std::uint64_t cols64 = read_u64_le(bytes, offset);
  // Element count must fit size_t and the byte count must match exactly —
  // an attacker-sized header cannot force a huge allocation or hide
  // trailing garbage.
  constexpr std::uint64_t kMaxElems =
      std::numeric_limits<std::size_t>::max() / sizeof(float);
  if (cols64 != 0 && rows64 > kMaxElems / cols64) {
    throw WireError("wire: tensor dimensions overflow");
  }
  const std::uint64_t elems = rows64 * cols64;
  if (bytes.size() != offset + elems * sizeof(float)) {
    throw WireError("wire: tensor payload size mismatch");
  }
  const auto rows = static_cast<std::size_t>(rows64);
  const auto cols = static_cast<std::size_t>(cols64);
  FloatVec values(static_cast<std::size_t>(elems));
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = read_f32_le(bytes.data() + offset + i * 4);
  }
  return Tensor(rows, cols, std::move(values));
}

std::vector<std::uint8_t> serialize_indices(const std::vector<std::size_t>& idx) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + idx.size() * 8);
  append_u64_le(out, idx.size());
  for (std::size_t v : idx) append_u64_le(out, static_cast<std::uint64_t>(v));
  return out;
}

std::vector<std::size_t> deserialize_indices(const std::vector<std::uint8_t>& bytes) {
  std::size_t offset = 0;
  const std::uint64_t n = read_u64_le(bytes, offset);
  if (n > (std::numeric_limits<std::size_t>::max() - offset) / 8 ||
      bytes.size() != offset + n * 8) {
    throw WireError("wire: indices payload size mismatch");
  }
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::size_t>(read_u64_le(bytes, offset)));
  }
  return out;
}

// --- TrafficMeter ----------------------------------------------------------------

std::shared_ptr<Transport> TrafficMeter::shared_transport() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!transport_) transport_ = std::make_shared<InProcTransport>();
  return transport_;
}

void TrafficMeter::set_transport(std::shared_ptr<Transport> transport) {
  if (!transport) throw TransportError("meter: null transport");
  std::lock_guard<std::mutex> lock(mu_);
  transport_ = std::move(transport);
}

void TrafficMeter::charge(const std::string& link, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& stats = links_[link];
  stats.bytes += bytes;
  stats.messages += 1;
  auto& counters = counters_[link];
  if (counters.bytes == nullptr) {
    auto& registry = obs::MetricsRegistry::instance();
    counters.bytes = &registry.counter("net." + link + ".bytes");
    counters.messages = &registry.counter("net." + link + ".messages");
  }
  counters.bytes->add(bytes);
  counters.messages->add();
}

void TrafficMeter::note_fault(const std::string& link, const char* what,
                              std::uint64_t LinkStats::*field) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    links_[link].*field += 1;
  }
  // Faults are rare; building the metric name inline keeps the clean path
  // free of these counters entirely (they only exist once observed).
  obs::MetricsRegistry::instance().counter("net." + link + "." + what).add();
  const obs::bb::NetEvent kind = std::strcmp(what, "timeouts") == 0
                                     ? obs::bb::NetEvent::kTimeout
                                 : std::strcmp(what, "corrupt_frames") == 0
                                     ? obs::bb::NetEvent::kCorruptFrame
                                     : obs::bb::NetEvent::kRetry;
  obs::bb::note_net_event(kind, link.c_str());
}

void TrafficMeter::record_timing(const std::string& link, const char* half, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& counters = counters_[link];
  obs::Histogram*& slot =
      std::strcmp(half, "send_ms") == 0 ? counters.send_ms : counters.recv_ms;
  if (slot == nullptr) {
    slot = &obs::MetricsRegistry::instance().histogram("net." + link + "." + half);
  }
  slot->record(ms);
}

const TrafficMeter::FlowInfo& TrafficMeter::next_flow(const std::string& link, bool send,
                                                      std::uint64_t* id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flows_.find(link);
  if (it == flows_.end()) {
    FlowInfo info;
    const std::size_t arrow = link.find("->");
    if (arrow != std::string::npos) {
      info.from_pid = endpoint_pid(link.substr(0, arrow));
      info.to_pid = endpoint_pid(link.substr(arrow + 2));
    } else {
      info.from_pid = info.to_pid = obs::kDriverPid;
    }
    // Deterministic flow-id namespace for this link. Kept under 2^52 (32
    // hash bits + 20 ordinal bits) so ids survive JSON number (double)
    // round-trips.
    info.flow_base = (fnv1a64(link) & 0xFFFFFFFFULL) << 20;
    info.send_label = "send " + link;
    info.recv_label = "recv " + link;
    it = flows_.emplace(link, std::move(info)).first;
  }
  std::uint64_t& ordinal = send ? it->second.sends : it->second.recvs;
  *id = it->second.flow_base | (ordinal++ & 0xFFFFFULL);
  return it->second;
}

std::vector<std::uint8_t> TrafficMeter::recv_with_retry(const std::string& link) {
  // EINTR never reaches this layer: every raw send/recv/accept/connect
  // syscall lives in tcp.cpp, whose loops restart on EINTR (sampling
  // signals fire at --sample-hz rates), so a Transport exception here is a
  // genuine timeout/corruption, never an interrupted syscall in disguise.
  Transport& t = transport();
  for (int attempt = 1;; ++attempt) {
    try {
      return t.recv(link, retry_.recv_timeout_ms);
    } catch (const CorruptFrameError&) {
      // No layer resends a frame, so count it and surface the typed error.
      note_fault(link, "corrupt_frames", &LinkStats::corrupt_frames);
      throw;
    } catch (const TimeoutError&) {
      note_fault(link, "timeouts", &LinkStats::timeouts);
      if (attempt >= retry_.max_attempts) throw;
      note_fault(link, "retries", &LinkStats::retries);
    }
  }
}

void TrafficMeter::send_payload(const std::string& link,
                                const std::vector<std::uint8_t>& bytes) {
  const bool traced = obs::TraceSink::instance().active();
  const bool timed = obs::timing_enabled();
  const std::uint64_t t0 = traced ? obs::TraceSink::now_us() : 0;
  Clock::time_point c0;
  if (timed) c0 = Clock::now();
  charge(link, bytes.size());
  transport().send(link, bytes);
  if (timed) record_timing(link, "send_ms", ms_since(c0));
  if (traced) {
    std::uint64_t id = 0;
    const FlowInfo& info = next_flow(link, /*send=*/true, &id);
    const std::uint64_t t1 = obs::TraceSink::now_us();
    obs::TraceSink& sink = obs::TraceSink::instance();
    obs::PartyScope sender(info.from_pid);
    sink.emit_complete(info.send_label.c_str(), t0, std::max<std::uint64_t>(1, t1 - t0));
    sink.emit_flow(info.send_label.c_str(), id, 's', info.from_pid, t0);
  }
}

std::vector<std::uint8_t> TrafficMeter::recv_payload(const std::string& link) {
  const bool traced = obs::TraceSink::instance().active();
  const bool timed = obs::timing_enabled();
  const std::uint64_t t0 = traced ? obs::TraceSink::now_us() : 0;
  Clock::time_point c0;
  if (timed) c0 = Clock::now();
  auto bytes = recv_with_retry(link);
  if (timed) record_timing(link, "recv_ms", ms_since(c0));
  if (traced) {
    std::uint64_t id = 0;
    const FlowInfo& info = next_flow(link, /*send=*/false, &id);
    const std::uint64_t t1 = obs::TraceSink::now_us();
    obs::TraceSink& sink = obs::TraceSink::instance();
    obs::PartyScope receiver(info.to_pid);
    sink.emit_complete(info.recv_label.c_str(), t0, std::max<std::uint64_t>(1, t1 - t0));
    sink.emit_flow(info.recv_label.c_str(), id, 'f', info.to_pid, t0);
  }
  return bytes;
}

void TrafficMeter::send_tensor(const std::string& link, const Tensor& t) {
  send_payload(link, serialize_tensor(t));
}

Tensor TrafficMeter::recv_tensor(const std::string& link) {
  return deserialize_tensor(recv_payload(link));
}

void TrafficMeter::send_indices(const std::string& link,
                                const std::vector<std::size_t>& idx) {
  send_payload(link, serialize_indices(idx));
}

std::vector<std::size_t> TrafficMeter::recv_indices(const std::string& link) {
  return deserialize_indices(recv_payload(link));
}

LinkStats TrafficMeter::stats(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(link);
  return it == links_.end() ? LinkStats{} : it->second;
}

std::map<std::string, LinkStats> TrafficMeter::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return links_;
}

LinkStats TrafficMeter::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  LinkStats total;
  for (const auto& [name, stats] : links_) {
    total.bytes += stats.bytes;
    total.messages += stats.messages;
    total.retries += stats.retries;
    total.timeouts += stats.timeouts;
    total.corrupt_frames += stats.corrupt_frames;
  }
  return total;
}

void TrafficMeter::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  links_.clear();
}

}  // namespace gtv::net
