#include "obs/snapshot.h"

#include <cstring>
#include <map>
#include <sstream>

#include "net/transport.h"
#include "obs/health.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace gtv::obs::agg {

namespace {

// Caps keep a corrupt length field from driving a multi-GiB allocation
// before the exact-size check can reject the frame.
constexpr std::size_t kMaxStringBytes = 16u << 20;
constexpr std::size_t kMaxLinks = 1u << 16;
constexpr std::size_t kMaxHotFrames = 64;

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_f32_le(std::vector<std::uint8_t>& out, float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, 4);
  append_u32_le(out, bits);
}

void append_str(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw net::WireError("snapshot: string field too large (" +
                         std::to_string(s.size()) + " bytes)");
  }
  append_u32_le(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[offset_ + i]) << (8 * i);
    }
    offset_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
    }
    offset_ += 8;
    return v;
  }

  float f32() {
    const std::uint32_t bits = u32();
    float f = 0.0f;
    std::memcpy(&f, &bits, 4);
    return f;
  }

  std::string str() {
    const std::uint32_t len = u32();
    if (len > kMaxStringBytes) {
      throw net::WireError("snapshot: string length " + std::to_string(len) +
                           " exceeds cap");
    }
    need(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data()) + offset_, len);
    offset_ += len;
    return s;
  }

  void expect_end() const {
    if (offset_ != bytes_.size()) {
      throw net::WireError("snapshot: " + std::to_string(bytes_.size() - offset_) +
                           " trailing bytes after decode");
    }
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - offset_ < n) {
      throw net::WireError("snapshot: truncated frame (need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(offset_) + ")");
    }
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t offset_ = 0;
};

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snap) {
  if (snap.links.size() > kMaxLinks) {
    throw net::WireError("snapshot: too many links (" +
                         std::to_string(snap.links.size()) + ")");
  }
  if (snap.hot.size() > kMaxHotFrames) {
    throw net::WireError("snapshot: too many hot frames (" +
                         std::to_string(snap.hot.size()) + ")");
  }
  std::vector<std::uint8_t> out;
  out.reserve(128 + snap.party.size() + snap.prom.size() + snap.links.size() * 32);
  append_u32_le(out, kSnapshotSchemaVersion);
  append_str(out, snap.party);
  append_u64_le(out, snap.seq);
  append_u64_le(out, snap.t_us);
  append_u64_le(out, snap.round);
  append_u64_le(out, snap.rounds_total);
  append_u32_le(out, snap.phase);
  append_f32_le(out, snap.d_loss);
  append_f32_le(out, snap.g_loss);
  append_f32_le(out, snap.gp);
  append_f32_le(out, snap.wasserstein);
  append_u64_le(out, snap.bytes);
  append_u64_le(out, snap.messages);
  append_u64_le(out, snap.retries);
  append_u64_le(out, snap.timeouts);
  append_u64_le(out, snap.corrupt_frames);
  append_u64_le(out, snap.mem_live_bytes);
  append_u64_le(out, snap.mem_peak_bytes);
  append_u64_le(out, snap.alerts_info);
  append_u64_le(out, snap.alerts_warn);
  append_u64_le(out, snap.alerts_fatal);
  append_u32_le(out, static_cast<std::uint32_t>(snap.links.size()));
  for (const LinkTraffic& lt : snap.links) {
    append_str(out, lt.link);
    append_u64_le(out, lt.bytes);
    append_u64_le(out, lt.messages);
  }
  append_u64_le(out, snap.samples_total);
  append_u32_le(out, static_cast<std::uint32_t>(snap.hot.size()));
  for (const HotFrame& hf : snap.hot) {
    append_str(out, hf.frame);
    append_u64_le(out, hf.samples);
    append_u32_le(out, hf.on_cpu);
  }
  append_str(out, snap.prom);
  return out;
}

Snapshot deserialize_snapshot(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != kSnapshotSchemaVersion) {
    throw net::WireError("snapshot: schema version " + std::to_string(version) +
                         " (expected " + std::to_string(kSnapshotSchemaVersion) + ")");
  }
  Snapshot snap;
  snap.party = r.str();
  snap.seq = r.u64();
  snap.t_us = r.u64();
  snap.round = r.u64();
  snap.rounds_total = r.u64();
  snap.phase = r.u32();
  snap.d_loss = r.f32();
  snap.g_loss = r.f32();
  snap.gp = r.f32();
  snap.wasserstein = r.f32();
  snap.bytes = r.u64();
  snap.messages = r.u64();
  snap.retries = r.u64();
  snap.timeouts = r.u64();
  snap.corrupt_frames = r.u64();
  snap.mem_live_bytes = r.u64();
  snap.mem_peak_bytes = r.u64();
  snap.alerts_info = r.u64();
  snap.alerts_warn = r.u64();
  snap.alerts_fatal = r.u64();
  const std::uint32_t n_links = r.u32();
  if (n_links > kMaxLinks) {
    throw net::WireError("snapshot: link count " + std::to_string(n_links) +
                         " exceeds cap");
  }
  snap.links.reserve(n_links);
  for (std::uint32_t i = 0; i < n_links; ++i) {
    LinkTraffic lt;
    lt.link = r.str();
    lt.bytes = r.u64();
    lt.messages = r.u64();
    snap.links.push_back(std::move(lt));
  }
  snap.samples_total = r.u64();
  const std::uint32_t n_hot = r.u32();
  if (n_hot > kMaxHotFrames) {
    throw net::WireError("snapshot: hot frame count " + std::to_string(n_hot) +
                         " exceeds cap");
  }
  snap.hot.reserve(n_hot);
  for (std::uint32_t i = 0; i < n_hot; ++i) {
    HotFrame hf;
    hf.frame = r.str();
    hf.samples = r.u64();
    hf.on_cpu = r.u32();
    snap.hot.push_back(std::move(hf));
  }
  snap.prom = r.str();
  r.expect_end();
  return snap;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"party\":\"" << json_escape(party) << "\",\"seq\":" << seq
     << ",\"t_us\":" << t_us << ",\"round\":" << round
     << ",\"rounds_total\":" << rounds_total << ",\"phase\":\""
     << agg::to_string(static_cast<Phase>(phase)) << "\",\"d_loss\":" << d_loss
     << ",\"g_loss\":" << g_loss << ",\"gp\":" << gp
     << ",\"wasserstein\":" << wasserstein << ",\"bytes\":" << bytes
     << ",\"messages\":" << messages << ",\"retries\":" << retries
     << ",\"timeouts\":" << timeouts << ",\"corrupt_frames\":" << corrupt_frames
     << ",\"mem_live_bytes\":" << mem_live_bytes
     << ",\"mem_peak_bytes\":" << mem_peak_bytes << ",\"alerts\":{\"info\":"
     << alerts_info << ",\"warn\":" << alerts_warn << ",\"fatal\":" << alerts_fatal
     << "},\"links\":[";
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"link\":\"" << json_escape(links[i].link)
       << "\",\"bytes\":" << links[i].bytes << ",\"messages\":" << links[i].messages
       << "}";
  }
  os << "],\"samples_total\":" << samples_total << ",\"hot\":[";
  for (std::size_t i = 0; i < hot.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"frame\":\"" << json_escape(hot[i].frame)
       << "\",\"samples\":" << hot[i].samples
       << ",\"on_cpu\":" << (hot[i].on_cpu != 0 ? "true" : "false") << "}";
  }
  os << "],\"prom_bytes\":" << prom.size() << "}";
  return os.str();
}

Snapshot collect_snapshot(const std::string& party, const LiveStatus* status) {
  Snapshot snap;
  snap.party = party;
  snap.t_us = TraceSink::now_us();
  if (status != nullptr) {
    snap.round = status->round.load(std::memory_order_relaxed);
    snap.rounds_total = status->rounds_total.load(std::memory_order_relaxed);
    snap.phase = status->phase.load(std::memory_order_relaxed);
    snap.d_loss = status->d_loss.load(std::memory_order_relaxed);
    snap.g_loss = status->g_loss.load(std::memory_order_relaxed);
    snap.gp = status->gp.load(std::memory_order_relaxed);
    snap.wasserstein = status->wasserstein.load(std::memory_order_relaxed);
  }

  // Traffic comes from the registry rather than the TrafficMeter: the
  // meter's link map is not thread-safe against the training thread, while
  // registry counters are relaxed atomics behind a brief enumeration lock.
  auto& registry = MetricsRegistry::instance();
  std::map<std::string, LinkTraffic> by_link;
  for (const auto& [name, value] : registry.counters_snapshot()) {
    if (name.rfind("net.", 0) != 0) continue;
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot <= 4) continue;
    const std::string link = name.substr(4, dot - 4);
    const std::string field = name.substr(dot + 1);
    if (field == "bytes") {
      by_link[link].bytes = value;
      snap.bytes += value;
    } else if (field == "messages") {
      by_link[link].messages = value;
      snap.messages += value;
    } else if (field == "retries") {
      snap.retries += value;
    } else if (field == "timeouts") {
      snap.timeouts += value;
    } else if (field == "corrupt_frames") {
      snap.corrupt_frames += value;
    }
  }
  snap.links.reserve(by_link.size());
  for (auto& [link, lt] : by_link) {
    lt.link = link;
    snap.links.push_back(std::move(lt));
  }

  const MemStats mem = memory_stats();
  snap.mem_live_bytes = mem.live_bytes;
  snap.mem_peak_bytes = mem.peak_bytes;

  auto& health = HealthLog::instance();
  snap.alerts_info = health.count(Severity::kInfo);
  snap.alerts_warn = health.count(Severity::kWarn);
  snap.alerts_fatal = health.count(Severity::kFatal);

  // Hot stacks from the sampling profiler, when --sample-hz armed it.
  if (const sampler::Sampler* prof = sampler::Sampler::get()) {
    const sampler::SamplerStats st = prof->stats();
    snap.samples_total = st.cpu_samples + st.offcpu_samples;
    for (const sampler::HotEntry& e : prof->top_hot(16)) {
      HotFrame hf;
      hf.frame = e.frame;
      hf.samples = e.samples;
      hf.on_cpu = e.on_cpu ? 1 : 0;
      snap.hot.push_back(std::move(hf));
    }
  }

  snap.prom = registry.to_prometheus();
  return snap;
}

}  // namespace gtv::obs::agg
