#include "obs/snapshot.h"

#include <map>
#include <sstream>

#include "net/transport.h"
#include "obs/health.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "tensor/bytes.h"

namespace gtv::obs::agg {

namespace {

// Caps keep a corrupt length field from driving a multi-GiB allocation
// before the exact-size check can reject the frame.
constexpr std::size_t kMaxStringBytes = 16u << 20;
constexpr std::size_t kMaxLinks = 1u << 16;
constexpr std::size_t kMaxHotFrames = 64;

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  if (s.size() > kMaxStringBytes) {
    throw net::WireError("snapshot: string field too large (" +
                         std::to_string(s.size()) + " bytes)");
  }
  bytes::put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string read_str(bytes::Reader& r) {
  const std::uint32_t len = r.u32("string length");
  if (len > kMaxStringBytes) {
    throw net::WireError("snapshot: string length " + std::to_string(len) + " exceeds cap");
  }
  return r.chars(len, "string");
}

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
  bytes::put_u32(out, kSnapshotSchemaVersion);
  put_str(out, snap.party);
  bytes::put_u64(out, snap.seq);
  bytes::put_u64(out, snap.t_us);
  bytes::put_u64(out, snap.round);
  bytes::put_u64(out, snap.rounds_total);
  bytes::put_u32(out, snap.phase);
  bytes::put_f32(out, snap.d_loss);
  bytes::put_f32(out, snap.g_loss);
  bytes::put_f32(out, snap.gp);
  bytes::put_f32(out, snap.wasserstein);
  bytes::put_u64(out, snap.bytes);
  bytes::put_u64(out, snap.messages);
  bytes::put_u64(out, snap.retries);
  bytes::put_u64(out, snap.timeouts);
  bytes::put_u64(out, snap.corrupt_frames);
  bytes::put_u64(out, snap.mem_live_bytes);
  bytes::put_u64(out, snap.mem_peak_bytes);
  bytes::put_u64(out, snap.alerts_info);
  bytes::put_u64(out, snap.alerts_warn);
  bytes::put_u64(out, snap.alerts_fatal);
  bytes::put_u32(out, static_cast<std::uint32_t>(snap.links.size()));
  for (const LinkTraffic& lt : snap.links) {
    put_str(out, lt.link);
    bytes::put_u64(out, lt.bytes);
    bytes::put_u64(out, lt.messages);
  }
  bytes::put_u64(out, snap.samples_total);
  bytes::put_u32(out, static_cast<std::uint32_t>(snap.hot.size()));
  for (const HotFrame& hf : snap.hot) {
    put_str(out, hf.frame);
    bytes::put_u64(out, hf.samples);
    bytes::put_u32(out, hf.on_cpu);
  }
  put_str(out, snap.prom);
  return out;
}

Snapshot deserialize_snapshot(const std::vector<std::uint8_t>& payload) {
  return bytes::guard<net::WireError>([&] {
    bytes::Reader r(payload.data(), payload.size(), "snapshot");
    const std::uint32_t version = r.u32("schema version");
    if (version != kSnapshotSchemaVersion) {
      throw net::WireError("snapshot: schema version " + std::to_string(version) +
                           " (expected " + std::to_string(kSnapshotSchemaVersion) + ")");
    }
    Snapshot snap;
    snap.party = read_str(r);
    snap.seq = r.u64("seq");
    snap.t_us = r.u64("t_us");
    snap.round = r.u64("round");
    snap.rounds_total = r.u64("rounds_total");
    snap.phase = r.u32("phase");
    snap.d_loss = r.f32("d_loss");
    snap.g_loss = r.f32("g_loss");
    snap.gp = r.f32("gp");
    snap.wasserstein = r.f32("wasserstein");
    snap.bytes = r.u64("bytes");
    snap.messages = r.u64("messages");
    snap.retries = r.u64("retries");
    snap.timeouts = r.u64("timeouts");
    snap.corrupt_frames = r.u64("corrupt_frames");
    snap.mem_live_bytes = r.u64("mem_live_bytes");
    snap.mem_peak_bytes = r.u64("mem_peak_bytes");
    snap.alerts_info = r.u64("alerts_info");
    snap.alerts_warn = r.u64("alerts_warn");
    snap.alerts_fatal = r.u64("alerts_fatal");
    const std::uint32_t n_links = r.u32("link count");
    if (n_links > kMaxLinks) {
      throw net::WireError("snapshot: link count " + std::to_string(n_links) + " exceeds cap");
    }
    snap.links.reserve(n_links);
    for (std::uint32_t i = 0; i < n_links; ++i) {
      LinkTraffic lt;
      lt.link = read_str(r);
      lt.bytes = r.u64("link bytes");
      lt.messages = r.u64("link messages");
      snap.links.push_back(std::move(lt));
    }
    snap.samples_total = r.u64("samples_total");
    const std::uint32_t n_hot = r.u32("hot frame count");
    if (n_hot > kMaxHotFrames) {
      throw net::WireError("snapshot: hot frame count " + std::to_string(n_hot) +
                           " exceeds cap");
    }
    snap.hot.reserve(n_hot);
    for (std::uint32_t i = 0; i < n_hot; ++i) {
      HotFrame hf;
      hf.frame = read_str(r);
      hf.samples = r.u64("hot samples");
      hf.on_cpu = r.u32("hot on_cpu");
      snap.hot.push_back(std::move(hf));
    }
    snap.prom = read_str(r);
    r.expect_end();
    return snap;
  });
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
