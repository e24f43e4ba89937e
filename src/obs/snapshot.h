// gtv::obs::agg — telemetry snapshot frames for the live cross-party plane.
//
// Each party periodically serializes a Snapshot — round/phase progress,
// losses, cumulative per-link traffic, memory high-water mark, health
// alert counts, plus the full Prometheus dump — and ships it to the
// driver-side Collector (obs/agg.h) on a dedicated socket. Snapshots are
// read-only observers: building one only loads atomics and copies registry
// counters, so the training loss trajectory is byte-identical with the
// telemetry plane on or off (pinned by the liveobs smoke in check.sh).
//
// LiveStatus is the producer side of the hook: a plain struct of relaxed
// atomics that the core nodes (src/core/node.cpp) update at step
// boundaries and a SnapshotPublisher samples from another thread. It is
// header-only on purpose — gtv_core can depend on it without linking the
// aggregation library.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/blackbox.h"

namespace gtv::obs::agg {

// Where a party currently is in the training protocol. The kServe*
// values cover a serving process (tools/gtv-serve): waiting for
// requests, running a coalesced generator batch, draining on shutdown.
enum class Phase : std::uint32_t {
  kIdle = 0,
  kSetup = 1,
  kCritic = 2,
  kGenerator = 3,
  kShuffle = 4,
  kDone = 5,
  kServeWait = 6,
  kServeBatch = 7,
  kServeDrain = 8,
};

// The one table of phase names: the telemetry plane, the sampler's folded
// phase tags and gtv-obs postmortem all print these.
inline const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kIdle: return "idle";
    case Phase::kSetup: return "setup";
    case Phase::kCritic: return "critic";
    case Phase::kGenerator: return "generator";
    case Phase::kShuffle: return "shuffle";
    case Phase::kDone: return "done";
    case Phase::kServeWait: return "serve-wait";
    case Phase::kServeBatch: return "serve-batch";
    case Phase::kServeDrain: return "serve-drain";
  }
  return "unknown";
}

// Lock-free live training status, updated by the node command loops and
// read by the snapshot publisher. All loads/stores are relaxed: telemetry
// tolerates momentarily torn *sets* of fields (each field is individually
// atomic) in exchange for zero overhead on the training path.
struct LiveStatus {
  std::atomic<std::uint64_t> round{0};
  std::atomic<std::uint64_t> rounds_total{0};
  std::atomic<std::uint32_t> phase{static_cast<std::uint32_t>(Phase::kIdle)};
  std::atomic<float> d_loss{0.0f};
  std::atomic<float> g_loss{0.0f};
  std::atomic<float> gp{0.0f};
  std::atomic<float> wasserstein{0.0f};

  // The setters double as the black-box emission points: every party role
  // funnels its round/phase/loss updates through here, so one hook covers
  // them all. bb::note_* is a single relaxed load when no recorder is open.
  void set_phase(Phase p) {
    phase.store(static_cast<std::uint32_t>(p), std::memory_order_relaxed);
    bb::note_phase(round.load(std::memory_order_relaxed),
                   static_cast<std::uint32_t>(p));
  }
  Phase get_phase() const {
    return static_cast<Phase>(phase.load(std::memory_order_relaxed));
  }
  void set_round(std::uint64_t r) { round.store(r, std::memory_order_relaxed); }
  void set_losses(float d, float g, float penalty, float w) {
    d_loss.store(d, std::memory_order_relaxed);
    g_loss.store(g, std::memory_order_relaxed);
    gp.store(penalty, std::memory_order_relaxed);
    wasserstein.store(w, std::memory_order_relaxed);
    bb::note_loss(round.load(std::memory_order_relaxed), d, g, penalty, w);
  }
};

// Cumulative traffic on one link, as published by the TrafficMeter into
// the MetricsRegistry (`net.<link>.bytes` / `.messages`).
struct LinkTraffic {
  std::string link;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

// One of the party's hottest functions, as folded by the sampling profiler
// (obs/sampler.h). `frame` is the demangled leaf symbol; `on_cpu` false means
// the samples were off-CPU (thread blocked in recv/condvar).
struct HotFrame {
  std::string frame;
  std::uint64_t samples = 0;
  std::uint32_t on_cpu = 1;
};

// v2: appended sampling-profiler block (samples_total + hot frames).
inline constexpr std::uint32_t kSnapshotSchemaVersion = 2;

// One telemetry frame. All totals are cumulative since process start; the
// Collector differences consecutive snapshots when it wants rates.
struct Snapshot {
  std::string party;
  std::uint64_t seq = 0;   // publisher-assigned, monotonically increasing
  std::uint64_t t_us = 0;  // sender's TraceSink::now_us() at build time
  std::uint64_t round = 0;
  std::uint64_t rounds_total = 0;
  std::uint32_t phase = 0;  // Phase enum value
  float d_loss = 0.0f;
  float g_loss = 0.0f;
  float gp = 0.0f;
  float wasserstein = 0.0f;
  std::uint64_t bytes = 0;  // totals across every link this party drives
  std::uint64_t messages = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t mem_live_bytes = 0;
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t alerts_info = 0;
  std::uint64_t alerts_warn = 0;
  std::uint64_t alerts_fatal = 0;
  std::vector<LinkTraffic> links;
  // Sampling-profiler block (empty / zero when --sample-hz is off): total
  // drained samples and the top-k hottest leaf functions by sample count.
  std::uint64_t samples_total = 0;
  std::vector<HotFrame> hot;
  // Full MetricsRegistry::to_prometheus() text; the Collector re-labels it
  // with party="..." for the scrape endpoint.
  std::string prom;

  // JSON object for /status consumers (omits `prom`, reports its size).
  std::string to_json() const;
};

// Little-endian snapshot codec (schema version checked on decode). Throws
// net::WireError on truncated, oversized, or trailing-garbage input.
std::vector<std::uint8_t> serialize_snapshot(const Snapshot& snap);
Snapshot deserialize_snapshot(const std::vector<std::uint8_t>& bytes);

// Builds a snapshot of THIS process: samples `status` (may be null),
// the MetricsRegistry (net.* traffic counters + Prometheus dump), the
// tensor memory ledger, and the HealthLog. Never blocks on training.
Snapshot collect_snapshot(const std::string& party, const LiveStatus* status);

}  // namespace gtv::obs::agg
