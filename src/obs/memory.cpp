#include "obs/memory.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>

#include "obs/metrics.h"

namespace gtv::obs {

namespace {

// glibc gives every thread that allocates its own malloc arena, and each
// arena keeps its freed tensor buffers cached. Pool workers, party threads
// and serve handlers all allocate tensors, so per-thread arenas multiply
// the resident set without making anything faster. One process-wide arena,
// capped before main() runs and any thread exists.
struct SingleMallocArena {
  SingleMallocArena() {
#if defined(__GLIBC__)
    mallopt(M_ARENA_MAX, 1);
#endif
  }
} g_single_malloc_arena;

// Active MemPeakScope watermarks. Scopes claim slots stack-wise; every
// allocation CAS-maxes the new live value into all active slots. Depth is
// bounded so the allocation path stays a fixed handful of relaxed atomics.
constexpr int kMaxScopeDepth = 16;

struct Ledger {
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<int> scope_depth{0};
  std::atomic<std::uint64_t> scope_peak[kMaxScopeDepth] = {};
};

// Constant-initialized (all atomics are zero-init), so accounting is safe
// from any point of static initialization onward.
Ledger g_ledger;

void cas_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void account_alloc(std::size_t bytes) noexcept {
  g_ledger.allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t live =
      g_ledger.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  cas_max(g_ledger.peak, live);
  const int depth = g_ledger.scope_depth.load(std::memory_order_relaxed);
  for (int i = 0; i < depth && i < kMaxScopeDepth; ++i) {
    cas_max(g_ledger.scope_peak[i], live);
  }
}

void account_free(std::size_t bytes) noexcept {
  g_ledger.frees.fetch_add(1, std::memory_order_relaxed);
  g_ledger.live.fetch_sub(bytes, std::memory_order_relaxed);
}

MemStats memory_stats() {
  return {g_ledger.live.load(std::memory_order_relaxed),
          g_ledger.peak.load(std::memory_order_relaxed),
          g_ledger.allocs.load(std::memory_order_relaxed),
          g_ledger.frees.load(std::memory_order_relaxed)};
}

void reset_memory_peak() {
  g_ledger.peak.store(g_ledger.live.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

void publish_memory_gauges() {
  struct Gauges {
    Gauge& live = MetricsRegistry::instance().gauge("tensor.mem.live_bytes");
    Gauge& peak = MetricsRegistry::instance().gauge("tensor.mem.peak_bytes");
    Gauge& allocs = MetricsRegistry::instance().gauge("tensor.mem.alloc_count");
    Gauge& frees = MetricsRegistry::instance().gauge("tensor.mem.free_count");
  };
  static Gauges gauges;
  const MemStats stats = memory_stats();
  gauges.live.set(static_cast<double>(stats.live_bytes));
  gauges.peak.set(static_cast<double>(stats.peak_bytes));
  gauges.allocs.set(static_cast<double>(stats.alloc_count));
  gauges.frees.set(static_cast<double>(stats.free_count));
}

MemPeakScope::MemPeakScope(std::uint64_t* out_peak) : out_(out_peak) {
  slot_ = g_ledger.scope_depth.fetch_add(1, std::memory_order_relaxed);
  if (slot_ < kMaxScopeDepth) {
    g_ledger.scope_peak[slot_].store(g_ledger.live.load(std::memory_order_relaxed),
                                     std::memory_order_relaxed);
  }
}

std::uint64_t MemPeakScope::peak_bytes() const {
  if (slot_ >= kMaxScopeDepth) return g_ledger.live.load(std::memory_order_relaxed);
  return g_ledger.scope_peak[slot_].load(std::memory_order_relaxed);
}

MemPeakScope::~MemPeakScope() {
  const std::uint64_t peak = peak_bytes();
  g_ledger.scope_depth.fetch_sub(1, std::memory_order_relaxed);
  if (out_ != nullptr && peak > *out_) *out_ = peak;
}

}  // namespace gtv::obs
