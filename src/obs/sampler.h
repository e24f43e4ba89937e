#pragma once

// Always-on statistical sampling profiler.
//
// Two signal-driven sample streams feed per-thread lock-free rings:
//
//   * on-CPU:  a process-CPU-time timer (timer_create(CLOCK_PROCESS_CPUTIME_ID),
//     the POSIX spelling of the classic CLOCK_PROF/ITIMER_PROF profiler clock)
//     delivers SIGPROF at cpu_hz ticks of *consumed CPU time*, so the signal
//     lands on whichever thread is actually burning cycles — a textbook
//     CPU-weighted sampler.
//
//   * off-CPU: a low-rate CLOCK_MONOTONIC sweep (driven from the aggregator
//     thread, which tgkills every task in /proc/self/task with SIGUSR2 — the
//     same fan-out the blackbox stack dumper uses) catches threads parked in
//     recv()/condvars. The handler compares the thread's CLOCK_THREAD_CPUTIME_ID
//     advance against wall-clock elapsed since its previous sweep tick: a
//     thread that consumed almost no CPU over the interval is blocked, and its
//     backtrace (pointing into read/poll/pthread_cond_wait) is recorded as an
//     off-CPU sample. Busy threads are skipped — SIGPROF already covers them.
//
// Each sample is tagged with the party's current round/phase read from the
// LiveStatus atomics. A background aggregator ("gtv-sampler") drains the rings
// every drain_interval_ms and folds samples by (thread, phase, state, PC
// vector); symbolization (dladdr + demangle, module+offset fallback from the
// mapping base) happens lazily at report time, never in signal context.
//
// See DESIGN.md §5f for the async-signal-safety argument and ring format.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gtv::obs::sampler {

// Hard caps sized for the static ring pool (all BSS, no allocation on the
// signal path). 40 frames × 8 bytes + tags ≈ 340 B/slot.
inline constexpr int kMaxSampleFrames = 40;
inline constexpr std::size_t kRingSlots = 64;   // per thread; drained every ~50 ms
inline constexpr std::size_t kMaxThreads = 64;  // beyond this: counted, dropped
inline constexpr std::uint32_t kFoldedFormatVersion = 1;

struct SamplerOptions {
  int cpu_hz = 97;             // SIGPROF rate over process CPU time (prime: avoids beats)
  int wall_hz = 13;            // off-CPU sweep rate over wall time
  int drain_interval_ms = 50;  // aggregator drain cadence
  int top_k = 5;               // hot entries surfaced into Snapshot frames
};

struct SamplerStats {
  std::uint64_t cpu_samples = 0;     // drained + folded on-CPU samples
  std::uint64_t offcpu_samples = 0;  // drained + folded off-CPU samples
  std::uint64_t wall_sweeps = 0;     // completed SIGUSR2 fan-outs
  std::uint64_t dropped = 0;         // ring-full + thread-pool-exhausted
  std::uint64_t threads_seen = 0;    // rings ever claimed
};

struct HotEntry {
  std::string frame;  // demangled leaf (self) function
  std::uint64_t samples = 0;
  bool on_cpu = true;
};

class Sampler {
 public:
  using Options = SamplerOptions;

  // Arms the process-wide sampler: installs the SIGPROF/SIGUSR2 handlers,
  // pre-warms glibc backtrace (it lazily dlopens libgcc — must happen outside
  // signal context), starts the timers and the aggregator thread. `round` /
  // `phase` may be nullptr (samples tagged 0). Phase tags print as
  // agg::Phase names (obs/snapshot.h). Re-arming after stop() resets
  // all counters and folded state. Returns the singleton; never destroyed
  // (signal handlers may race teardown), only disarmed.
  static Sampler* start_global(Options options,
                               const std::atomic<std::uint64_t>* round = nullptr,
                               const std::atomic<std::uint32_t>* phase = nullptr);

  // The armed instance, or nullptr when sampling is off / stopped.
  static Sampler* get();

  // Disarms timers, performs a final drain, joins the aggregator. Idempotent.
  // Folded state stays readable (folded()/top_hot()/stats()) after stop.
  void stop();

  bool running() const;
  SamplerStats stats() const;

  // Top-k hottest leaf functions by sample count across both states.
  std::vector<HotEntry> top_hot(std::size_t k) const;

  // Collapsed-stack report: '#'-prefixed metadata header, then one line per
  // unique stack, root-first, space + count last:
  //   <party>;<cpu|offcpu>;<phase>;<thread>;outer;...;leaf 42
  // Deterministic (sorted) for a given fold state.
  std::string folded(const std::string& party) const;
  bool write_folded(const std::string& path, const std::string& party) const;

 private:
  Sampler() = default;
  struct Impl;
  Impl* impl_ = nullptr;
};

// One PC -> display frame. Exported symbol via dladdr (demangled, truncated at
// the argument list) when available; else "module+0x<off>" relative to the
// mapping base (resolvable offline via addr2line); else raw "0x<pc>".
// `resolved` (optional) reports whether a symbol name was found.
std::string symbolize_pc(std::uintptr_t pc, bool* resolved = nullptr);

// True for symbolic frames — excludes "module+0x" and raw-hex fallbacks.
bool frame_is_resolved(const std::string& frame);

}  // namespace gtv::obs::sampler
