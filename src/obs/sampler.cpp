#include "obs/sampler.h"

#include <dirent.h>
#include <dlfcn.h>
#include <elf.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "obs/snapshot.h"
#include "obs/thread_name.h"

#if defined(__GLIBC__) && __has_include(<execinfo.h>)
#include <execinfo.h>
#define GTV_HAVE_BACKTRACE 1
#endif

namespace gtv::obs::sampler {

namespace {

// SIGUSR1 belongs to the blackbox stack dumper; the wall sweep takes SIGUSR2.
constexpr int kCpuSampleSignal = SIGPROF;
constexpr int kWallSampleSignal = SIGUSR2;

// --- static ring pool (BSS; the signal path never allocates) ----------------------

struct Slot {
  std::uint64_t round;
  std::uint32_t phase;
  std::uint16_t n_pcs;
  std::uint8_t on_cpu;
  void* pcs[kMaxSampleFrames];
};

// SPSC: the owning thread's signal handlers are the only writer (nesting is
// excluded by sa_mask blocking both sample signals), the aggregator is the
// only reader. head/tail are free-running u32 counters.
struct ThreadRing {
  std::atomic<std::uint32_t> head{0};
  std::atomic<std::uint32_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t tid = 0;
  char name[17] = {0};
  Slot slots[kRingSlots];
};

ThreadRing g_rings[kMaxThreads];
std::atomic<int> g_ring_count{0};
std::atomic<std::uint64_t> g_pool_exhausted{0};

// -1 = unclaimed, -2 = pool exhausted for this thread. initial-exec TLS in a
// statically linked TU — safe to touch from a signal handler (no lazy
// __tls_get_addr allocation path).
thread_local int tl_ring = -1;

// Wall-sweep baselines. Epoch bump on re-arm invalidates stale baselines so a
// restart cannot misread the idle gap as blocked time.
constexpr std::uint64_t kNoBaseline = ~std::uint64_t{0};
thread_local std::uint64_t tl_last_cpu_us = kNoBaseline;
thread_local std::uint64_t tl_last_wall_us = 0;
thread_local std::uint32_t tl_wall_epoch = 0;
// The sweep's last verdict for this thread. The CPU handler consults it so a
// process-directed SIGPROF that the kernel hands to a blocked thread (its
// sweep handler briefly put it on CPU, or delivery rotation just picked it)
// is not charged to that thread's parked stack.
thread_local bool tl_parked = false;

std::atomic<bool> g_armed{false};
std::atomic<std::uint32_t> g_epoch{1};
std::atomic<const std::atomic<std::uint64_t>*> g_round{nullptr};
std::atomic<const std::atomic<std::uint32_t>*> g_phase{nullptr};

inline std::uint64_t thread_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

inline std::uint64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

int capture_backtrace(void** frames, int max) {
#if defined(GTV_HAVE_BACKTRACE)
  return ::backtrace(frames, max);
#else
  (void)frames;
  (void)max;
  return 0;
#endif
}

// The PC the signal interrupted, straight from the kernel-saved context.
// Used to trim the handler's own frames off the captured backtrace.
void* interrupted_pc(void* ctx) {
#if defined(__x86_64__)
  if (ctx != nullptr) {
    return reinterpret_cast<void*>(
        static_cast<ucontext_t*>(ctx)->uc_mcontext.gregs[REG_RIP]);
  }
#elif defined(__aarch64__)
  if (ctx != nullptr) {
    return reinterpret_cast<void*>(static_cast<ucontext_t*>(ctx)->uc_mcontext.pc);
  }
#else
  (void)ctx;
#endif
  return nullptr;
}

// Async-signal-safe sample capture: claim a ring on first use, backtrace into
// the next slot, publish with a release store of head.
void record_sample(bool on_cpu, void* ctx) {
  int idx = tl_ring;
  if (idx == -1) {
    const int claimed = g_ring_count.fetch_add(1, std::memory_order_relaxed);
    if (claimed >= static_cast<int>(kMaxThreads)) {
      tl_ring = -2;
      g_pool_exhausted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ThreadRing& ring = g_rings[claimed];
    ring.tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
    // prctl(PR_GET_NAME) is a plain syscall — safe here, unlike
    // pthread_getname_np's /proc read on some libcs.
    if (::prctl(PR_GET_NAME, ring.name, 0, 0, 0) != 0) ring.name[0] = '\0';
    ring.name[16] = '\0';
    tl_ring = claimed;
    idx = claimed;
  }
  if (idx < 0) {
    g_pool_exhausted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadRing& ring = g_rings[idx];
  const std::uint32_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint32_t tail = ring.tail.load(std::memory_order_acquire);
  if (head - tail >= kRingSlots) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = ring.slots[head % kRingSlots];

  void* frames[kMaxSampleFrames + 8];
  const int n = capture_backtrace(frames, kMaxSampleFrames + 8);
  // Drop our own handler frames: everything above the interrupted PC.
  int start = 0;
  void* hit = interrupted_pc(ctx);
  if (hit != nullptr) {
    for (int i = 0; i < n && i < 8; ++i) {
      if (frames[i] == hit) {
        start = i;
        break;
      }
    }
  }
  int kept = n - start;
  if (kept < 0) kept = 0;
  if (kept > kMaxSampleFrames) kept = kMaxSampleFrames;
  for (int i = 0; i < kept; ++i) slot.pcs[i] = frames[start + i];

  const std::atomic<std::uint64_t>* round = g_round.load(std::memory_order_relaxed);
  const std::atomic<std::uint32_t>* phase = g_phase.load(std::memory_order_relaxed);
  slot.round = round != nullptr ? round->load(std::memory_order_relaxed) : 0;
  slot.phase = phase != nullptr ? phase->load(std::memory_order_relaxed) : 0;
  slot.n_pcs = static_cast<std::uint16_t>(kept);
  slot.on_cpu = on_cpu ? 1 : 0;
  ring.head.store(head + 1, std::memory_order_release);
}

void cpu_sample_handler(int, siginfo_t*, void* ctx) {
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    // The process-CPU timer signal is process-directed: the kernel usually
    // picks the thread that advanced the clock, but its delivery rotation
    // can also wake a thread parked in read()/poll(), which would charge
    // another thread's CPU tick to a blocked stack. Reuse the wall sweep's
    // baselines to drop ticks landing on threads whose own CPU clock is not
    // moving (no baseline yet: treat a thread with <1ms of lifetime CPU as
    // parked — a genuinely busy thread crosses that within a millisecond).
    const std::uint64_t cpu = thread_cpu_us();
    bool parked;
    if (tl_last_cpu_us == kNoBaseline ||
        tl_wall_epoch != g_epoch.load(std::memory_order_relaxed)) {
      // No sweep baseline yet: a thread with under 1 ms of lifetime CPU has
      // never really run — a genuinely busy thread crosses that instantly.
      parked = cpu < 1000;
    } else {
      // Trust the sweep's verdict until the thread proves it woke up by
      // burning a full millisecond past the baseline. The sweep handler
      // itself costs only tens of microseconds, so a parked thread never
      // crosses this threshold, while a thread that resumed real work does
      // within one tick.
      parked = tl_parked && cpu - tl_last_cpu_us < 1000;
    }
    if (!parked) record_sample(true, ctx);
  }
  errno = saved_errno;
}

// Wall-sweep handler: decide blocked vs running from this thread's own CPU
// clock advance since the previous sweep tick. A busy thread advances its
// CPU clock at ~wall rate and is skipped (SIGPROF covers it); a thread parked
// in read()/poll()/pthread_cond_wait advances ~0 and gets an off-CPU sample
// whose backtrace points into the blocking call.
void wall_sample_handler(int, siginfo_t*, void* ctx) {
  const int saved_errno = errno;
  if (g_armed.load(std::memory_order_relaxed)) {
    const std::uint64_t cpu = thread_cpu_us();
    const std::uint64_t wall = mono_us();
    const std::uint32_t epoch = g_epoch.load(std::memory_order_relaxed);
    const bool fresh = tl_last_cpu_us == kNoBaseline || tl_wall_epoch != epoch;
    const std::uint64_t cpu_delta = cpu - tl_last_cpu_us;
    const std::uint64_t wall_delta = wall - tl_last_wall_us;
    tl_last_cpu_us = cpu;
    tl_last_wall_us = wall;
    tl_wall_epoch = epoch;
    if (fresh) {
      tl_parked = cpu < 1000;  // lifetime-CPU guess until a real window exists
    } else if (wall_delta >= 1000) {
      tl_parked = cpu_delta * 2 < wall_delta;
    }
    // >=1ms of wall elapsed and under half of it on CPU -> blocked.
    if (!fresh && wall_delta >= 1000 && cpu_delta * 2 < wall_delta) {
      record_sample(false, ctx);
    }
  }
  errno = saved_errno;
}

void install_sample_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa{};
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  // Block both sample signals while either handler runs: a nested writer
  // would break the ring's single-producer invariant.
  sigemptyset(&sa.sa_mask);
  sigaddset(&sa.sa_mask, kCpuSampleSignal);
  sigaddset(&sa.sa_mask, kWallSampleSignal);
  sa.sa_sigaction = cpu_sample_handler;
  ::sigaction(kCpuSampleSignal, &sa, nullptr);
  sa.sa_sigaction = wall_sample_handler;
  ::sigaction(kWallSampleSignal, &sa, nullptr);
}

// --- symbolization (ordinary context only) ----------------------------------------

void sanitize_frame(std::string& name) {
  for (char& c : name) {
    if (c == ';') c = ':';
  }
  name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
  if (name.empty()) name.assign(1, '?');
}

void strip_arguments(std::string& name) {
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] != '(') continue;
    if (i >= 8 && name.compare(i - 8, 8, "operator") == 0) continue;  // operator()
    // "(anonymous namespace)::f" — this '(' opens a scope, not an arg list.
    if (name.compare(i + 1, 9, "anonymous") == 0) continue;
    name.resize(i);
    break;
  }
}

// --- ELF .symtab fallback ---------------------------------------------------------
// dladdr consults only .dynsym, so static functions and lambda bodies (local
// symbols) come back nameless even though the unstripped binary knows them.
// Parse the module's full .symtab once and binary-search it for those pcs.
// This runs only on the report path (aggregator drain / folded()), never in a
// signal handler, so file IO and allocation are fine here.

struct ModuleSymtab {
  bool et_exec = false;  // ET_EXEC symbols carry absolute addresses
  // (start, end, name), sorted by start. end==start means unknown size.
  std::vector<std::tuple<std::uintptr_t, std::uintptr_t, std::string>> funcs;
};

ModuleSymtab load_symtab(const char* path) {
  ModuleSymtab table;
  std::ifstream in(path, std::ios::binary);
  if (!in) return table;
  Elf64_Ehdr ehdr{};
  if (!in.read(reinterpret_cast<char*>(&ehdr), sizeof ehdr)) return table;
  if (std::memcmp(ehdr.e_ident, ELFMAG, SELFMAG) != 0 ||
      ehdr.e_ident[EI_CLASS] != ELFCLASS64 || ehdr.e_shentsize != sizeof(Elf64_Shdr)) {
    return table;
  }
  table.et_exec = ehdr.e_type == ET_EXEC;
  std::vector<Elf64_Shdr> shdrs(ehdr.e_shnum);
  in.seekg(static_cast<std::streamoff>(ehdr.e_shoff));
  if (!in.read(reinterpret_cast<char*>(shdrs.data()),
               static_cast<std::streamsize>(shdrs.size() * sizeof(Elf64_Shdr)))) {
    return table;
  }
  for (const Elf64_Shdr& sh : shdrs) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= shdrs.size() ||
        sh.sh_entsize != sizeof(Elf64_Sym)) {
      continue;
    }
    std::vector<Elf64_Sym> syms(sh.sh_size / sizeof(Elf64_Sym));
    in.seekg(static_cast<std::streamoff>(sh.sh_offset));
    if (!in.read(reinterpret_cast<char*>(syms.data()),
                 static_cast<std::streamsize>(sh.sh_size))) {
      continue;
    }
    const Elf64_Shdr& str = shdrs[sh.sh_link];
    std::string strtab(str.sh_size, '\0');
    in.seekg(static_cast<std::streamoff>(str.sh_offset));
    if (!in.read(strtab.data(), static_cast<std::streamsize>(str.sh_size))) continue;
    for (const Elf64_Sym& sym : syms) {
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0) continue;
      if (sym.st_name >= strtab.size() || strtab[sym.st_name] == '\0') continue;
      table.funcs.emplace_back(sym.st_value, sym.st_value + sym.st_size,
                               strtab.c_str() + sym.st_name);
    }
  }
  std::sort(table.funcs.begin(), table.funcs.end());
  return table;
}

// Returns the mangled name covering module-relative (or absolute, for
// ET_EXEC) address `addr`, or nullptr. Cache key is the module path.
const char* symtab_lookup(const char* path, std::uintptr_t fbase, std::uintptr_t pc) {
  static std::mutex mu;
  static std::map<std::string, ModuleSymtab> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache.try_emplace(path);
  if (inserted) it->second = load_symtab(path);
  const ModuleSymtab& table = it->second;
  if (table.funcs.empty()) return nullptr;
  const std::uintptr_t addr = table.et_exec ? pc : pc - fbase;
  auto pos = std::upper_bound(
      table.funcs.begin(), table.funcs.end(), addr,
      [](std::uintptr_t a, const auto& entry) { return a < std::get<0>(entry); });
  if (pos == table.funcs.begin()) return nullptr;
  --pos;
  const auto& [start, end, name] = *pos;
  // Accept zero-size symbols (hand-written asm) only within a short window.
  if (addr >= (end > start ? end : start + 4096)) return nullptr;
  return name.c_str();
}

std::string demangled_frame(const char* mangled) {
  int status = 0;
  char* dem = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = (status == 0 && dem != nullptr) ? dem : mangled;
  std::free(dem);
  strip_arguments(name);
  sanitize_frame(name);
  return name;
}

std::atomic<Sampler*> g_instance{nullptr};

}  // namespace

std::string symbolize_pc(std::uintptr_t pc, bool* resolved) {
  if (resolved != nullptr) *resolved = false;
  Dl_info info{};
  if (::dladdr(reinterpret_cast<void*>(pc), &info) != 0) {
    if (info.dli_sname != nullptr) {
      if (resolved != nullptr) *resolved = true;
      return demangled_frame(info.dli_sname);
    }
    if (info.dli_fname != nullptr && info.dli_fbase != nullptr) {
      // No dynamic symbol covers this pc — typical for static functions and
      // lambda bodies. The module's full .symtab usually still has it.
      const std::uintptr_t fbase = reinterpret_cast<std::uintptr_t>(info.dli_fbase);
      if (const char* sym = symtab_lookup(info.dli_fname, fbase, pc)) {
        if (resolved != nullptr) *resolved = true;
        return demangled_frame(sym);
      }
      const char* slash = std::strrchr(info.dli_fname, '/');
      const char* base = slash != nullptr ? slash + 1 : info.dli_fname;
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s+0x%llx", base,
                    static_cast<unsigned long long>(pc - fbase));
      std::string name(buf);
      sanitize_frame(name);
      return name;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(pc));
  return buf;
}

bool frame_is_resolved(const std::string& frame) {
  if (frame.rfind("0x", 0) == 0) return false;
  return frame.find("+0x") == std::string::npos;
}

// --- Sampler ----------------------------------------------------------------------

struct Sampler::Impl {
  struct FoldKey {
    std::string thread;
    std::uint32_t phase = 0;
    bool on_cpu = true;
    std::vector<std::uintptr_t> pcs;  // leaf-first, as captured
    bool operator<(const FoldKey& o) const {
      if (on_cpu != o.on_cpu) return on_cpu && !o.on_cpu;  // cpu sorts first
      if (phase != o.phase) return phase < o.phase;
      if (thread != o.thread) return thread < o.thread;
      return pcs < o.pcs;
    }
  };

  Options options;
  mutable std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  bool running = false;
  std::thread agg_thread;
  std::map<FoldKey, std::uint64_t> counts;
  std::uint64_t cpu_samples = 0;
  std::uint64_t offcpu_samples = 0;
  std::uint64_t wall_sweeps = 0;
  mutable std::unordered_map<std::uintptr_t, std::pair<std::string, bool>> symcache;
  timer_t cpu_timer{};
  bool cpu_timer_ok = false;
  bool itimer_fallback = false;
  std::uint64_t agg_tid = 0;

  // Everything below runs on the aggregator thread or under mu — never in
  // signal context.

  void drain_locked() {
    int n = g_ring_count.load(std::memory_order_relaxed);
    if (n > static_cast<int>(kMaxThreads)) n = static_cast<int>(kMaxThreads);
    for (int i = 0; i < n; ++i) {
      ThreadRing& ring = g_rings[i];
      const std::uint32_t head = ring.head.load(std::memory_order_acquire);
      std::uint32_t tail = ring.tail.load(std::memory_order_relaxed);
      while (tail != head) {
        const Slot& slot = ring.slots[tail % kRingSlots];
        FoldKey key;
        key.thread.assign(ring.name[0] != '\0' ? ring.name : "anon");
        key.phase = slot.phase;
        key.on_cpu = slot.on_cpu != 0;
        key.pcs.reserve(slot.n_pcs);
        for (int f = 0; f < slot.n_pcs; ++f) {
          key.pcs.push_back(reinterpret_cast<std::uintptr_t>(slot.pcs[f]));
        }
        ++counts[key];
        if (key.on_cpu) {
          ++cpu_samples;
        } else {
          ++offcpu_samples;
        }
        ++tail;
      }
      ring.tail.store(tail, std::memory_order_release);
    }
  }

  void wall_sweep() {
    DIR* dir = ::opendir("/proc/self/task");
    if (dir == nullptr) return;
    const pid_t pid = ::getpid();
    while (dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const long tid = std::strtol(entry->d_name, nullptr, 10);
      if (tid <= 0) continue;
      if (static_cast<std::uint64_t>(tid) == agg_tid) continue;  // not ourselves
      ::syscall(SYS_tgkill, pid, static_cast<pid_t>(tid), kWallSampleSignal);
    }
    ::closedir(dir);
    ++wall_sweeps;
  }

  void aggregator_loop() {
    set_current_thread_name("gtv-sampler");
    agg_tid = static_cast<std::uint64_t>(::syscall(SYS_gettid));
    const auto wall_period = std::chrono::microseconds(
        options.wall_hz > 0 ? 1000000 / options.wall_hz : 0);
    auto tick = std::chrono::milliseconds(options.drain_interval_ms);
    if (options.wall_hz > 0 && wall_period < tick) {
      tick = std::chrono::duration_cast<std::chrono::milliseconds>(wall_period);
      if (tick.count() < 1) tick = std::chrono::milliseconds(1);
    }
    auto next_wall = std::chrono::steady_clock::now() + wall_period;
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      cv.wait_for(lock, tick, [this] { return stopping; });
      if (stopping) break;
      if (options.wall_hz > 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= next_wall) {
          lock.unlock();
          wall_sweep();
          lock.lock();
          // Skip missed periods instead of bursting: back-to-back sweeps
          // would leave no wall interval for the blocked-vs-busy test.
          next_wall = now + wall_period;
        }
      }
      drain_locked();
    }
  }

  const std::string& symbolize_cached(std::uintptr_t pc, bool leaf, bool* resolved) const {
    // Non-leaf frames are return addresses: look up pc-1 so the call site's
    // own function wins, not whatever happens to start at the return address.
    const std::uintptr_t lookup = leaf ? pc : pc - 1;
    auto it = symcache.find(lookup);
    if (it == symcache.end()) {
      bool ok = false;
      std::string name = symbolize_pc(lookup, &ok);
      it = symcache.emplace(lookup, std::make_pair(std::move(name), ok)).first;
    }
    if (resolved != nullptr) *resolved = it->second.second;
    return it->second.first;
  }
};

Sampler* Sampler::start_global(Options options,
                               const std::atomic<std::uint64_t>* round,
                               const std::atomic<std::uint32_t>* phase) {
  static Sampler* singleton = nullptr;
  static std::mutex start_mu;
  std::lock_guard<std::mutex> start_lock(start_mu);
  if (singleton == nullptr) {
    singleton = new Sampler();  // leaked: handlers may race any teardown
    singleton->impl_ = new Impl();
  }
  Impl* impl = singleton->impl_;
  {
    std::lock_guard<std::mutex> lock(impl->mu);
    if (impl->running) return singleton;
    impl->options = options;
    impl->counts.clear();
    impl->symcache.clear();
    impl->cpu_samples = 0;
    impl->offcpu_samples = 0;
    impl->wall_sweeps = 0;
    impl->stopping = false;
  }
  const int n = g_ring_count.load(std::memory_order_relaxed);
  for (int i = 0; i < n && i < static_cast<int>(kMaxThreads); ++i) {
    g_rings[i].dropped.store(0, std::memory_order_relaxed);
  }
  g_pool_exhausted.store(0, std::memory_order_relaxed);
  g_round.store(round, std::memory_order_relaxed);
  g_phase.store(phase, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);

#if defined(GTV_HAVE_BACKTRACE)
  // Same warm-up the blackbox crash handlers do: glibc backtrace lazily
  // dlopens libgcc (malloc + dlopen) on first use — force that outside
  // signal context before any timer can fire.
  void* warm[4];
  ::backtrace(warm, 4);
#endif
  install_sample_handlers();

  impl->agg_thread = std::thread([impl] { impl->aggregator_loop(); });
  g_armed.store(true, std::memory_order_release);

  if (options.cpu_hz > 0) {
    const long long period_ns = 1000000000LL / options.cpu_hz;
    sigevent sev{};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = kCpuSampleSignal;
    impl->cpu_timer_ok =
        ::timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &impl->cpu_timer) == 0;
    if (impl->cpu_timer_ok) {
      itimerspec its{};
      its.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000LL);
      its.it_interval.tv_nsec = static_cast<long>(period_ns % 1000000000LL);
      its.it_value = its.it_interval;
      ::timer_settime(impl->cpu_timer, 0, &its, nullptr);
    } else {
      // Pre-POSIX-timer spelling of the same clock.
      itimerval itv{};
      itv.it_interval.tv_sec = static_cast<time_t>(period_ns / 1000000000LL);
      itv.it_interval.tv_usec = static_cast<suseconds_t>((period_ns / 1000) % 1000000);
      itv.it_value = itv.it_interval;
      impl->itimer_fallback = ::setitimer(ITIMER_PROF, &itv, nullptr) == 0;
    }
  }

  {
    std::lock_guard<std::mutex> lock(impl->mu);
    impl->running = true;
  }
  g_instance.store(singleton, std::memory_order_release);
  return singleton;
}

Sampler* Sampler::get() {
  Sampler* s = g_instance.load(std::memory_order_acquire);
  if (s == nullptr || !s->running()) return nullptr;
  return s;
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->running) return;
  }
  // Disarm first: a timer signal in flight after this point records nothing.
  g_armed.store(false, std::memory_order_release);
  if (impl_->cpu_timer_ok) {
    ::timer_delete(impl_->cpu_timer);
    impl_->cpu_timer_ok = false;
  }
  if (impl_->itimer_fallback) {
    itimerval off{};
    ::setitimer(ITIMER_PROF, &off, nullptr);
    impl_->itimer_fallback = false;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->agg_thread.joinable()) impl_->agg_thread.join();
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->drain_locked();  // samples published before disarm
  impl_->running = false;
}

bool Sampler::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->running;
}

SamplerStats Sampler::stats() const {
  SamplerStats out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  out.cpu_samples = impl_->cpu_samples;
  out.offcpu_samples = impl_->offcpu_samples;
  out.wall_sweeps = impl_->wall_sweeps;
  int n = g_ring_count.load(std::memory_order_relaxed);
  if (n > static_cast<int>(kMaxThreads)) n = static_cast<int>(kMaxThreads);
  out.threads_seen = static_cast<std::uint64_t>(n);
  out.dropped = g_pool_exhausted.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    out.dropped += g_rings[i].dropped.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<HotEntry> Sampler::top_hot(std::size_t k) const {
  std::map<std::pair<std::string, bool>, std::uint64_t> by_leaf;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& [key, count] : impl_->counts) {
      if (key.pcs.empty()) continue;
      const std::string& leaf = impl_->symbolize_cached(key.pcs[0], true, nullptr);
      by_leaf[{leaf, key.on_cpu}] += count;
    }
  }
  std::vector<HotEntry> entries;
  entries.reserve(by_leaf.size());
  for (const auto& [leaf, count] : by_leaf) {
    entries.push_back(HotEntry{leaf.first, count, leaf.second});
  }
  std::sort(entries.begin(), entries.end(), [](const HotEntry& a, const HotEntry& b) {
    if (a.samples != b.samples) return a.samples > b.samples;
    if (a.frame != b.frame) return a.frame < b.frame;
    return a.on_cpu && !b.on_cpu;
  });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

namespace {

// Every stack roots in bootstrap scaffolding that stripped system libraries
// cannot symbolize: __libc_start_call_main sits between __libc_start_main and
// main, and thread stacks bottom out in clone3 / start_thread / the libstdc++
// std::thread trampoline — none exported via .dynsym, so they fold as
// "libc.so.6+0x...". Those frames attribute no time and the folded line
// already names the thread, so root the stack at main (when present) or at
// the first resolvable frame instead of carrying the noise into every line.
void trim_bootstrap_root(std::vector<std::string>& frames) {
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i] == "main") {
      frames.erase(frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  std::size_t cut = 0;
  while (cut + 1 < frames.size() && !frame_is_resolved(frames[cut])) ++cut;
  frames.erase(frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(cut));
}

}  // namespace

std::string Sampler::folded(const std::string& party) const {
  std::string clean_party = party.empty() ? "party" : party;
  sanitize_frame(clean_party);
  std::map<std::string, std::uint64_t> lines;
  SamplerStats st = stats();
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [key, count] : impl_->counts) {
    std::string line = clean_party;
    line += ';';
    line += key.on_cpu ? "cpu" : "offcpu";
    line += ';';
    line += agg::to_string(static_cast<agg::Phase>(key.phase));
    line += ';';
    line += key.thread;
    // Root-first: captured leaf-first, emit reversed.
    std::vector<std::string> frames;
    frames.reserve(key.pcs.size());
    for (std::size_t i = key.pcs.size(); i-- > 0;) {
      frames.push_back(impl_->symbolize_cached(key.pcs[i], i == 0, nullptr));
    }
    trim_bootstrap_root(frames);
    for (const std::string& frame : frames) {
      line += ';';
      line += frame;
    }
    lines[line] += count;
  }
  std::string out;
  out += "# gtv-folded " + std::to_string(kFoldedFormatVersion) + "\n";
  out += "# party " + clean_party + "\n";
  out += "# cpu_hz " + std::to_string(impl_->options.cpu_hz) + "\n";
  out += "# wall_hz " + std::to_string(impl_->options.wall_hz) + "\n";
  out += "# cpu_samples " + std::to_string(st.cpu_samples) + "\n";
  out += "# offcpu_samples " + std::to_string(st.offcpu_samples) + "\n";
  out += "# wall_sweeps " + std::to_string(st.wall_sweeps) + "\n";
  out += "# dropped " + std::to_string(st.dropped) + "\n";
  out += "# threads " + std::to_string(st.threads_seen) + "\n";
  for (const auto& [line, count] : lines) {
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

bool Sampler::write_folded(const std::string& path, const std::string& party) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << folded(party);
  return static_cast<bool>(out);
}

}  // namespace gtv::obs::sampler
