#include "obs/blackbox.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/thread_name.h"
#include "obs/trace.h"
#include "tensor/bytes.h"

#if defined(__GLIBC__) && __has_include(<execinfo.h>)
#include <execinfo.h>
#define GTV_HAVE_BACKTRACE 1
#endif

namespace gtv::obs::bb {

namespace {

// CRC over a fully-assembled frame: bytes [4,12) + [16,32) + payload (the
// CRC field itself at [12,16) is excluded).
std::uint32_t frame_crc(const std::uint8_t* frame, std::size_t payload_len) {
  std::uint32_t c = bytes::crc32(frame + 4, 8);
  c = bytes::crc32(frame + 16, 16, c);
  return bytes::crc32(frame + kRecordHeaderBytes, payload_len, c);
}

// string field: u16 length + raw bytes. Returns bytes consumed, 0 = no fit.
std::size_t put_str(std::uint8_t* buf, std::size_t cap, const char* s, std::size_t len) {
  if (len > 0xffff || 2 + len > cap) return 0;
  bytes::store_u16(buf, static_cast<std::uint16_t>(len));
  std::memcpy(buf + 2, s, len);
  return 2 + len;
}

// The u16-length string field put_str writes.
std::string read_str(bytes::Reader& r) { return r.chars(r.u16("string length"), "string"); }

// PC-list payloads (crash / thread stack) share one raw encoder so the
// signal handlers can build them without constructing the structs (whose
// std::vector member would allocate).
std::size_t encode_crash_raw(std::uint8_t* buf, std::size_t cap, std::uint32_t sig,
                             std::uint64_t addr, void* const* frames, int n) {
  if (n < 0) n = 0;
  std::size_t need = 16 + static_cast<std::size_t>(n) * 8;
  while (need > cap && n > 0) {
    --n;
    need -= 8;
  }
  if (need > cap) return 0;
  bytes::store_u32(buf, sig);
  bytes::store_u32(buf + 4, static_cast<std::uint32_t>(n));
  bytes::store_u64(buf + 8, addr);
  for (int i = 0; i < n; ++i) {
    bytes::store_u64(buf + 16 + 8 * static_cast<std::size_t>(i),
            reinterpret_cast<std::uint64_t>(frames[i]));
  }
  return need;
}

std::size_t encode_stack_raw(std::uint8_t* buf, std::size_t cap, std::uint64_t tid,
                             void* const* frames, int n) {
  if (n < 0) n = 0;
  std::size_t need = 16 + static_cast<std::size_t>(n) * 8;
  while (need > cap && n > 0) {
    --n;
    need -= 8;
  }
  if (need > cap) return 0;
  bytes::store_u64(buf, tid);
  bytes::store_u32(buf + 8, static_cast<std::uint32_t>(n));
  bytes::store_u32(buf + 12, 0);
  for (int i = 0; i < n; ++i) {
    bytes::store_u64(buf + 16 + 8 * static_cast<std::size_t>(i),
            reinterpret_cast<std::uint64_t>(frames[i]));
  }
  return need;
}

std::vector<std::uint64_t> read_pcs(bytes::Reader& r, std::uint32_t n) {
  const std::uint8_t* p = r.raw(std::size_t{n} * 8, "pc list");
  std::vector<std::uint64_t> pcs(n);
  for (std::uint32_t i = 0; i < n; ++i) pcs[i] = bytes::get_u64(p + 8 * i);
  return pcs;
}

std::atomic<BlackBox*> g_box{nullptr};

// Re-entrancy latch: a crash inside the crash handler must fall straight
// through to the re-raise, not recurse into the recorder.
std::atomic<int> g_crash_depth{0};

constexpr int kStackDumpSignal = SIGUSR1;
constexpr int kMaxBacktraceFrames = 48;

int capture_backtrace(void** frames, int max) {
#if defined(GTV_HAVE_BACKTRACE)
  return ::backtrace(frames, max);
#else
  (void)frames;
  (void)max;
  return 0;
#endif
}

void crash_handler(int sig, siginfo_t* info, void*) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box != nullptr && g_crash_depth.fetch_add(1, std::memory_order_relaxed) == 0) {
    void* frames[kMaxBacktraceFrames];
    const int n = capture_backtrace(frames, kMaxBacktraceFrames);
    const std::uint64_t addr =
        info != nullptr ? reinterpret_cast<std::uint64_t>(info->si_addr) : 0;
    std::uint8_t buf[kMaxRecordPayload];
    const std::size_t len = encode_crash_raw(buf, sizeof(buf),
                                             static_cast<std::uint32_t>(sig), addr,
                                             frames, n);
    box->append(RecordType::kCrash, buf, len);
    box->sync();
  }
  // Die with the correct wait status: restore the default disposition and
  // re-raise. For a genuine fault the pending signal (blocked while this
  // handler runs) is redelivered on return with the default action.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void stack_dump_handler(int, siginfo_t*, void*) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  void* frames[kMaxBacktraceFrames];
  const int n = capture_backtrace(frames, kMaxBacktraceFrames);
  const std::uint64_t tid =
      static_cast<std::uint64_t>(::syscall(SYS_gettid));
  std::uint8_t buf[kMaxRecordPayload];
  const std::size_t len = encode_stack_raw(buf, sizeof(buf), tid, frames, n);
  box->append(RecordType::kThreadStack, buf, len);
}

// Signals every thread in this process to append its backtrace, then gives
// the handlers a beat to run. Called from the watchdog thread (ordinary
// context — readdir is fine here).
void dump_all_thread_stacks() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    // No /proc (non-Linux): dump at least the calling thread.
    ::raise(kStackDumpSignal);
    return;
  }
  const pid_t pid = ::getpid();
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    if (tid <= 0) continue;
    ::syscall(SYS_tgkill, pid, static_cast<pid_t>(tid), kStackDumpSignal);
  }
  ::closedir(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

std::uint64_t wall_clock_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

}  // namespace

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kRunHeader: return "run_header";
    case RecordType::kPhase: return "phase";
    case RecordType::kLoss: return "loss";
    case RecordType::kAlert: return "alert";
    case RecordType::kNetEvent: return "net_event";
    case RecordType::kStall: return "stall";
    case RecordType::kThreadStack: return "thread_stack";
    case RecordType::kCrash: return "crash";
    case RecordType::kShutdown: return "shutdown";
  }
  return "unknown";
}

const char* to_string(NetEvent kind) {
  switch (kind) {
    case NetEvent::kRetry: return "retry";
    case NetEvent::kTimeout: return "timeout";
    case NetEvent::kCorruptFrame: return "corrupt_frame";
    case NetEvent::kConnect: return "connect";
    case NetEvent::kAccept: return "accept";
    case NetEvent::kDisconnect: return "disconnect";
  }
  return "unknown";
}

// --- typed payload codecs ---------------------------------------------------------

std::size_t RunHeaderRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 40) return 0;
  bytes::store_u64(buf, n_clients);
  bytes::store_u64(buf + 8, rounds);
  bytes::store_u64(buf + 16, seed);
  bytes::store_u64(buf + 24, wall_us);
  bytes::store_u64(buf + 32, pid);
  const std::size_t s = put_str(buf + 40, cap - 40, party.data(), party.size());
  return s == 0 ? 0 : 40 + s;
}

RunHeaderRecord RunHeaderRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox run header");
  RunHeaderRecord r;
  r.n_clients = in.u64("n_clients");
  r.rounds = in.u64("rounds");
  r.seed = in.u64("seed");
  r.wall_us = in.u64("wall_us");
  r.pid = in.u64("pid");
  r.party = read_str(in);
  return r;
}

std::size_t PhaseRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 12) return 0;
  bytes::store_u64(buf, round);
  bytes::store_u32(buf + 8, phase);
  return 12;
}

PhaseRecord PhaseRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox phase record");
  return PhaseRecord{in.u64("round"), in.u32("phase")};
}

std::size_t LossRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 24) return 0;
  bytes::store_u64(buf, round);
  bytes::store_f32(buf + 8, d_loss);
  bytes::store_f32(buf + 12, g_loss);
  bytes::store_f32(buf + 16, gp);
  bytes::store_f32(buf + 20, wasserstein);
  return 24;
}

LossRecord LossRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox loss record");
  return LossRecord{in.u64("round"), in.f32("d_loss"), in.f32("g_loss"), in.f32("gp"),
                    in.f32("wasserstein")};
}

std::size_t AlertRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 12) return 0;
  bytes::store_u32(buf, severity);
  bytes::store_u64(buf + 4, round);
  const std::size_t s = put_str(buf + 12, cap - 12, rule.data(), rule.size());
  return s == 0 ? 0 : 12 + s;
}

AlertRecord AlertRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox alert record");
  AlertRecord r;
  r.severity = in.u32("severity");
  r.round = in.u64("round");
  r.rule = read_str(in);
  return r;
}

std::size_t NetEventRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 4) return 0;
  bytes::store_u32(buf, static_cast<std::uint32_t>(kind));
  const std::size_t s = put_str(buf + 4, cap - 4, link.data(), link.size());
  return s == 0 ? 0 : 4 + s;
}

NetEventRecord NetEventRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox net event record");
  NetEventRecord r;
  r.kind = static_cast<NetEvent>(in.u32("kind"));
  r.link = read_str(in);
  return r;
}

std::size_t StallRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 20) return 0;
  bytes::store_u64(buf, stalled_ms);
  bytes::store_u64(buf + 8, round);
  bytes::store_u32(buf + 16, phase);
  return 20;
}

StallRecord StallRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox stall record");
  return StallRecord{in.u64("stalled_ms"), in.u64("round"), in.u32("phase")};
}

std::size_t ThreadStackRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  std::vector<void*> frames(pcs.size());
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    frames[i] = reinterpret_cast<void*>(pcs[i]);
  }
  return encode_stack_raw(buf, cap, tid, frames.data(), static_cast<int>(frames.size()));
}

ThreadStackRecord ThreadStackRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox thread stack record");
  ThreadStackRecord r;
  r.tid = in.u64("tid");
  const std::uint32_t n = in.u32("pc count");
  in.u32("padding");
  r.pcs = read_pcs(in, n);
  return r;
}

std::size_t CrashRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  std::vector<void*> frames(pcs.size());
  for (std::size_t i = 0; i < pcs.size(); ++i) {
    frames[i] = reinterpret_cast<void*>(pcs[i]);
  }
  return encode_crash_raw(buf, cap, signal, fault_addr, frames.data(),
                          static_cast<int>(frames.size()));
}

CrashRecord CrashRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox crash record");
  CrashRecord r;
  r.signal = in.u32("signal");
  const std::uint32_t n = in.u32("pc count");
  r.fault_addr = in.u64("fault address");
  r.pcs = read_pcs(in, n);
  return r;
}

std::size_t ShutdownRecord::encode(std::uint8_t* buf, std::size_t cap) const {
  if (cap < 4) return 0;
  bytes::store_u32(buf, code);
  const std::size_t s = put_str(buf + 4, cap - 4, reason.data(), reason.size());
  return s == 0 ? 0 : 4 + s;
}

ShutdownRecord ShutdownRecord::decode(const std::uint8_t* p, std::size_t len) {
  bytes::Reader in(p, len, "blackbox shutdown record");
  ShutdownRecord r;
  r.code = in.u32("code");
  r.reason = read_str(in);
  return r;
}

// --- BlackBox ---------------------------------------------------------------------

BlackBox::BlackBox(const std::string& path, const RunHeaderRecord& header,
                   Options options)
    : path_(path) {
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "mapped-header atomics must be lock-free for signal safety");
  capacity_ = options.capacity_bytes < kMinRingCapacity ? kMinRingCapacity
                                                        : options.capacity_bytes;
  capacity_ = (capacity_ + 7) & ~std::size_t{7};
  map_len_ = kRingHeaderBytes + capacity_;

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("blackbox: cannot create " + path);
  if (::ftruncate(fd, static_cast<off_t>(map_len_)) != 0) {
    ::close(fd);
    throw std::runtime_error("blackbox: cannot size " + path);
  }
  void* m = ::mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED) throw std::runtime_error("blackbox: mmap failed for " + path);
  map_ = static_cast<std::uint8_t*>(m);
  ring_ = map_ + kRingHeaderBytes;

  bytes::store_u64(map_, kFileMagic);
  bytes::store_u32(map_ + 8, kRingFormatVersion);
  bytes::store_u32(map_ + 12, static_cast<std::uint32_t>(kRingHeaderBytes));
  bytes::store_u64(map_ + 16, capacity_);
  cursor_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 24);
  written_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 32);
  dropped_ = reinterpret_cast<std::atomic<std::uint64_t>*>(map_ + 40);
  cursor_->store(0, std::memory_order_relaxed);
  written_->store(0, std::memory_order_relaxed);
  dropped_->store(0, std::memory_order_relaxed);

  // First record: who we are. Filling wall_us here also primes
  // TraceSink::now_us()'s epoch before any signal handler can need it.
  RunHeaderRecord run = header;
  if (run.wall_us == 0) run.wall_us = wall_clock_us();
  if (run.pid == 0) run.pid = static_cast<std::uint64_t>(::getpid());
  std::uint8_t buf[kMaxRecordPayload];
  const std::size_t len = run.encode(buf, sizeof(buf));
  append(RecordType::kRunHeader, buf, len);
}

BlackBox::~BlackBox() {
  if (map_ != nullptr) {
    ::msync(map_, map_len_, MS_ASYNC);
    ::munmap(map_, map_len_);
  }
}

std::uint8_t* BlackBox::reserve(std::size_t total) {
  for (;;) {
    std::uint64_t cur = cursor_->load(std::memory_order_relaxed);
    const std::uint64_t start = cur % capacity_;
    const std::uint64_t tail = capacity_ - start;
    const bool wrap = total > tail;
    const std::uint64_t advance = wrap ? tail + total : total;
    if (cursor_->compare_exchange_weak(cur, cur + advance, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      if (wrap) {
        // The wasted tail is smaller than one record; zero it so the
        // scanner never mistakes stale frame headers there for records.
        std::memset(ring_ + start, 0, tail);
        return ring_;
      }
      return ring_ + start;
    }
  }
}

void BlackBox::append(RecordType type, const std::uint8_t* payload, std::size_t len) {
  if (len > kMaxRecordPayload || (len > 0 && payload == nullptr)) {
    dropped_->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t padded = (len + 7) & ~std::size_t{7};
  std::uint8_t* frame = reserve(kRecordHeaderBytes + padded);
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);

  bytes::store_u16(frame + 4, static_cast<std::uint16_t>(type));
  bytes::store_u16(frame + 6, 0);
  bytes::store_u32(frame + 8, static_cast<std::uint32_t>(len));
  bytes::store_u64(frame + 16, seq);
  bytes::store_u64(frame + 24, TraceSink::now_us());
  if (len > 0) std::memcpy(frame + kRecordHeaderBytes, payload, len);
  if (padded > len) std::memset(frame + kRecordHeaderBytes + len, 0, padded - len);
  bytes::store_u32(frame + 12, frame_crc(frame, len));
  // Publish last: until the magic lands, scanners see an invalid frame.
  // The release store orders every write above before it.
  reinterpret_cast<std::atomic<std::uint32_t>*>(frame)->store(
      kRecordMagic, std::memory_order_release);
  written_->fetch_add(1, std::memory_order_relaxed);
}

void BlackBox::sync() const {
  if (map_ != nullptr) ::msync(map_, map_len_, MS_ASYNC);
}

std::uint64_t BlackBox::records_written() const {
  return written_->load(std::memory_order_relaxed);
}

std::uint64_t BlackBox::records_dropped() const {
  return dropped_->load(std::memory_order_relaxed);
}

BlackBox* BlackBox::open_global(const std::string& path, const RunHeaderRecord& header,
                                Options options) {
  BlackBox* box = new BlackBox(path, header, options);
  // The previous instance (tests re-opening) leaks deliberately: a signal
  // handler that raced the swap must never touch an unmapped region.
  g_box.exchange(box, std::memory_order_acq_rel);
  return box;
}

BlackBox* BlackBox::get() { return g_box.load(std::memory_order_acquire); }

// --- note_* helpers ---------------------------------------------------------------

void note_phase(std::uint64_t round, std::uint32_t phase) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[16];
  const std::size_t len = PhaseRecord{round, phase}.encode(buf, sizeof(buf));
  box->append(RecordType::kPhase, buf, len);
}

void note_loss(std::uint64_t round, float d, float g, float gp, float w) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[24];
  const std::size_t len = LossRecord{round, d, g, gp, w}.encode(buf, sizeof(buf));
  box->append(RecordType::kLoss, buf, len);
}

void note_alert(std::uint32_t severity, std::uint64_t round, const char* rule) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr || rule == nullptr) return;
  std::uint8_t buf[256];
  bytes::store_u32(buf, severity);
  bytes::store_u64(buf + 4, round);
  const std::size_t s = put_str(buf + 12, sizeof(buf) - 12, rule,
                                std::strlen(rule) > 200 ? 200 : std::strlen(rule));
  if (s == 0) return;
  box->append(RecordType::kAlert, buf, 12 + s);
}

void note_net_event(NetEvent kind, const char* link) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr || link == nullptr) return;
  std::uint8_t buf[256];
  bytes::store_u32(buf, static_cast<std::uint32_t>(kind));
  const std::size_t s = put_str(buf + 4, sizeof(buf) - 4, link,
                                std::strlen(link) > 200 ? 200 : std::strlen(link));
  if (s == 0) return;
  box->append(RecordType::kNetEvent, buf, 4 + s);
}

void note_shutdown(std::uint32_t code, const char* reason) {
  BlackBox* box = g_box.load(std::memory_order_acquire);
  if (box == nullptr) return;
  std::uint8_t buf[256];
  bytes::store_u32(buf, code);
  const char* text = reason == nullptr ? "" : reason;
  const std::size_t s = put_str(buf + 4, sizeof(buf) - 4, text,
                                std::strlen(text) > 200 ? 200 : std::strlen(text));
  if (s == 0) return;
  box->append(RecordType::kShutdown, buf, 4 + s);
  box->sync();
}

// --- signal handlers --------------------------------------------------------------

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;

#if defined(GTV_HAVE_BACKTRACE)
  // glibc backtrace lazily loads libgcc on first use (malloc + dlopen) —
  // do that now, outside signal context.
  void* warm[4];
  ::backtrace(warm, 4);
#endif

  // Alternate stack: a stack-overflow SIGSEGV cannot run its handler on
  // the exhausted stack.
  static char alt_stack[64 * 1024];
  stack_t ss{};
  ss.ss_sp = alt_stack;
  ss.ss_size = sizeof(alt_stack);
  ::sigaltstack(&ss, nullptr);

  struct sigaction sa{};
  sa.sa_sigaction = crash_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }

  struct sigaction dump{};
  dump.sa_sigaction = stack_dump_handler;
  dump.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&dump.sa_mask);
  ::sigaction(kStackDumpSignal, &dump, nullptr);
}

// --- StallWatchdog ----------------------------------------------------------------

struct StallWatchdog::ThreadBox {
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
};

StallWatchdog::StallWatchdog(const std::atomic<std::uint64_t>* round,
                             const std::atomic<std::uint32_t>* phase, Options options)
    : round_(round), phase_(phase), options_(options), thread_(new ThreadBox) {}

StallWatchdog::~StallWatchdog() {
  stop();
  delete thread_;
}

void StallWatchdog::start() {
  if (started_) return;
  started_ = true;
  install_crash_handlers();  // the stack-dump handler rides on the same install
  thread_->thread = std::thread([this] { run(); });
}

void StallWatchdog::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(thread_->mu);
    stopping_.store(true);
  }
  thread_->cv.notify_all();
  if (thread_->thread.joinable()) thread_->thread.join();
  started_ = false;
  stopping_.store(false);
}

void StallWatchdog::run() {
  set_current_thread_name("gtv-watchdog");
  auto progress = [this]() -> std::uint64_t {
    // Round/phase are the real signal (a stuck recv loop keeps appending
    // retry records, which must not mask the stall); fall back to the
    // recorder's seq when no status atomics were provided.
    if (round_ != nullptr || phase_ != nullptr) {
      const std::uint64_t r =
          round_ != nullptr ? round_->load(std::memory_order_relaxed) : 0;
      const std::uint64_t p =
          phase_ != nullptr ? phase_->load(std::memory_order_relaxed) : 0;
      return (r << 8) ^ p;
    }
    BlackBox* box = BlackBox::get();
    return box != nullptr ? box->next_seq() : 0;
  };

  std::uint64_t last = progress();
  auto last_change = std::chrono::steady_clock::now();
  bool dumped = false;
  std::unique_lock<std::mutex> lock(thread_->mu);
  while (!stopping_.load()) {
    thread_->cv.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                         [this] { return stopping_.load(); });
    if (stopping_.load()) break;
    const std::uint64_t now_val = progress();
    const auto now = std::chrono::steady_clock::now();
    if (now_val != last) {
      last = now_val;
      last_change = now;
      dumped = false;
      continue;
    }
    const auto stalled =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_change);
    if (!dumped && stalled.count() >= options_.stall_ms) {
      stalls_.fetch_add(1, std::memory_order_relaxed);
      BlackBox* box = BlackBox::get();
      if (box != nullptr) {
        StallRecord rec;
        rec.stalled_ms = static_cast<std::uint64_t>(stalled.count());
        rec.round = round_ != nullptr ? round_->load(std::memory_order_relaxed) : 0;
        rec.phase = phase_ != nullptr ? phase_->load(std::memory_order_relaxed) : 0;
        std::uint8_t buf[24];
        box->append(RecordType::kStall, buf, rec.encode(buf, sizeof(buf)));
        if (options_.dump_stacks) {
          lock.unlock();
          dump_all_thread_stacks();
          lock.lock();
        }
        box->sync();
      }
      dumped = true;  // one dump per episode; re-arms on progress
    }
  }
}

// --- offline reader ---------------------------------------------------------------

ReadResult read_ring(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("blackbox: cannot open " + path);
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (file.size() < kRingHeaderBytes) {
    throw std::runtime_error("blackbox: " + path + " is too small to be a ring file");
  }
  if (bytes::get_u64(file.data()) != kFileMagic) {
    throw std::runtime_error("blackbox: " + path + " has no GTVBBOX1 magic");
  }
  const std::uint32_t version = bytes::get_u32(file.data() + 8);
  if (version != kRingFormatVersion) {
    throw std::runtime_error("blackbox: " + path + " format version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kRingFormatVersion) + ")");
  }
  ReadResult out;
  out.info.capacity = static_cast<std::size_t>(bytes::get_u64(file.data() + 16));
  out.info.cursor = bytes::get_u64(file.data() + 24);
  out.info.records_written = bytes::get_u64(file.data() + 32);
  out.info.records_dropped = bytes::get_u64(file.data() + 40);

  const std::uint8_t* ring = file.data() + kRingHeaderBytes;
  const std::size_t ring_len =
      file.size() - kRingHeaderBytes < out.info.capacity
          ? file.size() - kRingHeaderBytes
          : out.info.capacity;

  std::size_t off = 0;
  while (off + kRecordHeaderBytes <= ring_len) {
    if (bytes::get_u32(ring + off) != kRecordMagic) {
      off += 8;
      continue;
    }
    const std::uint8_t* frame = ring + off;
    const std::uint16_t type = bytes::get_u16(frame + 4);
    const std::uint32_t payload_len = bytes::get_u32(frame + 8);
    const std::size_t padded = (static_cast<std::size_t>(payload_len) + 7) & ~std::size_t{7};
    if (type < 1 || type > static_cast<std::uint16_t>(RecordType::kShutdown) ||
        payload_len > kMaxRecordPayload ||
        off + kRecordHeaderBytes + padded > ring_len) {
      ++out.crc_rejects;
      off += 8;
      continue;
    }
    if (frame_crc(frame, payload_len) != bytes::get_u32(frame + 12)) {
      ++out.crc_rejects;
      off += 8;
      continue;
    }
    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.seq = bytes::get_u64(frame + 16);
    rec.t_us = bytes::get_u64(frame + 24);
    rec.payload.assign(frame + kRecordHeaderBytes,
                       frame + kRecordHeaderBytes + payload_len);
    out.records.push_back(std::move(rec));
    off += kRecordHeaderBytes + padded;
  }

  std::sort(out.records.begin(), out.records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  for (const Record& rec : out.records) {
    if (rec.type == RecordType::kRunHeader && !out.has_run_header) {
      out.run_header = RunHeaderRecord::decode(rec.payload.data(), rec.payload.size());
      out.has_run_header = true;
    }
  }
  return out;
}

std::vector<std::string> validate(const ReadResult& ring) {
  std::vector<std::string> problems;
  if (ring.records.empty()) {
    problems.push_back("ring holds no valid records");
    return problems;
  }
  if (!ring.has_run_header) problems.push_back("no run header record retained");

  // Seqs: strictly monotone (records are sorted, so any equal neighbours
  // are duplicates), and contiguous over the retained window. The oldest
  // edge legitimately loses frames to ring overwrite; interior gaps can
  // only come from writers killed mid-append, so more than a handful means
  // the ring is damaged.
  std::uint64_t interior_gaps = 0;
  for (std::size_t i = 1; i < ring.records.size(); ++i) {
    const std::uint64_t prev = ring.records[i - 1].seq;
    const std::uint64_t cur = ring.records[i].seq;
    if (cur == prev) {
      problems.push_back("duplicate seq " + std::to_string(cur));
    } else if (cur != prev + 1) {
      interior_gaps += cur - prev - 1;
    }
  }
  if (interior_gaps > 4) {
    problems.push_back("ring is missing " + std::to_string(interior_gaps) +
                       " interior seqs");
  }

  // Every payload must decode as its type.
  for (const Record& rec : ring.records) {
    try {
      const std::uint8_t* p = rec.payload.data();
      const std::size_t n = rec.payload.size();
      switch (rec.type) {
        case RecordType::kRunHeader: RunHeaderRecord::decode(p, n); break;
        case RecordType::kPhase: PhaseRecord::decode(p, n); break;
        case RecordType::kLoss: LossRecord::decode(p, n); break;
        case RecordType::kAlert: AlertRecord::decode(p, n); break;
        case RecordType::kNetEvent: NetEventRecord::decode(p, n); break;
        case RecordType::kStall: StallRecord::decode(p, n); break;
        case RecordType::kThreadStack: ThreadStackRecord::decode(p, n); break;
        case RecordType::kCrash: CrashRecord::decode(p, n); break;
        case RecordType::kShutdown: ShutdownRecord::decode(p, n); break;
      }
    } catch (const std::exception& e) {
      problems.push_back("seq " + std::to_string(rec.seq) + ": " + e.what());
    }
  }
  return problems;
}

}  // namespace gtv::obs::bb
