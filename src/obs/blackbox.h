// gtv::obs::bb — per-party crash-safe flight recorder ("black box").
//
// Every other observability surface in this repo (traces, telemetry JSON,
// /metrics, health logs) buffers in process memory until a clean flush, so
// a SIGKILL'd or deadlocked party leaves nothing behind. The black box is
// the opposite contract: a fixed-size ring of CRC32-framed records inside
// an mmap(MAP_SHARED) file, written lock-free from the hot path. A store
// into the mapping lands in the kernel page cache immediately, so the file
// holds every completed record *at all times* — no flush, no buffering,
// nothing lost when the process dies mid-round (short of the whole machine
// going down before writeback).
//
// File layout (all integers little-endian):
//
//   offset  size  field
//        0     8  file magic  "GTVBBOX1"
//        8     4  format version (kRingFormatVersion)
//       12     4  header size (= kRingHeaderBytes; ring region starts here)
//       16     8  ring capacity in bytes
//       24     8  write cursor   — logical, monotonically increasing; the
//                  physical write offset is cursor % capacity. Atomic.
//       32     8  records written (atomic)
//       40     8  records dropped (payload over kMaxRecordPayload) (atomic)
//       48  ...   reserved (zero)
//     4096  cap   ring bytes
//
// Record frame inside the ring (8-byte aligned, 32-byte header):
//
//   offset  size  field
//        0     4  record magic 0x42425447 ("GTBB")
//        4     2  type (RecordType)
//        6     2  reserved (zero)
//        8     4  payload length
//       12     4  CRC-32 (IEEE) over bytes [4,32) + payload
//       16     8  seq    — process-wide, monotonically increasing
//       24     8  t_us   — TraceSink::now_us() (trace clock; clock-sync
//                  offsets from gtv-node --offsets-out apply directly)
//       32   ...   payload, zero-padded to the next 8-byte boundary
//
// Crash-safety argument: a writer reserves its region with one CAS on the
// mapped write cursor, fills payload + header fields, and publishes the
// record magic last. A process that dies mid-write leaves at most one
// frame whose CRC cannot validate; every earlier record is already bytes
// in the shared mapping. Readers scan the ring at 8-byte offsets, accept
// only frames whose magic, length and CRC check out, and order them by
// seq — stale bytes from a previous lap fail the CRC and are skipped.
// Writers lapping a slow concurrent writer can, in pathological cases,
// overwrite a frame being read back later; the CRC turns that into a
// skipped frame, never a bogus record.
//
// Everything on the append path — reserve, byte stores, the CRC loop,
// clock_gettime — is async-signal-safe, so the fatal-signal handlers
// (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) append a final crash record (signal,
// faulting address, raw backtrace PCs) and msync before re-raising. A
// StallWatchdog thread watches round/phase progress and, past a threshold,
// records a stall and asks every thread in the process (via a dump signal
// + /proc/self/task) to append its own backtrace.
//
// The offline half — read_ring / validate / per-record decode — is used by
// gtv-obs postmortem and the tests; it allocates freely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gtv::obs::bb {

inline constexpr std::uint64_t kFileMagic = 0x31584F4242565447ULL;  // "GTVBBOX1"
inline constexpr std::uint32_t kRingFormatVersion = 1;
inline constexpr std::size_t kRingHeaderBytes = 4096;
inline constexpr std::uint32_t kRecordMagic = 0x42425447u;  // "GTBB"
inline constexpr std::size_t kRecordHeaderBytes = 32;
// Payload cap: keeps any single reservation (and the tail wasted on a ring
// wrap) small, and bounds the stack buffers used in signal context.
inline constexpr std::size_t kMaxRecordPayload = 3968;  // header + payload <= 4000
inline constexpr std::size_t kMinRingCapacity = 1 << 14;    // 16 KiB
inline constexpr std::size_t kDefaultRingCapacity = 1 << 20;  // 1 MiB

enum class RecordType : std::uint16_t {
  kRunHeader = 1,    // once, at open: who this party is + run identity
  kPhase = 2,        // round/phase transition
  kLoss = 3,         // per-round losses
  kAlert = 4,        // health alert (severity, rule)
  kNetEvent = 5,     // transport event (retry/timeout/corrupt/connect/...)
  kStall = 6,        // watchdog: no progress past threshold
  kThreadStack = 7,  // one thread's backtrace PCs (stall dump)
  kCrash = 8,        // fatal signal: signo, fault addr, backtrace PCs
  kShutdown = 9,     // orderly exit (code + reason), incl. signal-triggered
};
const char* to_string(RecordType type);

// Transport event kinds (NetEventRecord::kind).
enum class NetEvent : std::uint32_t {
  kRetry = 0,
  kTimeout = 1,
  kCorruptFrame = 2,
  kConnect = 3,     // dial completed (incl. reconnect dials)
  kAccept = 4,      // inbound connection accepted
  kDisconnect = 5,  // connection marked dead
};
const char* to_string(NetEvent kind);

// --- typed payloads ---------------------------------------------------------------
// encode() fills a caller-supplied buffer (async-signal-safe, no
// allocation) and returns the encoded length, or 0 if it does not fit.
// decode() parses a reader-side payload; throws std::runtime_error on
// malformed bytes.

struct RunHeaderRecord {
  std::string party;
  std::uint64_t n_clients = 0;
  std::uint64_t rounds = 0;
  std::uint64_t seed = 0;
  std::uint64_t wall_us = 0;  // CLOCK_REALTIME at open — cross-party
                              // alignment fallback when no offsets file
  std::uint64_t pid = 0;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static RunHeaderRecord decode(const std::uint8_t* p, std::size_t len);
};

struct PhaseRecord {
  std::uint64_t round = 0;
  std::uint32_t phase = 0;  // obs::agg::Phase enum value

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static PhaseRecord decode(const std::uint8_t* p, std::size_t len);
};

struct LossRecord {
  std::uint64_t round = 0;
  float d_loss = 0, g_loss = 0, gp = 0, wasserstein = 0;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static LossRecord decode(const std::uint8_t* p, std::size_t len);
};

struct AlertRecord {
  std::uint32_t severity = 0;  // obs::Severity enum value
  std::uint64_t round = 0;
  std::string rule;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static AlertRecord decode(const std::uint8_t* p, std::size_t len);
};

struct NetEventRecord {
  NetEvent kind = NetEvent::kRetry;
  std::string link;  // link or peer name

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static NetEventRecord decode(const std::uint8_t* p, std::size_t len);
};

struct StallRecord {
  std::uint64_t stalled_ms = 0;
  std::uint64_t round = 0;
  std::uint32_t phase = 0;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static StallRecord decode(const std::uint8_t* p, std::size_t len);
};

struct ThreadStackRecord {
  std::uint64_t tid = 0;
  std::vector<std::uint64_t> pcs;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static ThreadStackRecord decode(const std::uint8_t* p, std::size_t len);
};

struct CrashRecord {
  std::uint32_t signal = 0;
  std::uint64_t fault_addr = 0;
  std::vector<std::uint64_t> pcs;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static CrashRecord decode(const std::uint8_t* p, std::size_t len);
};

struct ShutdownRecord {
  std::uint32_t code = 0;
  std::string reason;

  std::size_t encode(std::uint8_t* buf, std::size_t cap) const;
  static ShutdownRecord decode(const std::uint8_t* p, std::size_t len);
};

// --- the recorder -----------------------------------------------------------------

struct BlackBoxOptions {
  std::size_t capacity_bytes = kDefaultRingCapacity;  // ring region size
};

class BlackBox {
 public:
  using Options = BlackBoxOptions;

  // Creates/truncates `path`, maps it, writes the run header record.
  // Throws std::runtime_error when the file cannot be created or mapped.
  BlackBox(const std::string& path, const RunHeaderRecord& header,
           Options options = {});
  // Unmaps after an msync. Does NOT write a shutdown record — callers
  // decide what the last word is (note_shutdown).
  ~BlackBox();

  BlackBox(const BlackBox&) = delete;
  BlackBox& operator=(const BlackBox&) = delete;

  // Appends one record. Lock-free and async-signal-safe: one CAS to
  // reserve, plain stores, no allocation, no locks. Payloads over
  // kMaxRecordPayload are counted as dropped and skipped.
  void append(RecordType type, const std::uint8_t* payload, std::size_t len);

  // msync(MS_ASYNC) of the whole mapping — schedules writeback without
  // blocking. Async-signal-safe. (Records are in the page cache already;
  // this only accelerates durability against machine-level failure.)
  void sync() const;

  const std::string& path() const { return path_; }
  std::uint64_t records_written() const;
  std::uint64_t records_dropped() const;
  // Seq the next append will use; doubles as a progress counter for the
  // stall watchdog.
  std::uint64_t next_seq() const { return seq_.load(std::memory_order_relaxed); }

  // --- process-wide instance ------------------------------------------------------
  // The global recorder the note_* helpers and signal handlers write to.
  // open_global replaces any previous instance (the old one leaks: a
  // handler racing the swap must never touch a destroyed mapping).
  static BlackBox* open_global(const std::string& path,
                               const RunHeaderRecord& header, Options options = {});
  static BlackBox* get();

 private:
  std::uint8_t* reserve(std::size_t total_bytes);

  std::string path_;
  std::size_t capacity_ = 0;
  std::uint8_t* map_ = nullptr;   // whole file mapping
  std::size_t map_len_ = 0;
  std::uint8_t* ring_ = nullptr;  // map_ + kRingHeaderBytes
  // Mapped-header fields (live inside the file):
  std::atomic<std::uint64_t>* cursor_ = nullptr;
  std::atomic<std::uint64_t>* written_ = nullptr;
  std::atomic<std::uint64_t>* dropped_ = nullptr;
  std::atomic<std::uint64_t> seq_{0};
};

// --- hot-path emission helpers ----------------------------------------------------
// All no-ops (single relaxed load) until open_global() has run. Safe to
// call from any thread; note_crash/note_thread_stack also from signal
// handlers.
void note_phase(std::uint64_t round, std::uint32_t phase);
void note_loss(std::uint64_t round, float d, float g, float gp, float w);
void note_alert(std::uint32_t severity, std::uint64_t round, const char* rule);
void note_net_event(NetEvent kind, const char* link);
void note_shutdown(std::uint32_t code, const char* reason);

// --- fatal-signal handlers --------------------------------------------------------
// Installs handlers for SIGSEGV/SIGABRT/SIGBUS/SIGFPE that append a
// CrashRecord (+ msync) to the global black box and re-raise with the
// default disposition, and the stack-dump handler the watchdog uses.
// Pre-warms glibc backtrace() so the crash path never allocates.
// Idempotent.
void install_crash_handlers();

// --- stall watchdog ---------------------------------------------------------------
// Polls a progress tuple — the global black box's seq plus optional
// round/phase atomics (e.g. obs::agg::LiveStatus fields) — and when it
// sees no change for stall_ms, appends a StallRecord and (dump_stacks)
// signals every thread listed in /proc/self/task to append its backtrace.
// One dump per stall episode; re-arms when progress resumes.
struct StallWatchdogOptions {
  int stall_ms = 30000;
  int poll_ms = 200;
  bool dump_stacks = true;
};

class StallWatchdog {
 public:
  using Options = StallWatchdogOptions;

  StallWatchdog(const std::atomic<std::uint64_t>* round,
                const std::atomic<std::uint32_t>* phase, Options options = {});
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  void start();
  void stop();
  std::uint64_t stalls_detected() const { return stalls_.load(); }

 private:
  void run();

  const std::atomic<std::uint64_t>* round_;
  const std::atomic<std::uint32_t>* phase_;
  Options options_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> stalls_{0};
  bool started_ = false;
  // Thread handle lives behind a pimpl-free std::thread; declared last so
  // run() sees fully-initialized state.
  struct ThreadBox;
  ThreadBox* thread_ = nullptr;
};

// --- offline reader ---------------------------------------------------------------

struct Record {
  RecordType type = RecordType::kRunHeader;
  std::uint64_t seq = 0;
  std::uint64_t t_us = 0;
  std::vector<std::uint8_t> payload;
};

struct RingInfo {
  std::size_t capacity = 0;
  std::uint64_t cursor = 0;
  std::uint64_t records_written = 0;
  std::uint64_t records_dropped = 0;
};

struct ReadResult {
  RingInfo info;
  std::vector<Record> records;     // sorted by seq
  std::uint64_t crc_rejects = 0;   // magic hits whose CRC failed (stale laps)
  bool has_run_header = false;
  RunHeaderRecord run_header;      // valid when has_run_header
};

// Reads and parses one ring file. Throws std::runtime_error on a missing
// file or malformed file header. Safe on a live ring (snapshot semantics:
// whatever frames validate at read time).
ReadResult read_ring(const std::string& path);

// Structural validation: every retained seq unique and strictly
// increasing, seqs contiguous over the retained window, record payloads
// decodable, a run header present. Returns human-readable problems
// (empty = valid).
std::vector<std::string> validate(const ReadResult& ring);

}  // namespace gtv::obs::bb
