// Network boundary between GTV parties.
//
// The VFL privacy argument rests on *what* crosses the server/client
// boundary, so every cross-party value in this codebase is passed through a
// TrafficMeter: the sending party serializes the payload to bytes and
// charges them to a named link (send_*), and the party at the other end
// reconstructs the value from those bytes (recv_*). This both enforces that
// only serializable plain data crosses (no shared object graphs, no
// autograd history) and reproduces the paper's communication-overhead
// accounting.
//
// Underneath, the bytes travel through a pluggable net::Transport
// (net/transport.h): InProcTransport queues between party threads of one
// process, TcpTransport (net/tcp.h) streams between OS processes. Both are
// reliable and ordered, so the meter never resends; a receive only waits,
// counting each expired wait, and gives up after a bounded number of them.
//
// One meter may carry several party threads at once (GtvTrainer's
// in-process fleet charges every role to one meter): its accounting is
// guarded by a mutex, and the transport calls run outside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "tensor/tensor.h"

namespace gtv::obs {
class Counter;
class Histogram;
}  // namespace gtv::obs

namespace gtv::net {

// --- serialization ---------------------------------------------------------------
// Byte layouts (all integers and float bits little-endian):
//   tensor : u64 rows | u64 cols | rows*cols f32 (row-major; put_tensor /
//            read_tensor in tensor/tensor.h, shared with the checkpoints)
//   indices: u64 n    | n x u64
// Deserializers validate sizes exactly — truncated or trailing bytes, or a
// rows*cols product that overflows, raise WireError (a std::runtime_error).
std::vector<std::uint8_t> serialize_tensor(const Tensor& t);
Tensor deserialize_tensor(const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> serialize_indices(const std::vector<std::size_t>& idx);
std::vector<std::size_t> deserialize_indices(const std::vector<std::uint8_t>& bytes);

struct LinkStats {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  // Receive-side fault counters (all zero on a healthy link).
  std::uint64_t retries = 0;         // waits re-armed after a timeout
  std::uint64_t timeouts = 0;        // recv attempts that expired
  std::uint64_t corrupt_frames = 0;  // frames rejected by the CRC check
};

// Bounded wait for one received message: recv_* waits recv_timeout_ms per
// attempt (the peer may be mid-compute) and throws TimeoutError after
// max_attempts expired waits.
struct RetryPolicy {
  int max_attempts = 12;        // total waits per logical message
  int recv_timeout_ms = 2000;   // per-attempt wait
};

// Besides the local per-meter accounting, every message is published to
// the process-wide obs::MetricsRegistry as `net.<link>.bytes` /
// `net.<link>.messages` counters, with `net.<link>.retries` / `.timeouts` /
// `.corrupt_frames` appearing as soon as the first fault is observed
// (cumulative across meters; reset() does not rewind them). When timing is
// enabled, per-link `net.<link>.send_ms` / `net.<link>.recv_ms` histograms
// time each send_* and recv_* call.
//
// When a trace sink is active, each send_* emits a "send <link>" span on
// the sending party's trace row and each recv_* a "recv <link>" span on the
// receiving party's row, joined by a flow-event pair (ph:"s"/"f").
// Flow ids are *deterministic* — hash(link) in the high bits, the link's
// send ordinal (send half) or receive ordinal (recv half) in the low 20 —
// so the n-th send pairs with the n-th receive whether the two halves are
// emitted by one meter or by two OS processes whose trace files are merged
// (gtv-obs prof --trace a.jsonl --trace b.jsonl). Ids stay below 2^53 so JSON
// double parsing cannot lose precision. Party pids are parsed from the
// link name ("server" = 0, "clientK" = K + 1) and cached per link
// alongside the counter handles, so the traced hot path does no string
// building.
class TrafficMeter {
 public:
  // The sending party calls send_*, the party at the other end of `link`
  // calls recv_* — on one meter (party threads) or on one meter per
  // process. Traffic is charged on the sending side only. recv_* waits
  // under the RetryPolicy; a frame that fails its checksum is counted and
  // surfaces as CorruptFrameError.
  void send_tensor(const std::string& link, const Tensor& t);
  Tensor recv_tensor(const std::string& link);
  void send_indices(const std::string& link, const std::vector<std::size_t>& idx);
  std::vector<std::size_t> recv_indices(const std::string& link);
  void send_payload(const std::string& link, const std::vector<std::uint8_t>& bytes);
  std::vector<std::uint8_t> recv_payload(const std::string& link);

  // The transport carrying this meter's frames. Defaults to a private
  // InProcTransport, created lazily on first use.
  Transport& transport() { return *shared_transport(); }
  std::shared_ptr<Transport> shared_transport();
  void set_transport(std::shared_ptr<Transport> transport);
  // Set before the parties start; read unlocked on every receive.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // Snapshots, safe while other threads send and receive.
  LinkStats stats(const std::string& link) const;
  LinkStats total() const;
  std::map<std::string, LinkStats> all() const;
  // Clears the local per-link stats. Registry counters are cumulative and
  // deliberately unaffected.
  void reset();

 private:
  struct FlowInfo {
    int from_pid = 0;
    int to_pid = 0;
    std::uint64_t flow_base = 0;  // hash(link) << 20
    std::uint64_t sends = 0;      // logical messages sent on this link
    std::uint64_t recvs = 0;      // ... and received on it
    std::string send_label;       // "send <link>"
    std::string recv_label;       // "recv <link>"
  };

  // Charges `bytes` + one message to the link, locally and in the registry.
  void charge(const std::string& link, std::size_t bytes);
  void note_fault(const std::string& link, const char* what, std::uint64_t LinkStats::*field);
  // Claims the link's next send (or receive) flow id. The record stays
  // valid after the lock drops: links are never erased from flows_, and
  // everything but the ordinals is fixed at creation.
  const FlowInfo& next_flow(const std::string& link, bool send, std::uint64_t* id);
  void record_timing(const std::string& link, const char* half, double ms);
  std::vector<std::uint8_t> recv_with_retry(const std::string& link);

  struct LinkCounters {
    obs::Counter* bytes = nullptr;
    obs::Counter* messages = nullptr;
    obs::Histogram* send_ms = nullptr;  // resolved only when timing is on
    obs::Histogram* recv_ms = nullptr;
  };
  mutable std::mutex mu_;  // guards transport_, links_, counters_ and flows_
  std::shared_ptr<Transport> transport_;
  RetryPolicy retry_;
  std::map<std::string, LinkStats> links_;
  std::map<std::string, LinkCounters> counters_;  // registry handles per link
  std::map<std::string, FlowInfo> flows_;         // cached trace labels per link
};

}  // namespace gtv::net
