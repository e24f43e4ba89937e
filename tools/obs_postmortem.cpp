// gtv-obs postmortem — cross-party crash forensics from black-box ring files.
//
//   gtv-obs postmortem [options] <ring.bbox> [<ring.bbox> ...]
//     --offsets FILE   clock offsets from `gtv-node --offsets-out` (aligns
//                      parties onto the collector clock when every ring's
//                      party has one; otherwise the wall-clock stamps in the
//                      run headers are used)
//     --window-s K     timeline/context window before death (default 10)
//     --json           machine-readable summary instead of the report
//
//   gtv-obs postmortem --bench --bench-path FILE [--bench-records N]
//     appends N records to a fresh ring, reads them back, and prints
//     records/sec + per-append latency percentiles as JSON (the check.sh
//     blackbox stage turns this into BENCH_blackbox_smoke.json).
//
// The report answers the first three questions of any dead run: who died
// first (a party whose ring ends without a shutdown or crash record never
// got a word out — SIGKILL, OOM-kill, power), what it was doing (last
// round/phase it recorded), and what the links saw around the death
// (retries/timeouts/disconnects in the surviving rings). Exit code 3 means
// some party died.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gtv_obs.h"
#include "obs/blackbox.h"
#include "obs/json.h"
#include "obs/snapshot.h"

namespace gtv::obs::cli {
namespace {

const char* phase_name(std::uint32_t phase) {
  return agg::to_string(static_cast<agg::Phase>(phase));
}

const char* signal_name(std::uint32_t sig) {
  switch (sig) {
    case 4: return "SIGILL";
    case 6: return "SIGABRT";
    case 7: return "SIGBUS";
    case 8: return "SIGFPE";
    case 11: return "SIGSEGV";
  }
  return "signal";
}

// One party's ring plus everything the report derives from it.
struct PartyView {
  std::string path;
  std::string party;
  bb::ReadResult ring;
  std::vector<std::string> problems;
  // Cross-party alignment: aligned_us = t_us + align_shift_us.
  double align_shift_us = 0;
  bool aligned = false;

  bool clean_shutdown = false;       // ShutdownRecord with code 0
  std::optional<std::uint32_t> shutdown_code;
  std::string shutdown_reason;
  std::optional<bb::CrashRecord> crash;
  std::optional<bb::StallRecord> stall;
  std::uint64_t last_round = 0;
  std::uint32_t last_phase = 0;
  double last_aligned_us = 0;
  std::map<std::string, std::uint64_t> net_events;  // kind -> count
  std::uint64_t alerts = 0;

  // A party that never wrote a shutdown or crash record died without a
  // word — the signature of SIGKILL / OOM-kill / machine loss.
  bool died_silently() const { return !shutdown_code.has_value() && !crash.has_value(); }
  double aligned_us(std::uint64_t t_us) const {
    return static_cast<double>(t_us) + align_shift_us;
  }
};

PartyView load_party(const std::string& path) {
  PartyView view;
  view.path = path;
  view.ring = bb::read_ring(path);
  view.problems = bb::validate(view.ring);
  view.party = view.ring.has_run_header ? view.ring.run_header.party : path;

  for (const bb::Record& rec : view.ring.records) {
    const std::uint8_t* p = rec.payload.data();
    const std::size_t n = rec.payload.size();
    try {
      switch (rec.type) {
        case bb::RecordType::kPhase: {
          const auto phase = bb::PhaseRecord::decode(p, n);
          view.last_round = std::max(view.last_round, phase.round);
          view.last_phase = phase.phase;
          break;
        }
        case bb::RecordType::kLoss: {
          const auto loss = bb::LossRecord::decode(p, n);
          view.last_round = std::max(view.last_round, loss.round);
          break;
        }
        case bb::RecordType::kAlert:
          ++view.alerts;
          break;
        case bb::RecordType::kNetEvent: {
          const auto event = bb::NetEventRecord::decode(p, n);
          ++view.net_events[bb::to_string(event.kind)];
          break;
        }
        case bb::RecordType::kStall:
          view.stall = bb::StallRecord::decode(p, n);
          break;
        case bb::RecordType::kCrash:
          view.crash = bb::CrashRecord::decode(p, n);
          break;
        case bb::RecordType::kShutdown: {
          const auto down = bb::ShutdownRecord::decode(p, n);
          view.shutdown_code = down.code;
          view.shutdown_reason = down.reason;
          view.clean_shutdown = down.code == 0;
          break;
        }
        default:
          break;
      }
    } catch (const std::exception&) {
      // validate() already reported it; keep deriving from the rest.
    }
  }
  return view;
}

// Computes align_shift_us for every party. With offsets: shift = -offset
// (onto the collector clock, offset_us = party_clock - collector_clock,
// same convention as gtv-obs prof --offsets). Without: the run headers carry
// CLOCK_REALTIME at open, so shift = wall_us - t_us(open) puts every party
// on the shared wall clock (cruder: no RTT bound, NTP steps show up).
const char* align_parties(std::vector<PartyView>& parties,
                          const json::ClockOffsets& offsets) {
  bool all_offsets = !offsets.empty();
  for (const PartyView& view : parties) {
    if (offsets.find(view.party) == offsets.end()) all_offsets = false;
  }
  if (all_offsets) {
    for (PartyView& view : parties) {
      view.align_shift_us = -offsets.at(view.party).offset_us;
      view.aligned = true;
    }
    return "offsets";
  }
  bool all_wall = true;
  for (const PartyView& view : parties) {
    if (!view.ring.has_run_header || view.ring.run_header.wall_us == 0 ||
        view.ring.records.empty()) {
      all_wall = false;
    }
  }
  if (all_wall) {
    for (PartyView& view : parties) {
      // The run header is the first record its party wrote; its t_us is the
      // trace clock at open, paired with wall_us from CLOCK_REALTIME.
      double open_t_us = 0;
      for (const bb::Record& rec : view.ring.records) {
        if (rec.type == bb::RecordType::kRunHeader) {
          open_t_us = static_cast<double>(rec.t_us);
          break;
        }
      }
      view.align_shift_us = static_cast<double>(view.ring.run_header.wall_us) - open_t_us;
      view.aligned = true;
    }
    return "wall";
  }
  return "none";  // single-party or damaged rings: times stay per-party
}

std::string describe(const bb::Record& rec) {
  const std::uint8_t* p = rec.payload.data();
  const std::size_t n = rec.payload.size();
  std::ostringstream os;
  try {
    switch (rec.type) {
      case bb::RecordType::kRunHeader: {
        const auto header = bb::RunHeaderRecord::decode(p, n);
        os << "run start: clients=" << header.n_clients << " rounds=" << header.rounds
           << " seed=" << header.seed << " pid=" << header.pid;
        break;
      }
      case bb::RecordType::kPhase: {
        const auto phase = bb::PhaseRecord::decode(p, n);
        os << "phase " << phase_name(phase.phase) << " (round " << phase.round << ")";
        break;
      }
      case bb::RecordType::kLoss: {
        const auto loss = bb::LossRecord::decode(p, n);
        os << "losses round " << loss.round << ": d=" << loss.d_loss
           << " g=" << loss.g_loss << " gp=" << loss.gp << " w=" << loss.wasserstein;
        break;
      }
      case bb::RecordType::kAlert: {
        const auto alert = bb::AlertRecord::decode(p, n);
        os << "ALERT sev=" << alert.severity << " rule=" << alert.rule << " round "
           << alert.round;
        break;
      }
      case bb::RecordType::kNetEvent: {
        const auto event = bb::NetEventRecord::decode(p, n);
        os << "net " << bb::to_string(event.kind) << " " << event.link;
        break;
      }
      case bb::RecordType::kStall: {
        const auto stall = bb::StallRecord::decode(p, n);
        os << "STALL " << stall.stalled_ms << "ms at round " << stall.round << " phase "
           << phase_name(stall.phase);
        break;
      }
      case bb::RecordType::kThreadStack: {
        const auto stack = bb::ThreadStackRecord::decode(p, n);
        os << "thread " << stack.tid << " stack:";
        for (std::uint64_t pc : stack.pcs) {
          os << " 0x" << std::hex << pc << std::dec;
        }
        break;
      }
      case bb::RecordType::kCrash: {
        const auto crash = bb::CrashRecord::decode(p, n);
        os << "CRASH " << signal_name(crash.signal) << " fault_addr=0x" << std::hex
           << crash.fault_addr << std::dec << " pcs:";
        for (std::uint64_t pc : crash.pcs) {
          os << " 0x" << std::hex << pc << std::dec;
        }
        break;
      }
      case bb::RecordType::kShutdown: {
        const auto down = bb::ShutdownRecord::decode(p, n);
        os << "shutdown code=" << down.code
           << (down.reason.empty() ? "" : " reason=" + down.reason);
        break;
      }
      default:
        os << "record type " << static_cast<int>(rec.type);
    }
  } catch (const std::exception& e) {
    os << "<undecodable " << bb::to_string(rec.type) << ": " << e.what() << ">";
  }
  return os.str();
}

std::string party_status(const PartyView& view) {
  std::ostringstream os;
  if (view.crash.has_value()) {
    os << "crashed (" << signal_name(view.crash->signal) << ")";
  } else if (view.clean_shutdown) {
    os << "clean exit";
  } else if (view.shutdown_code.has_value()) {
    os << "error exit (code " << *view.shutdown_code;
    if (!view.shutdown_reason.empty()) os << ", " << view.shutdown_reason;
    os << ")";
  } else {
    os << "DIED SILENTLY (no shutdown/crash record — SIGKILL/OOM?)";
  }
  return os.str();
}

int run_report(const Args& args) {
  const double window_s = args.num("--window-s", 10.0);
  json::ClockOffsets offsets;
  if (args.has("--offsets")) offsets = json::load_offsets(args.get("--offsets"));

  std::vector<PartyView> parties;
  for (const std::string& path : args.positional) parties.push_back(load_party(path));
  const char* aligned_by = align_parties(parties, offsets);

  for (PartyView& view : parties) {
    if (!view.ring.records.empty()) {
      view.last_aligned_us = view.aligned_us(view.ring.records.back().t_us);
    }
  }

  // First to die: among the parties that never said goodbye, the earliest
  // last record on the aligned clock. A silent death outranks an error
  // exit — survivors that merely *noticed* the death exit later with
  // transport errors of their own.
  const PartyView* first_dead = nullptr;
  for (const PartyView& view : parties) {
    if (view.clean_shutdown) continue;
    const bool better =
        first_dead == nullptr ||
        (view.died_silently() && !first_dead->died_silently()) ||
        (view.died_silently() == first_dead->died_silently() &&
         view.last_aligned_us < first_dead->last_aligned_us);
    if (better) first_dead = &view;
  }
  const double death_us = first_dead != nullptr ? first_dead->last_aligned_us : 0;
  const double window_us = window_s * 1e6;

  if (args.has("--json")) {
    std::ostringstream os;
    os << "{\"schema_version\":1,\"aligned_by\":\"" << aligned_by << "\",\"parties\":[";
    for (std::size_t i = 0; i < parties.size(); ++i) {
      const PartyView& view = parties[i];
      os << (i == 0 ? "" : ",") << "{\"party\":\"" << json::escape(view.party)
         << "\",\"path\":\"" << json::escape(view.path)
         << "\",\"records\":" << view.ring.records.size()
         << ",\"records_written\":" << view.ring.info.records_written
         << ",\"records_dropped\":" << view.ring.info.records_dropped
         << ",\"crc_rejects\":" << view.ring.crc_rejects
         << ",\"valid\":" << (view.problems.empty() ? "true" : "false")
         << ",\"problems\":[";
      for (std::size_t j = 0; j < view.problems.size(); ++j) {
        os << (j == 0 ? "" : ",") << "\"" << json::escape(view.problems[j]) << "\"";
      }
      os << "],\"clean_shutdown\":" << (view.clean_shutdown ? "true" : "false")
         << ",\"crashed\":" << (view.crash.has_value() ? "true" : "false")
         << ",\"died_silently\":" << (view.died_silently() ? "true" : "false")
         << ",\"last_round\":" << view.last_round << ",\"last_phase\":\""
         << phase_name(view.last_phase) << "\",\"alerts\":" << view.alerts
         << ",\"last_aligned_us\":" << json::safe_num(view.last_aligned_us)
         << ",\"net_events\":{";
      bool first = true;
      for (const auto& [kind, count] : view.net_events) {
        os << (first ? "" : ",") << "\"" << kind << "\":" << count;
        first = false;
      }
      os << "}}";
    }
    os << "],\"first_dead\":";
    if (first_dead != nullptr) {
      os << "\"" << json::escape(first_dead->party) << "\",\"first_dead_last_round\":"
         << first_dead->last_round << ",\"first_dead_last_phase\":\""
         << phase_name(first_dead->last_phase) << "\"";
    } else {
      os << "null";
    }
    os << "}";
    std::printf("%s\n", os.str().c_str());
    return first_dead != nullptr ? 3 : 0;
  }

  // --- human report ---------------------------------------------------------------
  std::printf("gtv-obs postmortem: %zu ring(s), aligned by %s\n\n", parties.size(),
              aligned_by);
  std::printf("%-10s %8s %8s %8s  %s\n", "party", "records", "rejects", "round",
              "status");
  for (const PartyView& view : parties) {
    std::printf("%-10s %8zu %8llu %8llu  %s\n", view.party.c_str(),
                view.ring.records.size(),
                static_cast<unsigned long long>(view.ring.crc_rejects),
                static_cast<unsigned long long>(view.last_round),
                party_status(view).c_str());
    for (const std::string& problem : view.problems) {
      std::printf("           ! %s\n", problem.c_str());
    }
  }

  if (first_dead == nullptr) {
    std::printf("\nall parties shut down cleanly — nothing to blame.\n");
    return 0;
  }

  std::printf("\nprobable cause:\n");
  std::printf("  first to die: %s — %s\n", first_dead->party.c_str(),
              party_status(*first_dead).c_str());
  std::printf("    last seen: round %llu, phase %s\n",
              static_cast<unsigned long long>(first_dead->last_round),
              phase_name(first_dead->last_phase));
  if (first_dead->stall.has_value()) {
    std::printf("    watchdog: stalled %llums at round %llu before death\n",
                static_cast<unsigned long long>(first_dead->stall->stalled_ms),
                static_cast<unsigned long long>(first_dead->stall->round));
  }

  // Alerts and transport events in the window before death, anywhere.
  std::printf("  in the %.1fs before death:\n", window_s);
  bool context = false;
  for (const PartyView& view : parties) {
    for (const bb::Record& rec : view.ring.records) {
      if (rec.type != bb::RecordType::kAlert && rec.type != bb::RecordType::kNetEvent) {
        continue;
      }
      const double at = view.aligned_us(rec.t_us);
      if (at > death_us || at + window_us < death_us) continue;
      std::printf("    [%8.3fs] %-10s %s\n", (at - death_us) / 1e6, view.party.c_str(),
                  describe(rec).c_str());
      context = true;
    }
  }
  if (!context) std::printf("    (none recorded)\n");

  // What the survivors saw after the death: the link-level smoking gun.
  std::printf("  after the death:\n");
  context = false;
  for (const PartyView& view : parties) {
    if (&view == first_dead) continue;
    for (const bb::Record& rec : view.ring.records) {
      if (rec.type != bb::RecordType::kNetEvent) continue;
      const double at = view.aligned_us(rec.t_us);
      if (at < death_us || at > death_us + window_us) continue;
      std::printf("    [%+8.3fs] %-10s %s\n", (at - death_us) / 1e6, view.party.c_str(),
                  describe(rec).c_str());
      context = true;
    }
  }
  if (!context) std::printf("    (no transport events recorded)\n");

  std::printf("\ntimeline (last %.1fs before death):\n", window_s);
  struct Entry {
    double at;
    const PartyView* view;
    const bb::Record* rec;
  };
  std::vector<Entry> entries;
  for (const PartyView& view : parties) {
    for (const bb::Record& rec : view.ring.records) {
      const double at = view.aligned_us(rec.t_us);
      if (at > death_us + window_us || at + window_us < death_us) continue;
      entries.push_back({at, &view, &rec});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.at < b.at; });
  for (const Entry& entry : entries) {
    std::printf("  [%+9.3fs] %-10s #%llu %s\n", (entry.at - death_us) / 1e6,
                entry.view->party.c_str(),
                static_cast<unsigned long long>(entry.rec->seq),
                describe(*entry.rec).c_str());
  }
  return 3;  // something died: distinct from usage (2) and I/O errors (1)
}

// --- bench mode -------------------------------------------------------------------

int run_bench(const Args& args) {
  const std::string path = args.get("--bench-path");
  const auto records = static_cast<std::size_t>(args.num("--bench-records", 200000));
  bb::RunHeaderRecord header;
  header.party = "bench";
  bb::BlackBoxOptions options;
  bb::BlackBox box(path, header, options);

  std::vector<double> append_us;
  append_us.reserve(records);
  const auto start = std::chrono::steady_clock::now();
  std::uint8_t buf[64];
  for (std::size_t i = 0; i < records; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const bb::PhaseRecord rec{i, static_cast<std::uint32_t>(i % 6)};
    box.append(bb::RecordType::kPhase, buf, rec.encode(buf, sizeof(buf)));
    const auto t1 = std::chrono::steady_clock::now();
    append_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const double total_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start).count();
  box.sync();

  std::sort(append_us.begin(), append_us.end());
  auto pct = [&](double p) {
    if (append_us.empty()) return 0.0;
    const std::size_t idx = static_cast<std::size_t>(p / 100.0 *
                                                     (append_us.size() - 1));
    return append_us[idx];
  };

  // Read the ring back: the bench doubles as an end-to-end validity check.
  // The bench intentionally overruns the ring to exercise the wrap path, so
  // the run-header record is legitimately evicted — that one complaint is
  // expected; anything else (CRC rejects, seq gaps, dup seqs) is a failure.
  const bb::ReadResult ring = bb::read_ring(path);
  std::vector<std::string> problems = bb::validate(ring);
  const bool wrapped = ring.records.size() < records;
  if (wrapped) {
    problems.erase(std::remove_if(problems.begin(), problems.end(),
                                  [](const std::string& p) {
                                    return p.find("run header") !=
                                           std::string::npos;
                                  }),
                   problems.end());
  }

  std::printf("{\"records\":%zu,\"records_per_sec\":%.0f,\"write_p50_us\":%.3f,"
              "\"write_p99_us\":%.3f,\"total_s\":%.6f,\"retained\":%zu,"
              "\"crc_rejects\":%llu,\"valid\":%s}\n",
              records, records / total_s, pct(50), pct(99),
              total_s, ring.records.size(),
              static_cast<unsigned long long>(ring.crc_rejects),
              problems.empty() ? "true" : "false");
  return problems.empty() ? 0 : 1;
}

}  // namespace

int run_postmortem(int argc, char** argv) {
  const Args args = parse_args(argc, argv,
                               {"--offsets", "--window-s", "--bench-path", "--bench-records"},
                               {"--json", "--bench"}, true);
  if (args.has("--bench")) {
    if (!args.has("--bench-path")) usage_error("postmortem: --bench requires --bench-path");
    return run_bench(args);
  }
  if (args.positional.empty()) usage_error("postmortem: no ring files given");
  return run_report(args);
}

}  // namespace gtv::obs::cli
