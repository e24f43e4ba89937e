// gtv-obs prof — merges the observability artefacts a GTV run leaves
// behind into one human-readable report:
//
//   gtv-obs prof [--profile <stem>.profile.json]     (GTV_PROFILE=1 op table)
//                [--telemetry <stem>.telemetry.json] (metrics + memory snapshot)
//                [--health <stem>.health.json]       (GTV_HEALTH=1 alert log)
//                [--rounds <rounds.json>]            (GtvTrainer::telemetry_json)
//                [--trace <trace.jsonl>]...          (GTV_TRACE span/flow stream)
//                [--merged-out <merged.jsonl>]       (write the merged trace)
//                [--offsets <offsets.json>]          (clock offsets per party)
//
// --trace may repeat: a multi-process gtv-node run leaves one trace file
// per OS process, and this tool merges them into a single timeline. Party
// pids are de-conflicted (two files claiming the same pid for different
// parties get distinct pids in the merged view) and cross-party flow
// arrows survive the merge because transfer flow ids are derived
// deterministically from the link name on both sides — the send half in
// one process's file pairs with the finish half in another's.
//
// Each process stamps timestamps with its own monotonic clock, so a raw
// merge carries per-party clock skew. --offsets takes the clock-offset
// file a Collector run writes (gtv-node --role driver --collector-port
// ... --offsets-out offsets.json; offsets are measured NTP-style during
// the transport handshake, min-RTT sample wins) and rewrites every "ts"
// onto the collector's clock, making cross-party flow arrows meaningful
// to within the measured min-RTT bound. Without --offsets the old
// behavior is kept and a skew warning is printed for multi-file merges.
//
// Any subset may be given; each present artefact adds a section. When a
// telemetry snapshot is supplied and a sibling `<stem>.health.json` exists,
// it is picked up automatically (no --health needed). The health section
// is the alert summary followed by a per-round alert timeline; --rounds
// adds per-round losses and gradient norms. When both a profile and a
// telemetry snapshot are supplied the report also computes *coverage*: the
// fraction of the training rounds' wall clock (the gtv.phase.round_ms
// histogram) that the profiled op self times account for — the acceptance
// gauge for the op instrumentation.
//
// Only artefacts whose schema_version this tool knows (profile v1,
// telemetry v2/v3, health v1, offsets v1) are accepted; unknown versions
// fail loudly rather than misreport.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtv_obs.h"
#include "obs/json.h"

namespace gtv::obs::cli {
namespace {

using json::Value;

// --- profile ---------------------------------------------------------------

struct OpRow {
  std::string name;
  std::uint64_t calls = 0;
  double total_us = 0;
  double self_us = 0;
  double bytes = 0;
};

// Parses <stem>.profile.json; returns rows sorted by self time descending.
std::vector<OpRow> load_profile(const std::string& path, double* total_self_us) {
  const Value doc = json::parse_file(path);
  json::require_schema(doc, 1, 1, path);
  std::vector<OpRow> rows;
  for (const auto& [name, op] : doc.at("ops").object) {
    OpRow row;
    row.name = name;
    row.calls = static_cast<std::uint64_t>(op.num_or("calls", 0));
    row.total_us = op.num_or("total_us", 0);
    row.self_us = op.num_or("self_us", 0);
    row.bytes = op.num_or("bytes", 0);
    *total_self_us += row.self_us;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const OpRow& a, const OpRow& b) { return a.self_us > b.self_us; });
  return rows;
}

void print_profile(const std::vector<OpRow>& rows, double total_self_us) {
  std::printf("== op profile (%zu ops, sorted by self time) ==\n", rows.size());
  std::printf("%-28s %10s %12s %12s %7s %12s\n", "op", "calls", "total_ms",
              "self_ms", "self%", "bytes");
  for (const auto& r : rows) {
    const double share = total_self_us > 0 ? 100.0 * r.self_us / total_self_us : 0;
    std::printf("%-28s %10llu %12.3f %12.3f %6.1f%% %12s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.calls), r.total_us / 1000.0,
                r.self_us / 1000.0, share, human_bytes(r.bytes).c_str());
  }
  std::printf("%-28s %10s %12s %12.3f %6.1f%%\n\n", "TOTAL", "", "",
              total_self_us / 1000.0, 100.0);
}

// --- telemetry -------------------------------------------------------------

void print_telemetry(const Value& doc) {
  const Value& mem = doc.at("memory");
  std::printf("== tensor memory ==\n");
  std::printf("  live %s   peak %s   allocs %.0f   frees %.0f\n\n",
              human_bytes(mem.num_or("live_bytes", 0)).c_str(),
              human_bytes(mem.num_or("peak_bytes", 0)).c_str(),
              mem.num_or("alloc_count", 0), mem.num_or("free_count", 0));

  const Value& hists = doc.at("metrics").at("histograms");
  std::printf("== training phases (gtv.phase.*) ==\n");
  std::printf("%-36s %8s %12s %10s %10s\n", "phase", "count", "sum_ms", "p50_ms",
              "p99_ms");
  for (const auto& [name, h] : hists.object) {
    if (name.rfind("gtv.phase.", 0) != 0) continue;
    std::printf("%-36s %8.0f %12.3f %10.3f %10.3f\n", name.c_str(),
                h.num_or("count", 0), h.num_or("sum", 0), h.num_or("p50", 0),
                h.num_or("p99", 0));
  }
  std::printf("\n");

  const Value& counters = doc.at("metrics").at("counters");
  double traffic = 0;
  std::printf("== wire traffic (net.*) ==\n");
  for (const auto& [name, c] : counters.object) {
    if (name.rfind("net.", 0) != 0) continue;
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".bytes") == 0) {
      traffic += c.number;
      std::printf("%-36s %12s\n", name.c_str(), human_bytes(c.number).c_str());
    }
  }
  std::printf("%-36s %12s\n\n", "TOTAL", human_bytes(traffic).c_str());

  // Training-health context (GTV_HEALTH=1 runs): the |gp| histogram, the
  // last evaluated round's per-module gradient gauges and the envelope's
  // health block. The round wall clock is gtv.phase.round_ms above.
  std::printf("== run context ==\n");
  if (hists.has("gtv.health.gp")) {
    const Value& gp = hists.at("gtv.health.gp");
    std::printf("gradient penalty |gp|: %.0f samples, p50 %.4g p99 %.4g max %.4g\n",
                gp.num_or("count", 0), gp.num_or("p50", 0), gp.num_or("p99", 0),
                gp.num_or("max", 0));
  }
  bool header = false;
  for (const auto& [name, g] : doc.at("metrics").at("gauges").object) {
    if (name.rfind("gtv.health.", 0) != 0) continue;
    if (name.size() < 10 || name.compare(name.size() - 10, 10, ".grad_norm") != 0) {
      continue;
    }
    if (!header) {
      std::printf("final gradient norms (gtv.health.<module>.grad_norm):\n");
      header = true;
    }
    std::printf("  %-34s %12.6g\n", name.c_str(), g.number);
  }
  if (doc.has("health")) {
    const Value& h = doc.at("health");
    const bool enabled = h.has("enabled") && h.at("enabled").boolean;
    std::printf("envelope health block: enabled=%s total=%.0f fatal=%.0f\n",
                enabled ? "true" : "false", h.num_or("total", 0), h.num_or("fatal", 0));
  }
  std::printf("\n");
}

// --- health ----------------------------------------------------------------

// Renders a `<stem>.health.json` artefact: one line of severity counts
// plus the per-rule breakdown, then the alerts grouped by round in
// emission order.
void print_health(const std::string& path) {
  const Value doc = json::parse_file(path);
  json::require_schema(doc, 1, 1, path);
  const Value& summary = doc.at("summary");
  std::printf("== health alerts (%s) ==\n", path.c_str());
  std::printf("alerts: %.0f total — %.0f fatal, %.0f warn, %.0f info\n",
              summary.num_or("total", 0), summary.num_or("fatal", 0),
              summary.num_or("warn", 0), summary.num_or("info", 0));
  if (summary.has("rules")) {
    for (const auto& [rule, count] : summary.at("rules").object) {
      std::printf("  %-34s x%.0f\n", rule.c_str(), count.number);
    }
  }
  std::printf("\n");

  const Value& alerts = doc.at("alerts");
  std::map<std::size_t, std::vector<const Value*>> by_round;
  for (const auto& a : alerts.array) {
    by_round[static_cast<std::size_t>(a.num_or("round", 0))].push_back(&a);
  }
  std::printf("== per-round timeline (%zu alerts over %zu rounds) ==\n",
              alerts.array.size(), by_round.size());
  for (const auto& [round, fired] : by_round) {
    std::printf("round %zu:\n", round);
    for (const Value* a : fired) {
      std::printf("  [%-5s] %-24s value %.6g vs threshold %.6g  %s\n",
                  a->str_or("severity", "?").c_str(), a->str_or("rule", "?").c_str(),
                  a->num_or("value", 0), a->num_or("threshold", 0),
                  a->str_or("detail", "").c_str());
    }
  }
  std::printf("\n");
}

// Renders the per-round array GtvTrainer::telemetry_json writes: losses,
// |gp| and the health probe's module/alert counts.
void print_rounds(const std::string& path) {
  const Value rounds = json::parse_file(path);
  if (!rounds.is_array()) throw std::runtime_error(path + ": expected a JSON array of rounds");
  std::printf("== per-round losses & gradient norms (%zu rounds) ==\n",
              rounds.array.size());
  std::printf("%6s %12s %12s %10s %12s %8s %8s\n", "round", "d_loss", "g_loss",
              "|gp|", "wasserstein", "modules", "alerts");
  for (const auto& r : rounds.array) {
    const Value& losses = r.at("losses");
    std::size_t modules = 0, alerts = 0;
    if (r.has("health")) {
      modules = r.at("health").at("modules").array.size();
      alerts = r.at("health").at("alerts").array.size();
    }
    std::printf("%6.0f %12.5g %12.5g %10.4g %12.5g %8zu %8zu\n", r.num_or("round", 0),
                losses.num_or("d_loss", 0), losses.num_or("g_loss", 0),
                std::abs(losses.num_or("gp", 0)), losses.num_or("wasserstein", 0),
                modules, alerts);
  }
  std::printf("\n");
}

// Sum of round wall time in microseconds, from the phase histogram.
double round_wall_us(const Value& doc) {
  const Value& hists = doc.at("metrics").at("histograms");
  if (!hists.has("gtv.phase.round_ms")) return 0;
  return hists.at("gtv.phase.round_ms").num_or("sum", 0) * 1000.0;
}

// --- trace -----------------------------------------------------------------

struct PartyRow {
  std::string name;
  std::uint64_t spans = 0;
  double span_us = 0;
};

// Rewrites the number after `"pid":` in a raw trace line (string surgery —
// the merged file must stay byte-faithful to the source except for the pid).
std::string replace_pid(const std::string& line, int new_pid) {
  const std::string key = "\"pid\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return line;
  std::size_t start = at + key.size();
  while (start < line.size() && line[start] == ' ') ++start;
  std::size_t end = start;
  while (end < line.size() && (std::isdigit(static_cast<unsigned char>(line[end])) ||
                               line[end] == '-')) {
    ++end;
  }
  return line.substr(0, start) + std::to_string(new_pid) + line.substr(end);
}

// Rewrites the integer after `"ts":` in a raw trace line — same surgery as
// replace_pid; the trace sink prints ts as a plain integer so the digit run
// (with optional leading '-') is the whole value.
std::string replace_ts(const std::string& line, long long new_ts) {
  const std::string key = "\"ts\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return line;
  std::size_t start = at + key.size();
  while (start < line.size() && line[start] == ' ') ++start;
  std::size_t end = start;
  while (end < line.size() && (std::isdigit(static_cast<unsigned char>(line[end])) ||
                               line[end] == '-')) {
    ++end;
  }
  return line.substr(0, start) + std::to_string(new_ts) + line.substr(end);
}

// Merges one or more per-process trace files into a single analysis (and
// optionally a single merged JSONL). Two files claiming the same pid for
// different party names get de-conflicted: the later file's records are
// rewritten to a fresh pid. Flow ids are deterministic per link, so the
// 's' half from one file pairs with the 'f' half from another.
//
// When `offsets` is non-empty every timestamp of an offset-bearing party is
// rewritten onto the collector's clock (ts - offset_us), then all records
// are rebased by a common shift so no ts goes negative. Cross-file flow
// pairs then carry real latency instead of clock skew and join the gap
// statistics.
void print_traces(const std::vector<std::string>& paths,
                  const std::string& merged_out,
                  const json::ClockOffsets& offsets) {
  const bool align = !offsets.empty();
  // Rebase so the most-ahead party's rewritten timestamps stay positive:
  // aligned_ts = ts - offset + shift, shift = max(0, max offset).
  double shift_us = 0;
  double max_rtt_us = 0;
  for (const auto& [party, off] : offsets) {
    (void)party;
    shift_us = std::max(shift_us, off.offset_us);
    max_rtt_us = std::max(max_rtt_us, off.rtt_us);
  }
  std::map<int, PartyRow> parties;
  std::map<int, std::string> pid_owner;  // merged pid -> party name
  // flow id -> (start ts, finish ts, start file, finish file); ts 0 = unseen.
  struct FlowSlot {
    double start_ts = 0, finish_ts = 0;
    int start_file = -1, finish_file = -1;
  };
  std::map<std::uint64_t, FlowSlot> flows;
  std::map<std::string, std::uint64_t> flow_names;
  std::vector<std::size_t> file_records(paths.size(), 0);
  std::vector<std::string> merged_lines;
  std::vector<std::string> missing_offsets;
  int next_free_pid = 100;

  for (std::size_t fi = 0; fi < paths.size(); ++fi) {
    std::ifstream in(paths[fi]);
    if (!in) throw std::runtime_error("cannot open " + paths[fi]);
    // Pass 1: learn this file's pid -> party-name declarations so that
    // collisions can be detected before any record is emitted.
    std::map<int, std::string> local_names;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const Value rec = json::parse(line);
      if (rec.str_or("ph", "") == "M" &&
          rec.str_or("name", "") == "process_name" && rec.has("args")) {
        local_names[static_cast<int>(rec.num_or("pid", -1))] =
            rec.at("args").str_or("name", "");
      }
    }
    // Decide the remap: same pid + same party name = same logical party
    // (share the pid); same pid + different name = collision (fresh pid).
    std::map<int, int> remap;
    for (const auto& [pid, name] : local_names) {
      auto it = pid_owner.find(pid);
      if (it == pid_owner.end()) {
        pid_owner[pid] = name;
      } else if (it->second != name) {
        while (pid_owner.count(next_free_pid)) ++next_free_pid;
        remap[pid] = next_free_pid;
        pid_owner[next_free_pid] = name;
      }
    }
    // Clock correction for this file's pids, keyed by the *original* pid
    // (records are looked up before the collision remap rewrites them).
    std::map<int, double> file_offset;
    if (align) {
      for (const auto& [pid, name] : local_names) {
        auto it = offsets.find(name);
        if (it != offsets.end()) {
          file_offset[pid] = it->second.offset_us;
        } else {
          missing_offsets.push_back(name);
        }
      }
    }
    // Pass 2: aggregate + rewrite.
    in.clear();
    in.seekg(0);
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++file_records[fi];
      const Value rec = json::parse(line);
      const std::string ph = rec.str_or("ph", "");
      int pid = static_cast<int>(rec.num_or("pid", -1));
      double ts = rec.num_or("ts", 0);
      if (align && rec.has("ts")) {
        const auto off = file_offset.find(pid);
        ts = ts - (off != file_offset.end() ? off->second : 0.0) + shift_us;
        line = replace_ts(line, std::llround(ts));
      }
      if (auto it = remap.find(pid); it != remap.end()) {
        line = replace_pid(line, it->second);
        pid = it->second;
      }
      if (!merged_out.empty()) merged_lines.push_back(line);
      if (ph == "M") {
        if (rec.str_or("name", "") == "process_name" && rec.has("args")) {
          parties[pid].name = rec.at("args").str_or("name", "");
        }
      } else if (ph == "X") {
        parties[pid].spans += 1;
        parties[pid].span_us += rec.num_or("dur", 0);
      } else if (ph == "s" || ph == "f") {
        const auto id = static_cast<std::uint64_t>(rec.num_or("id", 0));
        auto& slot = flows[id];
        if (ph == "s") {
          slot.start_ts = ts;
          slot.start_file = static_cast<int>(fi);
          flow_names[rec.str_or("name", "?")] += 1;
        } else {
          slot.finish_ts = ts;
          slot.finish_file = static_cast<int>(fi);
        }
      }
    }
  }

  if (!merged_out.empty()) {
    std::ofstream out(merged_out);
    if (!out) throw std::runtime_error("cannot write " + merged_out);
    for (const auto& l : merged_lines) out << l << "\n";
  }

  std::size_t total_records = 0;
  for (const std::size_t n : file_records) total_records += n;
  if (paths.size() == 1) {
    std::printf("== trace: %s (%zu records) ==\n", paths[0].c_str(), total_records);
  } else {
    std::printf("== trace: %zu files merged (%zu records) ==\n", paths.size(),
                total_records);
    for (std::size_t fi = 0; fi < paths.size(); ++fi) {
      std::printf("  %-40s %zu records\n", paths[fi].c_str(), file_records[fi]);
    }
  }
  std::printf("%-4s %-16s %10s %14s\n", "pid", "party", "spans", "span_ms");
  for (const auto& [pid, row] : parties) {
    std::printf("%-4d %-16s %10llu %14.3f\n", pid,
                row.name.empty() ? "?" : row.name.c_str(),
                static_cast<unsigned long long>(row.spans), row.span_us / 1000.0);
  }

  // Without --offsets, mean gap is only meaningful for pairs within one
  // file: each process stamps with its own monotonic clock, so raw
  // cross-file deltas carry clock skew, not latency. With --offsets the
  // timestamps above were aligned onto the collector's clock, so
  // cross-file pairs join the statistics (error bound: the max min-RTT of
  // the winning clock-sync samples).
  std::uint64_t paired = 0, cross_file = 0, gap_pairs = 0, cross_pairs = 0;
  double latency_us = 0, cross_latency_us = 0;
  double cross_min_us = 0;
  for (const auto& [id, slot] : flows) {
    if (slot.start_ts > 0 && slot.finish_ts > 0) {
      ++paired;
      if (slot.start_file != slot.finish_file) {
        ++cross_file;
        if (align) {
          const double gap = slot.finish_ts - slot.start_ts;
          if (cross_pairs == 0 || gap < cross_min_us) cross_min_us = gap;
          ++cross_pairs;
          cross_latency_us += gap;
        }
      } else {
        ++gap_pairs;
        latency_us += slot.finish_ts - slot.start_ts;
      }
    }
  }
  std::printf("flows: %zu ids, %llu send/recv pairs", flows.size(),
              static_cast<unsigned long long>(paired));
  if (paths.size() > 1) {
    std::printf(" (%llu spanning files)", static_cast<unsigned long long>(cross_file));
  }
  if (gap_pairs > 0) {
    std::printf(", mean send->recv gap %.1f us", latency_us / static_cast<double>(gap_pairs));
  }
  std::printf("\n");
  if (cross_pairs > 0) {
    std::printf(
        "aligned cross-file gap: mean %.1f us, min %.1f us over %llu pairs"
        " (clock-sync error bound +/-%.1f us)\n",
        cross_latency_us / static_cast<double>(cross_pairs), cross_min_us,
        static_cast<unsigned long long>(cross_pairs), max_rtt_us);
  } else if (!align && paths.size() > 1 && cross_file > 0) {
    std::printf(
        "note: %llu cross-file pairs excluded from gap stats — timestamps"
        " carry per-process clock skew; rerun with --offsets <offsets.json>"
        " from a collector run (gtv-node --offsets-out) to align them\n",
        static_cast<unsigned long long>(cross_file));
  }
  if (!missing_offsets.empty()) {
    std::sort(missing_offsets.begin(), missing_offsets.end());
    missing_offsets.erase(
        std::unique(missing_offsets.begin(), missing_offsets.end()),
        missing_offsets.end());
    std::printf("warning: no clock offset for");
    for (const auto& name : missing_offsets) std::printf(" %s", name.c_str());
    std::printf(" — their timestamps were rebased but not skew-corrected\n");
  }
  for (const auto& [name, count] : flow_names) {
    std::printf("  %-34s x%llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (!merged_out.empty()) {
    std::printf("merged trace written to %s (%zu records)\n", merged_out.c_str(),
                merged_lines.size());
  }
  std::printf("\n");
}

}  // namespace

int run_prof(int argc, char** argv) {
  const Args args = parse_args(
      argc, argv,
      {"--profile", "--telemetry", "--health", "--rounds", "--trace", "--merged-out",
       "--offsets"},
      {}, false);
  const std::vector<std::string> trace_paths = args.all("--trace");
  const std::string profile_path = args.get("--profile");
  const std::string telemetry_path = args.get("--telemetry");
  const std::string rounds_path = args.get("--rounds");
  std::string health_path = args.get("--health");
  if (trace_paths.empty() && profile_path.empty() && telemetry_path.empty() &&
      health_path.empty() && rounds_path.empty()) {
    usage_error("prof: nothing to do (pass --profile/--telemetry/--health/--rounds/--trace)");
  }
  // Auto-pickup: a run that wrote <stem>.telemetry.json under GTV_HEALTH=1
  // left <stem>.health.json next to it.
  const std::string kTelemetrySuffix = ".telemetry.json";
  if (health_path.empty() && telemetry_path.size() > kTelemetrySuffix.size() &&
      telemetry_path.compare(telemetry_path.size() - kTelemetrySuffix.size(),
                             kTelemetrySuffix.size(), kTelemetrySuffix) == 0) {
    const std::string candidate =
        telemetry_path.substr(0, telemetry_path.size() - kTelemetrySuffix.size()) +
        ".health.json";
    if (std::ifstream(candidate).good()) health_path = candidate;
  }
  // Fail on a bad offsets file before any report section prints.
  json::ClockOffsets offsets;
  if (args.has("--offsets")) offsets = json::load_offsets(args.get("--offsets"));

  double total_self_us = 0;
  if (!profile_path.empty()) {
    const std::vector<OpRow> rows = load_profile(profile_path, &total_self_us);
    print_profile(rows, total_self_us);
  }
  double wall_us = 0;
  if (!telemetry_path.empty()) {
    const Value doc = json::parse_file(telemetry_path);
    json::require_schema(doc, 2, 3, telemetry_path);
    print_telemetry(doc);
    wall_us = round_wall_us(doc);
  }
  if (!health_path.empty()) print_health(health_path);
  if (!rounds_path.empty()) print_rounds(rounds_path);
  if (!trace_paths.empty()) print_traces(trace_paths, args.get("--merged-out"), offsets);
  if (!profile_path.empty() && wall_us > 0) {
    std::printf("== coverage ==\n");
    std::printf("op self time %.3f ms of %.3f ms round wall clock (%.1f%%)\n",
                total_self_us / 1000.0, wall_us / 1000.0, 100.0 * total_self_us / wall_us);
  }
  return 0;
}

}  // namespace gtv::obs::cli
