// gtv-obs — reads the observability artefacts a GTV run leaves behind, one
// subcommand per kind of question:
//
//   prof        profile, telemetry, health and trace reports of one run
//   flame       folded sampling profiles: merge, diff, SVG flamegraph
//   postmortem  cross-party crash forensics from black-box rings
//   top         live per-party view through a Collector's HTTP endpoint
//
// Every party runs in its own process on its own clock, so a run leaves one
// trace, ring and folded profile per party. The clock-offsets file
// (gtv-node --offsets-out, read by obs::json::load_offsets) puts them on
// one timeline for prof, flame and postmortem.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "gtv_obs.h"

namespace gtv::obs::cli {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gtv-obs <subcommand> [flags]\n"
      "\n"
      "  prof        merge one run's artefacts into a report\n"
      "              [--profile <stem>.profile.json] [--telemetry <stem>.telemetry.json]\n"
      "              [--health <stem>.health.json] [--rounds <rounds.json>]\n"
      "              [--trace <trace.jsonl>]... [--merged-out <merged.jsonl>]\n"
      "              [--offsets <offsets.json>]\n"
      "  flame       merge, diff and render folded sampling profiles\n"
      "              FILE.folded... [--out PATH|-] [--svg PATH] [--json]\n"
      "              [--base FILE[,FILE...]] [--state cpu|offcpu] [--top N]\n"
      "              [--offsets <offsets.json>]\n"
      "  postmortem  name the first party to die from black-box rings\n"
      "              <ring.bbox>... [--offsets <offsets.json>] [--window-s K] [--json]\n"
      "              --bench --bench-path FILE [--bench-records N]\n"
      "  top         live per-party view of a run through its Collector\n"
      "              --port N [--host H] [--interval-ms N] [--frames N] [--once]\n"
      "              [--no-clear]\n"
      "\n"
      "--offsets takes the clock-offsets file of gtv-node --offsets-out.\n"
      "exit codes: 0 ok; 1 unreadable or malformed input, or top never reached\n"
      "the collector; 2 usage error; 3 postmortem found a party that died.\n");
}

void usage_error(const std::string& msg) {
  std::fprintf(stderr, "gtv-obs: %s\n", msg.c_str());
  print_usage(stderr);
  std::exit(2);
}

}  // namespace gtv::obs::cli

int main(int argc, char** argv) {
  using namespace gtv::obs::cli;
  const std::string sub = argc > 1 ? argv[1] : "";
  if (sub == "-h" || sub == "--help") {
    print_usage(stdout);
    return 0;
  }
  int (*run)(int, char**) = nullptr;
  if (sub == "prof") run = run_prof;
  if (sub == "flame") run = run_flame;
  if (sub == "postmortem") run = run_postmortem;
  if (sub == "top") run = run_top;
  if (run == nullptr) usage_error(sub.empty() ? "no subcommand" : "unknown subcommand " + sub);
  try {
    return run(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtv-obs %s: %s\n", sub.c_str(), e.what());
    return 1;
  }
}
