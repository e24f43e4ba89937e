// perfbench — one command for the repository benchmark.
//
//   perfbench --workload <train_paper|train_tall_tcp|serve_open>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines first, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// on an untraced run, per-layer metrics on a traced one. A traced run also
// writes its spans to .perfbench_out/<workload>-<seed>.trace.jsonl. The
// exit code is non-zero when any output check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_paper|train_tall_tcp|serve_open> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();

  perfbench::Report report;
  perfbench::declare_metrics(report);
  perfbench::SpanLog::instance().set_enabled(args.trace);
  try {
    if (args.workload == "train_paper") {
      perfbench::run_train_paper(args, report);
    } else if (args.workload == "train_tall_tcp") {
      perfbench::run_train_tall_tcp(args, report);
    } else if (args.workload == "serve_open") {
      perfbench::run_serve_open(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  if (args.trace) {
    perfbench::SpanLog& spans = perfbench::SpanLog::instance();
    spans.set_enabled(false);
    report.layer("trace.spans", static_cast<double>(spans.size()), "count");
    std::filesystem::create_directories(".perfbench_out");
    const std::string path =
        ".perfbench_out/" + args.workload + "-" + std::to_string(args.seed) + ".trace.jsonl";
    if (!spans.write_jsonl(path)) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  report.print_human(args);
  std::printf("%s\n", report.json(args.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
