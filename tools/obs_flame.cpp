// gtv-obs flame: merge, diff, and render the folded profiles written by
// `gtv-node --sample-hz` (see obs/sampler.h for the on-disk format).
//
//   gtv-obs flame run/*.folded --out merged.folded      merged folded text
//   gtv-obs flame run/*.folded --svg flame.svg          self-contained flamegraph
//   gtv-obs flame run/*.folded --json                   machine-readable summary
//   gtv-obs flame run/*.folded --base before/*.folded   diff (count deltas)
//   gtv-obs flame run/*.folded --offsets offsets.json   annotate party clock skew
//
// Each input line is `party;state;phase;thread;frame;...;leaf N` with state
// cpu or offcpu; merging is summation keyed by the full stack, so profiles
// from N parties of one run (or N runs of one party) concatenate losslessly.
// With --base, counts become (current - base): positive means the stack got
// hotter. The SVG is a single static file — no external scripts or fonts —
// with per-rect <title> tooltips; in diff mode rect colour encodes the sign
// of the delta while width tracks the current profile.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtv_obs.h"
#include "obs/json.h"
#include "obs/sampler.h"

namespace gtv::obs::cli {
namespace {

struct Options {
  std::string state_filter;  // "", "cpu", or "offcpu"
  int top = 10;              // top-self entries in --json
};

// One merged profile: stack -> summed count, plus per-file header metadata.
struct Profile {
  // Stack is root-first, already prefixed party;state;phase;thread.
  std::map<std::vector<std::string>, std::int64_t> stacks;
  std::set<std::string> parties;
  std::uint64_t cpu_samples = 0;
  std::uint64_t offcpu_samples = 0;
  std::uint64_t dropped = 0;
  std::size_t files = 0;
};

std::vector<std::string> split_stack(const std::string& text) {
  std::vector<std::string> frames;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t semi = text.find(';', start);
    if (semi == std::string::npos) {
      frames.push_back(text.substr(start));
      break;
    }
    frames.push_back(text.substr(start, semi - start));
    start = semi + 1;
  }
  return frames;
}

// Loads one folded file into `out`. Unknown `#` headers are skipped so the
// reader tolerates future format additions; a bad magic line is fatal.
void load_folded(const std::string& path, Profile* out) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("# gtv-folded ", 0) != 0) {
        throw std::runtime_error(path + ": not a gtv folded profile");
      }
      continue;
    }
    if (line[0] == '#') {
      std::istringstream hdr(line.substr(1));
      std::string key, value;
      hdr >> key >> value;
      if (key == "party") out->parties.insert(value);
      else if (key == "cpu_samples") out->cpu_samples += std::strtoull(value.c_str(), nullptr, 10);
      else if (key == "offcpu_samples") out->offcpu_samples += std::strtoull(value.c_str(), nullptr, 10);
      else if (key == "dropped") out->dropped += std::strtoull(value.c_str(), nullptr, 10);
      continue;
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    const std::int64_t count = std::strtoll(line.c_str() + space + 1, nullptr, 10);
    if (count == 0) continue;
    std::vector<std::string> frames = split_stack(line.substr(0, space));
    if (frames.size() < 4) continue;  // party;state;phase;thread prefix missing
    out->parties.insert(frames[0]);
    out->stacks[std::move(frames)] += count;
  }
  ++out->files;
}

// The first four frames are synthetic tags, not code locations.
constexpr std::size_t kPrefixFrames = 4;
constexpr std::size_t kStateFrame = 1;

bool state_matches(const std::vector<std::string>& frames, const std::string& filter) {
  return filter.empty() || frames[kStateFrame] == filter;
}

// --- folded text output ---------------------------------------------------------

void write_folded_text(std::FILE* f, const Profile& prof, const Profile* base,
                       const Options& opt, const json::ClockOffsets& offsets) {
  std::fprintf(f, "# gtv-folded %d\n", gtv::obs::sampler::kFoldedFormatVersion);
  std::string parties;
  for (const auto& p : prof.parties) parties += (parties.empty() ? "" : ",") + p;
  std::fprintf(f, "# merged_parties %s\n", parties.c_str());
  std::fprintf(f, "# files %zu\n", prof.files);
  std::fprintf(f, "# cpu_samples %llu\n# offcpu_samples %llu\n# dropped %llu\n",
               static_cast<unsigned long long>(prof.cpu_samples),
               static_cast<unsigned long long>(prof.offcpu_samples),
               static_cast<unsigned long long>(prof.dropped));
  if (base != nullptr) std::fprintf(f, "# diff_base_files %zu\n", base->files);
  for (const auto& [party, off] : offsets) {
    std::fprintf(f, "# clock_offset_us %s %.3f\n", party.c_str(), off.offset_us);
  }
  // Emit current-profile stacks (with deltas when diffing), then base-only
  // stacks that disappeared entirely, as pure negatives.
  for (const auto& [frames, count] : prof.stacks) {
    if (!state_matches(frames, opt.state_filter)) continue;
    std::int64_t value = count;
    if (base != nullptr) {
      const auto it = base->stacks.find(frames);
      value -= it == base->stacks.end() ? 0 : it->second;
      if (value == 0) continue;
    }
    std::string joined;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i != 0) joined += ';';
      joined += frames[i];
    }
    std::fprintf(f, "%s %lld\n", joined.c_str(), static_cast<long long>(value));
  }
  if (base != nullptr) {
    for (const auto& [frames, count] : base->stacks) {
      if (!state_matches(frames, opt.state_filter)) continue;
      if (prof.stacks.count(frames) != 0) continue;
      std::string joined;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        if (i != 0) joined += ';';
        joined += frames[i];
      }
      std::fprintf(f, "%s %lld\n", joined.c_str(), static_cast<long long>(-count));
    }
  }
}

// --- SVG flamegraph -------------------------------------------------------------

struct FlameNode {
  std::string name;
  std::int64_t total = 0;  // current-profile samples in this subtree
  std::int64_t delta = 0;  // (current - base), diff mode only
  std::map<std::string, std::unique_ptr<FlameNode>> children;
};

void insert_stack(FlameNode* root, const std::vector<std::string>& frames,
                  std::int64_t count, std::int64_t delta) {
  FlameNode* node = root;
  node->total += count;
  node->delta += delta;
  for (const auto& frame : frames) {
    auto& child = node->children[frame];
    if (!child) {
      child = std::make_unique<FlameNode>();
      child->name = frame;
    }
    node = child.get();
    node->total += count;
    node->delta += delta;
  }
}

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// Deterministic warm palette keyed by the frame name; off-CPU subtrees get a
// cool palette so the two halves of a mixed profile read at a glance.
std::string fill_color(const std::string& name, bool offcpu, std::int64_t delta,
                       bool diff_mode) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  const int jitter = static_cast<int>(h % 50);
  char buf[32];
  if (diff_mode) {
    // Red = hotter than base, blue = cooler, grey = unchanged.
    if (delta > 0) std::snprintf(buf, sizeof buf, "rgb(230,%d,%d)", 90 + jitter, 70);
    else if (delta < 0) std::snprintf(buf, sizeof buf, "rgb(%d,%d,235)", 80, 120 + jitter);
    else std::snprintf(buf, sizeof buf, "rgb(190,190,190)");
  } else if (offcpu) {
    std::snprintf(buf, sizeof buf, "rgb(%d,%d,235)", 90 + jitter, 140 + jitter);
  } else {
    std::snprintf(buf, sizeof buf, "rgb(235,%d,%d)", 120 + jitter, 40 + jitter / 2);
  }
  return buf;
}

struct SvgEmitter {
  std::FILE* f = nullptr;
  double width = 1200.0;
  double row_h = 16.0;
  std::int64_t root_total = 1;
  bool diff_mode = false;
  int max_depth = 0;

  void emit(const FlameNode& node, double x, int depth, bool offcpu_branch) {
    const double w = width * static_cast<double>(node.total) / static_cast<double>(root_total);
    if (w < 0.25) return;  // sub-pixel: skip subtree
    max_depth = std::max(max_depth, depth);
    const double y = 40.0 + depth * row_h;
    const bool offcpu = offcpu_branch || node.name == "offcpu";
    const double pct = 100.0 * static_cast<double>(node.total) / static_cast<double>(root_total);
    std::fprintf(f,
                 "<g><title>%s — %lld samples (%.2f%%)%s</title>"
                 "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" "
                 "fill=\"%s\" rx=\"1\"/>",
                 xml_escape(node.name).c_str(), static_cast<long long>(node.total), pct,
                 diff_mode ? (" delta " + std::to_string(node.delta)).c_str() : "",
                 x, y, w - 0.5, row_h - 1.0,
                 fill_color(node.name, offcpu, node.delta, diff_mode).c_str());
    if (w > 30.0) {
      std::string label = node.name;
      const std::size_t fit = static_cast<std::size_t>(w / 6.5);
      if (label.size() > fit) label = label.substr(0, fit > 2 ? fit - 2 : 0) + "..";
      std::fprintf(f,
                   "<text x=\"%.2f\" y=\"%.2f\" font-size=\"10\" "
                   "font-family=\"monospace\" fill=\"#111\">%s</text>",
                   x + 2.0, y + row_h - 4.5, xml_escape(label).c_str());
    }
    std::fprintf(f, "</g>\n");
    double cx = x;
    for (const auto& [name, child] : node.children) {
      emit(*child, cx, depth + 1, offcpu);
      cx += width * static_cast<double>(child->total) / static_cast<double>(root_total);
    }
  }
};

int tree_depth(const FlameNode& node) {
  int deepest = 0;
  for (const auto& [name, child] : node.children) {
    deepest = std::max(deepest, tree_depth(*child));
  }
  return deepest + 1;
}

void write_svg(const std::string& path, const Profile& prof, const Profile* base,
               const Options& opt) {
  FlameNode root;
  root.name = "all";
  for (const auto& [frames, count] : prof.stacks) {
    if (!state_matches(frames, opt.state_filter)) continue;
    std::int64_t delta = count;
    if (base != nullptr) {
      const auto it = base->stacks.find(frames);
      delta -= it == base->stacks.end() ? 0 : it->second;
    }
    // Drop the leading party tag from the tree (it's in the per-rect title
    // via the thread frame anyway) but keep state/phase/thread so on-CPU and
    // off-CPU time split into separate towers.
    std::vector<std::string> tree_frames(frames.begin() + 1, frames.end());
    tree_frames[0] += ":" + frames[0];  // e.g. cpu:client0
    insert_stack(&root, tree_frames, count, base != nullptr ? delta : 0);
  }
  if (root.total == 0) throw std::runtime_error("no samples to render");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  SvgEmitter svg;
  svg.f = f;
  svg.root_total = root.total;
  svg.diff_mode = base != nullptr;
  const int depth = tree_depth(root);
  const double height = 40.0 + (depth + 1) * svg.row_h + 24.0;
  std::fprintf(f,
               "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" "
               "viewBox=\"0 0 %.0f %.0f\">\n"
               "<rect width=\"100%%\" height=\"100%%\" fill=\"#fdfdfd\"/>\n"
               "<text x=\"8\" y=\"20\" font-size=\"14\" font-family=\"monospace\">"
               "gtv-obs flame%s — %lld samples, %zu file(s)</text>\n"
               "<text x=\"8\" y=\"34\" font-size=\"10\" font-family=\"monospace\" "
               "fill=\"#555\">warm = on-CPU, cool = off-CPU%s; hover for counts</text>\n",
               svg.width, height, svg.width, height,
               svg.diff_mode ? " (diff vs base)" : "",
               static_cast<long long>(root.total), prof.files,
               svg.diff_mode ? "; red = hotter than base, blue = cooler" : "");
  svg.emit(root, 0.0, 0, false);
  std::fprintf(f, "</svg>\n");
  std::fclose(f);
}

// --- JSON summary ---------------------------------------------------------------

void write_json(const Profile& prof, const Profile* base, const Options& opt,
                const json::ClockOffsets& offsets) {
  // Frame resolution and self-time are measured over real code frames only —
  // the party/state/phase/thread prefix is synthetic and always "resolves".
  std::uint64_t frames_total = 0, frames_resolved = 0;
  std::int64_t total = 0, cpu = 0, offcpu = 0;
  // key: (frame, state) -> self samples (leaf attribution).
  std::map<std::pair<std::string, std::string>, std::int64_t> self;
  for (const auto& [frames, count] : prof.stacks) {
    if (!state_matches(frames, opt.state_filter)) continue;
    total += count;
    (frames[kStateFrame] == "offcpu" ? offcpu : cpu) += count;
    for (std::size_t i = kPrefixFrames; i < frames.size(); ++i) {
      frames_total += static_cast<std::uint64_t>(count);
      if (gtv::obs::sampler::frame_is_resolved(frames[i])) {
        frames_resolved += static_cast<std::uint64_t>(count);
      }
    }
    if (frames.size() > kPrefixFrames) {
      self[{frames.back(), frames[kStateFrame]}] += count;
    }
  }
  std::vector<std::pair<std::pair<std::string, std::string>, std::int64_t>> ranked(
      self.begin(), self.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > static_cast<std::size_t>(opt.top)) ranked.resize(opt.top);

  std::printf("{\n  \"files\": %zu,\n  \"parties\": [", prof.files);
  bool first = true;
  for (const auto& party : prof.parties) {
    std::printf("%s\"%s\"", first ? "" : ", ", json::escape(party).c_str());
    first = false;
  }
  const double resolved_frac =
      frames_total == 0 ? 0.0
                        : static_cast<double>(frames_resolved) / static_cast<double>(frames_total);
  std::printf("],\n  \"total_samples\": %lld,\n  \"cpu_samples\": %lld,\n"
              "  \"offcpu_samples\": %lld,\n  \"dropped\": %llu,\n"
              "  \"unique_stacks\": %zu,\n  \"frames_total\": %llu,\n"
              "  \"frames_resolved\": %llu,\n  \"resolved_frac\": %.4f,\n",
              static_cast<long long>(total), static_cast<long long>(cpu),
              static_cast<long long>(offcpu),
              static_cast<unsigned long long>(prof.dropped), prof.stacks.size(),
              static_cast<unsigned long long>(frames_total),
              static_cast<unsigned long long>(frames_resolved), resolved_frac);
  if (base != nullptr) {
    std::int64_t base_total = 0;
    for (const auto& [frames, count] : base->stacks) {
      if (state_matches(frames, opt.state_filter)) base_total += count;
    }
    std::printf("  \"base_total_samples\": %lld,\n", static_cast<long long>(base_total));
  }
  if (!offsets.empty()) {
    std::printf("  \"clock_offsets_us\": {");
    first = true;
    for (const auto& [party, off] : offsets) {
      std::printf("%s\"%s\": %.3f", first ? "" : ", ", json::escape(party).c_str(),
                  off.offset_us);
      first = false;
    }
    std::printf("},\n");
  }
  std::printf("  \"top_self\": [");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    std::printf("%s\n    {\"frame\": \"%s\", \"state\": \"%s\", \"self_samples\": %lld}",
                i == 0 ? "" : ",", json::escape(ranked[i].first.first).c_str(),
                ranked[i].first.second.c_str(),
                static_cast<long long>(ranked[i].second));
  }
  std::printf("\n  ]\n}\n");
}

// Loads every file of `paths` into one profile.
Profile load_all(const std::vector<std::string>& paths) {
  Profile prof;
  for (const auto& path : paths) load_folded(path, &prof);
  return prof;
}

}  // namespace

int run_flame(int argc, char** argv) {
  const Args args = parse_args(argc, argv,
                               {"--out", "--svg", "--base", "--offsets", "--state", "--top"},
                               {"--json"}, true);
  if (args.positional.empty()) usage_error("flame: no input files");
  Options opt;
  opt.state_filter = args.get("--state");
  if (args.has("--state") && opt.state_filter != "cpu" && opt.state_filter != "offcpu") {
    usage_error("flame: --state must be cpu or offcpu");
  }
  opt.top = std::max(1, static_cast<int>(args.num("--top", 10)));
  std::vector<std::string> base_inputs;
  for (const std::string& list : args.all("--base")) {
    std::stringstream items(list);
    std::string item;
    while (std::getline(items, item, ',')) {
      if (!item.empty()) base_inputs.push_back(item);
    }
  }

  const Profile prof = load_all(args.positional);
  const Profile base = load_all(base_inputs);
  const Profile* base_ptr = base_inputs.empty() ? nullptr : &base;
  json::ClockOffsets offsets;
  if (args.has("--offsets")) offsets = json::load_offsets(args.get("--offsets"));

  const std::string out_path = args.get("--out");  // "-" = stdout
  const std::string svg_path = args.get("--svg");
  if (!svg_path.empty()) write_svg(svg_path, prof, base_ptr, opt);
  if (out_path == "-") {
    write_folded_text(stdout, prof, base_ptr, opt, offsets);
  } else if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + out_path);
    write_folded_text(f, prof, base_ptr, opt, offsets);
    std::fclose(f);
  }
  if (args.has("--json")) write_json(prof, base_ptr, opt, offsets);
  if (out_path.empty() && svg_path.empty() && !args.has("--json")) {
    // Bare invocation: merged folded text to stdout, ready to pipe onward.
    write_folded_text(stdout, prof, base_ptr, opt, offsets);
  }
  return 0;
}

}  // namespace gtv::obs::cli
