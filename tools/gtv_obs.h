// gtv-obs — the one observability CLI. Each subcommand lives in its own
// source file (obs_prof.cpp, obs_flame.cpp, obs_postmortem.cpp,
// obs_top.cpp); this header holds what they share: the flag parser and the
// byte formatting. Whole-file JSON reads, the schema check and the
// clock-offsets reader live in obs/json.h, next to their writers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace gtv::obs::cli {

// Prints `msg` and the usage text to stderr and exits 2. Defined with the
// usage text in gtv_obs.cpp.
[[noreturn]] void usage_error(const std::string& msg);
void print_usage(std::FILE* out);

// One subcommand's command line: each flag's values in the order given
// (switches record an empty value), plus the positional arguments.
struct Args {
  std::map<std::string, std::vector<std::string>> flags;
  std::vector<std::string> positional;

  bool has(const std::string& flag) const { return flags.count(flag) != 0; }

  // The flag's last value, or `fallback` when it was not given.
  std::string get(const std::string& flag, const std::string& fallback = "") const {
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : it->second.back();
  }

  // Every value of a repeatable flag, in order.
  std::vector<std::string> all(const std::string& flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? std::vector<std::string>{} : it->second;
  }

  // The flag's last value as a number. Every numeric flag is a count,
  // port, interval or window, so anything but a number in [0, 1e9] is a
  // usage error; callers can then cast to int or size_t safely.
  double num(const std::string& flag, double fallback) const {
    if (!has(flag)) return fallback;
    const std::string text = get(flag);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value >= 0 && value <= 1e9)) {
      usage_error(flag + " needs a number in [0, 1e9], got '" + text + "'");
    }
    return value;
  }
};

// Parses a subcommand's arguments (argv[0] is the subcommand name).
// `valued` flags take the next argument, `switches` take none; -h/--help
// prints the usage text and exits 0. Any other argument starting with '-'
// is a usage error, as is a positional argument when `positional` is false.
inline Args parse_args(int argc, char** argv, std::initializer_list<const char*> valued,
                       std::initializer_list<const char*> switches, bool positional) {
  const auto listed = [](std::initializer_list<const char*> list, const std::string& flag) {
    for (const char* name : list) {
      if (flag == name) return true;
    }
    return false;
  };
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(stdout);
      std::exit(0);
    } else if (listed(valued, arg)) {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      args.flags[arg].push_back(argv[++i]);
    } else if (listed(switches, arg)) {
      args.flags[arg].push_back("");
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (positional) {
      args.positional.push_back(arg);
    } else {
      usage_error("unexpected argument " + arg);
    }
  }
  return args;
}

// "512 B", "1.5 KiB", "3.2 MiB", "1.1 GiB".
inline std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 3) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", bytes, units[unit]);
  return buf;
}

// Subcommand entry points. Each parses its own arguments, throws
// std::runtime_error on unreadable or malformed input (main turns that
// into exit 1), and returns the exit code otherwise.
int run_prof(int argc, char** argv);
int run_flame(int argc, char** argv);
int run_postmortem(int argc, char** argv);
int run_top(int argc, char** argv);

}  // namespace gtv::obs::cli
