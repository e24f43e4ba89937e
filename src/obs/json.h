// gtv::obs — minimal JSON reader for the observability artefacts.
//
// The obs stack *emits* JSON by hand (metrics snapshots, profile tables,
// trace JSONL); this is the matching reader used by tools/gtv-obs to merge
// those artefacts and by tests to prove every emitted line parses back.
// It is a strict recursive-descent parser over the JSON grammar (objects,
// arrays, strings with escapes, numbers, true/false/null); it is not meant
// as a general-purpose library — no streaming, no comments, doubles only.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gtv::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  bool has(const std::string& key) const {
    return is_object() && object.find(key) != object.end();
  }
  // Object member access; throws std::out_of_range when absent.
  const Value& at(const std::string& key) const;
  // Object member or `fallback` number/string when absent.
  double num_or(const std::string& key, double fallback) const;
  std::string str_or(const std::string& key, const std::string& fallback) const;
};

// Parses exactly one JSON document (trailing whitespace allowed). Throws
// std::runtime_error with position info on malformed input.
Value parse(std::string_view text);

// Reads and parses the JSON document at `path`. Throws std::runtime_error
// naming the path when the file cannot be read or does not parse.
Value parse_file(const std::string& path);

// Throws std::runtime_error unless `doc`'s schema_version lies in [lo, hi];
// `what` (usually the path) prefixes the message.
void require_schema(const Value& doc, double lo, double hi, const std::string& what);

// --- emitter helpers --------------------------------------------------------
// The single home for the string/number escaping every hand-written JSON
// emitter in the obs stack shares (metrics snapshots, health logs,
// Prometheus exposition). Everything escape() emits parses back via
// parse() above.

// Escapes `"`, `\` and control characters for embedding in a JSON string.
std::string escape(const std::string& s);

// JSON has no NaN/Inf literals; clamps them (NaN -> 0, ±Inf -> ±1e308) so
// pathological observations stay representable.
double safe_num(double v);

// Prometheus label-value escaping: backslash, double quote, newline only
// (the exposition format, unlike JSON, leaves other bytes untouched).
std::string prom_label_escape(const std::string& s);

// Microseconds as fixed-point text with 3 decimals. Offsets of a second or
// more keep every microsecond (the stream default of 6 significant digits
// would print 1234567.25 as 1.23457e+06).
std::string fixed_us(double us);

// --- clock-offsets file -----------------------------------------------------
// The file `gtv-node --offsets-out` writes and `gtv-obs prof|flame|postmortem
// --offsets` read: schema v1,
//   {"schema_version":1,"reference":"collector",
//    "offsets":{party:{"offset_us":...,"rtt_us":...}}}

// One party's clock against the reference clock: offset_us = party_clock -
// reference_clock, measured NTP-style; rtt_us is the min RTT of the winning
// sample, the alignment error bound.
struct ClockOffset {
  double offset_us = 0;
  double rtt_us = 0;
};
using ClockOffsets = std::map<std::string, ClockOffset>;

// The one writer of the offsets file.
std::string offsets_json(const std::string& reference, const ClockOffsets& offsets);

// The one reader. Throws std::runtime_error on a missing or unreadable file,
// malformed JSON or a schema_version other than 1, and std::out_of_range
// when the "offsets" object is missing.
ClockOffsets load_offsets(const std::string& path);

}  // namespace gtv::obs::json
