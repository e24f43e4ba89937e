#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace gtv::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
    pos_ += lit.size();
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.type = Value::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        Value v;
        v.type = Value::Type::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return Value{};
      }
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.type = Value::Type::kObject;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.type = Value::Type::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Our emitters only \u-escape control characters; encode the BMP
          // code point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid fraction");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value& Value::at(const std::string& key) const {
  if (!is_object()) throw std::out_of_range("json: at(" + key + ") on non-object");
  auto it = object.find(key);
  if (it == object.end()) throw std::out_of_range("json: missing key " + key);
  return it->second;
}

double Value::num_or(const std::string& key, double fallback) const {
  if (!is_object()) return fallback;
  auto it = object.find(key);
  return it != object.end() && it->second.is_number() ? it->second.number : fallback;
}

std::string Value::str_or(const std::string& key, const std::string& fallback) const {
  if (!is_object()) return fallback;
  auto it = object.find(key);
  return it != object.end() && it->second.is_string() ? it->second.str : fallback;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  try {
    return parse(os.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void require_schema(const Value& doc, double lo, double hi, const std::string& what) {
  const double got = doc.num_or("schema_version", -1);
  if (got < lo || got > hi) {
    throw std::runtime_error(what + ": unsupported schema_version " +
                             std::to_string(got));
  }
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double safe_num(double v) {
  if (std::isnan(v)) return 0.0;
  if (std::isinf(v)) return v > 0 ? 1e308 : -1e308;
  return v;
}

std::string prom_label_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fixed_us(double us) {
  char buf[320];  // "%.3f" of safe_num's ±1e308 clamp is 314 characters
  std::snprintf(buf, sizeof(buf), "%.3f", safe_num(us));
  return buf;
}

std::string offsets_json(const std::string& reference, const ClockOffsets& offsets) {
  std::string out = "{\"schema_version\":1,\"reference\":\"" + escape(reference) +
                    "\",\"offsets\":{";
  bool first = true;
  for (const auto& [party, off] : offsets) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape(party) + "\":{\"offset_us\":" + fixed_us(off.offset_us) +
           ",\"rtt_us\":" + fixed_us(off.rtt_us) + "}";
  }
  return out + "}}";
}

ClockOffsets load_offsets(const std::string& path) {
  const Value doc = parse_file(path);
  require_schema(doc, 1, 1, path);
  ClockOffsets offsets;
  for (const auto& [party, entry] : doc.at("offsets").object) {
    offsets[party] = ClockOffset{entry.num_or("offset_us", 0), entry.num_or("rtt_us", 0)};
  }
  return offsets;
}

}  // namespace gtv::obs::json
