// gtv::bytes — the one little-endian byte codec. Every byte GTV puts on the
// wire or on disk is written and read through it:
//   tensor/  the tensor layout (put_tensor / read_tensor in tensor.h)
//   nn/      GTVQ parameter files (serialize.cpp)
//   encode/  TableEncoder state (encoder.cpp)
//   net/     frame v2 and its CRC-32 (transport.cpp), tensor and index
//            payloads and the FNV-1a trace flow ids (wire.cpp), the @clock
//            handshake (tcp.cpp)
//   core/    node reports (node.cpp)
//   serve/   GTVK/GTVT envelopes and the table hash (checkpoint.cpp), serve
//            messages (protocol.cpp)
//   obs/     Snapshot frames (snapshot.cpp), black-box records and ring
//            (blackbox.cpp)
//   psi/     salted identifier hashes (psi.cpp)
//   tools/   gtv-serve's cells_hash
//
// It is header-only and includes standard headers only. gtv_tensor and
// gtv_net link gtv_obs, so gtv_obs cannot link them back; it includes this
// header instead, with no link edge.
//
// Writers: put_* append to a byte vector; store_* write into a raw buffer
// (the black box's mmap'd ring, from signal handlers: they neither allocate
// nor touch a lazy initialiser, and the CRC-32 table is constexpr). get_*
// read from a pointer the caller has bounds-checked. Reader is the
// bounds-checked cursor: it throws std::runtime_error on truncation, and
// guard<E>() rethrows that as the error type of a decoder's boundary.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace gtv::bytes {

// --- raw buffers ----------------------------------------------------------------

inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_f32(std::uint8_t* p, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  store_u32(p, bits);
}

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline float get_f32(const std::uint8_t* p) {
  const std::uint32_t bits = get_u32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- appenders ------------------------------------------------------------------

// Grows `out` by n bytes and returns where they start.
inline std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  out.resize(out.size() + n);
  return out.data() + out.size() - n;
}

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  store_u16(grow(out, 2), v);
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  store_u32(grow(out, 4), v);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  store_u64(grow(out, 8), v);
}

inline void put_f32(std::vector<std::uint8_t>& out, float v) { store_f32(grow(out, 4), v); }

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// n f32 values: one resize, then a plain loop.
inline void put_f32s(std::vector<std::uint8_t>& out, const float* v, std::size_t n) {
  std::uint8_t* p = grow(out, 4 * n);
  for (std::size_t i = 0; i < n; ++i) store_f32(p + 4 * i, v[i]);
}

// u64 length, then the characters.
inline void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

// --- checksums and hashes -------------------------------------------------------

// CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320), one byte per step.
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}();

// CRC-32 of [p, p + n). Passing the CRC of earlier ranges as `crc` extends
// it: crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
inline std::uint32_t crc32(const std::uint8_t* p, std::size_t n, std::uint32_t crc = 0) {
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < n; ++i) c = kCrc32Table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return ~c;
}

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

// FNV-1a-64 of [p, p + n), continuing from `h`.
inline std::uint64_t fnv1a64(const void* p, std::size_t n, std::uint64_t h = kFnv1aOffset) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- reading --------------------------------------------------------------------

// Bounds-checked little-endian cursor over [data, data + size). `who`
// prefixes error messages; `what` names the field being read.
struct Reader {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t offset = 0;
  const char* who = "decode";

  Reader(const std::uint8_t* d, std::size_t n, const char* w, std::size_t start = 0)
      : data(d), size(n), offset(start), who(w) {}

  std::size_t remaining() const { return offset < size ? size - offset : 0; }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(std::string(who) + ": " + why);
  }
  // The next n bytes; the cursor steps past them.
  const std::uint8_t* raw(std::size_t n, const char* what) {
    if (n > remaining()) fail(std::string("truncated input (") + what + ")");
    offset += n;
    return data + offset - n;
  }
  std::uint8_t u8(const char* what) { return *raw(1, what); }
  std::uint16_t u16(const char* what) { return get_u16(raw(2, what)); }
  std::uint32_t u32(const char* what) { return get_u32(raw(4, what)); }
  std::uint64_t u64(const char* what) { return get_u64(raw(8, what)); }
  float f32(const char* what) { return get_f32(raw(4, what)); }
  double f64(const char* what) { return get_f64(raw(8, what)); }
  // n f32 values into dst: one bounds check, then a plain loop.
  void f32s(float* dst, std::size_t n, const char* what) {
    if (n > remaining() / 4) fail(std::string("truncated input (") + what + ")");
    const std::uint8_t* p = raw(4 * n, what);
    for (std::size_t i = 0; i < n; ++i) dst[i] = get_f32(p + 4 * i);
  }
  // n raw bytes as a string.
  std::string chars(std::size_t n, const char* what) {
    return std::string(reinterpret_cast<const char*>(raw(n, what)), n);
  }
  // A put_string field.
  std::string str(const char* what) {
    const std::uint64_t len = u64(what);
    if (len > remaining()) fail(std::string("truncated input (") + what + ")");
    return chars(static_cast<std::size_t>(len), what);
  }
  void expect_end() const {
    if (offset != size) fail(std::to_string(remaining()) + " trailing bytes");
  }
};

// Runs fn(), rethrowing a std::runtime_error that is not already an Error —
// the Reader's truncation errors above all — as Error, so the callers of a
// decoder catch the one error type of its boundary.
template <class Error, class Fn>
auto guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error&) {
    throw;
  } catch (const std::runtime_error& e) {
    throw Error(e.what());
  }
}

}  // namespace gtv::bytes
