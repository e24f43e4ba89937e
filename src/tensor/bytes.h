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
// It is header-only and includes standard headers only (<immintrin.h> on
// x86-64). gtv_tensor and gtv_net link gtv_obs, so gtv_obs cannot link them
// back; it includes this header instead, with no link edge.
//
// Writers: put_* append to a byte vector; store_* write into a raw buffer
// (the black box's mmap'd ring, from signal handlers: they neither allocate
// nor touch a lazy initialiser; the CRC-32 table is constexpr and its CPU
// check a load of libgcc's CPU model). get_* read from a pointer the caller
// has bounds-checked. Reader is the bounds-checked cursor: it throws
// std::runtime_error on truncation, and guard<E>() rethrows that as the
// error type of a decoder's boundary.
//
// Bulk float arrays (put_f32s/f64s, Reader::f32s/f64s) are copied as they
// lie in memory, which is their little-endian layout on the hosts GTV
// builds for; the static_assert below keeps a big-endian build from
// compiling rather than writing other bytes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gtv::bytes {

static_assert(std::endian::native == std::endian::little,
              "gtv::bytes copies arrays in host order, which must be little-endian");

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

// n f32 / f64 values: their bytes, appended with one insert.
inline void put_f32s(std::vector<std::uint8_t>& out, const float* v, std::size_t n) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(v);
  out.insert(out.end(), b, b + sizeof(float) * n);
}

inline void put_f64s(std::vector<std::uint8_t>& out, const double* v, std::size_t n) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(v);
  out.insert(out.end(), b, b + sizeof(double) * n);
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

#if defined(__x86_64__)
namespace detail {

// Every helper that calls a PCLMULQDQ intrinsic carries the target
// attribute itself: GCC refuses to inline the intrinsic into a function (or
// a lambda) without it.

__attribute__((target("pclmul"))) inline __m128i crc32_load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies both 64-bit halves of x by the fold constants in k (low half
// by k's low, high half by k's high) and adds the products to `next`.
__attribute__((target("pclmul"))) inline __m128i crc32_fold16(__m128i x, __m128i k,
                                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Advances the CRC register c (the inverted CRC, as crc32 keeps it) over
// [p, p + n), n a multiple of 16 and at least 64, with carry-less
// multiplies: Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009), in the bit-reflected domain.
// Four 128-bit lanes fold 64 bytes per step, then fold into one lane, which
// takes the remaining 16-byte blocks; the 128-bit remainder is reduced to
// 64 and then 32 bits (Barrett).
__attribute__((target("pclmul"))) inline std::uint32_t crc32_fold(const std::uint8_t* p,
                                                                  std::size_t n,
                                                                  std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0xccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // P', mu
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(crc32_load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = crc32_load(p + 16);
  __m128i x2 = crc32_load(p + 32);
  __m128i x3 = crc32_load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = crc32_fold16(x0, k1k2, crc32_load(p));
    x1 = crc32_fold16(x1, k1k2, crc32_load(p + 16));
    x2 = crc32_fold16(x2, k1k2, crc32_load(p + 32));
    x3 = crc32_fold16(x3, k1k2, crc32_load(p + 48));
  }
  x0 = crc32_fold16(x0, k3k4, x1);
  x0 = crc32_fold16(x0, k3k4, x2);
  x0 = crc32_fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = crc32_fold16(x0, k3k4, crc32_load(p));

  // 128 -> 64 bits, then 64 -> 32 with Barrett reduction.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, t), 4)));
}

}  // namespace detail
#endif

// CRC-32 of [p, p + n). Passing the CRC of earlier ranges as `crc` extends
// it: crc32(b, nb, crc32(a, na)) is the CRC of a followed by b. On x86-64
// CPUs with PCLMULQDQ, inputs of 64 bytes or more fold their whole 16-byte
// blocks with carry-less multiplies and the table takes the tail; shorter
// inputs and other CPUs run the table alone.
inline std::uint32_t crc32(const std::uint8_t* p, std::size_t n, std::uint32_t crc = 0) {
  std::uint32_t c = ~crc;
#if defined(__x86_64__)
  if (n >= 64 && __builtin_cpu_supports("pclmul")) {
    const std::size_t folded = n & ~std::size_t{15};
    c = detail::crc32_fold(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
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
  // n f32 / f64 values into dst: one bounds check, then one memcpy (none
  // for n = 0, where dst, an empty tensor's data(), may be null).
  void f32s(float* dst, std::size_t n, const char* what) { array(dst, n, what); }
  void f64s(double* dst, std::size_t n, const char* what) { array(dst, n, what); }
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

 private:
  template <class T>
  void array(T* dst, std::size_t n, const char* what) {
    if (n > remaining() / sizeof(T)) fail(std::string("truncated input (") + what + ")");
    const std::uint8_t* p = raw(sizeof(T) * n, what);
    if (n > 0) std::memcpy(dst, p, sizeof(T) * n);
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
