// Fixed-width 256-bit unsigned integers and the modular arithmetic behind
// P-256 and ECDSA.
//
// Representation: four 64-bit limbs, least-significant first. Production
// code reduces through `Montgomery`, one word-level Montgomery type used
// for both the field prime p and the group order n. Nothing here is
// constant-time: acceptable for a research reproduction running inside a
// simulator (ARCHITECTURE.md, "Substitutions"); a production deployment
// would swap in a hardened implementation behind the same interface.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace smt::crypto {

struct U256 {
  // limbs[0] is least significant.
  std::array<std::uint64_t, 4> limbs{};

  static constexpr U256 zero() noexcept { return U256{}; }
  static constexpr U256 one() noexcept { return from_u64(1); }

  static constexpr U256 from_u64(std::uint64_t v) noexcept {
    U256 r;
    r.limbs[0] = v;
    return r;
  }

  /// Parses a 32-byte big-endian buffer.
  static U256 from_bytes(ByteView be32) noexcept;

  /// Parses a big-endian hex string of up to 64 digits; other characters
  /// (spaces in literals) are skipped.
  static constexpr U256 from_hex(std::string_view hex) noexcept {
    U256 r;
    for (const char c : hex) {
      int nib = -1;
      if (c >= '0' && c <= '9') nib = c - '0';
      if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
      if (c >= 'A' && c <= 'F') nib = c - 'A' + 10;
      if (nib < 0) continue;
      // r = r * 16 + nib
      std::uint64_t carry = std::uint64_t(nib);
      for (auto& limb : r.limbs) {
        const std::uint64_t out = limb >> 60;
        limb = (limb << 4) | carry;
        carry = out;
      }
    }
    return r;
  }

  /// Serialises to 32 bytes big-endian.
  std::array<std::uint8_t, 32> to_bytes() const noexcept;

  constexpr bool is_zero() const noexcept {
    return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
  }
  constexpr bool is_odd() const noexcept { return limbs[0] & 1; }

  constexpr bool bit(int i) const noexcept {
    return (limbs[std::size_t(i) / 64] >> (std::size_t(i) % 64)) & 1;
  }

  /// Index of the highest set bit, or -1 if zero.
  constexpr int top_bit() const noexcept {
    for (std::size_t limb = 4; limb-- > 0;) {
      if (limbs[limb] != 0)
        return int(limb) * 64 + 63 - __builtin_clzll(limbs[limb]);
    }
    return -1;
  }

  friend bool operator==(const U256&, const U256&) = default;
};

/// a < b as unsigned 256-bit integers.
constexpr bool u256_less(const U256& a, const U256& b) noexcept {
  for (std::size_t i = 4; i-- > 0;) {
    if (a.limbs[i] != b.limbs[i]) return a.limbs[i] < b.limbs[i];
  }
  return false;
}

/// r = a + b; returns the carry out.
constexpr std::uint64_t u256_add(const U256& a, const U256& b,
                                 U256& r) noexcept {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(a.limbs[i]) + b.limbs[i] + carry;
    r.limbs[i] = std::uint64_t(sum);
    carry = sum >> 64;
  }
  return std::uint64_t(carry);
}

/// r = a - b; returns the borrow out.
constexpr std::uint64_t u256_sub(const U256& a, const U256& b,
                                 U256& r) noexcept {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t d = a.limbs[i] - b.limbs[i];
    const std::uint64_t next = (a.limbs[i] < b.limbs[i]) | (d < borrow);
    r.limbs[i] = d - borrow;
    borrow = next;
  }
  return borrow;
}

/// Arithmetic modulo an odd m with 2^255 < m < 2^256 (P-256's p and n) in
/// Montgomery form: with R = 2^256, an element a is held as aR mod m, so a
/// product needs no division. `mul` is the word-level CIOS method
/// (coarsely integrated operand scanning): each of the four rounds adds
/// one limb of b times a, then one multiple of m that clears the lowest
/// limb, and shifts down one limb.
///
/// Operands of add/sub/mul/sqr/inv are reduced (below m). Because
/// m > 2^255, every U256 is below 2m, so `reduce` canonicalises any
/// input with one conditional subtraction.
class Montgomery {
 public:
  constexpr explicit Montgomery(const U256& m) noexcept
      : m_(m), m_inv_(neg_inverse(m.limbs[0])) {
    u256_sub(U256{}, m, one_);  // R mod m = 2^256 - m, as m > 2^255
    U256 r2 = one_;             // R * R mod m: double R mod m 256 times
    for (int i = 0; i < 256; ++i) r2 = add(r2, r2);
    r2_ = r2;
    r3_ = mul(r2, r2);
  }

  constexpr const U256& modulus() const noexcept { return m_; }
  /// 1 in Montgomery form (R mod m).
  constexpr const U256& one() const noexcept { return one_; }

  /// a mod m for any a (one conditional subtraction).
  constexpr U256 reduce(const U256& a) const noexcept {
    U256 d;
    return u256_sub(a, m_, d) ? a : d;
  }

  constexpr U256 add(const U256& a, const U256& b) const noexcept {
    U256 s;
    const std::uint64_t carry = u256_add(a, b, s);
    U256 d;
    const std::uint64_t borrow = u256_sub(s, m_, d);
    return (carry != 0 || borrow == 0) ? d : s;
  }

  constexpr U256 sub(const U256& a, const U256& b) const noexcept {
    U256 d;
    if (u256_sub(a, b, d) == 0) return d;
    U256 s;
    u256_add(d, m_, s);
    return s;
  }

  /// a * b * R^-1 mod m: the Montgomery product. With a = xR and b = yR
  /// it is xyR; with one operand in Montgomery form and the other plain
  /// it is the plain product.
  constexpr U256 mul(const U256& a, const U256& b) const noexcept {
    const auto& m = m_.limbs;
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      // t += a * b[i]
      const std::uint64_t bi = b.limbs[i];
      std::uint64_t carry = 0;
      t0 = mac(a.limbs[0], bi, t0, carry);
      t1 = mac(a.limbs[1], bi, t1, carry);
      t2 = mac(a.limbs[2], bi, t2, carry);
      t3 = mac(a.limbs[3], bi, t3, carry);
      t4 += carry;
      const std::uint64_t t5 = t4 < carry;
      // t = (t + q * m) / 2^64, with q chosen so the low limb cancels.
      const std::uint64_t q = t0 * m_inv_;
      carry = 0;
      (void)mac(q, m[0], t0, carry);
      t0 = mac(q, m[1], t1, carry);
      t1 = mac(q, m[2], t2, carry);
      t2 = mac(q, m[3], t3, carry);
      t3 = t4 + carry;
      t4 = t5 + (t3 < carry);
    }
    // t < 2m: one conditional subtraction.
    const U256 r{{t0, t1, t2, t3}};
    U256 d;
    const std::uint64_t borrow = u256_sub(r, m_, d);
    return (t4 != 0 || borrow == 0) ? d : r;
  }

  constexpr U256 sqr(const U256& a) const noexcept { return mul(a, a); }

  constexpr U256 to_mont(const U256& a) const noexcept {
    return mul(reduce(a), r2_);
  }
  constexpr U256 from_mont(const U256& a) const noexcept {
    return mul(a, U256::one());
  }

  /// The inverse of a Montgomery-form element, in Montgomery form; 0 maps
  /// to 0. Binary extended Euclid computes (aR)^-1 mod m, treating aR as a
  /// plain integer (m must be prime, so every nonzero element is
  /// invertible); one multiply by R^3 mod m then gives
  /// (aR)^-1 * R^3 / R = a^-1 R.
  constexpr U256 inv(const U256& a) const noexcept {
    if (a.is_zero()) return a;
    const auto is_one = [](const U256& x) noexcept {
      return x.limbs[0] == 1 && (x.limbs[1] | x.limbs[2] | x.limbs[3]) == 0;
    };
    const auto shift_right = [](U256& x, std::uint64_t top) noexcept {
      for (std::size_t i = 0; i < 3; ++i)
        x.limbs[i] = (x.limbs[i] >> 1) | (x.limbs[i + 1] << 63);
      x.limbs[3] = (x.limbs[3] >> 1) | (top << 63);
    };
    // x / 2 mod m: add m first when x is odd (the sum may carry out).
    const auto halve = [&](U256& x) noexcept {
      const std::uint64_t top = x.is_odd() ? u256_add(x, m_, x) : 0;
      shift_right(x, top);
    };
    // Invariants: x1 * a == u and x2 * a == v (mod m).
    U256 u = a, v = m_, x1 = U256::one(), x2;
    while (!is_one(u) && !is_one(v)) {
      while (!u.is_odd()) {
        shift_right(u, 0);
        halve(x1);
      }
      while (!v.is_odd()) {
        shift_right(v, 0);
        halve(x2);
      }
      if (u256_less(u, v)) {
        u256_sub(v, u, v);
        x2 = sub(x2, x1);
      } else {
        u256_sub(u, v, u);
        x1 = sub(x1, x2);
      }
    }
    return mul(is_one(u) ? x1 : x2, r3_);
  }

 private:
  /// a * b + c + carry; the high limb goes to carry. 64-bit carry
  /// compares instead of 128-bit additions keep the chain short.
  static constexpr std::uint64_t mac(std::uint64_t a, std::uint64_t b,
                                     std::uint64_t c,
                                     std::uint64_t& carry) noexcept {
    const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
    std::uint64_t lo = std::uint64_t(product);
    std::uint64_t hi = std::uint64_t(product >> 64);
    lo += c;
    hi += lo < c;
    lo += carry;
    hi += lo < carry;
    carry = hi;
    return lo;
  }

  /// -x^-1 mod 2^64 for odd x, by Newton iteration (each step doubles the
  /// number of correct low bits, starting from 3).
  static constexpr std::uint64_t neg_inverse(std::uint64_t x) noexcept {
    std::uint64_t inv = x;
    for (int i = 0; i < 5; ++i) inv *= 2 - x * inv;
    return 0 - inv;
  }

  U256 m_;
  std::uint64_t m_inv_;  // -m^-1 mod 2^64
  U256 one_;             // R mod m
  U256 r2_;              // R^2 mod m, for to_mont
  U256 r3_;              // R^3 mod m, for inv
};

/// --- Generic reference arithmetic ------------------------------------------
///
/// Schoolbook products and bit-serial long division modulo any m. Nothing
/// on the production path uses them: they are the independent oracle the
/// tests check `Montgomery` and the P-256 field against.

/// Full 256x256 -> 512-bit product, 8 little-endian limbs.
struct U512 {
  std::array<std::uint64_t, 8> limbs{};
};

U512 u256_mul(const U256& a, const U256& b) noexcept;

/// Reduction of a 512-bit value modulo m, one bit per step.
U256 u512_mod(const U512& v, const U256& m) noexcept;

/// Modular arithmetic modulo an arbitrary modulus m, through u512_mod.
U256 mod_add(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_sub(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_mul(const U256& a, const U256& b, const U256& m) noexcept;
/// a^e mod m by square-and-multiply.
U256 mod_pow(const U256& a, const U256& e, const U256& m) noexcept;
/// a^-1 mod m for prime m (Fermat).
U256 mod_inv_prime(const U256& a, const U256& m) noexcept;

}  // namespace smt::crypto
