#include "crypto/bignum.hpp"

#include <cassert>

namespace smt::crypto {

namespace {
using u128 = unsigned __int128;
}  // namespace

U256 U256::from_bytes(ByteView be32) noexcept {
  assert(be32.size() == 32);
  U256 r;
  for (int i = 0; i < 4; ++i)
    r.limbs[std::size_t(3 - i)] = load_u64be(be32.data() + 8 * i);
  return r;
}

std::array<std::uint8_t, 32> U256::to_bytes() const noexcept {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i)
    store_u64be(out.data() + 8 * i, limbs[std::size_t(3 - i)]);
  return out;
}

U512 u256_mul(const U256& a, const U256& b) noexcept {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = u128(a.limbs[std::size_t(i)]) * b.limbs[std::size_t(j)] +
                       r.limbs[std::size_t(i + j)] + carry;
      r.limbs[std::size_t(i + j)] = std::uint64_t(cur);
      carry = cur >> 64;
    }
    r.limbs[std::size_t(i + 4)] = std::uint64_t(carry);
  }
  return r;
}

U256 u512_mod(const U512& v, const U256& m) noexcept {
  assert(!m.is_zero());
  // Bit-serial long division: r accumulates up to 257 bits, kept in 5 limbs.
  std::uint64_t r[5] = {};
  const auto r_geq_m = [&]() noexcept {
    if (r[4] != 0) return true;
    for (int i = 3; i >= 0; --i) {
      if (r[std::size_t(i)] != m.limbs[std::size_t(i)])
        return r[std::size_t(i)] > m.limbs[std::size_t(i)];
    }
    return true;  // equal counts as >=
  };
  const auto r_sub_m = [&]() noexcept {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t mi = m.limbs[std::size_t(i)];
      const std::uint64_t d1 = r[std::size_t(i)] - mi;
      const std::uint64_t b1 = r[std::size_t(i)] < mi;
      const std::uint64_t d2 = d1 - borrow;
      const std::uint64_t b2 = d1 < borrow;
      r[std::size_t(i)] = d2;
      borrow = b1 | b2;
    }
    r[4] -= borrow;
  };

  for (int bit = 511; bit >= 0; --bit) {
    // r <<= 1
    r[4] = (r[4] << 1) | (r[3] >> 63);
    r[3] = (r[3] << 1) | (r[2] >> 63);
    r[2] = (r[2] << 1) | (r[1] >> 63);
    r[1] = (r[1] << 1) | (r[0] >> 63);
    r[0] <<= 1;
    r[0] |= (v.limbs[std::size_t(bit) / 64] >> (std::size_t(bit) % 64)) & 1;
    if (r_geq_m()) r_sub_m();
  }

  U256 out;
  for (int i = 0; i < 4; ++i) out.limbs[std::size_t(i)] = r[std::size_t(i)];
  return out;
}

U256 mod_add(const U256& a, const U256& b, const U256& m) noexcept {
  U256 r;
  const std::uint64_t carry = u256_add(a, b, r);
  if (carry || !u256_less(r, m)) {
    U256 t;
    u256_sub(r, m, t);
    return t;
  }
  return r;
}

U256 mod_sub(const U256& a, const U256& b, const U256& m) noexcept {
  U256 r;
  const std::uint64_t borrow = u256_sub(a, b, r);
  if (borrow) {
    U256 t;
    u256_add(r, m, t);
    return t;
  }
  return r;
}

U256 mod_mul(const U256& a, const U256& b, const U256& m) noexcept {
  return u512_mod(u256_mul(a, b), m);
}

U256 mod_pow(const U256& a, const U256& e, const U256& m) noexcept {
  U256 result = U256::one();
  const int top = e.top_bit();
  for (int i = top; i >= 0; --i) {
    result = mod_mul(result, result, m);
    if (e.bit(i)) result = mod_mul(result, a, m);
  }
  return result;
}

U256 mod_inv_prime(const U256& a, const U256& m) noexcept {
  U256 e;
  u256_sub(m, U256::from_u64(2), e);
  return mod_pow(a, e, m);
}

}  // namespace smt::crypto
