#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace smt::crypto {
namespace {

TEST(U256, FromHexAndBytesAgree) {
  const U256 a = U256::from_hex(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  const auto bytes = a.to_bytes();
  EXPECT_EQ(U256::from_bytes(ByteView(bytes.data(), bytes.size())), a);
  EXPECT_EQ(to_hex(ByteView(bytes.data(), bytes.size())),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, FromHexShort) {
  EXPECT_EQ(U256::from_hex("ff"), U256::from_u64(255));
  EXPECT_EQ(U256::from_hex("10000000000000000"),  // 2^64
            (U256{{0, 1, 0, 0}}));
}

TEST(U256, Comparisons) {
  const U256 small = U256::from_u64(5);
  const U256 big = U256::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_TRUE(u256_less(small, big));
  EXPECT_FALSE(u256_less(big, small));
  EXPECT_FALSE(u256_less(big, big));
}

TEST(U256, AddCarryPropagates) {
  const U256 max = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U256 r;
  EXPECT_EQ(u256_add(max, U256::one(), r), 1u);
  EXPECT_TRUE(r.is_zero());
}

TEST(U256, SubBorrowPropagates) {
  U256 r;
  EXPECT_EQ(u256_sub(U256::zero(), U256::one(), r), 1u);
  const U256 max = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  EXPECT_EQ(r, max);
}

TEST(U256, AddSubRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    U256 a, b;
    for (auto& l : a.limbs) l = rng.next();
    for (auto& l : b.limbs) l = rng.next();
    U256 sum, back;
    const std::uint64_t carry = u256_add(a, b, sum);
    const std::uint64_t borrow = u256_sub(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // overflow in add shows as borrow in sub
  }
}

TEST(U256, TopBit) {
  EXPECT_EQ(U256::zero().top_bit(), -1);
  EXPECT_EQ(U256::one().top_bit(), 0);
  EXPECT_EQ(U256::from_u64(0x8000000000000000ULL).top_bit(), 63);
  EXPECT_EQ(U256::from_hex("10000000000000000").top_bit(), 64);
}

TEST(U256, BitAccess) {
  const U256 v = U256::from_u64(0b1010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
}

TEST(U512, MulSmall) {
  const U512 p = u256_mul(U256::from_u64(7), U256::from_u64(6));
  EXPECT_EQ(p.limbs[0], 42u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(p.limbs[std::size_t(i)], 0u);
}

TEST(U512, MulMaxValues) {
  // (2^256 - 1)^2 = 2^512 - 2^257 + 1
  const U256 max = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  const U512 p = u256_mul(max, max);
  EXPECT_EQ(p.limbs[0], 1u);
  EXPECT_EQ(p.limbs[1], 0u);
  EXPECT_EQ(p.limbs[2], 0u);
  EXPECT_EQ(p.limbs[3], 0u);
  EXPECT_EQ(p.limbs[4], 0xfffffffffffffffeULL);
  EXPECT_EQ(p.limbs[5], 0xffffffffffffffffULL);
  EXPECT_EQ(p.limbs[6], 0xffffffffffffffffULL);
  EXPECT_EQ(p.limbs[7], 0xffffffffffffffffULL);
}

TEST(U512, ModSmallNumbers) {
  U512 v{};
  v.limbs[0] = 100;
  EXPECT_EQ(u512_mod(v, U256::from_u64(7)), U256::from_u64(2));
  EXPECT_EQ(u512_mod(v, U256::from_u64(100)), U256::zero());
  EXPECT_EQ(u512_mod(v, U256::from_u64(101)), U256::from_u64(100));
}

TEST(U512, ModAgainstKnownSquare) {
  // (2^64)^2 mod (2^64 + 1) == 1 (since 2^64 == -1 mod m).
  const U256 m = U256::from_hex("10000000000000001");
  const U512 sq = u256_mul(U256::from_hex("10000000000000000"),
                           U256::from_hex("10000000000000000"));
  EXPECT_EQ(u512_mod(sq, m), U256::one());
}

TEST(ModArith, AddSubInverse) {
  const U256 m = U256::from_hex("bce6faada7179e84f3b9cac2fc632551");
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    U256 a{}, b{};
    a.limbs[0] = rng.next();
    a.limbs[1] = rng.next();
    b.limbs[0] = rng.next();
    // Reduce into range first.
    U512 wa{}, wb{};
    wa.limbs[0] = a.limbs[0];
    wa.limbs[1] = a.limbs[1];
    wb.limbs[0] = b.limbs[0];
    a = u512_mod(wa, m);
    b = u512_mod(wb, m);
    const U256 sum = mod_add(a, b, m);
    EXPECT_EQ(mod_sub(sum, b, m), a);
  }
}

TEST(ModArith, MulCommutesAndAssociates) {
  const U256 m = U256::from_hex(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  const U256 a = U256::from_hex("1234567890abcdef");
  const U256 b = U256::from_hex("fedcba0987654321");
  const U256 c = U256::from_hex("13579bdf2468ace0");
  EXPECT_EQ(mod_mul(a, b, m), mod_mul(b, a, m));
  EXPECT_EQ(mod_mul(mod_mul(a, b, m), c, m), mod_mul(a, mod_mul(b, c, m), m));
}

TEST(ModArith, PowSmallCases) {
  const U256 m = U256::from_u64(1000000007);
  EXPECT_EQ(mod_pow(U256::from_u64(2), U256::from_u64(10), m),
            U256::from_u64(1024));
  EXPECT_EQ(mod_pow(U256::from_u64(5), U256::zero(), m), U256::one());
  // Fermat's little theorem: a^(p-1) == 1 mod p.
  EXPECT_EQ(mod_pow(U256::from_u64(123456), U256::from_u64(1000000006), m),
            U256::one());
}

TEST(ModArith, InvPrime) {
  const U256 m = U256::from_u64(1000000007);
  for (const std::uint64_t a : {2ULL, 3ULL, 999999999ULL, 12345ULL}) {
    const U256 inv = mod_inv_prime(U256::from_u64(a), m);
    EXPECT_EQ(mod_mul(U256::from_u64(a), inv, m), U256::one());
  }
}

// --- Montgomery arithmetic against the generic reference -----------------

class MontgomeryTest : public ::testing::TestWithParam<const char*> {
 protected:
  const U256 m = U256::from_hex(GetParam());
  const Montgomery mont{m};
  // R mod m through the reference path: 2^256 = (2^128)^2.
  const U256 two_128 = U256::from_hex("100000000000000000000000000000000");
  const U256 r_mod = mod_mul(two_128, two_128, m);

  /// Plain -> Montgomery form through the reference path.
  U256 ref_to_mont(const U256& a) const { return mod_mul(a, r_mod, m); }

  /// 0, 1, m-1, m-2 and seeded random values below m.
  std::vector<U256> operands() const {
    U256 m1, m2;
    u256_sub(m, U256::one(), m1);
    u256_sub(m, U256::from_u64(2), m2);
    std::vector<U256> out = {U256::zero(), U256::one(), m1, m2};
    Rng rng(42);
    for (int i = 0; i < 40; ++i) {
      U256 a;
      for (auto& l : a.limbs) l = rng.next();
      U512 wide{};
      for (std::size_t j = 0; j < 4; ++j) wide.limbs[j] = a.limbs[j];
      out.push_back(u512_mod(wide, m));
    }
    return out;
  }
};

TEST_P(MontgomeryTest, ConversionsRoundTrip) {
  EXPECT_EQ(mont.modulus(), m);
  EXPECT_EQ(mont.one(), r_mod);
  for (const U256& a : operands()) {
    EXPECT_EQ(mont.to_mont(a), ref_to_mont(a));
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
  }
  // Any U256 is below 2m; reduce and to_mont accept it.
  const U256 max = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U512 wide{};
  for (std::size_t j = 0; j < 4; ++j) wide.limbs[j] = max.limbs[j];
  EXPECT_EQ(mont.reduce(max), u512_mod(wide, m));
  EXPECT_EQ(mont.to_mont(max), ref_to_mont(u512_mod(wide, m)));
}

TEST_P(MontgomeryTest, MulSqrAddSubMatchReference) {
  const std::vector<U256> ops = operands();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const U256& a = ops[i];
    const U256& b = ops[(i * 7 + 1) % ops.size()];
    const U256 am = mont.to_mont(a);
    const U256 bm = mont.to_mont(b);
    EXPECT_EQ(mont.mul(am, bm), ref_to_mont(mod_mul(a, b, m))) << i;
    EXPECT_EQ(mont.mul(am, b), mod_mul(a, b, m)) << i;  // mixed form: plain
    EXPECT_EQ(mont.sqr(am), ref_to_mont(mod_mul(a, a, m))) << i;
    EXPECT_EQ(mont.add(a, b), mod_add(a, b, m)) << i;
    EXPECT_EQ(mont.sub(a, b), mod_sub(a, b, m)) << i;
  }
}

TEST_P(MontgomeryTest, InverseMatchesReference) {
  const std::vector<U256> ops = operands();
  for (std::size_t i = 0; i < ops.size(); i += 4) {
    const U256& a = ops[i];
    const U256 inv = mont.from_mont(mont.inv(mont.to_mont(a)));
    EXPECT_EQ(inv, mod_inv_prime(a, m)) << i;
    if (!a.is_zero()) {
      EXPECT_EQ(mod_mul(a, inv, m), U256::one()) << i;
    }
  }
  EXPECT_TRUE(mont.inv(U256::zero()).is_zero());
}

// The P-256 field prime p and group order n.
INSTANTIATE_TEST_SUITE_P(
    P256, MontgomeryTest,
    ::testing::Values(
        "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"));

}  // namespace
}  // namespace smt::crypto
