#include "crypto/p256.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/drbg.hpp"

namespace smt::crypto {
namespace {

TEST(P256, BasePointOnCurve) {
  const AffinePoint g{P256::gx(), P256::gy(), false};
  EXPECT_TRUE(is_on_curve(g));
}

TEST(P256, OneTimesGIsG) {
  const AffinePoint g = scalar_mul_base(U256::one());
  EXPECT_EQ(g.x, P256::gx());
  EXPECT_EQ(g.y, P256::gy());
}

// 2G from the standard P-256 test data.
TEST(P256, TwoTimesG) {
  const AffinePoint p = scalar_mul_base(U256::from_u64(2));
  EXPECT_EQ(p.x, U256::from_hex(
      "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"));
  EXPECT_EQ(p.y, U256::from_hex(
      "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"));
}

TEST(P256, NTimesGIsInfinity) {
  EXPECT_TRUE(scalar_mul_base(P256::n()).infinity);
}

TEST(P256, ZeroTimesGIsInfinity) {
  EXPECT_TRUE(scalar_mul_base(U256::zero()).infinity);
}

TEST(P256, GroupLawAdditive) {
  // (2G) + G == 3G computed directly.
  const AffinePoint g{P256::gx(), P256::gy(), false};
  const AffinePoint g2 = scalar_mul_base(U256::from_u64(2));
  const AffinePoint g3a = point_add(g2, g);
  const AffinePoint g3b = scalar_mul_base(U256::from_u64(3));
  EXPECT_EQ(g3a, g3b);
  EXPECT_TRUE(is_on_curve(g3a));
}

TEST(P256, ScalarDistributes) {
  // (a + b) G == aG + bG for random-ish scalars.
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    U256 a{}, b{};
    a.limbs[0] = rng.next();
    a.limbs[1] = rng.next();
    b.limbs[0] = rng.next();
    U256 sum;
    u256_add(a, b, sum);  // no overflow with these magnitudes
    const AffinePoint lhs = scalar_mul_base(sum);
    const AffinePoint rhs = point_add(scalar_mul_base(a), scalar_mul_base(b));
    EXPECT_EQ(lhs, rhs) << "iteration " << i;
  }
}

TEST(P256, AddInverseGivesInfinity) {
  const AffinePoint g{P256::gx(), P256::gy(), false};
  AffinePoint neg_g = g;
  neg_g.y = fp_sub(U256::zero(), g.y);
  EXPECT_TRUE(is_on_curve(neg_g));
  EXPECT_TRUE(point_add(g, neg_g).infinity);
}

TEST(P256, FieldInverse) {
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    U256 a{};
    for (auto& l : a.limbs) l = rng.next();
    // Reduce below p to get a valid element (p's top limb is all ones so
    // clearing the top limb's high bit suffices for a quick valid value).
    a.limbs[3] &= 0x7fffffffffffffffULL;
    if (a.is_zero()) continue;
    EXPECT_EQ(fp_mul(a, fp_inv(a)), U256::one());
  }
}

TEST(P256, FieldReduceIdentities) {
  // Reducing p itself gives zero; reducing p+1 gives one.
  EXPECT_TRUE(fp_mul(P256::p(), U256::one()).is_zero());
  U256 p_plus_1;
  u256_add(P256::p(), U256::one(), p_plus_1);  // p < 2^256 - 1, no overflow
  EXPECT_EQ(fp_mul(p_plus_1, U256::one()), U256::one());
}

TEST(P256, FieldReduceMatchesSlowPath) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    U256 a{}, b{};
    for (auto& l : a.limbs) l = rng.next();
    for (auto& l : b.limbs) l = rng.next();
    const U512 prod = u256_mul(a, b);
    EXPECT_EQ(fp_mul(a, b), u512_mod(prod, P256::p())) << "iteration " << i;
  }
}

// --- Scalar multiplication against a plain reference --------------------

// Affine double-and-add written only with the public fp_* field functions:
// no table, no window, no Jacobian coordinates.
AffinePoint ref_add(const AffinePoint& a, const AffinePoint& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  U256 lambda;
  if (a.x == b.x) {
    if (a.y != b.y || a.y.is_zero()) return AffinePoint::at_infinity();
    // lambda = (3x^2 - 3) / 2y
    const U256 x2 = fp_sqr(a.x);
    const U256 num = fp_sub(fp_add(fp_add(x2, x2), x2), U256::from_u64(3));
    lambda = fp_mul(num, fp_inv(fp_add(a.y, a.y)));
  } else {
    lambda = fp_mul(fp_sub(b.y, a.y), fp_inv(fp_sub(b.x, a.x)));
  }
  AffinePoint out;
  out.x = fp_sub(fp_sub(fp_sqr(lambda), a.x), b.x);
  out.y = fp_sub(fp_mul(lambda, fp_sub(a.x, out.x)), a.y);
  return out;
}

AffinePoint ref_mul(const U256& k, const AffinePoint& pt) {
  AffinePoint acc = AffinePoint::at_infinity();
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = ref_add(acc, acc);
    if (k.bit(i)) acc = ref_add(acc, pt);
  }
  return acc;
}

// Edge scalars (0, 1, n-1, n, n+1, all ones, zero windows) plus seeded
// random ones.
std::vector<U256> test_scalars() {
  const U256& n = P256::n();
  U256 n_minus_1, n_plus_1;
  u256_sub(n, U256::one(), n_minus_1);
  u256_add(n, U256::one(), n_plus_1);
  std::vector<U256> out = {
      U256::zero(), U256::one(), U256::from_u64(15), U256::from_u64(16),
      n_minus_1, n, n_plus_1,
      U256::from_hex(
          "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
      U256::from_hex(
          "f000000000000000000000000000000f00000000000000000000000000000001")};
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    U256 k;
    for (auto& l : k.limbs) l = rng.next();
    out.push_back(k);
  }
  return out;
}

const AffinePoint& g_point() {
  static const AffinePoint g{P256::gx(), P256::gy(), false};
  return g;
}

TEST(P256, FixedBaseMatchesDoubleAndAdd) {
  for (const U256& k : test_scalars()) {
    EXPECT_EQ(scalar_mul_base(k), ref_mul(k, g_point()))
        << to_hex(k.to_bytes());
  }
}

TEST(P256, WindowedMatchesDoubleAndAdd) {
  const AffinePoint q = ref_mul(U256::from_u64(0x1234567), g_point());
  for (const U256& k : test_scalars()) {
    EXPECT_EQ(scalar_mul(k, q), ref_mul(k, q)) << to_hex(k.to_bytes());
  }
}

TEST(P256, JointMatchesDoubleAndAdd) {
  const AffinePoint q = ref_mul(U256::from_u64(0xabcdef), g_point());
  const std::vector<U256> scalars = test_scalars();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const U256& u1 = scalars[i];
    const U256& u2 = scalars[(i * 5 + 3) % scalars.size()];
    EXPECT_EQ(scalar_mul_base_add(u1, u2, q),
              ref_add(ref_mul(u1, g_point()), ref_mul(u2, q)))
        << i;
  }
  // u1*G + u2*G with u1 + u2 = n cancels to infinity.
  const U256 u1 = U256::from_u64(12345);
  U256 u2;
  u256_sub(P256::n(), u1, u2);
  EXPECT_TRUE(scalar_mul_base_add(u1, u2, g_point()).infinity);
  // u1 = u2 with Q = G doubles inside the addition.
  EXPECT_EQ(scalar_mul_base_add(u1, u1, g_point()),
            ref_mul(U256::from_u64(2 * 12345), g_point()));
}

TEST(P256, EncodeDecodeRoundTrip) {
  const AffinePoint g2 = scalar_mul_base(U256::from_u64(2));
  const Bytes enc = encode_point(g2);
  EXPECT_EQ(enc.size(), 65u);
  EXPECT_EQ(enc[0], 0x04);
  const auto dec = decode_point(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, g2);
}

TEST(P256, DecodeRejectsOffCurve) {
  Bytes enc = encode_point(scalar_mul_base(U256::from_u64(5)));
  enc[10] ^= 0x01;  // corrupt X
  EXPECT_FALSE(decode_point(enc).has_value());
}

TEST(P256, DecodeRejectsBadFormat) {
  EXPECT_FALSE(decode_point(Bytes(64, 0)).has_value());   // wrong length
  Bytes enc = encode_point(scalar_mul_base(U256::from_u64(5)));
  enc[0] = 0x02;  // compressed marker unsupported
  EXPECT_FALSE(decode_point(enc).has_value());
}

TEST(Ecdh, SharedSecretAgrees) {
  HmacDrbg drbg(to_bytes(std::string_view("ecdh-test-seed")));
  const auto alice = ecdh_keypair_from_seed(drbg.generate(32));
  const auto bob = ecdh_keypair_from_seed(drbg.generate(32));
  const auto z1 = ecdh_shared_secret(alice.private_key, bob.public_key);
  const auto z2 = ecdh_shared_secret(bob.private_key, alice.public_key);
  ASSERT_TRUE(z1.has_value());
  ASSERT_TRUE(z2.has_value());
  EXPECT_EQ(*z1, *z2);
  EXPECT_EQ(z1->size(), 32u);
}

TEST(Ecdh, DistinctPairsDistinctSecrets) {
  HmacDrbg drbg(to_bytes(std::string_view("ecdh-test-seed-2")));
  const auto a = ecdh_keypair_from_seed(drbg.generate(32));
  const auto b = ecdh_keypair_from_seed(drbg.generate(32));
  const auto c = ecdh_keypair_from_seed(drbg.generate(32));
  const auto z_ab = ecdh_shared_secret(a.private_key, b.public_key);
  const auto z_ac = ecdh_shared_secret(a.private_key, c.public_key);
  ASSERT_TRUE(z_ab && z_ac);
  EXPECT_NE(*z_ab, *z_ac);
}

// NIST CAVS ECDH vector (P-256, KAS ECC CDH Primitive).
TEST(Ecdh, NistCavsVector) {
  const U256 d = U256::from_hex(
      "7d7dc5f71eb29ddaf80d6214632eeae03d9058af1fb6d22ed80badb62bc1a534");
  AffinePoint peer;
  peer.infinity = false;
  peer.x = U256::from_hex(
      "700c48f77f56584c5cc632ca65640db91b6bacce3a4df6b42ce7cc838833d287");
  peer.y = U256::from_hex(
      "db71e509e3fd9b060ddb20ba5c51dcc5948d46fbf640dfe0441782cab85fa4ac");
  ASSERT_TRUE(is_on_curve(peer));
  const auto z = ecdh_shared_secret(d, peer);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(to_hex(*z),
            "46fc62106420ff012e54a434fbdd2d25ccc5852060561e68040dd7778997bd7b");
}

TEST(Ecdh, KeypairPublicMatchesPrivate) {
  HmacDrbg drbg(to_bytes(std::string_view("kp-seed")));
  const auto kp = ecdh_keypair_from_seed(drbg.generate(32));
  EXPECT_TRUE(is_on_curve(kp.public_key));
  EXPECT_EQ(scalar_mul_base(kp.private_key), kp.public_key);
}

TEST(Ecdh, RejectsInvalidPeerPoint) {
  AffinePoint bogus;
  bogus.infinity = false;
  bogus.x = U256::from_u64(1);
  bogus.y = U256::from_u64(1);
  EXPECT_FALSE(ecdh_shared_secret(U256::from_u64(2), bogus).has_value());
}

// Parameterized sweep: k*G stays on curve for scalars around 2^i.
class ScalarSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScalarSweep, PointsOnCurve) {
  const int bit = GetParam();
  U256 k{};
  k.limbs[std::size_t(bit) / 64] = 1ULL << (std::size_t(bit) % 64);
  const AffinePoint p = scalar_mul_base(k);
  EXPECT_TRUE(is_on_curve(p));
  // double-check consistency: 2 * (2^i G) == 2^(i+1) G
  if (bit < 254) {
    U256 k2{};
    const int b2 = bit + 1;
    k2.limbs[std::size_t(b2) / 64] = 1ULL << (std::size_t(b2) % 64);
    EXPECT_EQ(point_add(p, p), scalar_mul_base(k2));
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, ScalarSweep,
                         ::testing::Values(0, 1, 7, 63, 64, 127, 128, 191, 192,
                                           253, 254));

}  // namespace
}  // namespace smt::crypto
