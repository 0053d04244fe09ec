#include "crypto/p256.hpp"

#include <array>
#include <cassert>
#include <cstddef>

namespace smt::crypto {

namespace {

constexpr Montgomery kFp{U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")};
constexpr Montgomery kFn{U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")};
constexpr U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
constexpr U256 kGx = U256::from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
constexpr U256 kGy = U256::from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
constexpr U256 kBMont = kFp.to_mont(kB);

// Field operations on Montgomery-form elements.
U256 fmul(const U256& a, const U256& b) noexcept { return kFp.mul(a, b); }
U256 fsqr(const U256& a) noexcept { return kFp.sqr(a); }
U256 fadd(const U256& a, const U256& b) noexcept { return kFp.add(a, b); }
U256 fsub(const U256& a, const U256& b) noexcept { return kFp.sub(a, b); }

/// Affine point with Montgomery-form coordinates (table entries).
struct MontAffine {
  U256 x, y;
  bool infinity = true;
};

/// Jacobian point (X, Y, Z) with Montgomery-form coordinates:
/// x = X/Z^2, y = Y/Z^3.
struct JacPoint {
  U256 x, y, z;
  bool infinity = true;
};

MontAffine to_mont(const AffinePoint& pt) noexcept {
  if (pt.infinity) return MontAffine{};
  return MontAffine{kFp.to_mont(pt.x), kFp.to_mont(pt.y), false};
}

JacPoint to_jacobian(const MontAffine& pt) noexcept {
  if (pt.infinity) return JacPoint{};
  return JacPoint{pt.x, pt.y, kFp.one(), false};
}

AffinePoint to_affine(const JacPoint& pt) noexcept {
  if (pt.infinity) return AffinePoint::at_infinity();
  const U256 z_inv = kFp.inv(pt.z);
  const U256 z_inv2 = fsqr(z_inv);
  const U256 z_inv3 = fmul(z_inv2, z_inv);
  return AffinePoint{kFp.from_mont(fmul(pt.x, z_inv2)),
                     kFp.from_mont(fmul(pt.y, z_inv3)), false};
}

/// Point doubling in Jacobian coordinates (a = -3 optimisation).
JacPoint jac_double(const JacPoint& pt) noexcept {
  if (pt.infinity || pt.y.is_zero()) return JacPoint{};
  // delta = Z^2, gamma = Y^2, beta = X*gamma
  const U256 delta = fsqr(pt.z);
  const U256 gamma = fsqr(pt.y);
  const U256 beta = fmul(pt.x, gamma);
  // alpha = 3*(X - delta)*(X + delta)   [uses a = -3]
  const U256 t3 = fmul(fsub(pt.x, delta), fadd(pt.x, delta));
  const U256 alpha = fadd(fadd(t3, t3), t3);

  JacPoint out;
  out.infinity = false;
  // X3 = alpha^2 - 8*beta
  const U256 beta2 = fadd(beta, beta);
  const U256 beta4 = fadd(beta2, beta2);
  const U256 beta8 = fadd(beta4, beta4);
  out.x = fsub(fsqr(alpha), beta8);
  // Z3 = (Y + Z)^2 - gamma - delta
  out.z = fsub(fsub(fsqr(fadd(pt.y, pt.z)), gamma), delta);
  // Y3 = alpha*(4*beta - X3) - 8*gamma^2
  const U256 g2 = fsqr(gamma);
  const U256 g2_2 = fadd(g2, g2);
  const U256 g2_4 = fadd(g2_2, g2_2);
  const U256 g2_8 = fadd(g2_4, g2_4);
  out.y = fsub(fmul(alpha, fsub(beta4, out.x)), g2_8);
  return out;
}

/// Mixed addition: Jacobian + affine (Z2 = 1).
JacPoint jac_add_affine(const JacPoint& a, const MontAffine& b) noexcept {
  if (b.infinity) return a;
  if (a.infinity) return to_jacobian(b);

  const U256 z1z1 = fsqr(a.z);
  const U256 u2 = fmul(b.x, z1z1);
  const U256 s2 = fmul(fmul(b.y, z1z1), a.z);
  const U256 h = fsub(u2, a.x);
  const U256 r = fsub(s2, a.y);

  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(a);
    return JacPoint{};  // P + (-P) = infinity
  }

  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 v = fmul(a.x, h2);

  JacPoint out;
  out.infinity = false;
  // X3 = r^2 - h^3 - 2v
  out.x = fsub(fsub(fsqr(r), h3), fadd(v, v));
  // Y3 = r*(v - X3) - Y1*h^3
  out.y = fsub(fmul(r, fsub(v, out.x)), fmul(a.y, h3));
  // Z3 = Z1 * h
  out.z = fmul(a.z, h);
  return out;
}

constexpr int kWindows = 64;  // 4-bit windows in a 256-bit scalar

/// Digit `i` (0 = least significant) of k in base 16.
unsigned window(const U256& k, int i) noexcept {
  return unsigned(k.limbs[std::size_t(i) / 16] >> (4 * (std::size_t(i) % 16))) &
         0xf;
}

/// 1*P .. 16*P: digit d of a 4-bit window reads entry d - 1, and the last
/// entry starts the next row of the base table.
using WindowTable = std::array<MontAffine, 16>;

WindowTable window_table(const MontAffine& p) noexcept {
  std::array<JacPoint, 16> jac;
  jac[0] = to_jacobian(p);
  for (std::size_t d = 1; d < 15; ++d) jac[d] = jac_add_affine(jac[d - 1], p);
  jac[15] = jac_double(jac[7]);

  // One field inversion for all 16 (Montgomery's simultaneous-inversion
  // trick): prefix[d] = z_0 * ... * z_d.
  const auto z_of = [&](std::size_t d) noexcept {
    return jac[d].infinity ? kFp.one() : jac[d].z;
  };
  std::array<U256, 16> prefix;
  prefix[0] = z_of(0);
  for (std::size_t d = 1; d < jac.size(); ++d)
    prefix[d] = fmul(prefix[d - 1], z_of(d));
  U256 inv = kFp.inv(prefix.back());  // (z_0 * ... * z_d)^-1
  WindowTable out;
  for (std::size_t d = jac.size(); d-- > 0;) {
    const U256 z_inv = d == 0 ? inv : fmul(inv, prefix[d - 1]);
    if (d > 0) inv = fmul(inv, z_of(d));
    if (jac[d].infinity) continue;  // only for points off the curve
    const U256 z_inv2 = fsqr(z_inv);
    out[d] = MontAffine{fmul(jac[d].x, z_inv2),
                        fmul(jac[d].y, fmul(z_inv2, z_inv)), false};
  }
  return out;
}

/// Row i holds d * 16^i * G for d = 1..16, so k*G is one table entry per
/// nonzero digit of k and no doubling. Built on first use, once per
/// process: 64 rows of 16 points, 72 KiB.
using BaseTable = std::array<WindowTable, kWindows>;

const BaseTable& base_table() noexcept {
  static const BaseTable table = [] {
    BaseTable t;
    MontAffine base = to_mont(AffinePoint{kGx, kGy, false});
    for (auto& row : t) {
      row = window_table(base);
      base = row[15];
    }
    return t;
  }();
  return table;
}

}  // namespace

const U256& P256::p() noexcept { return kFp.modulus(); }
const U256& P256::n() noexcept { return kFn.modulus(); }
const U256& P256::b() noexcept { return kB; }
const U256& P256::gx() noexcept { return kGx; }
const U256& P256::gy() noexcept { return kGy; }
const Montgomery& P256::mont_n() noexcept { return kFn; }

U256 fp_add(const U256& a, const U256& b) noexcept {
  return kFp.add(kFp.reduce(a), kFp.reduce(b));
}
U256 fp_sub(const U256& a, const U256& b) noexcept {
  return kFp.sub(kFp.reduce(a), kFp.reduce(b));
}
U256 fp_mul(const U256& a, const U256& b) noexcept {
  return kFp.mul(kFp.to_mont(a), kFp.reduce(b));  // aR * b / R = ab
}
U256 fp_sqr(const U256& a) noexcept { return fp_mul(a, a); }
U256 fp_inv(const U256& a) noexcept {
  return kFp.from_mont(kFp.inv(kFp.to_mont(a)));
}

AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept {
  if (k.is_zero() || point.infinity) return AffinePoint::at_infinity();
  const WindowTable table = window_table(to_mont(point));
  JacPoint acc;
  for (int i = kWindows - 1; i >= 0; --i) {
    for (int j = 0; j < 4; ++j) acc = jac_double(acc);
    if (const unsigned d = window(k, i))
      acc = jac_add_affine(acc, table[d - 1]);
  }
  return to_affine(acc);
}

AffinePoint scalar_mul_base(const U256& k) noexcept {
  const BaseTable& table = base_table();
  JacPoint acc;
  for (int i = 0; i < kWindows; ++i) {
    if (const unsigned d = window(k, i))
      acc = jac_add_affine(acc, table[std::size_t(i)][d - 1]);
  }
  return to_affine(acc);
}

AffinePoint scalar_mul_base_add(const U256& u1, const U256& u2,
                                const AffinePoint& q) noexcept {
  // Straus: both scalars share the doublings; G's digits come from row 0
  // of the base table.
  const WindowTable& g_table = base_table()[0];
  const WindowTable q_table = window_table(to_mont(q));
  JacPoint acc;
  for (int i = kWindows - 1; i >= 0; --i) {
    for (int j = 0; j < 4; ++j) acc = jac_double(acc);
    if (const unsigned d = window(u1, i))
      acc = jac_add_affine(acc, g_table[d - 1]);
    if (const unsigned d = window(u2, i))
      acc = jac_add_affine(acc, q_table[d - 1]);
  }
  return to_affine(acc);
}

AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept {
  if (a.infinity) return b;
  return to_affine(jac_add_affine(to_jacobian(to_mont(a)), to_mont(b)));
}

bool is_on_curve(const AffinePoint& pt) noexcept {
  if (pt.infinity) return false;
  if (!u256_less(pt.x, P256::p()) || !u256_less(pt.y, P256::p())) return false;
  // y^2 == x^3 - 3x + b
  const U256 x = kFp.to_mont(pt.x);
  const U256 y = kFp.to_mont(pt.y);
  const U256 x3 = fmul(fsqr(x), x);
  const U256 three_x = fadd(fadd(x, x), x);
  return fsqr(y) == fadd(fsub(x3, three_x), kBMont);
}

Bytes encode_point(const AffinePoint& pt) {
  assert(!pt.infinity && "cannot encode the point at infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const auto x = pt.x.to_bytes();
  const auto y = pt.y.to_bytes();
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<AffinePoint> decode_point(ByteView data) {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  AffinePoint pt;
  pt.infinity = false;
  pt.x = U256::from_bytes(data.subspan(1, 32));
  pt.y = U256::from_bytes(data.subspan(33, 32));
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32) {
  assert(seed32.size() == 32);
  // Reduce into [1, n-1]: the seed is below 2^256 < 2n. A zero scalar after
  // reduction is vanishingly unlikely; bump to 1 so the API has no failure
  // mode.
  U256 d = kFn.reduce(U256::from_bytes(seed32));
  if (d.is_zero()) d = U256::one();
  return EcdhKeyPair{d, scalar_mul_base(d)};
}

std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public) {
  if (!is_on_curve(peer_public)) return std::nullopt;
  const AffinePoint shared = scalar_mul(private_key, peer_public);
  if (shared.infinity) return std::nullopt;
  const auto x = shared.x.to_bytes();
  return Bytes(x.begin(), x.end());
}

}  // namespace smt::crypto
