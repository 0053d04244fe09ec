// NIST P-256 (secp256r1) elliptic-curve arithmetic and ECDH.
//
// Field elements mod p and scalars mod n both use the Montgomery type of
// bignum.hpp. Points are kept in Jacobian coordinates with Montgomery-form
// coordinates inside this module and leave it only as canonical affine
// points. k*P uses a 4-bit fixed window; k*G sums one entry per 4-bit
// window from a table of multiples of G built once per process; u1*G +
// u2*Q shares one chain of doublings between both scalars.
//
// This backs the paper's key-exchange design (§4.5): TLS 1.3 uses ECDH on
// secp256r1 and ECDSA signatures with the secp256r1 signature algorithm.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "crypto/bignum.hpp"

namespace smt::crypto {

/// Curve parameters (FIPS 186-4, D.1.2.3).
struct P256 {
  static const U256& p() noexcept;  // field prime
  static const U256& n() noexcept;  // group order
  static const U256& b() noexcept;  // curve coefficient (a = -3)
  static const U256& gx() noexcept;
  static const U256& gy() noexcept;
  /// Montgomery arithmetic modulo the group order n (ECDSA).
  static const Montgomery& mont_n() noexcept;
};

/// Affine point; infinity is represented by `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static AffinePoint at_infinity() noexcept { return AffinePoint{{}, {}, true}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// Field arithmetic modulo p on canonical (non-Montgomery) values. Any
/// U256 is accepted; results are reduced.
U256 fp_add(const U256& a, const U256& b) noexcept;
U256 fp_sub(const U256& a, const U256& b) noexcept;
U256 fp_mul(const U256& a, const U256& b) noexcept;
U256 fp_sqr(const U256& a) noexcept;
U256 fp_inv(const U256& a) noexcept;

/// Scalar multiplication k * P. Returns infinity for k == 0 (mod n).
AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept;

/// k * G for the standard base point.
AffinePoint scalar_mul_base(const U256& k) noexcept;

/// u1 * G + u2 * Q in one interleaved pass (ECDSA verification).
AffinePoint scalar_mul_base_add(const U256& u1, const U256& u2,
                                const AffinePoint& q) noexcept;

/// Point addition (affine interface; handles doubling and infinity).
AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept;

/// Validates that the point lies on the curve and is not infinity.
bool is_on_curve(const AffinePoint& pt) noexcept;

/// --- Wire encoding -------------------------------------------------------

/// Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes).
Bytes encode_point(const AffinePoint& pt);

/// Parses an uncompressed SEC1 point and validates curve membership.
std::optional<AffinePoint> decode_point(ByteView data);

/// --- ECDH ----------------------------------------------------------------

struct EcdhKeyPair {
  U256 private_key;       // scalar in [1, n-1]
  AffinePoint public_key; // private_key * G
};

/// Derives a key pair from 32 bytes of seed material (reduced into range).
EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32);

/// ECDH shared secret: X coordinate of d * Q, 32 bytes big-endian.
/// Returns nullopt if the peer point is invalid.
std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public);

}  // namespace smt::crypto
