#include "crypto/ecdsa.hpp"

#include <cassert>
#include <cstring>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace smt::crypto {

namespace {

/// Converts a 32-byte digest to an integer mod n (for P-256 + SHA-256 the
/// digest is exactly the group size, so "leftmost bits" is the whole hash).
U256 bits2int_mod_n(ByteView digest32) {
  return P256::mont_n().reduce(U256::from_bytes(digest32));
}

}  // namespace

Bytes EcdsaSignature::encode() const {
  Bytes out;
  const auto rb = r.to_bytes();
  const auto sb = s.to_bytes();
  out.insert(out.end(), rb.begin(), rb.end());
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

std::optional<EcdsaSignature> EcdsaSignature::decode(ByteView data) {
  if (data.size() != 64) return std::nullopt;
  EcdsaSignature sig;
  sig.r = U256::from_bytes(data.subspan(0, 32));
  sig.s = U256::from_bytes(data.subspan(32, 32));
  return sig;
}

EcdsaKeyPair ecdsa_keypair_from_seed(ByteView seed32) {
  const EcdhKeyPair kp = ecdh_keypair_from_seed(seed32);
  return EcdsaKeyPair{kp.private_key, kp.public_key};
}

U256 rfc6979_nonce(const U256& private_key, ByteView digest32) {
  // RFC 6979 §3.2 with HMAC-SHA-256; qlen == hlen == 256 bits, so
  // bits2octets(h) is h mod n, re-serialised.
  const U256 h_mod_n = bits2int_mod_n(digest32);
  const auto x_octets = private_key.to_bytes();
  const auto h_octets = h_mod_n.to_bytes();

  std::uint8_t v[32], k[32];
  std::memset(v, 0x01, sizeof(v));
  std::memset(k, 0x00, sizeof(k));

  const auto hmac_update =
      [&](std::uint8_t separator, bool include_material) {
        HmacSha256 mac(ByteView(k, 32));
        mac.update(ByteView(v, 32));
        mac.update(ByteView(&separator, 1));
        if (include_material) {
          mac.update(ByteView(x_octets.data(), 32));
          mac.update(ByteView(h_octets.data(), 32));
        }
        const auto out = mac.finish();
        std::memcpy(k, out.data(), 32);
        const auto v_out = HmacSha256::mac(ByteView(k, 32), ByteView(v, 32));
        std::memcpy(v, v_out.data(), 32);
      };

  hmac_update(0x00, true);   // step d, e
  hmac_update(0x01, true);   // step f, g

  for (;;) {
    const auto t = HmacSha256::mac(ByteView(k, 32), ByteView(v, 32));
    std::memcpy(v, t.data(), 32);
    const U256 candidate = U256::from_bytes(ByteView(v, 32));
    if (!candidate.is_zero() && u256_less(candidate, P256::n()))
      return candidate;
    // Retry: K = HMAC(K, V || 0x00); V = HMAC(K, V)
    hmac_update(0x00, false);
  }
}

EcdsaSignature ecdsa_sign_digest(const U256& private_key, ByteView digest32) {
  assert(digest32.size() == 32);
  const Montgomery& fn = P256::mont_n();
  const U256 e = bits2int_mod_n(digest32);
  const U256 d = fn.reduce(private_key);

  U256 k = rfc6979_nonce(private_key, digest32);
  for (;;) {
    // x < p < 2n, so x mod n is one conditional subtraction.
    const U256 r = fn.reduce(scalar_mul_base(k).x);
    if (!r.is_zero()) {
      // s = k^-1 (e + r d). A Montgomery product of a Montgomery-form
      // operand and a plain one is plain.
      const U256 k_inv = fn.inv(fn.to_mont(k));
      const U256 rd = fn.mul(fn.to_mont(r), d);
      const U256 s = fn.mul(k_inv, fn.add(e, rd));
      if (!s.is_zero()) return EcdsaSignature{r, s};
    }
    // Degenerate nonce (never observed for P-256); perturb and retry.
    k = fn.add(k, U256::one());
  }
}

EcdsaSignature ecdsa_sign(const U256& private_key, ByteView message) {
  const auto digest = Sha256::digest(message);
  return ecdsa_sign_digest(private_key, ByteView(digest.data(), digest.size()));
}

bool ecdsa_verify_digest(const AffinePoint& public_key, ByteView digest32,
                         const EcdsaSignature& sig) {
  if (digest32.size() != 32) return false;
  const U256& n = P256::n();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (!u256_less(sig.r, n) || !u256_less(sig.s, n)) return false;
  if (!is_on_curve(public_key)) return false;

  const Montgomery& fn = P256::mont_n();
  const U256 e = bits2int_mod_n(digest32);
  const U256 s_inv = fn.inv(fn.to_mont(sig.s));
  const U256 u1 = fn.mul(e, s_inv);
  const U256 u2 = fn.mul(sig.r, s_inv);

  const AffinePoint sum = scalar_mul_base_add(u1, u2, public_key);
  if (sum.infinity) return false;
  // x < p < 2n, so x mod n is one conditional subtraction.
  return fn.reduce(sum.x) == sig.r;
}

bool ecdsa_verify(const AffinePoint& public_key, ByteView message,
                  const EcdsaSignature& sig) {
  const auto digest = Sha256::digest(message);
  return ecdsa_verify_digest(public_key, ByteView(digest.data(), digest.size()),
                             sig);
}

}  // namespace smt::crypto
