// Minimal certificate format with an internal CA.
//
// The paper (§4.5.1) argues datacenters should use *short certificate
// chains* signed by an internal CA whose verification key is pre-installed
// on every endpoint, eliminating lookup and long-chain validation (their
// measured C3.2 speedup: ~52 %). This module implements exactly that design
// point: a compact binary certificate (subject, P-256 key, validity,
// issuer, ECDSA signature) instead of full X.509 — a substitution listed
// in ARCHITECTURE.md ("Substitutions").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"

namespace smt::tls {

struct Certificate {
  std::string subject;
  std::string issuer;
  Bytes public_key;            // 65-byte SEC1 point
  std::uint64_t not_before = 0;  // seconds
  std::uint64_t not_after = 0;   // seconds
  Bytes signature;             // ECDSA(issuer key, tbs())

  /// To-be-signed serialisation (everything except the signature).
  Bytes tbs() const;

  Bytes serialize() const;
  static std::optional<Certificate> parse(ByteView data);

  friend bool operator==(const Certificate&, const Certificate&) = default;
};

/// Chain with the leaf first, root (or last intermediate) last.
struct CertChain {
  std::vector<Certificate> certs;

  Bytes serialize() const;
  static std::optional<CertChain> parse(ByteView data);
};

/// Internal certificate authority (the datacenter operator's root).
class CertificateAuthority {
 public:
  /// Creates a self-signed root.
  static CertificateAuthority create(const std::string& name,
                                     crypto::HmacDrbg& rng);

  /// Issues a leaf certificate for `subject_public_key`.
  Certificate issue(const std::string& subject, ByteView subject_public_key,
                    std::uint64_t not_before, std::uint64_t not_after) const;

  /// Creates a subordinate CA (for long-chain experiments).
  CertificateAuthority issue_intermediate(const std::string& name,
                                          crypto::HmacDrbg& rng,
                                          std::uint64_t not_before,
                                          std::uint64_t not_after) const;

  const Certificate& certificate() const noexcept { return cert_; }
  const crypto::AffinePoint& public_key() const noexcept {
    return key_.public_key;
  }
  /// Signs arbitrary data with the CA key (used for SMT-tickets, §4.5.2).
  crypto::EcdsaSignature sign(ByteView data) const;

 private:
  CertificateAuthority() = default;

  crypto::EcdsaKeyPair key_;
  Certificate cert_;
};

/// Verifies a chain: signatures link leaf -> ... -> root, every cert is
/// within validity at `now`, and the final issuer matches the trusted root
/// public key. `expected_subject`, when non-empty, must match the leaf.
Status verify_chain(const CertChain& chain,
                    const crypto::AffinePoint& trusted_root_key,
                    std::uint64_t now, const std::string& expected_subject = "");

}  // namespace smt::tls
