// TLS 1.3 handshake messages (RFC 8446 §4), in a compact binary encoding.
//
// The wire layout follows TLS framing — type(1) | length(3) | body — and
// every message is fed to the transcript hash exactly as serialised. Body
// encodings are simplified (no extension registry; the fields SMT needs
// are first-class), a substitution listed in ARCHITECTURE.md
// ("Substitutions"). The PSK binder is computed over the ClientHello
// serialised with an empty binder field, mirroring RFC 8446's
// partial-transcript binder in structure.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "tls/cert.hpp"
#include "tls/cipher.hpp"

namespace smt::tls {

enum class HandshakeType : std::uint8_t {
  client_hello = 1,
  server_hello = 2,
  new_session_ticket = 4,
  encrypted_extensions = 8,
  certificate = 11,
  certificate_verify = 15,
  finished = 20,
};

struct ClientHello {
  Bytes random;          // 32 bytes
  CipherSuite suite = CipherSuite::aes_128_gcm_sha256;
  Bytes key_share;       // client ephemeral ECDH public (65 bytes), may be empty
  Bytes psk_identity;    // resumption ticket id; empty when absent
  Bytes psk_binder;      // HMAC binder; empty when absent
  Bytes smt_ticket_id;   // SMT-ticket identity (§4.5.2); empty when absent
  bool early_data = false;
  bool request_fs = false;   // ask for forward-secrecy upgrade on 0-RTT
  bool psk_ecdhe = false;    // resumption with ECDHE (forward secret)

  Bytes serialize() const;
  static std::optional<ClientHello> parse(ByteView body);
};

struct ServerHello {
  Bytes random;        // 32 bytes
  CipherSuite suite = CipherSuite::aes_128_gcm_sha256;
  Bytes key_share;     // server ephemeral ECDH public; empty in pure-PSK mode
  bool psk_accepted = false;
  bool early_data_accepted = false;

  Bytes serialize() const;
  static std::optional<ServerHello> parse(ByteView body);
};

struct EncryptedExtensions {
  bool client_cert_requested = false;  // mTLS (§4.2)

  Bytes serialize() const;
  static std::optional<EncryptedExtensions> parse(ByteView body);
};

struct CertificateMsg {
  CertChain chain;

  Bytes serialize() const;
  static std::optional<CertificateMsg> parse(ByteView body);
};

struct CertificateVerify {
  Bytes signature;  // 64-byte ECDSA (r || s)

  Bytes serialize() const;
  static std::optional<CertificateVerify> parse(ByteView body);
};

struct Finished {
  Bytes verify_data;

  Bytes serialize() const;
  static std::optional<Finished> parse(ByteView body);
};

struct NewSessionTicket {
  std::uint64_t lifetime_seconds = 0;
  Bytes ticket_id;
  Bytes nonce;

  Bytes serialize() const;
  static std::optional<NewSessionTicket> parse(ByteView body);
};

/// One framed handshake message as cut out of a flight.
struct FramedMessage {
  HandshakeType type;
  Bytes body;
  Bytes raw;  // full frame including the 4-byte header (for the transcript)
};

/// Splits a flight (concatenated framed messages) into messages.
std::optional<std::vector<FramedMessage>> split_flight(ByteView flight);

/// Signature context strings for CertificateVerify (RFC 8446 §4.4.3).
Bytes certificate_verify_content(bool server, ByteView transcript_hash);

}  // namespace smt::tls
