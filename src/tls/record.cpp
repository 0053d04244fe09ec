#include "tls/record.hpp"

#include <cassert>

#include "crypto/gcm.hpp"

namespace smt::tls {

RecordProtection::RecordProtection(CipherSuite suite, TrafficKeys keys)
    : suite_(suite), keys_(std::move(keys)), aead_(keys_.key) {
  assert(keys_.key.size() == key_length(suite));
  assert(keys_.iv.size() == iv_length(suite));
}

Bytes RecordProtection::seal(std::uint64_t seq, ContentType type,
                             ByteView payload, std::size_t pad_len) const {
  assert(payload.size() + pad_len + 1 <= kMaxRecordPlaintext + 1 &&
         "record plaintext too large");

  // TLSInnerPlaintext: content || type || zero padding.
  Bytes inner;
  inner.reserve(payload.size() + 1 + pad_len);
  append(inner, payload);
  append_u8(inner, static_cast<std::uint8_t>(type));
  inner.resize(inner.size() + pad_len, 0);

  const std::size_t ct_len = inner.size() + tag_length(suite_);

  // Record header doubles as AAD (opaque_type=23, legacy_version=0x0303).
  Bytes header;
  header.reserve(kRecordHeaderSize);
  append_u8(header, static_cast<std::uint8_t>(ContentType::application_data));
  append_u16be(header, 0x0303);
  append_u16be(header, static_cast<std::uint16_t>(ct_len));

  const Bytes sealed = aead_.seal(nonce_for(seq), header, inner);

  // The final wire size is known exactly: reserve once, no append growth.
  Bytes record;
  record.reserve(kRecordHeaderSize + sealed.size());
  append(record, header);
  append(record, sealed);
  return record;
}

Result<OpenedRecord> RecordProtection::open(std::uint64_t seq,
                                            ByteView record) const {
  if (record.size() < kRecordHeaderSize + tag_length(suite_)) {
    return make_error(Errc::protocol_violation, "record too short");
  }
  const auto body_len = parse_record_length(record.first(kRecordHeaderSize));
  if (!body_len.ok()) return body_len.error();
  if (record.size() != kRecordHeaderSize + body_len.value()) {
    return make_error(Errc::protocol_violation, "record length mismatch");
  }

  const ByteView header = record.first(kRecordHeaderSize);
  const ByteView body = record.subspan(kRecordHeaderSize);

  auto opened = aead_.open(nonce_for(seq), header, body);
  if (!opened.has_value()) {
    return make_error(Errc::decrypt_failed, "AEAD authentication failed");
  }

  // Strip zero padding, then the content-type byte.
  Bytes& inner = *opened;
  std::size_t end = inner.size();
  while (end > 0 && inner[end - 1] == 0) --end;
  if (end == 0) {
    return make_error(Errc::protocol_violation,
                      "record contains no content type");
  }
  OpenedRecord out;
  out.type = static_cast<ContentType>(inner[end - 1]);
  inner.resize(end - 1);
  out.payload = std::move(inner);
  return out;
}

Result<std::size_t> parse_record_length(ByteView header5) {
  if (header5.size() < kRecordHeaderSize) {
    return make_error(Errc::protocol_violation, "header truncated");
  }
  if (header5[0] != static_cast<std::uint8_t>(ContentType::application_data)) {
    return make_error(Errc::protocol_violation, "unexpected record type");
  }
  if (load_u16be(header5.data() + 1) != 0x0303) {
    return make_error(Errc::protocol_violation, "bad legacy version");
  }
  const std::size_t len = load_u16be(header5.data() + 3);
  if (len > kMaxRecordPlaintext + 256 + 16) {
    return make_error(Errc::protocol_violation, "record body too large");
  }
  return len;
}

}  // namespace smt::tls
