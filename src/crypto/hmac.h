// HMAC (RFC 2104) over SHA-256 / SHA-512, and HKDF (RFC 5869).
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace rockfs::crypto {

/// Streaming HMAC: feed the message in any number of update() calls, so a
/// caller can MAC a message made of several buffers without joining them.
template <typename Hash>
class Hmac {
 public:
  explicit Hmac(BytesView key);
  void update(BytesView data) { inner_.update(data); }
  /// Returns the tag; the object must not be reused afterwards.
  Bytes finish();

 private:
  Hash inner_;
  Hash outer_;
};

extern template class Hmac<Sha256>;
extern template class Hmac<Sha512>;
using HmacSha256 = Hmac<Sha256>;

/// HMAC-SHA-256(key, data) -> 32 bytes.
Bytes hmac_sha256(BytesView key, BytesView data);

/// HMAC-SHA-512(key, data) -> 64 bytes.
Bytes hmac_sha512(BytesView key, BytesView data);

/// HKDF-SHA-256 extract-and-expand. `out_len` <= 255*32.
Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, std::size_t out_len);

/// The two HKDF-SHA-256 halves, for deriving several keys from one extract:
/// hkdf_sha256(ikm, salt, info, n) ==
///     hkdf_sha256_expand(hkdf_sha256_extract(ikm, salt), info, n).
Bytes hkdf_sha256_extract(BytesView ikm, BytesView salt);
Bytes hkdf_sha256_expand(BytesView prk, BytesView info, std::size_t out_len);

}  // namespace rockfs::crypto
