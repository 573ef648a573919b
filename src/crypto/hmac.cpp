#include "crypto/hmac.h"

#include <stdexcept>

namespace rockfs::crypto {

template <typename Hash>
Hmac<Hash>::Hmac(BytesView key) {
  Bytes k(key.begin(), key.end());
  if (k.size() > Hash::kBlockSize) k = Hash::hash(k);
  k.resize(Hash::kBlockSize, 0);

  Bytes ipad(Hash::kBlockSize), opad(Hash::kBlockSize);
  for (std::size_t i = 0; i < Hash::kBlockSize; ++i) {
    ipad[i] = static_cast<Byte>(k[i] ^ 0x36);
    opad[i] = static_cast<Byte>(k[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

template <typename Hash>
Bytes Hmac<Hash>::finish() {
  outer_.update(inner_.finish());
  return outer_.finish();
}

template class Hmac<Sha256>;
template class Hmac<Sha512>;

Bytes hmac_sha256(BytesView key, BytesView data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

Bytes hmac_sha512(BytesView key, BytesView data) {
  Hmac<Sha512> mac(key);
  mac.update(data);
  return mac.finish();
}

Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, std::size_t out_len) {
  return hkdf_sha256_expand(hkdf_sha256_extract(ikm, salt), info, out_len);
}

Bytes hkdf_sha256_extract(BytesView ikm, BytesView salt) {
  Bytes effective_salt(salt.begin(), salt.end());
  if (effective_salt.empty()) effective_salt.assign(Sha256::kDigestSize, 0);
  return hmac_sha256(effective_salt, ikm);
}

Bytes hkdf_sha256_expand(BytesView prk, BytesView info, std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize) throw std::invalid_argument("hkdf: out_len too large");
  Bytes okm;
  okm.reserve(out_len);
  Bytes t;
  Byte counter = 1;
  while (okm.size() < out_len) {
    HmacSha256 mac(prk);
    mac.update(t);
    mac.update(info);
    mac.update(BytesView(&counter, 1));
    t = mac.finish();
    ++counter;
    const std::size_t take = std::min(t.size(), out_len - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

}  // namespace rockfs::crypto
