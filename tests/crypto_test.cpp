#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/bigint.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/secp256k1.h"
#include "crypto/secp256k1_ref.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/signature.h"

namespace rockfs::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(hex_encode(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_encode(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<Byte>(i * 7));
  Sha256 ctx;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 128, 679};
  for (const std::size_t c : chunks) {
    ctx.update(BytesView(data).subspan(off, c));
    off += c;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(ctx.finish(), sha256(data));
}

TEST(Sha256, MillionA) {
  // FIPS 180-4 long vector: 1,000,000 'a' characters.
  Sha256 ctx;
  const Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_encode(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// ---------------------------------------------------------------- SHA-512

TEST(Sha512, AbcVector) {
  EXPECT_EQ(hex_encode(sha512(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 5000; ++i) data.push_back(static_cast<Byte>(i * 13));
  Sha512 ctx;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t take = std::min<std::size_t>(257, data.size() - off);
    ctx.update(BytesView(data).subspan(off, take));
    off += take;
  }
  EXPECT_EQ(ctx.finish(), sha512(data));
}

TEST(Sha512, DistinctFromSha256AndSized) {
  const Bytes d = sha512(to_bytes("rockfs"));
  EXPECT_EQ(d.size(), 64u);
  EXPECT_NE(hex_encode(d).substr(0, 64), hex_encode(sha256(to_bytes("rockfs"))));
}

// ---------------------------------------------------------------- HMAC/HKDF

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(hex_encode(hmac_sha512(key, to_bytes("Hi There"))),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_encode(hmac_sha256(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes long_key(200, 0xAA);
  const Bytes mac = hmac_sha256(long_key, to_bytes("msg"));
  EXPECT_EQ(mac.size(), 32u);
  // Hashing the key down to 32 bytes must give the same MAC as the raw long key.
  EXPECT_EQ(hmac_sha256(sha256(long_key), to_bytes("msg")), mac);
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(hex_encode(hkdf_sha256(ikm, salt, info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DifferentInfoDifferentKeys) {
  const Bytes ikm = to_bytes("master");
  EXPECT_NE(hkdf_sha256(ikm, {}, to_bytes("a"), 32), hkdf_sha256(ikm, {}, to_bytes("b"), 32));
}

// ---------------------------------------------------------------- AES

TEST(Aes256, Fips197Vector) {
  const Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes block = hex_decode("00112233445566778899aabbccddeeff");
  Aes256 cipher(key);
  cipher.encrypt_block(block.data());
  EXPECT_EQ(hex_encode(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, RejectsBadKeySize) {
  EXPECT_THROW(Aes256(Bytes(16, 0)), std::invalid_argument);
}

TEST(Aes256Ctr, Sp80038aVector) {
  const Bytes key = hex_decode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes iv = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = hex_decode("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(hex_encode(aes256_ctr(key, iv, pt)), "601ec313775789a5b7a7f504bbf3d228");
}

TEST(Aes256Ctr, RoundTripAndNonBlockLength) {
  const Bytes key(32, 0x42);
  const Bytes iv(16, 0x01);
  Bytes pt;
  for (int i = 0; i < 1000; ++i) pt.push_back(static_cast<Byte>(i));
  const Bytes ct = aes256_ctr(key, iv, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes256_ctr(key, iv, ct), pt);
}

TEST(Aes256Ctr, CounterIncrementCrossesByteBoundary) {
  const Bytes key(32, 0x01);
  Bytes iv(16, 0x00);
  iv[15] = 0xFF;  // forces a carry into byte 14 after the first block
  const Bytes pt(48, 0x00);
  const Bytes ks = aes256_ctr(key, iv, pt);
  // Keystream blocks must all differ (counter really advanced).
  EXPECT_NE(Bytes(ks.begin(), ks.begin() + 16), Bytes(ks.begin() + 16, ks.begin() + 32));
  EXPECT_NE(Bytes(ks.begin() + 16, ks.begin() + 32), Bytes(ks.begin() + 32, ks.end()));
}

TEST(SealedBox, RoundTrip) {
  const Bytes key(32, 0x07);
  const Bytes iv(16, 0x11);
  const Bytes aad = to_bytes("header");
  const Bytes box = seal(key, to_bytes("secret payload"), aad, iv);
  const auto opened = open_sealed(key, box, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "secret payload");
}

TEST(SealedBox, DetectsTampering) {
  const Bytes key(32, 0x07);
  const Bytes iv(16, 0x11);
  Bytes box = seal(key, to_bytes("secret payload"), {}, iv);
  box[20] ^= 0x01;
  EXPECT_EQ(open_sealed(key, box, {}).code(), ErrorCode::kIntegrity);
}

TEST(SealedBox, WrongKeyOrAadFails) {
  const Bytes key(32, 0x07), other(32, 0x08);
  const Bytes iv(16, 0x11);
  const Bytes box = seal(key, to_bytes("x"), to_bytes("aad"), iv);
  EXPECT_EQ(open_sealed(other, box, to_bytes("aad")).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(open_sealed(key, box, to_bytes("AAD")).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(open_sealed(key, Bytes(10, 0), {}).code(), ErrorCode::kCorrupted);
}

// A box sealed by the two-copy seal() this one replaced: the streaming MAC
// and the shared HKDF extract must not change a stored byte.
TEST(SealedBox, MatchesBoxRecordedBeforeStreamingMac) {
  Bytes key(32), iv(16);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<Byte>(i);
  for (std::size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<Byte>(0xF0 + i);
  Rng rng(7);
  const Bytes pt = rng.next_bytes(1037);
  const Bytes box = seal(key, pt, to_bytes("rockfs.golden"), iv);
  EXPECT_EQ(hex_encode(sha256(box)),
            "df511b8e4a07c0ac9f5b06ffe67498388d41b9f5fc6619b982f1be3f8bb16e7f");
  EXPECT_EQ(hex_encode(seal(key, {}, {}, iv)),
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff3853f7311908c7f304dab1ff5d9935d8"
            "db9f1d89ee24806196f6d04608d26aae");
  const auto opened = open_sealed(key, box, to_bytes("rockfs.golden"));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(Hmac, StreamingMatchesOneShot) {
  Rng rng(8);
  const Bytes key = rng.next_bytes(100);  // longer than a block: hashed first
  const Bytes msg = rng.next_bytes(1000);
  HmacSha256 mac(key);
  mac.update(BytesView(msg).first(1));
  mac.update(BytesView(msg).subspan(1, 400));
  mac.update(BytesView(msg).subspan(401));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, msg));
}

TEST(Hkdf, ExtractExpandSplitMatchesOneCall) {
  const Bytes ikm = to_bytes("input keying material");
  const Bytes prk = hkdf_sha256_extract(ikm, {});
  EXPECT_EQ(hkdf_sha256_expand(prk, to_bytes("a"), 80),
            hkdf_sha256(ikm, {}, to_bytes("a"), 80));
}

// ------------------------------------------------- fast kernels vs portable
//
// Every kernel built for this architecture runs against the portable kernel
// (the original scalar code) and the known-answer vectors. A kernel whose
// instructions the host lacks is skipped with a message naming them.

template <typename K>
const K* find_kernel(std::span<const K> kernels, const std::string& name) {
  for (const K& k : kernels) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

// Why `kernel` cannot run here, or "" when it can.
template <typename K>
std::string unrunnable(const K* kernel, const std::string& name) {
  if (kernel == nullptr) return name + " is not built for this architecture";
  if (!kernel->supported) return "host lacks " + std::string(kernel->isa) + " for " + name;
  return "";
}

class AesCtrKernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    kernel_ = find_kernel(detail::aes_ctr_kernels(), GetParam());
    portable_ = find_kernel(detail::aes_ctr_kernels(), std::string("portable"));
    ASSERT_NE(portable_, nullptr);
    const std::string why = unrunnable(kernel_, GetParam());
    if (!why.empty()) GTEST_SKIP() << why;
  }
  Bytes run(const detail::AesCtrKernel& k, BytesView key, BytesView iv, BytesView in) const {
    Bytes out(in.size());
    k.fn(key.data(), iv.data(), in.data(), out.data(), in.size());
    return out;
  }
  const detail::AesCtrKernel* kernel_ = nullptr;
  const detail::AesCtrKernel* portable_ = nullptr;
};

TEST_P(AesCtrKernelTest, KnownAnswers) {
  // FIPS-197 C.3: with a zero input, CTR's first output block is E(key, iv).
  const Bytes fips_key =
      hex_decode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  EXPECT_EQ(hex_encode(run(*kernel_, fips_key, hex_decode("00112233445566778899aabbccddeeff"),
                           Bytes(16, 0))),
            "8ea2b7ca516745bfeafc49904b496089");
  // SP 800-38A F.5.5 CTR-AES256.Encrypt, all four blocks.
  const Bytes key =
      hex_decode("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes iv = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = hex_decode(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(hex_encode(run(*kernel_, key, iv, pt)),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6");
}

TEST_P(AesCtrKernelTest, MatchesPortableOnRandomLengthsAndOffsets) {
  Rng rng(31);
  const Bytes buf = rng.next_bytes(70'000 + 32);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes key = rng.next_bytes(32), iv = rng.next_bytes(16);
    // Every length below one block, uniform lengths, then lengths one byte
    // either side of a block multiple (batches are 8 blocks).
    std::size_t len = static_cast<std::size_t>(trial);
    if (trial >= 20) len = rng.next_below(70'001);
    if (trial >= 160) len = 16 * (1 + rng.next_below(40)) + rng.next_below(3) - 1;
    const std::size_t in_off = rng.next_below(17), out_off = rng.next_below(17);
    const BytesView in = BytesView(buf).subspan(in_off, len);
    Bytes fast(len + out_off), slow(len);
    kernel_->fn(key.data(), iv.data(), in.data(), fast.data() + out_off, len);
    portable_->fn(key.data(), iv.data(), in.data(), slow.data(), len);
    ASSERT_EQ(Bytes(fast.begin() + static_cast<std::ptrdiff_t>(out_off), fast.end()), slow)
        << "len " << len << " in_off " << in_off << " out_off " << out_off;
  }
}

TEST_P(AesCtrKernelTest, CounterCarriesMatchPortable) {
  const Bytes key(32, 0x5C);
  const Bytes data = Rng(32).next_bytes(16 * 40 + 7);
  // Carry out of byte 15 mid-batch, across the 64-bit halves, and the
  // 128-bit wrap to zero.
  for (const char* iv_hex : {"000102030405060708090a0b0c0d0ef3",
                             "0001020304050607fffffffffffffff9",
                             "00010203040506ffffffffffffffffff",
                             "fffffffffffffffffffffffffffffffd"}) {
    const Bytes iv = hex_decode(iv_hex);
    EXPECT_EQ(run(*kernel_, key, iv, data), run(*portable_, key, iv, data)) << iv_hex;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, AesCtrKernelTest, ::testing::Values("aesni", "portable"),
                         [](const auto& info) { return info.param; });

// SHA-256 of `msg` through one compression kernel (FIPS 180-4 padding).
Bytes sha256_with(const detail::Sha256Kernel& k, BytesView msg) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  append_u64(padded, static_cast<std::uint64_t>(msg.size()) * 8);
  k.fn(h, padded.data(), padded.size() / 64);
  Bytes out;
  for (const std::uint32_t word : h) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<Byte>(word >> shift));
    }
  }
  return out;
}

class Sha256KernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    kernel_ = find_kernel(detail::sha256_kernels(), GetParam());
    portable_ = find_kernel(detail::sha256_kernels(), std::string("portable"));
    ASSERT_NE(portable_, nullptr);
    const std::string why = unrunnable(kernel_, GetParam());
    if (!why.empty()) GTEST_SKIP() << why;
  }
  const detail::Sha256Kernel* kernel_ = nullptr;
  const detail::Sha256Kernel* portable_ = nullptr;
};

TEST_P(Sha256KernelTest, KnownAnswers) {
  EXPECT_EQ(hex_encode(sha256_with(*kernel_, to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(sha256_with(*kernel_, to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const Bytes two_blocks =
      to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_encode(sha256_with(*kernel_, two_blocks)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_encode(sha256_with(*kernel_, Bytes(1'000'000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, MatchesPortableOnRandomBlocksAndOffsets) {
  Rng rng(33);
  const Bytes buf = rng.next_bytes(70'000 + 64);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nblocks = rng.next_below(70'000 / 64 + 1);
    const std::size_t off = rng.next_below(64);
    std::uint32_t fast[8], slow[8];
    for (int i = 0; i < 8; ++i) fast[i] = slow[i] = static_cast<std::uint32_t>(rng.next_u64());
    kernel_->fn(fast, buf.data() + off, nblocks);
    portable_->fn(slow, buf.data() + off, nblocks);
    ASSERT_TRUE(std::equal(fast, fast + 8, slow)) << "blocks " << nblocks << " off " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest, ::testing::Values("shani", "portable"),
                         [](const auto& info) { return info.param; });

// The dispatched Sha256 (whatever kernel the host picked) against the
// portable kernel, with update() split at random points and every padding
// edge (tails of 55, 56, 63 and 64 bytes) covered by the random lengths.
TEST(Sha256, RandomSplitsMatchPortable) {
  const auto* portable = find_kernel(detail::sha256_kernels(), std::string("portable"));
  ASSERT_NE(portable, nullptr);
  Rng rng(34);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = trial < 130 ? static_cast<std::size_t>(trial)
                                        : rng.next_below(70'001);
    const Bytes msg = rng.next_bytes(len);
    Sha256 ctx;
    for (std::size_t off = 0; off < len;) {
      const std::size_t take = std::min<std::size_t>(len - off, rng.next_below(300));
      ctx.update(BytesView(msg).subspan(off, take));
      off += take;
    }
    ASSERT_EQ(ctx.finish(), sha256_with(*portable, msg)) << "len " << len;
  }
}

TEST(Aes256Ctr, DispatchedMatchesPortable) {
  const auto* portable = find_kernel(detail::aes_ctr_kernels(), std::string("portable"));
  ASSERT_NE(portable, nullptr);
  Rng rng(35);
  const Bytes key = rng.next_bytes(32), iv = rng.next_bytes(16);
  const Bytes data = rng.next_bytes(10'007);
  Bytes expect(data.size());
  portable->fn(key.data(), iv.data(), data.data(), expect.data(), data.size());
  EXPECT_EQ(aes256_ctr(key, iv, data), expect);
}

// ---------------------------------------------------------------- DRBG

TEST(Drbg, DeterministicPerSeed) {
  Drbg a(to_bytes("seed"), to_bytes("p"));
  Drbg b(to_bytes("seed"), to_bytes("p"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, PersonalizationAndReseedChangeOutput) {
  Drbg a(to_bytes("seed"), to_bytes("p1"));
  Drbg b(to_bytes("seed"), to_bytes("p2"));
  EXPECT_NE(a.generate(32), b.generate(32));

  Drbg c(to_bytes("seed"));
  Drbg d(to_bytes("seed"));
  d.reseed(to_bytes("fresh entropy"));
  EXPECT_NE(c.generate(32), d.generate(32));
}

TEST(Drbg, OutputLooksUniform) {
  Drbg drbg(to_bytes("uniformity"));
  const Bytes sample = drbg.generate(1 << 16);
  std::array<int, 256> counts{};
  for (const Byte x : sample) ++counts[x];
  for (const int c : counts) {
    EXPECT_GT(c, 128);  // expectation 256, allow wide slack
    EXPECT_LT(c, 512);
  }
}

// ---------------------------------------------------------------- Bigint

TEST(Bigint, HexRoundTrip) {
  const auto v = Uint256::from_hex("0123456789abcdef0011223344556677");
  EXPECT_EQ(v.to_hex(),
            "000000000000000000000000000000000123456789abcdef0011223344556677");
  EXPECT_EQ(Uint256::from_hex(v.to_hex()), v);
}

TEST(Bigint, AddSubInverse) {
  const auto a = Uint256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  const auto b = Uint256::from_hex("123456789");
  Uint256 s, d;
  const auto carry = add_with_carry(a, b, s);
  EXPECT_EQ(carry, 1u);  // wraps
  sub_with_borrow(s, b, d);
  EXPECT_EQ(d, a);
}

TEST(Bigint, MulWideKnown) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const Uint256 a(UINT64_MAX);
  const Uint512 p = mul_wide(a, a);
  EXPECT_EQ(p.limb[0], 1u);
  EXPECT_EQ(p.limb[1], UINT64_MAX - 1);
  EXPECT_EQ(p.limb[2], 0u);
}

TEST(Bigint, ModKnown) {
  const Uint512 a = mul_wide(Uint256(1000003), Uint256(999983));
  const Uint256 m(97);
  const Uint256 r = mod(a, m);
  EXPECT_EQ(r.limb[0], (1000003ULL % 97) * (999983ULL % 97) % 97);
}

TEST(Bigint, PowModFermat) {
  // 2^(p-1) mod p == 1 for prime p.
  const Uint256 p(1000003);
  EXPECT_EQ(pow_mod(Uint256(2), Uint256(1000002), p), Uint256(1));
}

TEST(Bigint, InvModPrime) {
  const Uint256 p(1000003);
  const Uint256 a(123456);
  const Uint256 inv = inv_mod_prime(a, p);
  EXPECT_EQ(mul_mod(a, inv, p), Uint256(1));
  EXPECT_THROW(inv_mod_prime(Uint256(0), p), std::invalid_argument);
}

TEST(Bigint, IsqrtExactAndFloor) {
  Uint512 a{};
  a.limb[0] = 144;
  EXPECT_EQ(isqrt(a), Uint256(12));
  a.limb[0] = 150;
  EXPECT_EQ(isqrt(a), Uint256(12));
  a.limb[0] = 0;
  EXPECT_EQ(isqrt(a), Uint256(0));
}

TEST(Bigint, IcbrtExactAndFloor) {
  Uint512 a{};
  a.limb[0] = 27'000;
  EXPECT_EQ(icbrt(a), Uint256(30));
  a.limb[0] = 26'999;
  EXPECT_EQ(icbrt(a), Uint256(29));
}

TEST(Bigint, BitLength) {
  EXPECT_EQ(Uint256(0).bit_length(), 0u);
  EXPECT_EQ(Uint256(1).bit_length(), 1u);
  EXPECT_EQ(Uint256(255).bit_length(), 8u);
  EXPECT_EQ(Uint256::from_limbs(0, 0, 0, 1).bit_length(), 193u);
}

// ---------------------------------------------------------------- secp256k1

TEST(Secp256k1, GeneratorOnCurve) { EXPECT_TRUE(on_curve(generator())); }

TEST(Secp256k1, OrderTimesGeneratorIsIdentity) {
  EXPECT_TRUE(scalar_mul(curve_n(), generator()).infinity);
}

TEST(Secp256k1, DoubleMatchesAdd) {
  const Point g = generator();
  const Point d = point_double(g);
  EXPECT_EQ(d, point_add(g, g));
  EXPECT_EQ(d, scalar_mul(Uint256(2), g));
  // Known x-coordinate of 2G.
  EXPECT_EQ(d.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
}

TEST(Secp256k1, AdditionIsCommutativeAndAssociative) {
  const Point a = scalar_mul(Uint256(12345), generator());
  const Point b = scalar_mul(Uint256(67890), generator());
  const Point c = scalar_mul(Uint256(424242), generator());
  EXPECT_EQ(point_add(a, b), point_add(b, a));
  EXPECT_EQ(point_add(point_add(a, b), c), point_add(a, point_add(b, c)));
}

TEST(Secp256k1, ScalarMulDistributes) {
  const Uint256 a(777), b(888);
  const Point lhs = point_add(scalar_mul_base(a), scalar_mul_base(b));
  EXPECT_EQ(lhs, scalar_mul_base(scalar_add(a, b)));
}

TEST(Secp256k1, NegationCancels) {
  const Point p = scalar_mul_base(Uint256(31337));
  EXPECT_TRUE(point_add(p, point_negate(p)).infinity);
}

TEST(Secp256k1, IdentityLaws) {
  const Point p = scalar_mul_base(Uint256(5));
  EXPECT_EQ(point_add(p, Point{}), p);
  EXPECT_EQ(point_add(Point{}, p), p);
  EXPECT_TRUE(scalar_mul(Uint256(0), p).infinity);
}

TEST(Secp256k1, EncodeDecodeRoundTrip) {
  const Point p = scalar_mul_base(Uint256(99999));
  EXPECT_EQ(point_decode(point_encode(p)), p);
  EXPECT_TRUE(point_decode(point_encode(Point{})).infinity);
}

TEST(Secp256k1, DecodeRejectsOffCurve) {
  Bytes enc = point_encode(scalar_mul_base(Uint256(3)));
  enc[40] ^= 0x01;
  EXPECT_THROW(point_decode(enc), std::invalid_argument);
  EXPECT_THROW(point_decode(Bytes{0x02, 0x00}), std::invalid_argument);
}

TEST(Secp256k1, FastReductionMatchesGenericModP) {
  // fe_mul uses the special-form reduction for p = 2^256 - 2^32 - 977; it
  // must agree with the generic bitwise mod on random inputs, including
  // values just below p (the carry-heavy corner).
  Drbg drbg(to_bytes("fe-reduce"));
  Uint256 p_minus_1;
  sub_with_borrow(curve_p(), Uint256(1), p_minus_1);
  std::vector<Uint256> samples{Uint256(0), Uint256(1), p_minus_1};
  for (int i = 0; i < 40; ++i) {
    samples.push_back(mod(Uint512::from_uint256(Uint256::from_bytes_be(drbg.generate(32))),
                          curve_p()));
  }
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      EXPECT_EQ(fe_mul(a, b), mul_mod(a, b, curve_p()))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(Secp256k1, FieldInverse) {
  const Uint256 a = Uint256::from_hex("deadbeefcafebabe");
  EXPECT_EQ(fe_mul(a, fe_inv(a)), Uint256(1));
}

TEST(Secp256k1, ScalarInverse) {
  const Uint256 a(123456789);
  EXPECT_EQ(scalar_mul_mod_n(a, scalar_inv(a)), Uint256(1));
}

// ------------------------------------- secp256k1 fast path vs the reference
//
// crypto/secp256k1_ref.h keeps the double-and-add group law the fast path
// replaced; every fast operation must return exactly what it returns.

Uint256 random_scalar(Drbg& drbg) { return Uint256::from_bytes_be(drbg.generate(32)); }

// 0, 1, 2, n-1, n, n+1 and 2^256-1: the empty, the shortest and the
// wrap-around scalars.
std::vector<Uint256> edge_scalars() {
  Uint256 n_minus_1, n_plus_1;
  sub_with_borrow(curve_n(), Uint256(1), n_minus_1);
  add_with_carry(curve_n(), Uint256(1), n_plus_1);
  return {Uint256(0), Uint256(1),  Uint256(2),
          n_minus_1,  curve_n(),   n_plus_1,
          Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
}

TEST(Secp256k1Fast, FieldOpsMatchReference) {
  Drbg drbg(to_bytes("fe-fast"));
  Uint256 p_minus_1, p_minus_2;
  sub_with_borrow(curve_p(), Uint256(1), p_minus_1);
  sub_with_borrow(curve_p(), Uint256(2), p_minus_2);
  std::vector<Uint256> samples{Uint256(0), Uint256(1), Uint256(2), p_minus_1, p_minus_2,
                               Uint256::from_limbs(0, 0, 0, 1ULL << 63),
                               Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, 0)};
  for (int i = 0; i < 60; ++i) {
    samples.push_back(mod(Uint512::from_uint256(random_scalar(drbg)), curve_p()));
  }
  for (const auto& a : samples) {
    if (!a.is_zero()) {
      EXPECT_EQ(fe_inv(a), detail::ref_fe_inv(a)) << a.to_hex();
    }
    for (const auto& b : samples) {
      EXPECT_EQ(fe_mul(a, b), detail::ref_fe_mul(a, b)) << a.to_hex() << " * " << b.to_hex();
      EXPECT_EQ(fe_add(a, b), detail::ref_fe_add(a, b)) << a.to_hex() << " + " << b.to_hex();
      EXPECT_EQ(fe_sub(a, b), detail::ref_fe_sub(a, b)) << a.to_hex() << " - " << b.to_hex();
    }
  }
  EXPECT_THROW(fe_inv(Uint256(0)), std::invalid_argument);
}

// Scalars mod n: the special-form fold against the generic bitwise
// long division of crypto/bigint.
TEST(Secp256k1Fast, ScalarFieldMatchesGenericModN) {
  Drbg drbg(to_bytes("scalar-field-fast"));
  std::vector<Uint256> samples = edge_scalars();
  for (int i = 0; i < 60; ++i) samples.push_back(random_scalar(drbg));
  for (const auto& a : samples) {
    EXPECT_EQ(scalar_from_bytes(a.to_bytes_be()), mod(Uint512::from_uint256(a), curve_n()));
    if (!mod(Uint512::from_uint256(a), curve_n()).is_zero()) {
      EXPECT_EQ(scalar_inv(a), inv_mod_prime(a, curve_n())) << a.to_hex();
    } else {
      EXPECT_THROW(scalar_inv(a), std::invalid_argument) << a.to_hex();
    }
    for (const auto& b : samples) {
      EXPECT_EQ(scalar_mul_mod_n(a, b), mul_mod(a, b, curve_n()))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(Secp256k1Fast, ScalarMulMatchesReference) {
  Drbg drbg(to_bytes("scalar-mul-fast"));
  const Point p = detail::ref_scalar_mul_base(random_scalar(drbg));
  std::vector<Uint256> scalars = edge_scalars();
  for (int i = 0; i < 1000; ++i) scalars.push_back(random_scalar(drbg));
  for (const Uint256& k : scalars) {
    ASSERT_EQ(scalar_mul_base(k), detail::ref_scalar_mul_base(k)) << k.to_hex();
    ASSERT_EQ(scalar_mul(k, p), detail::ref_scalar_mul(k, p)) << k.to_hex();
    ASSERT_TRUE(scalar_mul(k, Point{}).infinity) << k.to_hex();
  }
  // The generator goes through the fixed-base table; its negation does not.
  for (const Uint256& k : edge_scalars()) {
    EXPECT_EQ(scalar_mul(k, generator()), detail::ref_scalar_mul_base(k)) << k.to_hex();
    EXPECT_EQ(scalar_mul(k, point_negate(generator())),
              detail::ref_scalar_mul(k, point_negate(generator())))
        << k.to_hex();
  }
}

TEST(Secp256k1Fast, PointAddMatchesReference) {
  Drbg drbg(to_bytes("point-add-fast"));
  for (int i = 0; i < 50; ++i) {
    const Point p = scalar_mul_base(random_scalar(drbg));
    const Point q = scalar_mul_base(random_scalar(drbg));
    EXPECT_EQ(point_add(p, q), detail::ref_point_add(p, q));
    EXPECT_EQ(point_add(p, p), detail::ref_point_add(p, p));
    EXPECT_EQ(point_double(p), detail::ref_point_double(p));
    EXPECT_TRUE(point_add(p, point_negate(p)).infinity);
    EXPECT_TRUE(detail::ref_point_add(p, point_negate(p)).infinity);
    EXPECT_EQ(point_add(p, Point{}), p);
    EXPECT_EQ(point_add(Point{}, p), p);
  }
  EXPECT_TRUE(point_add(Point{}, Point{}).infinity);
  EXPECT_TRUE(point_double(Point{}).infinity);
}

TEST(Secp256k1Fast, JointMulMatchesReference) {
  Drbg drbg(to_bytes("joint-mul-fast"));
  const auto ref = [](const Uint256& a, const Point& p, const Uint256& b, const Point& q) {
    return detail::ref_point_add(detail::ref_scalar_mul(a, p), detail::ref_scalar_mul(b, q));
  };
  const Point p = scalar_mul_base(random_scalar(drbg));
  std::vector<Uint256> scalars = edge_scalars();
  for (int i = 0; i < 40; ++i) scalars.push_back(random_scalar(drbg));
  for (const Uint256& a : scalars) {
    const Uint256 b = random_scalar(drbg);
    for (const Point& q : {p, point_negate(p), generator(), Point{}}) {
      const Point expected = ref(a, generator(), b, q);
      EXPECT_EQ(scalar_mul_add(a, generator(), b, q), expected) << a.to_hex();
      EXPECT_EQ(scalar_mul_add(b, q, a, p), ref(b, q, a, p)) << a.to_hex();
      EXPECT_TRUE(scalar_mul_add_equals(a, generator(), b, q, expected)) << a.to_hex();
      EXPECT_FALSE(scalar_mul_add_equals(a, generator(), b, q, point_add(expected, p)))
          << a.to_hex();
    }
  }
  // Terms that cancel: a*P + (n-a)*P is the identity.
  const Uint256 a = random_scalar(drbg);
  const Uint256 minus_a = scalar_sub(Uint256(), a);
  EXPECT_TRUE(scalar_mul_add(a, p, minus_a, p).infinity);
  EXPECT_TRUE(scalar_mul_add_equals(a, p, minus_a, p, Point{}));
  EXPECT_FALSE(scalar_mul_add_equals(a, p, minus_a, p, p));
}

// The verify equation for chosen s, e, P and R (which no real challenge can
// hit): the fast check s*G + (n-e)*P == R against the reference
// s*G == R + e*P.
TEST(Secp256k1Fast, VerifyEquationMatchesReferenceOnDegenerateInputs) {
  Drbg drbg(to_bytes("verify-eq-fast"));
  const auto fast = [](const Uint256& s, const Uint256& e, const Point& pub, const Point& r) {
    return scalar_mul_add_equals(s, generator(), scalar_sub(Uint256(), e), pub, r);
  };
  const auto ref = [](const Uint256& s, const Uint256& e, const Point& pub, const Point& r) {
    return detail::ref_scalar_mul_base(s) ==
           detail::ref_point_add(r, detail::ref_scalar_mul(e, pub));
  };
  const Point pub = scalar_mul_base(random_scalar(drbg));
  const Uint256 e = scalar_from_bytes(drbg.generate(32));
  const Uint256 s = scalar_from_bytes(drbg.generate(32));
  const Point minus_e_pub = point_negate(scalar_mul(e, pub));
  struct Case {
    const char* name;
    Uint256 s, e;
    Point pub, r;
  };
  const Case cases[] = {
      {"valid", s, e, pub, point_add(scalar_mul_base(s), minus_e_pub)},
      {"s = 0 and e*P = -R", Uint256(), e, pub, minus_e_pub},
      {"s = 0 and e*P = R", Uint256(), e, pub, scalar_mul(e, pub)},
      {"s != 0 and e*P = -R", s, e, pub, minus_e_pub},
      {"e = 0", s, Uint256(), pub, scalar_mul_base(s)},
      {"identity key", s, e, Point{}, scalar_mul_base(s)},
      {"identity key, wrong R", s, e, Point{}, pub},
      {"R = identity", s, e, pub, Point{}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(fast(c.s, c.e, c.pub, c.r), ref(c.s, c.e, c.pub, c.r)) << c.name;
  }
  EXPECT_TRUE(fast(s, e, pub, point_add(scalar_mul_base(s), minus_e_pub)));
  EXPECT_TRUE(fast(Uint256(), e, pub, minus_e_pub));
  EXPECT_FALSE(fast(s, e, pub, minus_e_pub));
}

TEST(Secp256k1Fast, VerifyMatchesReference) {
  Drbg drbg(to_bytes("verify-fast"));
  const Point identity = point_decode(Bytes{0x00});
  for (int i = 0; i < 20; ++i) {
    const KeyPair kp = generate_keypair(drbg);
    const Bytes msg = drbg.generate(1 + i * 7);
    const Bytes sig = sign(kp, msg);
    std::vector<std::pair<std::string, Bytes>> sigs{{"valid", sig}};
    Bytes flipped_s = sig;
    flipped_s[96] ^= 0x01;
    sigs.emplace_back("flipped s", flipped_s);
    // A different R that still decodes: R + G.
    Bytes flipped_r = point_encode(point_add(point_decode(BytesView(sig).subspan(0, 65)),
                                             generator()));
    append(flipped_r, BytesView(sig).subspan(65, 32));
    sigs.emplace_back("flipped R", flipped_r);
    Bytes zero_s = sig;
    std::fill(zero_s.begin() + 65, zero_s.end(), 0);
    sigs.emplace_back("s = 0", zero_s);
    // Under the identity key the equation is s*G == R, so this forgery
    // passes both checks and a real signature fails both.
    const Uint256 s = scalar_from_bytes(drbg.generate(32));
    Bytes forged = point_encode(scalar_mul_base(s));
    append(forged, s.to_bytes_be());
    sigs.emplace_back("s*G as R", forged);
    for (const auto& [name, candidate] : sigs) {
      for (const Point& pub : {kp.public_key, identity}) {
        EXPECT_EQ(verify(pub, msg, candidate), detail::ref_verify(pub, msg, candidate))
            << name << (pub.infinity ? " (identity key)" : "");
      }
    }
    EXPECT_TRUE(verify(kp.public_key, msg, sig));
    EXPECT_FALSE(verify(kp.public_key, msg, flipped_s));
    EXPECT_TRUE(verify(identity, msg, forged));
    EXPECT_TRUE(verify(Bytes{0x00}, msg, forged));
  }
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  Drbg drbg(to_bytes("schnorr-test"));
  const KeyPair kp = generate_keypair(drbg);
  const Bytes msg = to_bytes("log entry #42");
  const Bytes sig = sign(kp, msg);
  EXPECT_EQ(sig.size(), kSignatureSize);
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
  EXPECT_TRUE(verify(kp.public_bytes(), msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Drbg drbg(to_bytes("schnorr-test2"));
  const KeyPair kp = generate_keypair(drbg);
  const Bytes sig = sign(kp, to_bytes("original"));
  EXPECT_FALSE(verify(kp.public_key, to_bytes("0riginal"), sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  Drbg drbg(to_bytes("schnorr-test3"));
  const KeyPair kp = generate_keypair(drbg);
  Bytes sig = sign(kp, to_bytes("msg"));
  sig[80] ^= 0x01;
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), sig));
  sig[80] ^= 0x01;
  sig[10] ^= 0x01;  // corrupt R encoding -> off curve -> clean reject
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  Drbg drbg(to_bytes("schnorr-test4"));
  const KeyPair kp1 = generate_keypair(drbg);
  const KeyPair kp2 = generate_keypair(drbg);
  const Bytes sig = sign(kp1, to_bytes("msg"));
  EXPECT_FALSE(verify(kp2.public_key, to_bytes("msg"), sig));
}

TEST(Schnorr, RejectsMalformedInputs) {
  Drbg drbg(to_bytes("schnorr-test5"));
  const KeyPair kp = generate_keypair(drbg);
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), Bytes(10, 0)));
  EXPECT_FALSE(verify(Bytes(65, 0xAA), to_bytes("msg"), sign(kp, to_bytes("msg"))));
}

TEST(Schnorr, KeypairFromPrivateRoundTrip) {
  Drbg drbg(to_bytes("schnorr-test6"));
  const KeyPair kp = generate_keypair(drbg);
  const KeyPair restored = keypair_from_private(kp.private_key.to_bytes_be());
  EXPECT_EQ(restored.public_key, kp.public_key);
  const Bytes sig = sign(restored, to_bytes("m"));
  EXPECT_TRUE(verify(kp.public_key, to_bytes("m"), sig));
}

// Public keys and signatures recorded from the double-and-add implementation:
// a faster group law must reproduce every byte.
TEST(Schnorr, KeysAndSignaturesMatchRecorded) {
  struct Pin {
    const char* seed;
    const char* message;
    const char* public_key;
    const char* signature;
  };
  const Pin pins[] = {
      {"schnorr-pin-1", "log entry #1",
       "047e04600c73f1f877329035bc467e60ed1b63f37a2b3f7aa9529e59e6b1dcf3"
       "5b535f4db94cfe20e4dd29aadd258814fb4f651d6306fe5ce513a25b2436e6ab"
       "56",
       "040f2f8a9d73e4f009662ed143c8e5717cd0db5634a8e96bc3537c7f246affb2"
       "0b7c0f425c55ef8af32e2ac5f5e7adf6adc24ca48673733956ca52e826c166a8"
       "ecb715a1970bafe9aac48549444682948bc1e6a321534373b6032f32861c5113"
       "f8"},
      {"schnorr-pin-2", "",
       "042fed1f29a9350efb42d93a983a4a8bfb0c994721609997324250e790717984"
       "c43f4c6b5d3afd8608dbb9b217a45fb141571f34f620fa7322e7c7a9db686895"
       "8c",
       "040b87daa21712d91ba9698fc9f1b9d7d1a8facb3f02da6fd086fcfea4080610"
       "3830d9fc1df3fb43e37a8d134522fe248c0003d423046bb199eed4e58b96af8c"
       "28a61350ba82859b3a4356bb5501e52d697067da96071cf8fa9df6fa94ab5a0a"
       "f7"},
      {"schnorr-pin-3", "depsky metadata: files/a.txt v7",
       "04408e85297442219f930cba825aff4747565407dc30c99f739ed6b7478aa491"
       "47b534d9bf92abc1037026462f38a3b3975c0db3ceb8f0cc3ac480a7b44d35e4"
       "18",
       "0493a4dd0554eebefd66b4dc39f79a637f487d1e9218b922322233dbb827e96d"
       "6637ffd9b8c5d99fc9f18078649829cd482eb52b8513d11807017a16ed6851cb"
       "fd4004b7bbb3619c6ad02145b303ac78588b8309463b10911d99a1e3550de36d"
       "6d"},
  };
  for (const Pin& pin : pins) {
    Drbg drbg(to_bytes(pin.seed));
    const KeyPair kp = generate_keypair(drbg);
    const Bytes sig = sign(kp, to_bytes(pin.message));
    EXPECT_EQ(hex_encode(kp.public_bytes()), pin.public_key) << pin.seed;
    EXPECT_EQ(hex_encode(sig), pin.signature) << pin.seed;
    EXPECT_TRUE(verify(kp.public_bytes(), to_bytes(pin.message), sig)) << pin.seed;
  }
}

TEST(Schnorr, DeterministicSignatures) {
  Drbg drbg(to_bytes("schnorr-test7"));
  const KeyPair kp = generate_keypair(drbg);
  EXPECT_EQ(sign(kp, to_bytes("same msg")), sign(kp, to_bytes("same msg")));
  EXPECT_NE(sign(kp, to_bytes("msg a")), sign(kp, to_bytes("msg b")));
}

}  // namespace
}  // namespace rockfs::crypto
