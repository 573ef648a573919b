#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "erasure/kernels.h"
#include "erasure/reed_solomon.h"
#include "gf/gf256.h"

namespace rockfs {
namespace {

// ------------------------------------------------------------------ GF(256)

TEST(Gf256, MulBasics) {
  EXPECT_EQ(gf::mul(0, 17), 0);
  EXPECT_EQ(gf::mul(17, 0), 0);
  EXPECT_EQ(gf::mul(1, 17), 17);
  EXPECT_EQ(gf::mul(17, 1), 17);
}

TEST(Gf256, MulCommutativeAssociativeDistributive) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(a, gf::mul(b, c)), gf::mul(gf::mul(a, b), c));
    EXPECT_EQ(gf::mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf::mul(a, b) ^ gf::mul(a, c));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(ua, gf::inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf::div(ua, ua), 1);
  }
}

TEST(Gf256, ZeroEdgeCases) {
  EXPECT_THROW(gf::inv(0), std::domain_error);
  EXPECT_THROW(gf::div(1, 0), std::domain_error);
  EXPECT_EQ(gf::div(0, 7), 0);
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 13) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(gf::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
  EXPECT_EQ(gf::pow(0, 0), 1);
  EXPECT_EQ(gf::pow(0, 5), 0);
}

TEST(Gf256, PolyEvalHorner) {
  // f(x) = 5 + 3x + x^2 at x=2 (all GF ops): 5 ^ mul(3,2) ^ mul(1, mul(2,2)).
  const Bytes coeffs{5, 3, 1};
  const std::uint8_t expected =
      static_cast<std::uint8_t>(5 ^ gf::mul(3, 2) ^ gf::mul(2, 2));
  EXPECT_EQ(gf::poly_eval(coeffs, 2), expected);
  EXPECT_EQ(gf::poly_eval(coeffs, 0), 5);
}

TEST(GfMatrix, IdentityMultiply) {
  const auto id = gf::Matrix::identity(4);
  auto m = gf::Matrix::vandermonde(4, 4);
  EXPECT_EQ(id.multiply(m), m);
  EXPECT_EQ(m.multiply(id), m);
}

TEST(GfMatrix, InverseRoundTrip) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    gf::Matrix m(5, 5);
    // Random invertible matrix: retry until inversion succeeds.
    for (;;) {
      for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c)
          m.at(r, c) = static_cast<std::uint8_t>(rng.next_below(256));
      try {
        const gf::Matrix inv = m.inverse();
        EXPECT_EQ(m.multiply(inv), gf::Matrix::identity(5));
        break;
      } catch (const std::domain_error&) {
        continue;  // singular, redraw
      }
    }
  }
}

TEST(GfMatrix, SingularThrows) {
  gf::Matrix m(2, 2);  // all zeros
  EXPECT_THROW(m.inverse(), std::domain_error);
}

TEST(GfMatrix, ApplyVector) {
  auto id = gf::Matrix::identity(3);
  const Bytes v{9, 8, 7};
  EXPECT_EQ(id.apply(v), v);
  EXPECT_THROW(id.apply(Bytes{1, 2}), std::invalid_argument);
}

TEST(GfMatrix, VandermondeSubmatricesInvertible) {
  // Any k rows of the n x k Vandermonde matrix must be invertible — this is
  // what makes Reed-Solomon work for arbitrary erasure patterns.
  const auto vm = gf::Matrix::vandermonde(6, 3);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      for (std::size_t c = b + 1; c < 6; ++c)
        EXPECT_NO_THROW(vm.select_rows({a, b, c}).inverse());
}

// ------------------------------------------------------------ Reed-Solomon

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(erasure::ReedSolomon(0, 4), std::invalid_argument);
  EXPECT_THROW(erasure::ReedSolomon(5, 4), std::invalid_argument);
}

TEST(ReedSolomon, SystematicPrefix) {
  const erasure::ReedSolomon rs(2, 4);
  Bytes data = to_bytes("hello world, this is rockfs!");
  const auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 4u);
  // First k shards concatenated must reproduce the (padded) data.
  Bytes joined = concat({shards[0].data, shards[1].data});
  joined.resize(data.size());
  EXPECT_EQ(joined, data);
}

TEST(ReedSolomon, DecodeFromAnyKShards) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(3);
  const Bytes data = rng.next_bytes(10'000);
  const auto shards = rs.encode(data);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      const auto out = rs.decode({shards[a], shards[b]}, data.size());
      ASSERT_TRUE(out.ok()) << "shards " << a << "," << b;
      EXPECT_EQ(*out, data);
    }
  }
}

TEST(ReedSolomon, FailsWithFewerThanK) {
  const erasure::ReedSolomon rs(3, 5);
  const Bytes data = to_bytes("some data");
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[0], shards[1]}, data.size());
  EXPECT_EQ(out.code(), ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, DuplicateShardsDoNotCount) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = to_bytes("abcdefgh");
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[1], shards[1]}, data.size());
  EXPECT_EQ(out.code(), ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, ShardSizeMismatchRejected) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = to_bytes("abcdefgh0123");
  auto shards = rs.encode(data);
  shards[0].data.pop_back();
  EXPECT_EQ(rs.decode({shards[0], shards[1]}, data.size()).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, StorageBlowupIsNOverK) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data(1'000'000, 0x5A);
  const auto shards = rs.encode(data);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.data.size();
  // n/k = 2x total storage, the figure the paper quotes for DepSky-CA.
  EXPECT_EQ(total, 2 * data.size());
}

TEST(ReedSolomon, RepairShard) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(4);
  const Bytes data = rng.next_bytes(5'000);
  const auto shards = rs.encode(data);
  const auto repaired = rs.repair_shard({shards[2], shards[3]}, 0, data.size());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->index, 0u);
  EXPECT_EQ(repaired->data, shards[0].data);
}

TEST(ReedSolomon, VariousGeometriesRoundTrip) {
  Rng rng(5);
  const struct {
    std::size_t k, n;
  } geometries[] = {{1, 1}, {1, 3}, {2, 3}, {3, 4}, {2, 4}, {5, 8}, {10, 14}};
  for (const auto& g : geometries) {
    const erasure::ReedSolomon rs(g.k, g.n);
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{1000}}) {
      const Bytes data = rng.next_bytes(size);
      auto shards = rs.encode(data);
      // Drop n-k shards (the last ones), decode from the rest.
      shards.resize(g.k);
      const auto out = rs.decode(shards, data.size());
      ASSERT_TRUE(out.ok()) << "k=" << g.k << " n=" << g.n << " size=" << size;
      EXPECT_EQ(*out, data);
    }
  }
}

TEST(ReedSolomon, DecodeFromParityOnly) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(6);
  const Bytes data = rng.next_bytes(3'333);
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[2], shards[3]}, data.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

// ------------------------------------------- fast kernels vs the gf::mul oracle
//
// Every multiply-accumulate kernel built for this architecture runs against
// the scalar gf::mul loop and, through encode/decode, against the column-wise
// Matrix::apply code. A kernel whose instructions the host lacks is skipped
// with a message naming them.

// Column-wise encode with gf::mul, the arithmetic ReedSolomon used before the
// row kernels.
std::vector<Bytes> oracle_encode(std::size_t k, std::size_t n, BytesView data) {
  const gf::Matrix coding = erasure::detail::systematic_matrix(k, n);
  const std::size_t stride = std::max<std::size_t>((data.size() + k - 1) / k, 1);
  std::vector<Bytes> shards(n, Bytes(stride, 0));
  for (std::size_t pos = 0; pos < stride; ++pos) {
    Bytes column(k, 0);
    for (std::size_t c = 0; c < k; ++c) {
      if (c * stride + pos < data.size()) column[c] = data[c * stride + pos];
    }
    const Bytes coded = coding.apply(column);
    for (std::size_t r = 0; r < n; ++r) shards[r][pos] = coded[r];
  }
  return shards;
}

class MulAccKernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    for (const auto& k : erasure::detail::mul_acc_kernels()) {
      if (GetParam() == k.name) kernel_ = &k;
    }
    if (kernel_ == nullptr) {
      GTEST_SKIP() << GetParam() << " is not built for this architecture";
    }
    if (!kernel_->supported) {
      GTEST_SKIP() << "host lacks " << kernel_->isa << " for " << GetParam();
    }
  }
  const erasure::detail::MulAccKernel* kernel_ = nullptr;
};

TEST_P(MulAccKernelTest, MatchesGfMulOnRandomLengthsAndOffsets) {
  Rng rng(41);
  const Bytes in_buf = rng.next_bytes(70'000 + 64);
  for (int trial = 0; trial < 300; ++trial) {
    // Every coefficient once, then random ones; lengths around the vector
    // width as well as uniform up to 70 000.
    const auto coef = static_cast<std::uint8_t>(trial < 256 ? trial : rng.next_below(256));
    const std::size_t len = trial % 2 == 0 ? rng.next_below(70'001) : rng.next_below(100);
    const std::size_t in_off = rng.next_below(33), out_off = rng.next_below(33);
    const Bytes start = rng.next_bytes(len + out_off);
    Bytes fast = start, slow = start;
    kernel_->fn(coef, in_buf.data() + in_off, fast.data() + out_off, len);
    for (std::size_t i = 0; i < len; ++i) {
      slow[out_off + i] ^= gf::mul(coef, in_buf[in_off + i]);
    }
    ASSERT_EQ(fast, slow) << "coef " << int{coef} << " len " << len;
  }
}

TEST_P(MulAccKernelTest, EncodeMatchesOracleAndDecodesFromEveryKSubset) {
  Rng rng(42);
  for (const auto& [k, n] : {std::pair<std::size_t, std::size_t>{2, 4}, {3, 5}}) {
    const gf::Matrix coding = erasure::detail::systematic_matrix(k, n);
    // 0, 1, a size that is not a multiple of k, and a large odd one.
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, 3 * k + 1, std::size_t{70'001}}) {
      const Bytes data = rng.next_bytes(size);
      const auto shards = erasure::detail::encode_with(coding, data, kernel_->fn, nullptr);
      const auto expect = oracle_encode(k, n, data);
      ASSERT_EQ(shards.size(), n);
      for (std::size_t r = 0; r < n; ++r) {
        ASSERT_EQ(shards[r].data, expect[r]) << "k=" << k << " size=" << size << " row " << r;
      }
      // Every k-subset, as a bitmask over the n shards.
      for (unsigned mask = 0; mask < (1u << n); ++mask) {
        if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
        std::vector<erasure::Shard> subset;
        for (std::size_t i = 0; i < n; ++i) {
          if (mask & (1u << i)) subset.push_back(shards[i]);
        }
        const auto out = erasure::detail::decode_with(coding, subset, size, kernel_->fn);
        ASSERT_TRUE(out.ok()) << "mask " << mask;
        ASSERT_EQ(*out, data) << "k=" << k << " size=" << size << " mask " << mask;
      }
    }
  }
}

// Shard bytes recorded with the column-wise gf::mul encoder.
TEST_P(MulAccKernelTest, EncodeMatchesRecordedDigests) {
  for (const auto& [k, n, digest] :
       {std::tuple<std::size_t, std::size_t, const char*>{
            2, 4, "6ddfe115b73bbde7fda4ee3d975b1ee6e55c684fcef5f531ded6891c7888ef1e"},
        {3, 5, "9e1e3404603d3b882d4f59e5a4fc08f1c9611d8d13afb27df03c2303572dd41b"}}) {
    Rng rng(1000 + k);
    const Bytes data = rng.next_bytes(10'001);
    const gf::Matrix coding = erasure::detail::systematic_matrix(k, n);
    const auto shards = erasure::detail::encode_with(coding, data, kernel_->fn, nullptr);
    crypto::Sha256 h;
    for (const auto& s : shards) h.update(s.data);
    EXPECT_EQ(hex_encode(h.finish()), digest) << "k=" << k << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, MulAccKernelTest, ::testing::Values("gfni", "avx2", "table"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace rockfs
