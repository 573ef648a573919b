#include <gtest/gtest.h>

#include <algorithm>

#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "diff/binary_diff.h"
#include "fssagg/fssagg.h"

namespace rockfs {
namespace {

// ------------------------------------------------------------------ FssAgg

struct FssAggFixture {
  crypto::Drbg drbg{to_bytes("fssagg-test")};
  fssagg::FssAggKeys keys = fssagg::fssagg_keygen(drbg);

  // Builds a signed log of the given entries, returning entries+tags and the
  // final aggregates.
  struct Built {
    std::vector<fssagg::TaggedEntry> log;
    Bytes agg_a;
    Bytes agg_b;
  };
  Built build(const std::vector<std::string>& entries) {
    fssagg::FssAggSigner signer(keys);
    Built out;
    for (const auto& e : entries) {
      fssagg::TaggedEntry te;
      te.entry = to_bytes(e);
      te.tag = signer.append(te.entry);
      out.log.push_back(std::move(te));
    }
    out.agg_a = signer.aggregate_a();
    out.agg_b = signer.aggregate_b();
    return out;
  }
};

TEST(FssAgg, CleanLogVerifies) {
  FssAggFixture fx;
  const auto built = fx.build({"op1: create f", "op2: update f", "op3: delete g"});
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.corrupt_entries.empty());
  EXPECT_FALSE(report.aggregate_mismatch);
  EXPECT_FALSE(report.count_mismatch);
}

TEST(FssAgg, EmptyLogVerifies) {
  FssAggFixture fx;
  const auto built = fx.build({});
  EXPECT_TRUE(fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 0).ok);
}

TEST(FssAgg, DetectsModifiedEntry) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c", "d"});
  built.log[2].entry = to_bytes("C-tampered");
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 4);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.corrupt_entries.size(), 1u);
  EXPECT_EQ(report.corrupt_entries[0], 2u);
}

TEST(FssAgg, DetectsDeletionInMiddle) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c"});
  built.log.erase(built.log.begin() + 1);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  // Entry "c" now sits at index 1 and was MACed with key A_3, so it fails too.
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, DetectsTruncation) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c", "d"});
  built.log.resize(2);  // attacker chops the tail
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 4);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  EXPECT_TRUE(report.aggregate_mismatch);  // aggregates cover all 4 entries
}

TEST(FssAgg, DetectsReordering) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c"});
  std::swap(built.log[0], built.log[1]);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.corrupt_entries.size(), 2u);
}

TEST(FssAgg, DetectsInsertion) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b"});
  fssagg::TaggedEntry bogus;
  bogus.entry = to_bytes("evil");
  bogus.tag.mac_a = Bytes(32, 0);
  bogus.tag.mac_b = Bytes(32, 0);
  built.log.insert(built.log.begin() + 1, bogus);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 2);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, ForwardSecurity) {
  // An attacker who steals the signer state after i entries cannot produce
  // tags valid for earlier indices: re-MACing entry 0 with the stolen
  // (evolved) key fails verification.
  FssAggFixture fx;
  fssagg::FssAggSigner signer(fx.keys);
  fssagg::TaggedEntry e0;
  e0.entry = to_bytes("original");
  e0.tag = signer.append(e0.entry);

  // "Steal" the state by continuing to use the signer: any tag it can produce
  // now is for index >= 1. Try to pass one off as entry 0.
  fssagg::FssAggSigner stolen = signer;  // state after 1 append
  fssagg::TaggedEntry forged;
  forged.entry = to_bytes("rewritten history");
  forged.tag = stolen.append(forged.entry);

  std::vector<fssagg::TaggedEntry> log{forged};
  const auto report = fssagg::fssagg_verify(fx.keys, log, stolen.aggregate_a(),
                                            stolen.aggregate_b(), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, SameEntryDifferentPositionsHasDifferentTags) {
  FssAggFixture fx;
  fssagg::FssAggSigner signer(fx.keys);
  const auto t1 = signer.append(to_bytes("same"));
  const auto t2 = signer.append(to_bytes("same"));
  EXPECT_NE(t1.mac_a, t2.mac_a);
  EXPECT_NE(t1.mac_b, t2.mac_b);
}

TEST(FssAgg, KeygenProducesDistinctKeys) {
  crypto::Drbg drbg(to_bytes("kg"));
  const auto k1 = fssagg::fssagg_keygen(drbg);
  const auto k2 = fssagg::fssagg_keygen(drbg);
  EXPECT_NE(k1.a1, k1.b1);
  EXPECT_NE(k1.a1, k2.a1);
  EXPECT_THROW(fssagg::FssAggSigner({Bytes(16, 0), Bytes(32, 0)}), std::invalid_argument);
}

// -------------------------------------------------------------------- Diff

TEST(Diff, IdenticalFilesProduceTinyDelta) {
  Rng rng(10);
  const Bytes data = rng.next_bytes(100'000);
  const Bytes delta = diff::encode(data, data);
  // One coalesced COPY plus at most one sub-block literal tail.
  EXPECT_LT(delta.size(), 1'100u);
  const auto patched = diff::patch(data, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, data);
}

TEST(Diff, AppendOnlyDeltaProportionalToAppend) {
  Rng rng(11);
  const Bytes base = rng.next_bytes(1'000'000);
  Bytes appended = base;
  const Bytes extra = rng.next_bytes(300'000);  // the paper's +30% workload
  append(appended, extra);
  const Bytes delta = diff::encode(base, appended);
  // Delta carries the appended bytes plus opcode overhead, far below the file.
  EXPECT_LT(delta.size(), 330'000u);
  EXPECT_GT(delta.size(), 300'000u);
  const auto patched = diff::patch(base, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, appended);
}

TEST(Diff, InsertionInMiddle) {
  Rng rng(12);
  const Bytes base = rng.next_bytes(50'000);
  Bytes modified(base.begin(), base.begin() + 20'000);
  const Bytes inserted = rng.next_bytes(777);
  append(modified, inserted);
  modified.insert(modified.end(), base.begin() + 20'000, base.end());
  const Bytes delta = diff::encode(base, modified);
  EXPECT_LT(delta.size(), 10'000u);  // much smaller than the 50KB file
  const auto patched = diff::patch(base, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, modified);
}

TEST(Diff, RandomEditScriptRoundTrips) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes base = rng.next_bytes(rng.next_below(30'000));
    Bytes modified = base;
    // Random point mutations, deletions and insertions.
    for (int e = 0; e < 10 && !modified.empty(); ++e) {
      const auto kind = rng.next_below(3);
      const std::size_t at = rng.next_below(modified.size());
      if (kind == 0) {
        modified[at] ^= 0xFF;
      } else if (kind == 1) {
        modified.erase(modified.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        const Bytes ins = rng.next_bytes(rng.next_below(500));
        modified.insert(modified.begin() + static_cast<std::ptrdiff_t>(at), ins.begin(),
                        ins.end());
      }
    }
    const Bytes delta = diff::encode(base, modified);
    const auto patched = diff::patch(base, delta);
    ASSERT_TRUE(patched.ok()) << "trial " << trial;
    EXPECT_EQ(*patched, modified) << "trial " << trial;
  }
}

TEST(Diff, EmptyEdgeCases) {
  const Bytes some = to_bytes("data");
  auto p1 = diff::patch({}, diff::encode({}, some));
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, some);
  auto p2 = diff::patch(some, diff::encode(some, {}));
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->empty());
  auto p3 = diff::patch({}, diff::encode({}, {}));
  ASSERT_TRUE(p3.ok());
  EXPECT_TRUE(p3->empty());
}

// Deltas are stored bytes (the log payload), so a matcher speed-up must not
// change one of them. The digests were recorded with the SHA-256-confirmed
// matcher this one replaced; the seeded corpus covers both +30% workloads at
// 1 MiB, empty inputs, files below 4 KiB, the block-size edges at 4096 and
// 1 MiB, a file of repeated blocks (several candidates per weak hash) and an
// explicit block size above the checksum modulus.
TEST(Diff, DeltasMatchRecordedDigests) {
  Rng rng(20261017);
  auto edited = [&](Bytes b, std::size_t edits) {
    for (std::size_t i = 0; i < edits && !b.empty(); ++i) {
      const std::size_t at = rng.next_below(b.size());
      const Bytes ins = rng.next_bytes(1 + rng.next_below(40));
      b[at] ^= 0x5A;
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), ins.begin(), ins.end());
    }
    return b;
  };
  struct Case {
    std::string name;
    Bytes old_data, new_data;
    std::size_t block_size;
  };
  std::vector<Case> cases;
  {
    const Bytes base = rng.next_bytes(1 << 20);
    Bytes upd = base;
    const std::size_t len = upd.size() * 3 / 10;
    const std::size_t at = rng.next_below(upd.size() - len);
    const Bytes fresh = rng.next_bytes(len);
    std::copy(fresh.begin(), fresh.end(), upd.begin() + static_cast<std::ptrdiff_t>(at));
    cases.push_back({"rewrite30_1MiB", base, upd, 0});
  }
  {
    const Bytes base = rng.next_bytes(1 << 20);
    Bytes upd = base;
    append(upd, rng.next_bytes(base.size() * 3 / 10));
    cases.push_back({"append30_1MiB", base, upd, 0});
  }
  cases.push_back({"empty_old", {}, rng.next_bytes(5000), 0});
  cases.push_back({"empty_new", rng.next_bytes(5000), {}, 0});
  cases.push_back({"both_empty", {}, {}, 0});
  for (const std::size_t n : {std::size_t{100}, std::size_t{3000}, std::size_t{4095},
                              std::size_t{4096}, std::size_t{(1 << 20) - 1},
                              std::size_t{1 << 20}}) {
    const Bytes base = rng.next_bytes(n);
    cases.push_back({"edited_" + std::to_string(n), base, edited(base, 8), 0});
  }
  {
    const Bytes period = rng.next_bytes(1024);
    Bytes base;
    for (int i = 0; i < 64; ++i) append(base, period);
    cases.push_back({"repetitive_64KiB", base, edited(base, 5), 0});
  }
  {
    const Bytes base = rng.next_bytes(300000);
    cases.push_back({"block70000", base, edited(base, 4), 70000});
  }

  const std::vector<std::pair<std::string, std::string>> expected = {
      {"rewrite30_1MiB", "5e08bb02f68fd250e6ca0fa2826f359d91c7800674ef54cfd2464910bca68985"},
      {"append30_1MiB", "02486e682bd16be16fd2f1f3e2acdb0c3c05a2ad3fb0ed85e948fcdbdcb531f7"},
      {"empty_old", "f300a655aa89087e5974b0746b0d364f797669b72dce6ccd2f616fe5ed120a57"},
      {"empty_new", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"both_empty", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"edited_100", "fc3dcc2f1222bacb614c8dde1d408bf9df01ce8182e631817391cdf7ee05e5b3"},
      {"edited_3000", "2bd88bff3a4131b6bf5d60ac57fee54425878a286475848cf648a8d8f333006c"},
      {"edited_4095", "56635e642ff0300d2751fdd0df47682648a4ed305a27d713b5fdcc47e3ec4a51"},
      {"edited_4096", "e7868b9682db9c9bfdf8d6a334c5748efb1a18645568d382f67ab07b399eece9"},
      {"edited_1048575", "ecdbca3d595986837ae12e12731308637c6811bb3e2275aeb14cd7b5f2660136"},
      {"edited_1048576", "b07fdbf99080a537b923d12c2eb9c60f53d665d6f37d35008f2784873b00a62c"},
      {"repetitive_64KiB", "ebb6d599204e90da94c46d5f7491ae9007f3dac3632bc40be0d9fcf2a70fa508"},
      {"block70000", "4cd585cae40c43c007538058d2710910cf28e495310cdaea3121364d5f0f85c6"},
  };
  ASSERT_EQ(cases.size(), expected.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    ASSERT_EQ(c.name, expected[i].first);
    const Bytes delta = diff::encode(c.old_data, c.new_data, c.block_size);
    EXPECT_EQ(hex_encode(crypto::sha256(delta)), expected[i].second) << c.name;
    const auto patched = diff::patch(c.old_data, delta);
    ASSERT_TRUE(patched.ok()) << c.name;
    EXPECT_EQ(*patched, c.new_data) << c.name;
  }
}

TEST(Diff, PatchRejectsCorruptDelta) {
  const Bytes base = to_bytes("0123456789");
  Bytes delta = diff::encode(base, to_bytes("0123456789abc"));
  delta[0] = 0x7F;  // unknown opcode
  EXPECT_EQ(diff::patch(base, delta).code(), ErrorCode::kCorrupted);

  Bytes truncated = diff::encode(base, to_bytes("0123456789abc"));
  truncated.resize(truncated.size() - 1);
  EXPECT_EQ(diff::patch(base, truncated).code(), ErrorCode::kCorrupted);
}

TEST(Diff, PatchRejectsOutOfRangeCopy) {
  // Hand-craft a COPY beyond the source.
  Bytes delta;
  delta.push_back(0x01);
  append_u64(delta, 0);
  append_u64(delta, 100);
  EXPECT_EQ(diff::patch(to_bytes("short"), delta).code(), ErrorCode::kCorrupted);
}

TEST(LogDelta, PolicyPicksSmaller) {
  Rng rng(14);
  const Bytes base = rng.next_bytes(100'000);
  // Small change -> delta mode.
  Bytes small_change = base;
  small_change[500] ^= 1;
  const auto d1 = diff::make_log_delta(base, small_change);
  EXPECT_FALSE(d1.whole_file);
  EXPECT_LT(d1.payload.size(), small_change.size());

  // Complete rewrite -> whole-file mode.
  const Bytes rewrite = rng.next_bytes(100'000);
  const auto d2 = diff::make_log_delta(base, rewrite);
  EXPECT_TRUE(d2.whole_file);
  EXPECT_EQ(d2.payload, rewrite);
}

TEST(LogDelta, ApplyBothModes) {
  Rng rng(15);
  const Bytes base = rng.next_bytes(10'000);
  Bytes changed = base;
  changed[1] ^= 0x10;
  for (const auto& delta : {diff::make_log_delta(base, changed),
                            diff::LogDelta{true, changed}}) {
    const auto out = diff::apply_log_delta(base, delta);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, changed);
  }
}

TEST(LogDelta, SerializeRoundTrip) {
  const diff::LogDelta d{false, to_bytes("opcode-stream")};
  const auto restored = diff::LogDelta::deserialize(d.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->whole_file, false);
  EXPECT_EQ(restored->payload, d.payload);
  EXPECT_EQ(diff::LogDelta::deserialize(Bytes{}).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(diff::LogDelta::deserialize(Bytes{9}).code(), ErrorCode::kCorrupted);
}

TEST(Diff, FirstVersionIsWholeFile) {
  // Creating a file (empty old version): the "delta" degenerates to an
  // insert of the whole content, and make_log_delta flags it whole-file
  // (insert overhead makes the encoded stream slightly larger).
  const Bytes content = to_bytes("brand new file");
  const auto d = diff::make_log_delta({}, content);
  EXPECT_TRUE(d.whole_file);
  EXPECT_EQ(d.payload, content);
}

}  // namespace
}  // namespace rockfs
