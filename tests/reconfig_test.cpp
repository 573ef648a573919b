// Cloud-set reconfiguration: admin-signed membership manifests (one CAS
// winner per epoch), the crash-resumable share-migration pipeline that
// moves a quarantined cloud's state onto a freshly provisioned spare,
// membership-epoch fencing for clients left behind on the old set, and the
// scrubber's stale-version accounting (the residue a rolled-back or
// left-behind cloud leaves in the log namespace).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "depsky/client.h"
#include "depsky/reconfig.h"
#include "obs/trace.h"
#include "rockfs/attack.h"
#include "rockfs/deployment.h"
#include "rockfs/logservice.h"
#include "rockfs/scrub.h"
#include "sim/faults.h"

namespace rockfs::depsky {
namespace {

const std::vector<std::string> kOldSet = {"cloud-0", "cloud-1", "cloud-2", "cloud-3"};

TEST(MembershipManifest, SignVerifyAndTupleRoundTrip) {
  crypto::Drbg drbg(to_bytes("manifest-test"));
  const auto admin = crypto::generate_keypair(drbg);
  const std::vector<std::string> new_set = {"cloud-0", "cloud-4", "cloud-2", "cloud-3"};

  const auto m = make_membership_manifest(3, kOldSet, new_set, 1, admin);
  EXPECT_TRUE(verify_membership_manifest(m, admin.public_bytes()));

  auto rt = MembershipManifest::from_tuple(m.to_tuple());
  ASSERT_TRUE(rt.ok()) << rt.error().message;
  EXPECT_EQ(rt->epoch, 3u);
  EXPECT_EQ(rt->old_clouds, kOldSet);
  EXPECT_EQ(rt->new_clouds, new_set);
  EXPECT_EQ(rt->replaced_index, 1u);
  EXPECT_TRUE(verify_membership_manifest(*rt, admin.public_bytes()));

  // Any tampering breaks the signature; a different admin key never verifies.
  auto bumped = m;
  bumped.epoch = 4;
  EXPECT_FALSE(verify_membership_manifest(bumped, admin.public_bytes()));
  auto swapped = m;
  swapped.new_clouds[1] = "evil-cloud";
  EXPECT_FALSE(verify_membership_manifest(swapped, admin.public_bytes()));
  const auto other = crypto::generate_keypair(drbg);
  EXPECT_FALSE(verify_membership_manifest(m, other.public_bytes()));
}

TEST(MembershipManifest, CasAdmitsOneWinnerPerEpoch) {
  core::DeploymentOptions opts;
  opts.seed = 93;
  core::Deployment dep(opts);
  auto& coord = *dep.coordination();
  crypto::Drbg drbg(to_bytes("cas-test"));
  const auto admin = crypto::generate_keypair(drbg);

  const auto m1 = make_membership_manifest(
      1, kOldSet, {"cloud-0", "cloud-4", "cloud-2", "cloud-3"}, 1, admin);
  const auto m2 = make_membership_manifest(
      1, kOldSet, {"cloud-0", "cloud-1", "cloud-4", "cloud-3"}, 2, admin);

  auto first = publish_membership_manifest(coord, m1);
  ASSERT_TRUE(first.value.ok());
  EXPECT_TRUE(*first.value);
  // A racing admin loses the epoch; so does an identical retry.
  auto second = publish_membership_manifest(coord, m2);
  ASSERT_TRUE(second.value.ok());
  EXPECT_FALSE(*second.value);
  auto retry = publish_membership_manifest(coord, m1);
  ASSERT_TRUE(retry.value.ok());
  EXPECT_FALSE(*retry.value);

  auto all = read_membership_manifests(coord);
  ASSERT_TRUE(all.value.ok());
  ASSERT_EQ(all.value->size(), 1u);
  EXPECT_EQ((*all.value)[0].replaced_index, 1u);

  auto current = current_membership(coord, admin.public_bytes());
  ASSERT_TRUE(current.value.ok());
  ASSERT_TRUE(current.value->has_value());
  EXPECT_EQ((*current.value)->epoch, 1u);

  // A later epoch supersedes; an unverifiable space is an error, not a pick.
  const auto m3 = make_membership_manifest(
      2, m1.new_clouds, {"cloud-5", "cloud-4", "cloud-2", "cloud-3"}, 0, admin);
  ASSERT_TRUE(*publish_membership_manifest(coord, m3).value);
  current = current_membership(coord, admin.public_bytes());
  ASSERT_TRUE(current.value.ok());
  EXPECT_EQ((*current.value)->epoch, 2u);
  const auto other = crypto::generate_keypair(drbg);
  EXPECT_FALSE(current_membership(coord, other.public_bytes()).value.ok());
}

TEST(MembershipFencing, StaleEpochWriterFailsClosed) {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, 17);
  crypto::Drbg drbg(to_bytes("fence-test"));
  const auto writer = crypto::generate_keypair(drbg);
  std::vector<cloud::AccessToken> toks;
  for (auto& c : clouds) {
    toks.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }

  DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.writer = writer;
  DepSkyClient client(std::move(cfg), to_bytes("fence-seed"));

  const std::string unit = "files/alice/doc";
  ASSERT_TRUE(client.write(toks, unit, to_bytes("epoch-zero write")).value.ok());

  // A reconfiguration elsewhere stamps membership epoch 1 into the unit.
  ASSERT_TRUE(client.stamp_membership_epoch(toks, unit, 1).value.ok());

  // This client still believes epoch 0: its cloud set may be the pre-
  // migration one, so its writes must fail closed rather than land on a
  // retired fleet.
  auto fenced = client.write(toks, unit, to_bytes("stale-epoch write"));
  EXPECT_EQ(fenced.value.code(), ErrorCode::kFenced);

  // Adopting the new epoch unfences; reads never were affected.
  client.set_membership_epoch(1);
  const Bytes fresh = to_bytes("epoch-one write");
  ASSERT_TRUE(client.write(toks, unit, fresh).value.ok());
  auto r = client.read(toks, unit);
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, fresh);
}

}  // namespace
}  // namespace rockfs::depsky

namespace rockfs::core {
namespace {

Bytes content_for(const std::string& tag, std::uint64_t seed) {
  Rng rng(seed + std::hash<std::string>{}(tag));
  return rng.next_bytes(1'200);
}

// The newest `reconfig` root in the trace (call obs::tracer().reset() before
// the reconfiguration so the ring holds its whole subtree) reconciles: its
// serial subtree's summed exclusive time equals its stamped duration.
// Returns that duration.
std::uint64_t reconfig_root_reconciles() {
  const auto events = obs::tracer().events();
  EXPECT_EQ(obs::tracer().dropped_count(), 0u);
  const obs::TraceEvent* root = nullptr;
  for (const auto& e : events) {
    if (e.name == "reconfig" && e.parent == 0) root = &e;
  }
  if (root == nullptr) {
    ADD_FAILURE() << "no reconfig root span";
    return 0;
  }
  EXPECT_EQ(obs::reconcile_exclusive_us(events, root->id), root->duration_us);
  return root->duration_us;
}

TEST(Reconfiguration, EvictsQuarantinedCloudAndPreservesData) {
  DeploymentOptions opts;
  opts.seed = 91;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  std::vector<std::pair<std::string, Bytes>> files;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/doc" + std::to_string(i);
    files.emplace_back(path, content_for(path, 91));
    ASSERT_TRUE(alice.write_file(path, files.back().second).ok());
  }

  // Cloud 1 turns; the witness quarantines it within the attack rounds.
  auto attack = cloud_rollback_attack(dep, "alice", 1, sim::AdversarialMode::kRollback, 4);
  ASSERT_TRUE(attack.quarantined);
  ASSERT_EQ(attack.read_mismatches, 0u);

  obs::tracer().reset();
  auto rep = dep.reconfigure_cloud(1);
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  EXPECT_EQ(reconfig_root_reconciles(), static_cast<std::uint64_t>(rep->duration_us));
  EXPECT_EQ(rep->epoch, 1u);
  EXPECT_EQ(rep->replaced_index, 1u);
  EXPECT_EQ(rep->old_cloud, "cloud-1");
  EXPECT_EQ(rep->new_cloud, "cloud-4");
  EXPECT_GT(rep->units_total, 0u);
  EXPECT_EQ(rep->units_migrated, rep->units_total);
  EXPECT_GT(rep->shares_rebuilt, 0u);
  EXPECT_GT(rep->metas_stamped, 0u);

  // The fleet slot now holds the spare; the deployment is at epoch 1.
  EXPECT_EQ(dep.clouds()[1]->name(), "cloud-4");
  EXPECT_EQ(dep.membership_epoch(), 1u);

  // The spare physically holds migrated state.
  auto listed = dep.clouds()[1]->list(dep.admin_tokens()[1], "");
  ASSERT_TRUE(listed.value.ok());
  EXPECT_GT(listed.value->size(), 0u);

  // Every file survives with the evicted provider fully removed, and new
  // writes land at the new epoch.
  for (const auto& [path, content] : files) {
    dep.agent("alice").fs().clear_cache();
    auto back = dep.agent("alice").read_file(path);
    ASSERT_TRUE(back.ok()) << path << ": " << back.error().message;
    EXPECT_EQ(*back, content) << path;
  }
  const Bytes post = content_for("post-reconfig", 91);
  ASSERT_TRUE(dep.agent("alice").write_file("/post", post).ok());
  dep.agent("alice").fs().clear_cache();
  auto back = dep.agent("alice").read_file("/post");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, post);
}

// The migration must converge to the same state no matter where the admin
// dies: run the pipeline once cleanly and once crashing at every new crash
// point, and require the surviving file contents to be bit-identical.
TEST(Reconfiguration, ResumesBitIdenticallyThroughCrashes) {
  const auto run = [](bool with_crashes) {
    DeploymentOptions opts;
    opts.seed = 92;
    Deployment dep(opts);
    auto& alice = dep.add_user("alice");
    std::vector<std::string> paths;
    for (int i = 0; i < 3; ++i) {
      const std::string path = "/doc" + std::to_string(i);
      paths.push_back(path);
      EXPECT_TRUE(alice.write_file(path, content_for(path, 92)).ok());
    }
    auto attack =
        cloud_rollback_attack(dep, "alice", 2, sim::AdversarialMode::kRollback, 4);
    EXPECT_TRUE(attack.quarantined);

    if (with_crashes) {
      for (const auto point : {sim::CrashPoint::kAfterMembershipManifest,
                               sim::CrashPoint::kMidShareMigration}) {
        dep.crash_schedule()->arm(point);
        obs::tracer().reset();
        auto crashed = dep.reconfigure_cloud(2);
        EXPECT_FALSE(crashed.ok());
        EXPECT_EQ(crashed.code(), ErrorCode::kCrashed);
        // A crashed run's root still carries (and reconciles) its time.
        EXPECT_GT(reconfig_root_reconciles(), 0u);
      }
    }
    auto rep = dep.reconfigure_cloud(2);
    EXPECT_TRUE(rep.ok()) << rep.error().message;
    EXPECT_EQ(rep->epoch, 1u);
    if (with_crashes) {
      // The mid-migration crash left done-markers behind; the resume must
      // skip them instead of re-copying.
      EXPECT_GT(rep->units_resumed, 0u);
    }

    std::vector<Bytes> contents;
    for (const auto& path : paths) {
      dep.agent("alice").fs().clear_cache();
      auto back = dep.agent("alice").read_file(path);
      EXPECT_TRUE(back.ok()) << path << ": " << back.error().message;
      contents.push_back(back.ok() ? *back : Bytes{});
    }
    return contents;
  };

  const auto crashed = run(true);
  const auto clean = run(false);
  ASSERT_EQ(crashed.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(crashed[i], clean[i]) << "file " << i;
  }
}

// Satellite: the scrubber reports stale-version residue — a cloud offering
// an entry's OLD share where the current one belongs — as its own category,
// distinct from loss/corruption, and repairs it when redundancy demands.
TEST(Scrubber, CountsAndRepairsStaleVersionShares) {
  DeploymentOptions opts;
  opts.seed = 94;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f1", content_for("f1", 94)).ok());
  ASSERT_TRUE(alice.write_file("/f2", content_for("f2", 94)).ok());

  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  ASSERT_GE(records.value->size(), 2u);
  const std::string unit = (*records.value)[0].data_unit();
  const std::string meta_key = unit + ".meta";
  auto admin = dep.admin_tokens();

  // Fabricate the residue a left-behind cloud exhibits after the unit moved
  // on to version 2: clouds 0/2/3 carry v2 (shares byte-identical to v1, so
  // the signed digests stay truthful), cloud 1 still offers only its v1
  // share and its v1 metadata replica.
  auto raw_meta = dep.clouds()[0]->get(admin[0], meta_key);
  ASSERT_TRUE(raw_meta.value.ok());
  auto meta = depsky::UnitMetadata::deserialize(*raw_meta.value);
  ASSERT_TRUE(meta.ok());
  const auto writer =
      crypto::keypair_from_private(dep.agent("alice").keystore().user_private_key);
  ASSERT_EQ(meta->writer_pub, writer.public_bytes());
  meta->version = 2;
  meta->sign(writer);
  const Bytes meta_v2 = meta->serialize();
  for (std::size_t i : {0u, 2u, 3u}) {
    const std::string slot = std::to_string(i);
    auto share = dep.clouds()[i]->get(admin[i], unit + ".v1.s" + slot);
    ASSERT_TRUE(share.value.ok());
    ASSERT_TRUE(
        dep.clouds()[i]->put(admin[i], unit + ".v2.s" + slot, *share.value).value.ok());
    ASSERT_TRUE(dep.clouds()[i]->lose_object(meta_key).ok());
    ASSERT_TRUE(dep.clouds()[i]->put(admin[i], meta_key, meta_v2).value.ok());
  }
  // Pass 1, default margin: three current shares is exactly k + margin, so
  // nothing is "degraded" — but the stale residue (old share AND old
  // metadata, both valid-signed) is counted on its own, and the stale meta
  // replica does not inflate the redundancy count.
  auto report = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->entries_stale, 1u);
  EXPECT_EQ(report->stale_shares, 1u);
  EXPECT_EQ(report->stale_metas, 1u);
  EXPECT_EQ(report->entries_degraded, 0u);
  EXPECT_EQ(report->shares_repaired, 0u);

  // The log namespace is append-only even for the admin, so the contradicted
  // v1 replica cannot be overwritten in place — the operator drops it, which
  // is what lets the repair re-seed a current one.
  ASSERT_TRUE(dep.clouds()[1]->lose_object(meta_key).ok());

  // Pass 2, margin 2: the same entry now falls below threshold; the repair
  // rebuilds the current-version share over the stale cloud's residue.
  ScrubOptions strict;
  strict.margin = 2;
  auto repaired = dep.make_scrubber("alice", strict).scrub();
  ASSERT_TRUE(repaired.ok()) << repaired.error().message;
  EXPECT_EQ(repaired->entries_stale, 1u);
  EXPECT_EQ(repaired->entries_degraded, 1u);
  EXPECT_EQ(repaired->entries_repaired, 1u);
  EXPECT_GE(repaired->shares_repaired, 1u);
  EXPECT_TRUE(dep.clouds()[1]->exists(unit + ".v2.s1"));

  // Pass 3: the residue is gone; the stale counters read zero again.
  auto clean = dep.make_scrubber("alice", strict).scrub();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->entries_stale, 0u);
  EXPECT_EQ(clean->entries_degraded, 0u);
}

}  // namespace
}  // namespace rockfs::core
