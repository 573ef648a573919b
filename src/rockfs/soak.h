// Chaos soaks: seeded end-to-end runs of the paper's properties under
// attack, one deployment (one virtual clock, one coordination service, one
// cloud-of-clouds) per run. Three scenarios share one harness — deployment
// and dice, relogin, retry-until-landed honest writes, cache-cleared
// read-back and the sha256 content digests — and differ only in the fates
// they deal:
//
//   * multi-client — N agents hammer a small set of shared paths through the
//     lease/fencing machinery. Per-round dice pick an agent and a fate — a
//     clean locked write, a crash at one of the close pipeline's crash
//     points (the holder dies with the lease), or a mid-close hang long
//     enough for a contender to evict the holder and write (the resumed
//     close must then fence). A token ledger checks that every committed
//     write's token appears in the final content (no lost update), every
//     fenced write's token does not (no zombie write), and a crashed write's
//     token may (journal replay adopts durable intents).
//
//   * compromise — an honest user and a victim whose credentials get stolen
//     every few rounds. Each incident runs the full §4.1 pipeline — steal →
//     attack with the loot → detect → revoke → rotate → recover — while the
//     dice inject cloud outages, coordination replica faults and admin
//     crashes at the rotation pipeline's crash points. Lockout: once a cloud
//     enforces the revocation floor, not one attacker operation with
//     pre-rotation credentials is accepted there.
//
//   * malicious cloud — two honest users, and at a fixed round one cloud
//     turns adversarial: it keeps acking writes like an honest provider but
//     serves reads from a frozen (or session-partitioned, or share-withheld)
//     view. The freshness witness catches the contradiction, the misbehavior
//     ledger quarantines the cloud, and the administrator reconfigures the
//     cloud set — admin-signed membership manifest, spare provisioning,
//     share migration with crash points armed by the dice — while the honest
//     workload keeps running. Masking: not one honest read returns stale
//     bytes, before, during or after the attack.
//
// The compromise and malicious soaks also check that no honest update is
// lost: the final bytes of every honest file equal its last honest write, so
// the honest digest of an attacked run is bit-identical to the same-seed run
// with the attacker switched off. Every report's `digest` covers all of its
// counters, sim times and contents, so two same-seed runs can be compared
// for determinism.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "rockfs/attack.h"
#include "sim/clock.h"

namespace rockfs::core {

/// Lease TTL of the multi-client soak's agents: a dead holder blocks a
/// contender for at most this long, plus the acquire retry quantum.
inline constexpr std::int64_t kSoakLeaseTtlUs = 5'000'000;

// ------------------------------------------------------------ multi-client

struct MultiClientOptions {
  std::size_t rounds = 40;        // write attempts across all agents
  std::uint64_t seed = 2018;      // deployment + dice seed
  /// Marks one coordination replica Byzantine for the whole soak (masked by
  /// the 3f+1 quorum; lease CAS must still never grant two holders).
  bool byzantine_coord_replica = false;
  /// Client cache (src/cache) on the agents. The converged content must be
  /// BYTE-IDENTICAL with the cache on or off (content_digest compares runs).
  bool client_cache = true;
  /// Write-back staging of closes. The harness flushes after every close
  /// (while the lease is held), so crash/fence fates fire inside the flush.
  bool write_back = false;
  /// Thread-pool size handed to the deployment (0 = inline). kBarrier joins
  /// keep every digest identical at any value.
  std::size_t executor_threads = 0;
};

struct MultiClientReport {
  std::size_t writes_attempted = 0;
  std::size_t writes_committed = 0;  // close OK — token must survive
  std::size_t writes_fenced = 0;     // close kFenced — token must NOT survive
  std::size_t writes_crashed = 0;    // close kCrashed — token may survive
  std::size_t evictions = 0;         // contender took over an expired lease
  std::size_t relogins = 0;          // sessions restarted after a crash
  std::size_t lock_waits = 0;        // acquisitions that had to spin on kConflict
  sim::SimClock::Micros max_blocked_us = 0;  // longest spin (wedge bound)
  std::size_t lost_updates = 0;      // committed token missing from final bytes
  std::size_t zombie_updates = 0;    // fenced token present in final bytes
  std::size_t divergent_reads = 0;   // agents disagreeing on final content
  std::map<std::string, std::string> final_contents;  // path -> final bytes
  std::string digest;  // sha256 over counters + final contents (determinism)
  /// sha256 over final contents ONLY: invariant across configurations that
  /// may legally shift counters/timing (cache on/off, thread counts) but
  /// must converge to the same bytes.
  std::string content_digest;

  bool converged() const {
    return lost_updates == 0 && zombie_updates == 0 && divergent_reads == 0;
  }
};

/// Runs the soak to completion (including a settle pass that commits one
/// clean write per path, then a cross-agent read-back). Deterministic per
/// options: same options => identical report, digest included.
MultiClientReport run_multiclient_soak(const MultiClientOptions& options);

// ------------------------------------------- honest-workload soak reports

/// What the compromise and malicious soaks share: an honest workload that
/// rewrites one file per user per round and is read back at the end.
struct HonestSoakReport {
  std::size_t rounds = 0;
  std::size_t honest_writes = 0;
  std::size_t honest_retries = 0;
  std::size_t write_failures = 0;    // honest write that never landed (MUST be 0)
  std::size_t read_mismatches = 0;   // read-back != last honest write (MUST be 0)
  std::size_t relogins = 0;
  bool converged = false;
  std::string honest_digest;  // sha256 hex over the final honest contents
  std::string digest;         // sha256 hex over every field + honest contents
  sim::SimClock::Micros total_us = 0;
};

// -------------------------------------------------------------- compromise

struct CompromiseSoakOptions {
  std::size_t rounds = 12;
  std::uint64_t seed = 2018;
  bool attacker = true;           // off = same honest workload, no incidents
  double cloud_outage_prob = 0.2;   // P(round opens an outage at one cloud)
  double coord_fault_prob = 0.2;    // P(round downs one coordination replica)
  double crash_prob = 0.3;          // P(incident arms a rotation crash point)
  double recovery_crash_prob = 0.3; // P(incident arms kMidRecoverAll)
  std::size_t incident_every = 4;   // a compromise incident every N rounds
};

struct CompromiseSoakReport : HonestSoakReport {
  std::size_t incidents = 0;
  std::size_t rotations = 0;
  std::size_t response_crashes = 0;  // admin died mid-response, resumed
  std::size_t recovery_crashes = 0;  // admin died mid-recover_all, resumed
  std::size_t response_retries = 0;  // responses re-driven through faults
  std::size_t files_recovered = 0;
  std::size_t floors_propagated = 0;  // outage clouds caught up by anti-entropy
  StolenCredentialReport attack;      // accumulated across all incidents
  bool lockout_held = false;
  sim::SimClock::Micros max_lockout_latency_us = 0;
  sim::SimClock::Micros max_rotation_us = 0;
};

/// Runs the soak to completion. Deterministic per options; the honest digest
/// depends only on the honest workload, so {attacker: true} and
/// {attacker: false} with the same seed must produce the same digest.
CompromiseSoakReport run_compromise_soak(const CompromiseSoakOptions& options);

// --------------------------------------------------------- malicious cloud

struct MaliciousSoakOptions {
  std::size_t rounds = 12;
  std::uint64_t seed = 2018;
  bool attacker = true;      // off = same honest workload, no adversary
  /// How the compromised cloud misbehaves once it turns.
  sim::AdversarialMode mode = sim::AdversarialMode::kRollback;
};

struct MaliciousSoakReport : HonestSoakReport {
  bool attacked = false;
  bool detected = false;             // misbehavior ledger is non-empty
  bool quarantined = false;          // verdict reached
  /// Client operations between the cloud turning and the quarantine verdict.
  std::size_t ops_to_quarantine = 0;
  std::uint64_t misbehavior_flags = 0;

  bool reconfigured = false;
  std::uint64_t membership_epoch = 0;
  std::size_t reconfig_crashes = 0;  // admin died mid-migration, resumed
  std::size_t reconfig_retries = 0;
  std::size_t units_migrated = 0;
  std::size_t shares_rebuilt = 0;
  /// Reads performed after the reconfiguration with the evicted provider
  /// physically removed from every client's fleet — all must succeed.
  std::size_t post_reconfig_reads = 0;
  std::size_t post_reconfig_read_failures = 0;

  sim::SimClock::Micros quarantine_to_migrated_us = 0;  // the MTTR the bench reports
};

/// Runs the soak to completion. Deterministic per options; the honest digest
/// depends only on the honest workload, so {attacker: true} and
/// {attacker: false} with the same seed must produce the same digest.
MaliciousSoakReport run_malicious_soak(const MaliciousSoakOptions& options);

}  // namespace rockfs::core
