#include "rockfs/soak.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "rockfs/audit.h"
#include "rockfs/deployment.h"
#include "sim/faults.h"

namespace rockfs::core {
namespace {

constexpr std::size_t kSharedPaths = 2;     // multi-client contended files
constexpr std::size_t kHonestFiles = 3;     // per user; >= detector min_files
constexpr std::size_t kMaliciousCloud = 2;  // fleet index that turns
constexpr std::size_t kAttackRound = 4;     // ... at the start of this round
constexpr double kCloseCrashProb = 0.15;    // P(round crashes at a close point)
constexpr double kHangProb = 0.15;          // P(round hangs and gets evicted)
constexpr double kReconfigCrashProb = 0.5;  // P(reconfiguration arms a crash)

// Close-path crash points a dying holder can be killed at (kMidRecoverAll
// belongs to the recovery service, not the client close path).
constexpr sim::CrashPoint kClosePoints[] = {
    sim::CrashPoint::kBeforeFilePut,      sim::CrashPoint::kAfterLogIntent,
    sim::CrashPoint::kAfterFilePut,       sim::CrashPoint::kAfterLogPayloadPut,
    sim::CrashPoint::kAfterMetaAppend,
};

// Crash points of the admin's compromise-response pipeline an incident can
// kill the admin workstation at (faults.h); recovery has its own point.
constexpr sim::CrashPoint kRotationPoints[] = {
    sim::CrashPoint::kAfterRevocationFloor,
    sim::CrashPoint::kMidFloorPropagation,
    sim::CrashPoint::kAfterRotationRecord,
    sim::CrashPoint::kAfterKeystoreReseal,
};

constexpr sim::CrashPoint kReconfigPoints[] = {
    sim::CrashPoint::kAfterMembershipManifest,
    sim::CrashPoint::kMidShareMigration,
};

/// `name=value;...` over a report's fields, then `;path=>content` per file.
class Fingerprint {
 public:
  Fingerprint& add(const char* name, std::uint64_t value) {
    if (!blob_.empty()) blob_ += ';';
    blob_ += name;
    blob_ += '=';
    blob_ += std::to_string(value);
    return *this;
  }
  template <typename Content>
  Fingerprint& add_files(const std::map<std::string, Content>& files) {
    for (const auto& [path, content] : files) {
      blob_ += ";" + path + "=>" + std::string(content.begin(), content.end());
    }
    return *this;
  }
  std::string hex() const { return hex_encode(crypto::sha256(to_bytes(blob_))); }

 private:
  std::string blob_;
};

/// sha256 hex over `path=>content<terminator>` per file.
template <typename Content>
std::string contents_digest(const std::map<std::string, Content>& files,
                            char terminator) {
  std::string blob;
  for (const auto& [path, content] : files) {
    blob += path + "=>" + std::string(content.begin(), content.end()) + terminator;
  }
  return hex_encode(crypto::sha256(to_bytes(blob)));
}

/// One soak run's deployment and dice, plus the honest-workload steps the
/// scenarios share. `expected` holds the last honest write per path.
class Harness {
 public:
  Harness(std::uint64_t seed, std::uint64_t dice_seed, DeploymentOptions dopt = {})
      : dep(blocking(std::move(dopt), seed)),
        clock(dep.clock()),
        crash(*dep.crash_schedule()),
        dice(dice_seed) {}

  Deployment dep;
  const sim::SimClockPtr& clock;
  sim::CrashSchedule& crash;
  Rng dice;
  std::map<std::string, Bytes> expected;
  std::size_t relogins = 0;

  bool ensure_login(const std::string& user) {
    if (dep.agent(user).logged_in()) return true;
    if (!dep.relogin(user).ok()) return false;
    ++relogins;
    return true;
  }

  // Honest writes retry through everything the dice throw at them — outages,
  // downed replicas, a mid-rotation logout, a lying cloud — stepping the
  // virtual clock so time-bounded faults expire. A write that never lands
  // breaks convergence.
  void write_until_landed(HonestSoakReport& report, const std::string& user,
                          const std::string& path, const Bytes& content) {
    for (int attempt = 0; attempt < 256; ++attempt) {
      if (ensure_login(user)) {
        if (dep.agent(user).write_file(path, content).ok()) {
          ++report.honest_writes;
          expected[path] = content;
          return;
        }
      }
      ++report.honest_retries;
      clock->advance_us(1'000'000);
    }
    ++report.write_failures;
  }

  // Read back THROUGH DepSky (cache cleared): the properties are about what
  // the cloud-of-clouds serves, not what the local cache remembers.
  Result<Bytes> read_back(const std::string& user, const std::string& path) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (ensure_login(user)) {
        dep.agent(user).fs().clear_cache();
        auto back = dep.agent(user).read_file(path);
        if (back.ok()) return back;
      }
      clock->advance_us(1'000'000);
    }
    return Error{ErrorCode::kUnavailable, "never read"};
  }

  /// Settle pass: reads every honest file back (as its owner, the first
  /// path component) and counts mismatches. Returns the unreadable count.
  std::size_t read_back_all(HonestSoakReport& report) {
    std::size_t unreadable = 0;
    for (const auto& [path, content] : expected) {
      const auto back = read_back(path.substr(1, path.find('/', 1) - 1), path);
      if (!back.ok()) ++unreadable;
      if (!back.ok() || *back != content) ++report.read_mismatches;
    }
    return unreadable;
  }

  /// Closes an honest soak: the verdict, the run's virtual duration and
  /// both digests; `scenario_fields` adds the scenario's own report fields.
  template <typename ScenarioFields>
  void finish(HonestSoakReport& report, ScenarioFields&& scenario_fields) {
    report.relogins = relogins;
    report.converged = report.read_mismatches == 0 && report.write_failures == 0;
    report.honest_digest = contents_digest(expected, ';');
    report.total_us = clock->now_us();
    Fingerprint fp;
    fp.add("rounds", report.rounds)
        .add("honest_writes", report.honest_writes)
        .add("honest_retries", report.honest_retries)
        .add("write_failures", report.write_failures)
        .add("read_mismatches", report.read_mismatches)
        .add("relogins", report.relogins)
        .add("converged", report.converged)
        .add("total_us", report.total_us);
    scenario_fields(fp);
    report.digest = fp.add_files(expected).hex();
  }

 private:
  static DeploymentOptions blocking(DeploymentOptions dopt, std::uint64_t seed) {
    dopt.seed = seed;
    dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
    return dopt;
  }
};

/// Deterministic honest content: a function of (user, file, round) only, so
/// the final bytes — and the digest over them — cannot depend on whether an
/// adversary raced the workload.
Bytes honest_content(const char* prefix, const std::string& user, std::size_t j,
                     std::size_t round) {
  std::string s = prefix + user + ".doc" + std::to_string(j) + ".round" +
                  std::to_string(round) + ".";
  while (s.size() < 256) s += "payload-";
  return to_bytes(s);
}

std::string honest_path(const std::string& user, std::size_t j) {
  return "/" + user + "/doc" + std::to_string(j);
}

/// Open-or-create + append the token + close. The token rides whatever
/// content the file currently has, so every committed token stays a
/// substring of every later committed version (append-only ledger).
Status append_token(RockFsAgent& agent, const std::string& path,
                    const std::string& token) {
  auto fd = agent.open(path);
  if (!fd.ok() && fd.code() == ErrorCode::kNotFound) fd = agent.create(path);
  if (!fd.ok()) return Status{fd.error()};
  if (auto st = agent.append(*fd, to_bytes(token)); !st.ok()) {
    (void)agent.close(*fd);
    return st;
  }
  auto st = agent.close(*fd);
  if (!st.ok()) return st;
  // With write-back staging on, the close only parked the bytes: the commit
  // pipeline — and whatever crash/fence fate the round armed — runs in the
  // flush, while this agent still holds the lease. A no-op when staging is
  // off, so one code path serves both modes.
  return agent.flush(path);
}

}  // namespace

MultiClientReport run_multiclient_soak(const MultiClientOptions& options) {
  MultiClientReport report;

  DeploymentOptions dopt;
  dopt.agent.lease_ttl_us = kSoakLeaseTtlUs;
  dopt.agent.fencing = true;
  dopt.agent.enable_cache = options.client_cache;
  dopt.agent.writeback.enabled = options.write_back;
  dopt.executor_threads = options.executor_threads;
  Harness h(options.seed, options.seed * 7919 + 17, dopt);
  auto& dep = h.dep;
  const auto& clock = h.clock;
  if (options.byzantine_coord_replica && dep.coordination()->replica_count() > 1) {
    dep.coordination()->replica(1).set_byzantine(true);
  }

  const std::vector<std::string> users = {"u0", "u1", "u2"};
  for (const auto& user : users) dep.add_user(user);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kSharedPaths; ++i) {
    paths.push_back("/shared/doc" + std::to_string(i));
  }

  // Token ledger: (path, token) pairs with a post-hoc containment check.
  std::vector<std::pair<std::string, std::string>> required;
  std::vector<std::pair<std::string, std::string>> forbidden;

  // Spin on kConflict until the lease is ours. A conflict in the serialized
  // sim means the holder is dead (crashed or hung) — its lease expires
  // within one TTL, so stepping the clock by TTL/4 per retry acquires in
  // bounded time. max_blocked_us records the worst spin (the wedge bound).
  auto acquire = [&](RockFsAgent& agent, const std::string& path) {
    const auto start = clock->now_us();
    for (int tries = 0; tries < 64; ++tries) {
      auto st = agent.lock(path);
      if (st.ok()) {
        if (tries > 0) {
          ++report.lock_waits;
          ++report.evictions;  // a conflicting holder can only be evicted
          report.max_blocked_us =
              std::max(report.max_blocked_us, clock->now_us() - start);
        }
        return true;
      }
      if (st.code() != ErrorCode::kConflict) return false;
      clock->advance_us(kSoakLeaseTtlUs / 4);
    }
    return false;
  };

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const std::size_t ai = h.dice.next_below(users.size());
    const std::string& user = users[ai];
    if (!h.ensure_login(user)) continue;
    auto& agent = dep.agent(user);
    const std::string& path = paths[h.dice.next_below(paths.size())];
    const std::string token = "[" + user + ".r" + std::to_string(round) + "]";
    const double fate = h.dice.next_double();

    if (!acquire(agent, path)) continue;
    ++report.writes_attempted;

    if (fate < kCloseCrashProb) {
      // The holder dies mid-close at a random pipeline point; its lease
      // stays held until TTL expiry (contenders must wait, never wedge).
      h.crash.arm(kClosePoints[h.dice.next_below(std::size(kClosePoints))]);
      auto st = append_token(agent, path, token);
      h.crash.disarm();
      if (st.code() == ErrorCode::kCrashed) {
        ++report.writes_crashed;
        // "maybe" token: journal replay at the next login may adopt the
        // intent (if nobody moved the epoch) or discard it — both legal.
      } else if (st.ok()) {
        required.emplace_back(path, token);
        ++report.writes_committed;
        (void)agent.unlock(path);
      }
    } else if (fate < kCloseCrashProb + kHangProb) {
      // The holder stalls pre-upload (kBeforeFilePut: nothing durable yet)
      // past its TTL; the hook interleaves a contender who evicts the
      // holder and commits its own write. The resumed close must fence.
      const std::size_t bi =
          (ai + 1 + h.dice.next_below(users.size() - 1)) % users.size();
      const std::string contender_token =
          "[" + users[bi] + ".r" + std::to_string(round) + ".evict]";
      bool contender_committed = false;
      h.crash.arm_hang(sim::CrashPoint::kBeforeFilePut, kSoakLeaseTtlUs * 2);
      h.crash.set_hang_hook([&] {
        if (!h.ensure_login(users[bi])) return;
        auto& contender = dep.agent(users[bi]);
        if (!contender.lock(path).ok()) return;  // lost the takeover race
        ++report.evictions;
        if (append_token(contender, path, contender_token).ok()) {
          contender_committed = true;
        }
        (void)contender.unlock(path);
      });
      auto st = append_token(agent, path, token);
      h.crash.set_hang_hook(nullptr);
      h.crash.disarm_hang();
      if (contender_committed) {
        required.emplace_back(path, contender_token);
        ++report.writes_committed;
      }
      if (st.code() == ErrorCode::kFenced) {
        ++report.writes_fenced;
        forbidden.emplace_back(path, token);
      } else if (st.ok()) {
        // Contender failed to evict (lost the race) — the close sailed
        // through unfenced, so the token must survive like any commit.
        required.emplace_back(path, token);
        ++report.writes_committed;
      }
      (void)agent.unlock(path);  // kConflict after an eviction; ignore
    } else {
      auto st = append_token(agent, path, token);
      if (st.ok()) {
        required.emplace_back(path, token);
        ++report.writes_committed;
        (void)agent.unlock(path);
      }
    }

    clock->advance_us(100'000 + h.dice.next_below(2'000'000));
  }

  // Settle: let every stale lease expire, then land one clean write per
  // path so crashed intents are either adopted or fenced out by now.
  clock->advance_us(kSoakLeaseTtlUs * 2);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!h.ensure_login(users[0])) break;
    auto& agent = dep.agent(users[0]);
    if (!acquire(agent, paths[i])) continue;
    const std::string token = "[settle." + std::to_string(i) + "]";
    if (append_token(agent, paths[i], token).ok()) {
      required.emplace_back(paths[i], token);
    }
    (void)agent.unlock(paths[i]);
  }

  // Every agent reads every path; all views must agree byte-for-byte.
  for (const auto& path : paths) {
    std::vector<std::string> views;
    for (const auto& user : users) {
      if (!h.ensure_login(user)) continue;
      auto& agent = dep.agent(user);
      agent.fs().clear_cache();
      auto content = agent.read_file(path);
      views.push_back(content.ok() ? to_string(*content) : "<unreadable>");
    }
    for (const auto& view : views) {
      if (view != views.front()) {
        ++report.divergent_reads;
        break;
      }
    }
    if (!views.empty()) report.final_contents[path] = views.front();
  }

  for (const auto& [path, token] : required) {
    if (report.final_contents[path].find(token) == std::string::npos) {
      ++report.lost_updates;
    }
  }
  for (const auto& [path, token] : forbidden) {
    if (report.final_contents[path].find(token) != std::string::npos) {
      ++report.zombie_updates;
    }
  }

  report.relogins = h.relogins;
  report.digest = Fingerprint()
                      .add("attempted", report.writes_attempted)
                      .add("committed", report.writes_committed)
                      .add("fenced", report.writes_fenced)
                      .add("crashed", report.writes_crashed)
                      .add("evictions", report.evictions)
                      .add("relogins", report.relogins)
                      .add("lock_waits", report.lock_waits)
                      .add("max_blocked_us", report.max_blocked_us)
                      .add("lost", report.lost_updates)
                      .add("zombies", report.zombie_updates)
                      .add("divergent", report.divergent_reads)
                      .add_files(report.final_contents)
                      .hex();
  report.content_digest = contents_digest(report.final_contents, '\n');
  return report;
}

CompromiseSoakReport run_compromise_soak(const CompromiseSoakOptions& options) {
  CompromiseSoakReport report;
  report.rounds = options.rounds;

  Harness h(options.seed, options.seed * 6029 + 31);
  auto& dep = h.dep;
  const auto& clock = h.clock;

  const std::string victim = "mallory";  // the user whose device is owned
  const std::string honest = "carol";    // a bystander on the same deployment
  dep.add_user(victim);
  dep.add_user(honest);
  const std::vector<std::string> users = {victim, honest};
  std::vector<std::string> victim_paths;
  for (std::size_t j = 0; j < kHonestFiles; ++j) {
    victim_paths.push_back(honest_path(victim, j));
  }

  std::size_t coord_down = 0;  // replica downed for the current round, if any
  // The admin's ground-truth malicious set spans every incident so far: a
  // later recover_all replays the whole log, so passing only the newest
  // burst would patch honest deltas onto an earlier burst's ciphertext.
  std::set<std::uint64_t> malicious_seqs;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    // ---- fault weather for this round ----
    if (h.dice.next_double() < options.cloud_outage_prob) {
      auto& cloud = *dep.clouds()[h.dice.next_below(dep.clouds().size())];
      const auto start = clock->now_us();
      cloud.faults().add_outage(start, start + 5'000'000 +
                                           static_cast<sim::SimClock::Micros>(
                                               h.dice.next_below(20'000'000)));
    }
    if (coord_down == 0 && h.dice.next_double() < options.coord_fault_prob) {
      coord_down = 1 + h.dice.next_below(dep.coordination()->replica_count() - 1);
      dep.coordination()->set_replica_down(coord_down, true);
    }

    // ---- honest workload: each user refreshes one of its files ----
    const std::size_t j = round % kHonestFiles;
    for (const auto& user : users) {
      h.write_until_landed(report, user, honest_path(user, j),
                           honest_content("soak.", user, j, round));
    }

    // ---- compromise incident ----
    if (options.attacker && (round + 1) % options.incident_every == 0) {
      ++report.incidents;

      // Put 3 virtual minutes between the honest writes and the burst so the
      // detector's window isolates the attack.
      clock->advance_us(180'000'000);

      if (!h.ensure_login(victim)) continue;
      const StolenCredentials loot = steal_credentials(dep, victim);
      // The attacker strikes first: with nothing revoked yet, the loot works.
      report.attack += stolen_credential_attack(dep, loot);
      const RansomwareReport ransom =
          ransomware_attack(dep.agent(victim), victim_paths,
                            options.seed ^ (0xA11ACE + round));
      malicious_seqs.insert(ransom.malicious_seqs.begin(),
                            ransom.malicious_seqs.end());

      // Detection: the mass-rewrite burst in the victim's verified log is the
      // verdict that triggers the response (audit.h -> apply_audit_verdict).
      auto detective = dep.make_recovery_service(victim);
      Result<LogAudit> audit = detective.audit_log();
      for (int attempt = 0; attempt < 64 && !audit.ok(); ++attempt) {
        clock->advance_us(2'000'000);
        audit = detective.audit_log();
      }
      if (!audit.ok()) continue;  // counted below as a failed lockout if real
      const std::set<std::uint64_t> flagged =
          AuditAnalyzer(audit->records).detect_mass_rewrite();

      if (h.dice.next_double() < options.crash_prob) {
        h.crash.arm(kRotationPoints[h.dice.next_below(std::size(kRotationPoints))]);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto verdict = dep.apply_audit_verdict(audit->records, flagged);
        if (verdict.ok()) {
          for (const auto& [user, response] : verdict->responses) {
            (void)user;
            if (response.rotated) ++report.rotations;
            report.max_lockout_latency_us =
                std::max(report.max_lockout_latency_us, response.lockout_latency_us);
            report.max_rotation_us =
                std::max(report.max_rotation_us, response.rotation_us);
          }
          break;
        }
        if (verdict.code() == ErrorCode::kCrashed) {
          ++report.response_crashes;
        } else {
          ++report.response_retries;
          clock->advance_us(2'000'000);
        }
      }

      // The attacker tries again with the same loot — and again after the
      // anti-entropy pass catches up any cloud that was in outage when the
      // floor went out. Post-floor accepts here falsify the lockout theorem.
      report.attack += stolen_credential_attack(dep, loot);
      report.floors_propagated += dep.propagate_revocations();
      report.attack += stolen_credential_attack(dep, loot);

      // Storage recovery undoes the ransomware damage (ground-truth malicious
      // set, per the paper's §3.3 step-3 assumption). A fresh service picks
      // up the rotation that just happened; kMidRecoverAll may kill it.
      auto surgeon = dep.make_recovery_service(victim);
      if (h.dice.next_double() < options.recovery_crash_prob) {
        h.crash.arm(sim::CrashPoint::kMidRecoverAll);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto recovered = surgeon.recover_all(malicious_seqs);
        if (recovered.ok()) {
          report.files_recovered += recovered->size();
          break;
        }
        if (recovered.code() == ErrorCode::kCrashed) {
          ++report.recovery_crashes;
        } else {
          clock->advance_us(2'000'000);
        }
      }
    }

    if (coord_down != 0) {
      // A replica that sat out the round missed every write; bring it back
      // through BFT state transfer from a healthy peer (replica 0 is never
      // the one downed) or it would poison quorums for the rest of the soak.
      dep.coordination()->set_replica_down(coord_down, false);
      (void)dep.coordination()->restore_replica(
          coord_down, dep.coordination()->checkpoint_replica(0));
      coord_down = 0;
    }
    clock->advance_us(500'000 + h.dice.next_below(2'000'000));
  }

  // Settle: catch up every floor still owed to a recovered cloud, then read
  // every honest file back and compare against the last honest write.
  clock->advance_us(30'000'000);
  report.floors_propagated += dep.propagate_revocations();
  h.read_back_all(report);

  report.lockout_held = report.attack.writes_accepted_post_floor == 0 &&
                        report.attack.reads_accepted_post_floor == 0;
  h.finish(report, [&](Fingerprint& fp) {
    const auto& a = report.attack;
    fp.add("incidents", report.incidents)
        .add("rotations", report.rotations)
        .add("response_crashes", report.response_crashes)
        .add("recovery_crashes", report.recovery_crashes)
        .add("response_retries", report.response_retries)
        .add("files_recovered", report.files_recovered)
        .add("floors_propagated", report.floors_propagated)
        .add("atk_write_attempts", a.write_attempts)
        .add("atk_writes_pre_floor", a.writes_accepted_pre_floor)
        .add("atk_writes_post_floor", a.writes_accepted_post_floor)
        .add("atk_read_attempts", a.read_attempts)
        .add("atk_reads_post_floor", a.reads_accepted_post_floor)
        .add("atk_revoked_denials", a.revoked_denials)
        .add("atk_session_replays", a.session_replays)
        .add("atk_session_replays_valid", a.session_replays_valid)
        .add("atk_keystore_replays", a.keystore_replays)
        .add("atk_keystore_replays_live", a.keystore_replays_live)
        .add("lockout_held", report.lockout_held)
        .add("max_lockout_latency_us", report.max_lockout_latency_us)
        .add("max_rotation_us", report.max_rotation_us);
  });
  return report;
}

MaliciousSoakReport run_malicious_soak(const MaliciousSoakOptions& options) {
  MaliciousSoakReport report;
  report.rounds = options.rounds;

  Harness h(options.seed, options.seed * 7121 + 47);
  auto& dep = h.dep;
  const auto& clock = h.clock;

  const std::string alice = "alice";
  const std::string bob = "bob";
  dep.add_user(alice);
  dep.add_user(bob);
  const std::vector<std::string> users = {alice, bob};

  // Masking: every read serves the last honest write or counts a mismatch
  // (never readable counts as a serving failure too).
  auto verify_read = [&](const std::string& user, const std::string& path) {
    if (!h.expected.contains(path)) return;
    const auto back = h.read_back(user, path);
    if (!back.ok() || *back != h.expected[path]) ++report.read_mismatches;
  };

  std::size_t ops_since_attack = 0;
  sim::SimClock::Micros quarantined_at_us = 0;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    // ---- the cloud turns ----
    if (options.attacker && round == kAttackRound) {
      // An equivocating adversary picks its partition to actually diverge:
      // salt chosen so the two honest users land in different view groups.
      std::uint64_t salt = 0;
      if (options.mode == sim::AdversarialMode::kEquivocate) {
        while (sim::adversarial_stale_group(alice, salt) ==
               sim::adversarial_stale_group(bob, salt)) {
          ++salt;
        }
      }
      dep.clouds().at(kMaliciousCloud)->faults().set_adversarial(
          options.mode,
          options.mode == sim::AdversarialMode::kReplayWindow ? 2'000'000 : 0, salt);
      report.attacked = true;
    }

    // ---- honest workload: write one file each, read one back each ----
    const std::size_t j = round % kHonestFiles;
    for (const auto& user : users) {
      h.write_until_landed(report, user, honest_path(user, j),
                           honest_content("malice.", user, j, round));
      if (report.attacked && !report.quarantined) ++ops_since_attack;
      verify_read(user, honest_path(user, (round + 1) % kHonestFiles));
      if (report.attacked && !report.quarantined) ++ops_since_attack;
    }

    // ---- the defense reacts ----
    if (report.attacked && !report.quarantined) {
      if (dep.quarantined_cloud() != Deployment::kNoCloud) {
        report.quarantined = true;
        report.ops_to_quarantine = ops_since_attack;
        quarantined_at_us = clock->now_us();
      }
      for (const auto& user : users) {
        const auto storage = dep.agent(user).logged_in() ? dep.agent(user).storage()
                                                         : nullptr;
        if (storage &&
            storage->cloud_health(kMaliciousCloud).misbehavior_total() > 0) {
          report.detected = true;
        }
      }
    }

    // ---- eviction: replace the quarantined cloud, crash points and all ----
    if (report.quarantined && !report.reconfigured) {
      if (h.dice.next_double() < kReconfigCrashProb) {
        h.crash.arm(kReconfigPoints[h.dice.next_below(std::size(kReconfigPoints))]);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto done = dep.reconfigure_cloud(kMaliciousCloud);
        if (done.ok()) {
          report.reconfigured = true;
          report.membership_epoch = done->epoch;
          report.units_migrated += done->units_migrated;
          report.shares_rebuilt += done->shares_rebuilt;
          report.quarantine_to_migrated_us =
              static_cast<sim::SimClock::Micros>(clock->now_us() - quarantined_at_us);
          break;
        }
        if (done.code() == ErrorCode::kCrashed) {
          ++report.reconfig_crashes;
        } else {
          ++report.reconfig_retries;
          clock->advance_us(2'000'000);
        }
      }
    }

    clock->advance_us(500'000 + h.dice.next_below(2'000'000));
  }

  // Capture the ledger totals before the final settle (the evicted provider
  // is out of every fleet after a reconfiguration, so ask the live clients).
  for (const auto& user : users) {
    if (!h.ensure_login(user)) continue;
    const auto storage = dep.agent(user).storage();
    if (!storage) continue;
    for (std::size_t i = 0; i < storage->n(); ++i) {
      report.misbehavior_flags += storage->cloud_health(i).misbehavior_total();
    }
  }

  // Settle: read every honest file back. After a reconfiguration these reads
  // run with the malicious cloud fully removed — they are the post-migration
  // availability check.
  clock->advance_us(30'000'000);
  const std::size_t unreadable = h.read_back_all(report);
  if (report.reconfigured) {
    report.post_reconfig_reads = h.expected.size();
    report.post_reconfig_read_failures = unreadable;
  }

  h.finish(report, [&](Fingerprint& fp) {
    fp.add("attacked", report.attacked)
        .add("detected", report.detected)
        .add("quarantined", report.quarantined)
        .add("ops_to_quarantine", report.ops_to_quarantine)
        .add("misbehavior_flags", report.misbehavior_flags)
        .add("reconfigured", report.reconfigured)
        .add("membership_epoch", report.membership_epoch)
        .add("reconfig_crashes", report.reconfig_crashes)
        .add("reconfig_retries", report.reconfig_retries)
        .add("units_migrated", report.units_migrated)
        .add("shares_rebuilt", report.shares_rebuilt)
        .add("post_reconfig_reads", report.post_reconfig_reads)
        .add("post_reconfig_read_failures", report.post_reconfig_read_failures)
        .add("quarantine_to_migrated_us", report.quarantine_to_migrated_us);
  });
  return report;
}

}  // namespace rockfs::core
