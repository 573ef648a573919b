// The three benchmark workloads and the checks they share. Every input is
// drawn from the Env's seeded Rng, so a seed fixes the whole op stream.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "rockfs/attack.h"

namespace rockbench {

void Env::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) std::fprintf(stderr, "rockbench: FAILED %s\n", what.c_str());
}

void Env::verify_read(const std::string& path, bool sample) {
  const auto t0 = dep->clock()->now_us();
  auto got = [&] {
    const auto s = spans->open("agent.read_file");
    return agent->read_file(path);
  }();
  const auto dt = dep->clock()->now_us() - t0;
  check(got.ok() && *got == model.at(path), "read " + path);
  if (sample) v.read_us.push_back(dt);
}

void Env::recover_and_verify(const std::vector<std::string>& only) {
  if (!recovery) {
    recovery = std::make_unique<core::RecoveryService>(
        dep->make_recovery_service(agent->user_id()));
  }
  std::vector<core::FileRecovery> files;
  std::int64_t mttr_us = 0;
  if (only.empty()) {
    auto res = [&] {
      const auto s = spans->open("recovery.recover_all");
      return recovery->recover_all(malicious);
    }();
    check(res.ok() && res->size() == model.size(), "recover_all covers every file");
    if (!res.ok()) return;
    files = std::move(*res);
    mttr_us = recovery->last_recovery_us();
  } else {
    for (const auto& path : only) {
      auto res = [&] {
        const auto s = spans->open("recovery.recover_file");
        return recovery->recover_file(path, malicious);
      }();
      check(res.ok(), "recover_file " + path);
      if (!res.ok()) return;
      files.push_back(std::move(*res));
      mttr_us += recovery->last_recovery_us();
    }
  }
  v.mttr_us.push_back(mttr_us);
  ++recoveries;
  for (const auto& file : files) {
    const auto it = model.find(file.path);
    check(it != model.end() && file.content == it->second, "recovered " + file.path);
    entries_applied += file.applied;
    ++recovered_files;
  }
}

std::uint64_t Env::cloud_uploaded() const {
  std::uint64_t total = 0;
  for (const auto& c : dep->clouds()) total += c->traffic().uploaded_bytes();
  return total;
}

std::uint64_t Env::cloud_stored() const {
  std::uint64_t total = 0;
  for (const auto& c : dep->clouds()) total += c->stored_bytes();
  return total;
}

std::uint64_t Env::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [path, content] : model) total += content.size();
  return total;
}

namespace {

/// Creates `count` files of `size` random bytes (set-up; not sampled).
void create_files(Env& env, const char* prefix, std::size_t count, std::size_t size) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string path = std::string(prefix) + std::to_string(i);
    Bytes content = env.rng.next_bytes(size);
    env.check(env.agent->write_file(path, content).ok(), "create " + path);
    env.paths.push_back(path);
    env.model[path] = std::move(content);
  }
}

/// open → write `data` at `offset` (offset == size appends) → close, sampling
/// the close latency.
void update(Env& env, const std::string& path, std::size_t offset, const Bytes& data) {
  auto fd = [&] {
    const auto s = env.spans->open("agent.open");
    return env.agent->open(path);
  }();
  if (!fd.ok()) {
    env.check(false, "open " + path);
    return;
  }
  const rockfs::Status wrote = [&] {
    const auto s = env.spans->open("agent.write");
    return env.agent->write(*fd, offset, data);
  }();
  const auto closed = [&] {
    const auto s = env.spans->open("agent.close");
    return env.agent->close_timed(*fd);
  }();
  const bool ok = wrote.ok() && closed.value.ok();
  env.check(ok, "update " + path);
  if (!ok) return;
  Bytes& content = env.model[path];
  if (offset + data.size() > content.size()) content.resize(offset + data.size());
  std::copy(data.begin(), data.end(), content.begin() + static_cast<std::ptrdiff_t>(offset));
  env.v.user_bytes += data.size();
  env.v.close_us.push_back(closed.delay);
}

/// Overwrites a random `length`-byte region in place (file size stays flat).
void overwrite(Env& env, const std::string& path, std::size_t length) {
  const std::size_t size = env.model.at(path).size();
  const std::size_t offset = env.rng.next_below(size - length + 1);
  update(env, path, offset, env.rng.next_bytes(length));
}

// ---- update_large: the paper's Fig 5 / §6.1 close path ----

class UpdateLarge final : public Workload {
 public:
  static constexpr std::size_t kFiles = 4;
  static constexpr std::size_t kSize = 1 << 20;

  void populate(Env& env) const override { create_files(env, "/large/f", kFiles, kSize); }
  void op(Env& env, std::uint64_t index) const override {
    overwrite(env, env.paths[index % kFiles], kSize * 3 / 10);
    ++env.ops;
  }
  void end_check(Env& env) const override {
    for (const auto& path : env.paths) env.verify_read(path, true);
    env.recover_and_verify();
  }
  std::size_t window_ops() const override { return 100; }
  std::size_t chunk_ops() const override { return kFiles; }
  std::size_t gate_ops() const override { return 4; }
  std::size_t input_bytes() const override { return kSize * 13 / 10; }
};

// ---- small_mixed: FileBench-style small files, reads beside updates ----

class SmallMixed final : public Workload {
 public:
  static constexpr std::size_t kFiles = 256;
  static constexpr std::size_t kHot = 16;
  static constexpr std::size_t kSize = 16 << 10;

  void configure(core::DeploymentOptions& opts) const override {
    // 1 MiB cache against a 4 MiB working set.
    opts.agent.cache_config.capacity_bytes = 1 << 20;
  }
  void populate(Env& env) const override { create_files(env, "/small/f", kFiles, kSize); }
  void op(Env& env, std::uint64_t index) const override {
    const bool hot = env.rng.next_below(4) != 0;
    const auto& path = env.paths[env.rng.next_below(hot ? kHot : kFiles)];
    if (index % 5 == 4) {
      overwrite(env, path, 512);
    } else {
      env.verify_read(path, true);
    }
    ++env.ops;
  }
  /// Reads every file back; recovers the hot set (a whole-namespace
  /// recover_all of 256 files would dominate the run's wall time).
  void end_check(Env& env) const override {
    for (const auto& path : env.paths) env.verify_read(path, false);
    env.recover_and_verify({env.paths.begin(), env.paths.begin() + kHot});
  }
  std::size_t window_ops() const override { return 500; }
  std::size_t chunk_ops() const override { return 50; }
  std::size_t gate_ops() const override { return 50; }
  std::size_t input_bytes() const override { return kSize; }
};

// ---- ransomware_recover: the Figs 7/8 recovery path ----

class RansomwareRecover final : public Workload {
 public:
  static constexpr std::size_t kFiles = 8;
  static constexpr std::size_t kSize = 256 << 10;
  static constexpr int kVersions = 8;

  void populate(Env& env) const override {
    create_files(env, "/docs/f", kFiles, kSize);
    for (int v = 0; v < kVersions; ++v) {
      for (const auto& path : env.paths) {
        const std::size_t size = env.model.at(path).size();
        update(env, path, size, env.rng.next_bytes(size / 10));
      }
    }
  }
  /// One round: the attack encrypts every file, the administrator recovers
  /// them all, the user reads each back and edits one (round-robin) in
  /// place. One edit per round keeps the history each round repairs, and so
  /// the round's cost, nearly flat.
  void op(Env& env, std::uint64_t index) const override {
    const auto attack = [&] {
      const auto s = env.spans->open("attack.ransomware");
      return core::ransomware_attack(*env.agent, env.paths, env.rng.next_u64());
    }();
    env.check(attack.files_encrypted == kFiles, "ransomware encrypted every file");
    for (const auto& path : env.paths) {
      env.v.user_bytes += env.model.at(path).size() + 16;  // IV || ciphertext
    }
    env.malicious.insert(attack.malicious_seqs.begin(), attack.malicious_seqs.end());
    const std::uint64_t before = env.recovered_files;
    env.recover_and_verify();
    env.ops += env.recovered_files - before;
    for (const auto& path : env.paths) env.verify_read(path, true);
    const auto& edited = env.paths[index % kFiles];
    overwrite(env, edited, env.model.at(edited).size() / 10);
  }
  void end_check(Env& env) const override {
    for (const auto& path : env.paths) env.verify_read(path, false);
  }
  std::size_t window_ops() const override { return 3; }
  std::size_t chunk_ops() const override { return 1; }
  std::size_t gate_ops() const override { return 1; }
  std::size_t input_bytes() const override { return kSize; }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "update_large") return std::make_unique<UpdateLarge>();
  if (name == "small_mixed") return std::make_unique<SmallMixed>();
  if (name == "ransomware_recover") return std::make_unique<RansomwareRecover>();
  return nullptr;
}

}  // namespace rockbench
