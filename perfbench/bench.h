// Shared types of the RockFS benchmark program (rockbench): clocks, the
// benchmark-side span log, the per-run environment and the workload
// interface. See perfbench/README.md for what each workload and metric means.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rockfs/deployment.h"

namespace rockbench {

using rockfs::Bytes;
namespace core = rockfs::core;
namespace obs = rockfs::obs;
namespace sim = rockfs::sim;

/// Monotonic wall time, seconds.
double wall_s();
/// CPU time of the whole process (every thread), seconds.
double cpu_s();

/// One call into a RockFS public function, as seen from the benchmark.
struct BenchSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // workload op the call belongs to (0 = none)
  std::string name;
  double wall_start_s = 0;
  double wall_end_s = 0;
  double cpu_s = 0;  // process-CPU delta across the call
  std::int64_t vt_start_us = 0;
  std::int64_t vt_end_us = 0;
};

/// Spans recorded by the benchmark around its own calls into the program.
/// Inert unless enabled (untraced runs pay one branch per call).
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  void enable(sim::SimClockPtr clock);
  void set_op(std::uint64_t op) { op_ = op; }
  /// Opens a span; it closes when the returned scope is destroyed.
  Scope open(const char* name);

  const std::vector<BenchSpan>& spans() const { return spans_; }
  /// Writes every span as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  void close(std::size_t index);

  bool enabled_ = false;
  sim::SimClockPtr clock_;
  std::uint64_t op_ = 0;
  std::vector<BenchSpan> spans_;
  std::vector<std::size_t> open_;  // indices of open spans, innermost last
};

/// Virtual-time and byte samples of one deployment. Everything here derives
/// from the SimClock and the seeded inputs, so it is identical across runs
/// with the same seed and across executor thread counts.
struct Virtual {
  std::vector<std::int64_t> close_us;
  std::vector<std::int64_t> read_us;
  std::vector<std::int64_t> mttr_us;
  std::uint64_t user_bytes = 0;  // bytes written through the agent API
  std::uint64_t uploaded_bytes = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t live_bytes = 0;
};

/// One deployment plus the benchmark's model of what every path holds.
struct Env {
  std::unique_ptr<core::Deployment> dep;
  core::RockFsAgent* agent = nullptr;
  std::unique_ptr<core::RecoveryService> recovery;
  rockfs::Rng rng{0};
  std::map<std::string, Bytes> model;  // path -> expected content
  std::vector<std::string> paths;
  std::set<std::uint64_t> malicious;  // every seq any attack produced
  SpanLog* spans = nullptr;
  Virtual v;

  std::uint64_t ops = 0;        // workload ops completed (the ops_per_s unit)
  std::uint64_t attempted = 0;  // checked operations
  std::uint64_t failed = 0;     // failed or wrong-bytes operations
  std::uint64_t recoveries = 0;          // recover_all passes
  std::uint64_t recovered_files = 0;
  std::uint64_t entries_applied = 0;     // log entries re-executed by recovery

  /// Counts one checked operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& what);
  /// Reads `path` back through the agent and compares it with the model.
  /// Records the virtual read latency when `sample` is set.
  void verify_read(const std::string& path, bool sample);
  /// recover_all over every flagged seq (or recover_file of each path in
  /// `only`); every recovered file must equal the model. Records one MTTR
  /// sample: the virtual time of the whole pass.
  void recover_and_verify(const std::vector<std::string>& only = {});
  /// Total bytes uploaded to / stored at every cloud.
  std::uint64_t cloud_uploaded() const;
  std::uint64_t cloud_stored() const;
  std::uint64_t live_bytes() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void configure(core::DeploymentOptions& opts) const { (void)opts; }
  /// Pre-populates the file system (part of set-up).
  virtual void populate(Env& env) const = 0;
  /// One workload op (for ransomware_recover, one attack/recover round).
  virtual void op(Env& env, std::uint64_t index) const = 0;
  /// Verifies the whole state; may record read / MTTR samples.
  virtual void end_check(Env& env) const = 0;
  /// Ops whose virtual samples form the reported window.
  virtual std::size_t window_ops() const = 0;
  /// Ops per timing chunk: one whole cycle of the op mix.
  virtual std::size_t chunk_ops() const = 0;
  /// Ops replayed by the determinism gate.
  virtual std::size_t gate_ops() const = 0;
  /// Buffer size for the per-module throughput probes.
  virtual std::size_t input_bytes() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// Per-module throughput of the public substrate functions on buffers of
/// `bytes` bytes, keyed by per-layer metric name.
std::map<std::string, double> measure_layers(std::size_t bytes, SpanLog& spans);

}  // namespace rockbench
