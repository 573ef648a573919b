// rockbench: runs one RockFS benchmark workload in this process and prints
// its metrics as the last stdout line (one JSON object).
//
//   rockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Each run:
//   1. Determinism gate: a fresh deployment at executor_threads 2 runs the
//      first gate_ops() ops and the end check; the main deployment (threads
//      0) does the same before its window goes on. Every virtual-time
//      sample, byte count and counter must match at both points. A third,
//      set-up-only deployment makes setup_s a median of three.
//   2. Main deployment (executor_threads 0, so the wall-clock figures do not
//      hinge on how fast a shared host wakes pool threads): the first
//      window_ops() ops give the virtual-time metrics, the end check verifies
//      every file and adds read / MTTR samples, then ops continue until
//      --seconds of wall time have been measured (ops_per_s, cpu_ms_per_op).
//   3. --trace 1 replaces the continuation with a traced phase (program
//      tracer on, benchmark spans around every call) and adds the per-module
//      probes; it reports per-layer metrics instead of end-to-end ones.
// Exits 1 if any read-back or recovery differs from the model, or if a gate
// fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "coord/tuple.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rockbench {

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->close(index_);
}

void SpanLog::enable(sim::SimClockPtr clock) {
  enabled_ = true;
  clock_ = std::move(clock);
}

SpanLog::Scope SpanLog::open(const char* name) {
  if (!enabled_) return Scope(nullptr, 0);
  BenchSpan s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.op = op_;
  s.name = name;
  s.vt_start_us = clock_->now_us();
  s.cpu_s = cpu_s();
  s.wall_start_s = wall_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::close(std::size_t index) {
  BenchSpan& s = spans_[index];
  s.wall_end_s = wall_s();
  s.cpu_s = cpu_s() - s.cpu_s;
  s.vt_end_us = clock_->now_us();
  open_.pop_back();
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"wall_start_s\":%.9f,\"wall_end_s\":%.9f,\"cpu_s\":%.9f,"
                 "\"vt_start_us\":%lld,\"vt_end_us\":%lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name.c_str(), s.wall_start_s,
                 s.wall_end_s, s.cpu_s, static_cast<long long>(s.vt_start_us),
                 static_cast<long long>(s.vt_end_us));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr const char* kCoordOps[] = {"out", "rdp", "inp", "rdall", "cas", "replace", "swap",
                                     "count"};
// The gate deployment fans out on a pool; the measured one runs inline.
constexpr std::size_t kGateThreads = 2;
constexpr std::size_t kTimedThreads = 0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

double percentile_ms(std::vector<std::int64_t> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return static_cast<double>(xs[std::max<std::size_t>(rank, 1) - 1]) / 1e3;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t counter(const std::string& name, const std::string& label = {}) {
  return obs::metrics().counter_value(obs::metric_key(name, label));
}

std::uint64_t cloud_counter(const Env& env, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : env.dep->clouds()) total += counter(name, c->name());
  return total;
}

std::uint64_t coord_ops() {
  std::uint64_t total = 0;
  for (const char* op : kCoordOps) total += counter("coord.ops", op);
  return total;
}

/// Fresh deployment with the workload's files in place. Set-up time covers
/// deployment, provisioning (keygen, PVSS deal, login) and pre-population.
Env make_env(const Workload& w, std::uint64_t seed, std::size_t threads, SpanLog* spans,
             double* setup_s) {
  obs::metrics().reset();
  const double t0 = wall_s();
  core::DeploymentOptions opts;
  opts.seed = seed;
  opts.executor_threads = threads;
  opts.agent.sync_mode = rockfs::scfs::SyncMode::kBlocking;
  w.configure(opts);
  Env env;
  env.dep = std::make_unique<core::Deployment>(opts);
  env.agent = &env.dep->add_user("alice");
  env.rng = rockfs::Rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  env.spans = spans;
  w.populate(env);
  *setup_s = wall_s() - t0;
  env.v.user_bytes = 0;
  return env;
}

/// Everything the determinism contract promises to repeat: every virtual
/// sample, byte count, the clock and the counters of every layer.
std::string digest(const Env& env) {
  std::string d;
  const auto add = [&](const std::string& k, std::uint64_t x) {
    d += k + "=" + std::to_string(x) + ";";
  };
  for (const auto x : env.v.close_us) add("close", static_cast<std::uint64_t>(x));
  for (const auto x : env.v.read_us) add("read", static_cast<std::uint64_t>(x));
  for (const auto x : env.v.mttr_us) add("mttr", static_cast<std::uint64_t>(x));
  add("user_bytes", env.v.user_bytes);
  add("uploaded", env.cloud_uploaded());
  add("stored", env.cloud_stored());
  add("clock", static_cast<std::uint64_t>(env.dep->clock()->now_us()));
  add("applied", env.entries_applied);
  for (const char* name :
       {"scfs.close.count", "scfs.close.bytes", "log.append.count", "log.append.bytes",
        "depsky.attempts", "depsky.retries", "cache.data.hits", "cache.data.misses",
        "cache.meta.hits", "cache.meta.misses", "cache.data.evictions",
        "journal.intents.recorded", "recovery.files_recovered"}) {
    add(name, counter(name));
  }
  add("coord.ops", coord_ops());
  add("cloud.put.bytes", cloud_counter(env, "cloud.put.bytes"));
  add("cloud.get.bytes", cloud_counter(env, "cloud.get.bytes"));
  return d;
}

/// Aggregates the program's own trace by span name, in batches drained
/// between ops (a batch never splits an op's span tree).
struct TraceAgg {
  struct ByName {
    double dur_us = 0;
    double self_us = 0;
  };
  std::map<std::string, ByName> by_name;
  std::uint64_t dirty_closes = 0;
  std::uint64_t close_coord_ops = 0;
  std::vector<double> reconcile_err;
  std::uint64_t dropped = 0;

  void drain() {
    const auto events = obs::tracer().events();
    dropped += obs::tracer().dropped_count();
    std::map<std::uint64_t, std::uint64_t> root_of;  // span id -> dirty close root
    for (const auto& e : events) {
      const bool dirty_close = e.name == "scfs.close" && e.bytes > 0;
      ByName& b = by_name[dirty_close || e.name != "scfs.close" ? e.name : "scfs.close.clean"];
      b.dur_us += static_cast<double>(e.duration_us);
      b.self_us += static_cast<double>(e.duration_us) - static_cast<double>(e.charged_us);
      if (dirty_close && e.parent == 0) {
        root_of[e.id] = e.id;
        ++dirty_closes;
        if (e.duration_us > 0) {
          const auto exclusive = obs::reconcile_exclusive_us(events, e.id);
          reconcile_err.push_back(
              std::abs(static_cast<double>(exclusive) - static_cast<double>(e.duration_us)) /
              static_cast<double>(e.duration_us));
        }
      } else if (const auto it = root_of.find(e.parent); it != root_of.end()) {
        root_of[e.id] = it->second;  // ids ascend: a parent precedes its children
        if (e.name == "coord.op") ++close_coord_ops;
      }
    }
    obs::tracer().reset();
  }
  double per(const std::string& name, double denom, bool self) const {
    const auto it = by_name.find(name);
    if (it == by_name.end()) return 0;
    return ratio(self ? it->second.self_us : it->second.dur_us, denom) / 1e3;
  }
};

struct SpanTotals {
  std::uint64_t count = 0;
  double cpu_s = 0;
};

std::map<std::string, SpanTotals> span_totals(const SpanLog& spans) {
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans.spans()) {
    out[s.name].count++;
    out[s.name].cpu_s += s.cpu_s;
  }
  return out;
}

/// Wall and process-CPU cost of the timed ops, in chunks of chunk_ops() ops
/// (whole mix cycles). Reporting the median chunk keeps a transient stall of
/// the host out of the run's figure.
struct Chunks {
  std::vector<double> rate;    // workload ops per wall second
  std::vector<double> cpu_ms;  // process CPU ms per workload op
  double wall = 0;             // total measured seconds

  /// Runs one chunk starting at op index `i`; `after_op(done)` is called after
  /// each op with the number of ops run so far (outside the measurement).
  void run(const Workload& w, Env& env, std::uint64_t& i,
           const std::function<void(std::uint64_t)>& after_op = {}) {
    const std::uint64_t ops0 = env.ops;
    double busy = 0;
    double cpu = 0;
    for (std::size_t k = 0; k < w.chunk_ops(); ++k) {
      const double w0 = wall_s();
      const double c0 = cpu_s();
      w.op(env, i++);
      busy += wall_s() - w0;
      cpu += cpu_s() - c0;
      if (after_op) after_op(i);
    }
    const double ops = static_cast<double>(env.ops - ops0);
    rate.push_back(ratio(ops, busy));
    cpu_ms.push_back(ratio(cpu * 1e3, ops));
    wall += busy;
  }
};

void print_json_line(const Args& a, std::uint64_t attempted, std::uint64_t failed,
                     bool correct, const std::map<std::string, double>& metrics,
                     const std::map<std::string, bool>& gates) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"gates\":{",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [k, v] : gates) {
    std::printf("%s\"%s\":%s", first ? "" : ",", k.c_str(), v ? "true" : "false");
    first = false;
  }
  std::printf("},\"metrics\":{");
  first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  rockfs::set_log_level(rockfs::LogLevel::kError);
  obs::tracer().set_enabled(false);  // on by default; end-to-end runs must not pay for it
  const auto w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "rockbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setups;
  std::map<std::string, bool> gates;

  // 1. Determinism gate: the same seed runs at executor_threads 2 here and
  //    at 0 in the main deployment; both are compared after gate_ops() ops
  //    and again after the end check that follows them.
  const double g0 = wall_s();
  SpanLog inert;
  std::vector<std::string> prefixes;
  std::vector<std::string> fulls;
  {
    double setup = 0;
    Env env = make_env(*w, a.seed, kGateThreads, &inert, &setup);
    setups.push_back(setup);
    for (std::uint64_t i = 0; i < w->gate_ops(); ++i) w->op(env, i);
    prefixes.push_back(digest(env));
    w->end_check(env);
    fulls.push_back(digest(env));
    attempted += env.attempted;
    failed += env.failed;
  }
  {
    // A set-up-only deployment, so that setup_s is a median of three.
    double setup = 0;
    const Env env = make_env(*w, a.seed, kTimedThreads, &inert, &setup);
    setups.push_back(setup);
    attempted += env.attempted;
    failed += env.failed;
  }
  const double gate_wall = wall_s() - g0;

  // 2. Main deployment: virtual window, end check, timed continuation.
  SpanLog spans;
  double setup = 0;
  Env m = make_env(*w, a.seed, kTimedThreads, &spans, &setup);
  setups.push_back(setup);
  const std::uint64_t uploaded0 = m.cloud_uploaded();
  std::uint64_t gate_check_uploaded = 0;
  Chunks timed;
  std::uint64_t i = 0;
  while (i < w->window_ops()) {
    timed.run(*w, m, i, [&](std::uint64_t done) {
      if (done != w->gate_ops()) return;
      prefixes.push_back(digest(m));
      const std::size_t reads = m.v.read_us.size();
      const std::size_t mttrs = m.v.mttr_us.size();
      const std::uint64_t up = m.cloud_uploaded();
      w->end_check(m);
      fulls.push_back(digest(m));
      // The gate's end check is not part of the window's samples.
      gate_check_uploaded = m.cloud_uploaded() - up;
      m.v.read_us.resize(reads);
      m.v.mttr_us.resize(mttrs);
    });
  }
  const double window_wall = timed.wall;
  m.v.uploaded_bytes = m.cloud_uploaded() - uploaded0 - gate_check_uploaded;
  m.v.stored_bytes = m.cloud_stored();
  m.v.live_bytes = m.live_bytes();
  const std::uint64_t window_user_bytes = m.v.user_bytes;
  const std::vector<std::int64_t> window_close = m.v.close_us;
  const double e0 = wall_s();
  w->end_check(m);
  const Virtual window = m.v;  // plus the end check's read / MTTR samples
  // Peak memory of the fixed-size window: the continuation's length varies
  // with host speed and the simulated clouds keep every version in RAM.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(stderr, "rockbench: setup %.2f/%.2f/%.2fs gate %.2fs window %.2fs end check %.2fs\n",
               setups[0], setups[1], setups[2], gate_wall, window_wall, wall_s() - e0);

  gates["determinism"] =
      prefixes.size() == 2 && prefixes[0] == prefixes[1] && fulls[0] == fulls[1];
  if (!gates["determinism"]) {
    std::fprintf(stderr, "rockbench: determinism gate failed\n");
    for (std::size_t k = 0; k < prefixes.size(); ++k) {
      std::fprintf(stderr, "  threads=%zu: %s\n    then %s\n",
                   k == 0 ? kGateThreads : kTimedThreads, prefixes[k].c_str(), fulls[k].c_str());
    }
  }

  std::map<std::string, double> metrics;
  if (!a.trace) {
    while (timed.wall < a.seconds) timed.run(*w, m, i);
    for (const auto& path : m.paths) m.verify_read(path, false);  // final state

    metrics["close_p50_ms"] = percentile_ms(window_close, 50);
    metrics["close_p90_ms"] = percentile_ms(window_close, 90);
    metrics["read_p50_ms"] = percentile_ms(window.read_us, 50);
    metrics["read_p90_ms"] = percentile_ms(window.read_us, 90);
    std::vector<double> mttr;
    for (const auto x : window.mttr_us) mttr.push_back(static_cast<double>(x) / 1e6);
    metrics["mttr_s"] = mttr.empty() ? 0 : median(mttr);
    metrics["storage_x"] = ratio(static_cast<double>(window.stored_bytes),
                                 static_cast<double>(window.live_bytes));
    metrics["upload_x"] = ratio(static_cast<double>(window.uploaded_bytes),
                                static_cast<double>(window_user_bytes));
    metrics["ops_per_s"] = median(timed.rate);
    metrics["cpu_ms_per_op"] = median(timed.cpu_ms);
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::fprintf(stderr,
                 "rockbench: %s seed=%llu window=%llu ops (%zu closes, %zu reads, %zu "
                 "recoveries) timed=%llu ops in %.2fs (%zu chunks)\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 static_cast<unsigned long long>(w->window_ops()), window_close.size(),
                 window.read_us.size(), window.mttr_us.size(),
                 static_cast<unsigned long long>(m.ops), timed.wall, timed.rate.size());
    std::fprintf(stderr, "rockbench: chunk ops/s");
    for (const double r : timed.rate) std::fprintf(stderr, " %.4g", r);
    std::fprintf(stderr, "\nrockbench: chunk cpu ms/op");
    for (const double c : timed.cpu_ms) std::fprintf(stderr, " %.4g", c);
    std::fprintf(stderr, "\n");
  } else {
    // 3. Traced phase: the program's tracer plus the benchmark's spans.
    constexpr std::size_t kCapacity = 1 << 17;
    const double untraced_rate = median(timed.rate);
    obs::tracer().set_capacity(kCapacity);
    obs::tracer().set_enabled(true);
    obs::metrics().reset();
    spans.enable(m.dep->clock());
    const Virtual v0 = m.v;
    const std::uint64_t ops0 = m.ops;
    const std::uint64_t recoveries0 = m.recoveries;
    const std::uint64_t files0 = m.recovered_files;
    const std::uint64_t applied0 = m.entries_applied;
    TraceAgg ops_agg;
    Chunks traced;
    spans.set_op(i);
    while (traced.wall < a.seconds / 2) {
      traced.run(*w, m, i, [&](std::uint64_t) {
        spans.set_op(i);
        if (obs::tracer().finished_count() > kCapacity / 4) ops_agg.drain();
      });
    }
    ops_agg.drain();
    const double ops = static_cast<double>(m.ops - ops0);
    const double closes = static_cast<double>(ops_agg.dirty_closes);
    const double user_bytes = static_cast<double>(m.v.user_bytes - v0.user_bytes);
    // Counters of the op segment (the end check below adds recovery work).
    metrics["log.bytes_per_user_byte"] = ratio(counter("log.append.bytes"), user_bytes);
    metrics["cache.data.hit_ratio"] =
        ratio(counter("cache.data.hits"),
              static_cast<double>(counter("cache.data.hits") + counter("cache.data.misses")));
    metrics["cache.meta.hit_ratio"] =
        ratio(counter("cache.meta.hits"),
              static_cast<double>(counter("cache.meta.hits") + counter("cache.meta.misses")));
    metrics["cache.data.evictions"] = ratio(counter("cache.data.evictions"), ops);
    metrics["depsky.put.bytes_per_user_byte"] =
        ratio(cloud_counter(m, "depsky.put.data.bytes"), user_bytes);
    metrics["depsky.retry_ratio"] = ratio(counter("depsky.retries"), counter("depsky.attempts"));
    metrics["cloud.puts_per_op"] = ratio(cloud_counter(m, "cloud.put.count"), ops);
    metrics["cloud.get_bytes_per_op"] = ratio(cloud_counter(m, "cloud.get.bytes"), ops);
    metrics["coord.ops_per_op"] = ratio(coord_ops(), ops);
    metrics["scfs.coord_ops_per_close"] = ratio(ops_agg.close_coord_ops, closes);
    metrics["vt.log.intent.self_ms"] = ops_agg.per("log.intent", closes, true);
    metrics["vt.log.append.ms"] = ops_agg.per("log.append", closes, false);
    metrics["vt.scfs.upload_pipeline.ms"] = ops_agg.per("scfs.upload_pipeline", closes, false);
    metrics["vt.scfs.close.self_ms"] = ops_agg.per("scfs.close", closes, true);
    metrics["vt.depsky.put_quorum.ms"] = ops_agg.per("depsky.put_quorum", closes, false);
    metrics["vt.depsky.read.ms"] = ops_agg.per("depsky.read", ops, false);
    metrics["vt.coord.op.ms"] = ops_agg.per("coord.op", ops, false);
    double err = 0;
    for (const double e : ops_agg.reconcile_err) err += e;
    metrics["vt.reconcile_err_pct"] =
        100.0 * ratio(err, static_cast<double>(ops_agg.reconcile_err.size()));

    // The end check: full read-back, and recovery where the ops had none.
    TraceAgg check_agg;
    w->end_check(m);
    check_agg.drain();
    obs::tracer().set_enabled(false);
    const double recoveries = static_cast<double>(m.recoveries - recoveries0);
    const double audit_us = (ops_agg.by_name["recovery.audit"].dur_us +
                             check_agg.by_name["recovery.audit"].dur_us);
    metrics["vt.recovery.audit.ms"] = ratio(audit_us, recoveries) / 1e3;
    metrics["recovery.entries_applied"] =
        ratio(static_cast<double>(m.entries_applied - applied0), recoveries);
    metrics["trace.dropped"] = static_cast<double>(ops_agg.dropped + check_agg.dropped);
    metrics["trace.overhead_pct"] =
        100.0 * (ratio(untraced_rate, median(traced.rate)) - 1.0);

    const auto totals = span_totals(spans);
    const auto mean_cpu_ms = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0 : 1e3 * it->second.cpu_s / it->second.count;
    };
    metrics["rockfs.close.cpu_ms"] = mean_cpu_ms("agent.close");
    metrics["rockfs.read.cpu_ms"] = mean_cpu_ms("agent.read_file");
    double recover_cpu_s = 0;
    for (const char* name : {"recovery.recover_all", "recovery.recover_file"}) {
      if (const auto it = totals.find(name); it != totals.end()) recover_cpu_s += it->second.cpu_s;
    }
    metrics["rockfs.recover.cpu_ms_per_file"] =
        ratio(1e3 * recover_cpu_s, static_cast<double>(m.recovered_files - files0));

    // Coordination: tuple-space size and real cost of one rdp against it.
    auto& coordination = *m.dep->coordination();
    metrics["coord.tuples"] = static_cast<double>(coordination.replica(0).size());
    const auto pattern =
        rockfs::coord::Template::of({"scfs-inode", m.paths.back(), "*", "*", "*", "*", "*"});
    std::vector<double> rdp_us;
    for (int k = 0; k < 25; ++k) {
      const auto s = spans.open("coord.rdp");
      const double t0 = wall_s();
      const auto got = coordination.rdp(pattern);
      rdp_us.push_back((wall_s() - t0) * 1e6);
      m.check(got.value.ok() && got.value->has_value(), "coord rdp inode");
    }
    metrics["coord.rdp.us"] = median(rdp_us);

    // Secret sharing: a fresh login reconstructs the keystore from PVSS shares.
    std::vector<double> login_ms;
    for (int k = 0; k < 3; ++k) {
      m.agent->logout();
      const auto s = spans.open("deployment.login_default");
      const double t0 = wall_s();
      const auto st = m.dep->login_default("alice");
      login_ms.push_back((wall_s() - t0) * 1e3);
      m.check(st.ok(), "login_default");
    }
    metrics["secretshare.login_ms"] = median(login_ms);
    for (const auto& [k, x] : measure_layers(w->input_bytes(), spans)) metrics[k] = x;

    gates["trace_no_drops"] = metrics["trace.dropped"] == 0;
    if (!a.spans_path.empty() && !spans.write_json(a.spans_path)) {
      std::fprintf(stderr, "rockbench: cannot write %s\n", a.spans_path.c_str());
      gates["spans_written"] = false;
    }
  }
  attempted += m.attempted;
  failed += m.failed;
  gates["correct"] = failed == 0;
  bool ok = true;
  for (const auto& [k, x] : gates) ok = ok && x;
  metrics["error_rate"] = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  print_json_line(a, attempted, failed, failed == 0, metrics, gates);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rockbench

int main(int argc, char** argv) {
  rockbench::Args args;
  if (!rockbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rockbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n");
    return 2;
  }
  try {
    return rockbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rockbench: %s\n", e.what());
    return 1;
  }
}
