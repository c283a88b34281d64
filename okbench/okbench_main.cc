// okbench: the repo's end-to-end OKWS benchmark.
//
//   okbench --workload <echo_hot|login_5k|notes_durable> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs fresh rounds of the workload's seeded script until --seconds have
// passed (at least kMinRounds), then prints one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics (host medians over rounds; charged-cycle
// and memory figures, which every round must reproduce exactly); --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics.
// Exits 1 when any response, replica record or determinism check fails.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "okbench/okbench_stats.h"
#include "okbench/okbench_workloads.h"
#include "src/sim/costs.h"

namespace okbench {
namespace {

constexpr int kMinRounds = 3;
// setup_s is the median of at least this many set-ups: rounds that end
// before it is reached are followed by set-up-only boots.
constexpr size_t kMinSetups = 25;
// Never start a round that could push the run past this: a run must end
// within 180 s.
constexpr double kDeadlineSeconds = 150;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/okbench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(a->workload) != nullptr &&
         (a->trace == 0 || a->trace == 1);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Describes every deterministic count two rounds disagree on ("" if none).
std::string CountMismatches(const RoundResult& a, const RoundResult& b) {
  std::string out;
  for (const auto& [name, value] : a.counts) {
    auto it = b.counts.find(name);
    const double other = it == b.counts.end() ? -1 : it->second;
    if (other != value) {
      char line[160];
      std::snprintf(line, sizeof(line), " %s (%.17g vs %.17g)", name.c_str(), value, other);
      out += line;
    }
  }
  return out;
}

std::vector<Metric> EndToEnd(const WorkloadSpec& spec, const std::vector<RoundResult>& rounds,
                             const std::vector<double>& setup, uint64_t attempted,
                             uint64_t failed) {
  std::vector<double> conn_per_s;
  double peak_rss_mb = 0;
  for (const RoundResult& r : rounds) {
    conn_per_s.push_back(Ratio(static_cast<double>(r.completed), r.measured_s));
    peak_rss_mb = std::max(peak_rss_mb, r.peak_rss_mb);
  }
  const auto& c = rounds.front().counts;
  const double us_per_cycle = 1e6 / asbestos::costs::kCpuHz;
  return {
      {"host_conn_per_s", "1/s", Median(conn_per_s)},
      {"setup_s", "s", Median(setup)},
      {"virt_conn_per_s", "1/s",
       Ratio(c.at("completed"), c.at("cycles.elapsed") / asbestos::costs::kCpuHz)},
      {"virt_latency_p50_us", "us", c.at("latency.p50_cycles") * us_per_cycle},
      {"virt_latency_p99_us", "us", c.at("latency.p99_cycles") * us_per_cycle},
      {"ok_ratio", "ratio",
       Ratio(static_cast<double>(attempted - std::min(failed, attempted)),
             static_cast<double>(attempted))},
      {"bytes_per_user", "B", Ratio(c.at("mem.total_bytes"), static_cast<double>(spec.users))},
      {"host_peak_rss_mb", "MiB", peak_rss_mb},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& untraced,
                             const std::vector<RoundResult>& traced) {
  const auto& c = traced.front().counts;
  const double conns = c.at("completed");
  auto per_conn = [&](const std::string& key) { return Ratio(c.at(key), conns); };
  // Host time per layer: median over traced rounds of the layer's ns/conn.
  auto host = [&](const std::string& layer) {
    std::vector<double> v;
    for (const RoundResult& r : traced) {
      auto it = r.host_ns.find(layer);
      v.push_back(Ratio(it == r.host_ns.end() ? 0 : it->second,
                        static_cast<double>(r.completed)));
    }
    return Median(v);
  };
  auto calls = [&](const std::string& layer) {
    const auto& m = traced.front().calls;
    auto it = m.find(layer);
    return Ratio(it == m.end() ? 0 : it->second, conns);
  };
  std::vector<double> overhead;
  std::vector<double> attributed;
  for (size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(Ratio(traced[i].measured_s, untraced[i].measured_s));
    attributed.push_back(Ratio(traced[i].root_span_ns, traced[i].measured_s * 1e9));
  }
  auto kcycles = [&](const char* component) {
    return Ratio(c.at(std::string("cycles.") + component) / 1000.0, conns);
  };
  return {
      {"bench.completed_conns", "count", conns},
      {"net.netd.host_ns_per_conn", "ns/conn", host("net.netd")},
      {"net.netd.calls_per_conn", "calls/conn", calls("net.netd")},
      {"net.client.host_ns_per_conn", "ns/conn", host("net.client")},
      {"net.write_bytes_per_conn", "B/conn", per_conn("netd.write_bytes")},
      {"okws.demux.host_ns_per_conn", "ns/conn", host("okws.demux")},
      {"okws.demux.calls_per_conn", "calls/conn", calls("okws.demux")},
      {"okws.worker.host_ns_per_conn", "ns/conn", host("okws.worker")},
      {"okws.worker.calls_per_conn", "calls/conn", calls("okws.worker")},
      {"okws.idd.host_ns_per_conn", "ns/conn", host("okws.idd")},
      {"okws.idd.calls_per_conn", "calls/conn", calls("okws.idd")},
      {"okws.other.host_ns_per_conn", "ns/conn", host("okws.other")},
      {"okws.session_parks", "count", c.at("okws.session_parks")},
      {"okws.session_resumes", "count", c.at("okws.session_resumes")},
      {"db.dbproxy.host_ns_per_conn", "ns/conn", host("db.dbproxy")},
      {"db.dbproxy.calls_per_conn", "calls/conn", calls("db.dbproxy")},
      {"store.on_idle.host_ns_per_conn", "ns/conn", host("store.on_idle")},
      {"store.wal_bytes_per_conn", "B/conn", per_conn("store.wal_bytes")},
      {"store.wal_syncs_per_conn", "count/conn", per_conn("store.wal_syncs")},
      {"store.sync_calls_per_conn", "count/conn", per_conn("store.sync_calls")},
      {"replication.follower.host_ns_per_conn", "ns/conn", host("replication.follower")},
      {"replication.bytes_shipped_per_conn", "B/conn", per_conn("repl.bytes_shipped")},
      {"replication.batches_shipped", "count", c.at("repl.batches_shipped")},
      {"replication.frame_cache_hit_ratio", "ratio",
       Ratio(c.at("repl.frame_cache_hits"),
             c.at("repl.frame_cache_hits") + c.at("repl.frame_cache_misses"))},
      {"replication.rewinds", "count", c.at("repl.rewinds")},
      {"kernel.pump_self.host_ns_per_conn", "ns/conn", host("kernel.pump_self")},
      {"kernel.sends_per_conn", "count/conn", per_conn("kernel.sends")},
      {"kernel.deliveries_per_conn", "count/conn", per_conn("kernel.deliveries")},
      {"kernel.drops_label_check_per_conn", "count/conn", per_conn("kernel.drops_label_check")},
      {"kernel.msgs_per_batch", "count/batch",
       Ratio(c.at("kernel.deliveries"), c.at("pump.batches"))},
      {"kernel.check_cache_hit_ratio", "ratio",
       Ratio(c.at("kernel.check_cache_hits"),
             c.at("kernel.check_cache_hits") + c.at("kernel.check_cache_misses"))},
      {"kernel.payload_cow_bytes_per_conn", "B/conn", per_conn("kernel.payload_cow_bytes")},
      {"labels.ops_per_conn", "count/conn", per_conn("labels.ops")},
      {"labels.entries_visited_per_conn", "count/conn", per_conn("labels.entries_visited")},
      {"labels.fast_path_ratio", "ratio", Ratio(c.at("labels.fast_path_hits"), c.at("labels.ops"))},
      {"labels.intern_probes_per_conn", "count/conn", per_conn("labels.intern_probes")},
      {"labels.intern_hit_ratio", "ratio",
       Ratio(c.at("labels.intern_hits"), c.at("labels.intern_probes"))},
      {"sim.okws.kcycles_per_conn", "kcycles/conn", kcycles("okws")},
      {"sim.network.kcycles_per_conn", "kcycles/conn", kcycles("network")},
      {"sim.kernel_ipc.kcycles_per_conn", "kcycles/conn", kcycles("kernel_ipc")},
      {"sim.okdb.kcycles_per_conn", "kcycles/conn", kcycles("okdb")},
      {"sim.other.kcycles_per_conn", "kcycles/conn", kcycles("other")},
      {"bench.tracing_overhead_ratio", "ratio", Median(overhead)},
      {"bench.attributed_ratio", "ratio", Median(attributed)},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: okbench --workload <echo_hot|login_5k|notes_durable> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::filesystem::create_directories(args.out_dir);
  const std::string work_dir =
      args.out_dir + "/stores-" + std::to_string(static_cast<long long>(getpid()));

  const int64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  auto account = [&](RoundResult r, const char* kind) {
    std::fprintf(stderr, "okbench: %s round %zu: setup %.3f ms, %llu conns in %.3f s\n", kind,
                 untraced.size() + traced.size(), r.setup_s * 1e3,
                 (unsigned long long)r.completed, r.measured_s);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "okbench: %s round %zu: %s\n", kind,
                   untraced.size() + traced.size(), e.c_str());
    }
    const RoundResult& first = untraced.empty() ? r : untraced.front();
    const std::string mismatch = CountMismatches(first, r);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "okbench: %s round counts differ from the first round:%s\n",
                   kind, mismatch.c_str());
      correct = false;
    }
    return r;
  };

  double longest = 0;
  for (;;) {
    const double round_start = elapsed();
    untraced.push_back(account(RunRound(spec, args.seed, work_dir, ""), "untraced"));
    if (args.trace == 1) {
      const std::string csv = args.out_dir + "/spans-" + spec.name + ".csv";
      traced.push_back(account(RunRound(spec, args.seed, work_dir, csv), "traced"));
    }
    longest = std::max(longest, elapsed() - round_start);
    const size_t done = untraced.size();
    const bool enough = elapsed() >= args.seconds &&
                        (args.trace == 1 || done >= static_cast<size_t>(kMinRounds));
    if (enough || elapsed() + longest > kDeadlineSeconds || failed > 0) {
      break;
    }
  }
  std::vector<double> setups;
  for (const RoundResult& r : untraced) {
    setups.push_back(r.setup_s);
  }
  double longest_setup = 0;
  while (args.trace == 0 && failed == 0 && setups.size() < kMinSetups &&
         elapsed() + longest_setup < kDeadlineSeconds) {
    const double setup_start = elapsed();
    const RoundResult r = RunRound(spec, args.seed, work_dir, "", /*setup_only=*/true);
    failed += r.failed;
    setups.push_back(r.setup_s);
    longest_setup = std::max(longest_setup, elapsed() - setup_start);
  }
  correct = correct && failed == 0;

  // A round whose process died reports no counts; there is nothing to
  // compute metrics from then.
  const bool have_counts = !untraced.front().counts.empty() &&
                           (args.trace == 0 || !traced.front().counts.empty());
  correct = correct && have_counts;
  std::vector<Metric> metrics;
  if (have_counts) {
    metrics = args.trace == 0 ? EndToEnd(spec, untraced, setups, attempted, failed)
                              : PerLayer(untraced, traced);
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "okbench: %s seed %llu: %zu rounds in %.1f s, %s\n", spec.name.c_str(),
               (unsigned long long)args.seed, untraced.size() + traced.size(), elapsed(),
               correct ? "all checks passed" : "CHECKS FAILED");
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace okbench

int main(int argc, char** argv) {
  const int round = okbench::RoundMain(argc, argv);
  return round >= 0 ? round : okbench::Main(argc, argv);
}
