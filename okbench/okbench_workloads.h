// The benchmark's three OKWS traffic mixes and one measured round of each.
//
// A round boots a fresh OkwsWorld (plus, for notes_durable, a FollowerWorld
// fed by a ReplicationLink), drives a seeded request script through a
// closed loop of 16 simulated clients from one thread, checks every
// response, and reports the round's host times and its deterministic
// counts (charged cycles, kernel/label/store/replication counters). A traced
// round wraps every OKWS process's code in a TracedCode and times each
// pump, client step, link step and follower pump as one span.
#ifndef OKBENCH_OKBENCH_WORKLOADS_H_
#define OKBENCH_OKBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "okbench/okbench_trace.h"

namespace okbench {

enum class Service { kEcho, kNotes };

struct WorkloadSpec {
  std::string name;
  Service service = Service::kEcho;
  uint64_t users = 0;
  uint64_t requests = 0;  // per round
  // Parked idle sessions, with the dense per-user accounting bench_scale
  // pairs with them.
  bool park_idle_sessions = false;
  // idd, demux and dbproxy on durable stores; dbproxy's table store
  // replicated to one follower machine.
  bool durable = false;
};

constexpr int kConcurrency = 16;  // the paper's client concurrency

// echo_hot, login_5k, notes_durable.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RoundResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;                // wrong or missing responses
  std::vector<std::string> errors;    // the first few, for stderr
  double setup_s = 0;                 // boot, seeding, follower's first sync
  double measured_s = 0;              // host seconds of the closed loop
  uint64_t completed = 0;             // connections completed
  // Every deterministic quantity of the measured phase, by name. Two rounds
  // of one seed must agree on all of them exactly, traced or not.
  std::map<std::string, double> counts;
  // Traced rounds only: host nanoseconds of the measured phase per layer
  // bucket (self times; they sum to the spans' root time), and call counts.
  std::map<std::string, double> host_ns;
  std::map<std::string, double> calls;
  double root_span_ns = 0;
  double peak_rss_mb = 0;  // host peak resident set of the round's process
};

// Runs one round in a child process and returns its result. `work_dir`
// holds the round's temporary store directories (created and removed by the
// round). A non-empty `spans_csv` traces the round and writes its spans
// there. `setup_only` stops once the set-up is timed: no requests are
// attempted.
//
// A fresh process per round is what makes a round depend on its seed
// alone: the simulator keeps process-wide sequences no reset reaches (trace
// ids and label rep ids). Trace ids ride replication frames as varints, so
// their width changes wire bytes and charged cycles; rep ids key the check
// cache, so they change its hit count. The child re-executes the calling
// program, whose main() must first hand its arguments to RoundMain.
RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, const std::string& work_dir,
                     const std::string& spans_csv, bool setup_only = false);

// The child side of RunRound: when argv is a round invocation, runs the
// round, writes its result to the parent and returns the exit code;
// otherwise returns -1.
int RoundMain(int argc, char** argv);

// The child-to-parent encoding of a RoundResult: one "kind key value" line
// per field.
std::string Serialize(const RoundResult& r);
RoundResult Deserialize(const std::string& text);

}  // namespace okbench

#endif  // OKBENCH_OKBENCH_WORKLOADS_H_
