#include "okbench/okbench_workloads.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <sstream>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/db/dbproxy.h"
#include "src/kernel/label_checks.h"
#include "src/kernel/memstats.h"
#include "src/kernel/payload.h"
#include "src/labels/intern.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"
#include "src/okws/demux.h"
#include "src/okws/idd.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/replication/link.h"
#include "src/store/store.h"

namespace okbench {

using namespace asbestos;  // NOLINT(build/namespaces): the benchmark spans the library

namespace {

constexpr uint16_t kDbproxyReplPort = 7102;
constexpr uint16_t kFollowerPort = 7202;
constexpr int kMaxSyncPumps = 20000;
constexpr size_t kMaxErrors = 5;

std::string UserName(uint64_t u) { return StrFormat("user%05llu", (unsigned long long)u); }
std::string UserPass(uint64_t u) { return StrFormat("pw%05llu", (unsigned long long)u); }

// --- Seeded request script ----------------------------------------------------

enum class Op : uint8_t { kEcho, kAdd, kList };

struct Item {
  uint32_t user = 0;
  Op op = Op::kEcho;
  uint32_t arg = 0;  // echo: body length; add: note index
};

struct Script {
  std::vector<Item> items;
  std::vector<std::string> notes;  // note texts by index
};

void Shuffle(std::vector<uint32_t>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBelow(i)]);
  }
}

// Pass-major user order (every pass is a fresh permutation of the users),
// so each user's first request is its login and later ones resume it.
Script MakeScript(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(seed);
  Script s;
  s.items.reserve(spec.requests);
  std::vector<uint32_t> order(spec.users);
  for (uint32_t u = 0; u < spec.users; ++u) {
    order[u] = u;
  }
  while (s.items.size() < spec.requests) {
    Shuffle(&order, &rng);
    for (uint32_t u : order) {
      if (s.items.size() == spec.requests) {
        break;
      }
      Item it;
      it.user = u;
      s.items.push_back(it);
    }
  }
  if (spec.service == Service::kEcho) {
    for (Item& it : s.items) {
      it.arg = static_cast<uint32_t>(rng.NextInRange(8, 64));
    }
    return s;
  }
  // Notes: exactly one add in every block of four requests, at a seeded
  // position, so the table grows at the same steady rate under every seed
  // and no seed bunches the adds together.
  std::vector<bool> is_add(s.items.size(), false);
  for (size_t block = 0; block + 4 <= is_add.size(); block += 4) {
    is_add[block + rng.NextBelow(4)] = true;
  }
  for (size_t i = 0; i < s.items.size(); ++i) {
    Item& it = s.items[i];
    if (!is_add[i]) {
      it.op = Op::kList;
      continue;
    }
    it.op = Op::kAdd;
    it.arg = static_cast<uint32_t>(s.notes.size());
    s.notes.push_back(StrFormat("u%un%zu%08llx", it.user, s.notes.size(),
                                (unsigned long long)(rng.Next() & 0xffffffffULL)));
  }
  return s;
}

// --- Counter snapshot (deltas over the measured phase) -------------------------

struct Snapshot {
  KernelStats kernel;
  LabelWorkStats work;
  LabelInternStats intern;
  PayloadStats payload;
  LabelCheckCacheStats check_cache;
  SessionParkStats park;
  uint64_t now = 0;
  uint64_t component[kComponentCount] = {};
};

Snapshot TakeSnapshot(const Kernel& kernel) {
  Snapshot s;
  s.kernel = kernel.stats();
  s.work = GetLabelWorkStats();
  s.intern = GetLabelInternStats();
  s.payload = GetPayloadStats();
  s.check_cache = GetLabelCheckCacheStats();
  s.park = GetSessionParkStats();
  const CycleAccounting& acct = GetCycleAccounting();
  s.now = acct.now();
  for (int c = 0; c < kComponentCount; ++c) {
    s.component[c] = acct.total(static_cast<Component>(c));
  }
  return s;
}

double Registry(const char* name) {
  return static_cast<double>(obs::Registry::Get().counter(name).value());
}

// Each round starts from the same global state, so a round's counts depend
// only on its seed: cycle clock, label work, intern and payload counters,
// the check cache and the metrics registry are process-wide singletons.
void ResetGlobals(const WorkloadSpec& spec) {
  GetCycleAccounting().Reset();
  ResetLabelWorkStats();
  ResetLabelInternStats();
  ResetPayloadStats();
  ResetLabelCheckCache();
  obs::ResetAll();
  SetScaleAccountingEnabled(spec.park_idle_sessions);
}

// WAL bytes appended by the primary's stores. Compaction truncates a log,
// so growth is accumulated pump by pump and a compaction restarts the base.
class WalMeter {
 public:
  void Add(const DurableStore* s) {
    if (s != nullptr) {
      stores_.push_back(s);
      last_.push_back(s->wal_bytes());
      compactions_.push_back(s->compactions());
    }
  }
  void Sample() {
    for (size_t i = 0; i < stores_.size(); ++i) {
      const uint64_t bytes = stores_[i]->wal_bytes();
      const uint64_t comp = stores_[i]->compactions();
      if (comp != compactions_[i]) {
        appended_ += bytes;
      } else if (bytes > last_[i]) {
        appended_ += bytes - last_[i];
      }
      last_[i] = bytes;
      compactions_[i] = comp;
    }
  }
  uint64_t appended() const { return appended_; }

 private:
  std::vector<const DurableStore*> stores_;
  std::vector<uint64_t> last_;
  std::vector<uint64_t> compactions_;
  uint64_t appended_ = 0;
};

// Commits the file system's pending metadata (a directory fsync commits the
// journal), so the creates and deletes of earlier work do not land in the
// next timed phase of a durable round.
void FlushDirectory(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
}

template <typename T>
T* CodeAs(Kernel& kernel, const char* name) {
  Process* p = kernel.FindProcessByName(name);
  return p == nullptr ? nullptr : dynamic_cast<T*>(p->code.get());
}

bool SameRecord(const StoreRecord& a, const StoreRecord& b) {
  return a.value == b.value && a.secrecy.Entries() == b.secrecy.Entries() &&
         a.secrecy.default_level() == b.secrecy.default_level() &&
         a.integrity.Entries() == b.integrity.Entries() &&
         a.integrity.default_level() == b.integrity.default_level();
}

// Layer bucket of a span name (see BENCHMARK.json's layer map).
std::string LayerOf(const std::string& span) {
  if (span == "pump") {
    return "kernel.pump_self";
  }
  if (span == "client.step") {
    return "net.client";
  }
  if (span == "link.step" || span == "follower.pump") {
    return "replication.follower";
  }
  const size_t dot = span.rfind('.');
  const std::string proc = span.substr(0, dot);
  const std::string call = span.substr(dot + 1);
  if (call == "idle" && (proc == "idd" || proc == "demux" || proc == "dbproxy")) {
    return "store.on_idle";
  }
  if (call == "handle") {
    if (proc == "netd") {
      return "net.netd";
    }
    if (proc == "demux" || proc == "idd") {
      return "okws." + proc;
    }
    if (proc.rfind("worker-", 0) == 0) {
      return "okws.worker";
    }
    if (proc == "dbproxy") {
      return "db.dbproxy";
    }
  }
  return "okws.other";
}

// Host peak resident set of this process, MiB.
double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

RoundResult RunRoundInProcess(const WorkloadSpec& spec, uint64_t seed,
                              const std::string& work_dir, SpanRecorder* rec, bool setup_only) {
  RoundResult r;
  const Script script = MakeScript(spec, seed);
  auto fail = [&r](std::string msg) {
    ++r.failed;
    if (r.errors.size() < kMaxErrors) {
      r.errors.push_back(std::move(msg));
    }
  };
  ResetGlobals(spec);
  std::filesystem::remove_all(work_dir);
  if (spec.durable) {
    FlushDirectory(std::filesystem::path(work_dir).parent_path().string());
  }

  // --- Setup: boot, seed users, first follower sync --------------------------
  const int64_t setup_start = NowNs();
  OkwsWorldConfig config;
  config.users.reserve(spec.users);
  for (uint64_t u = 0; u < spec.users; ++u) {
    config.users.push_back({UserName(u), UserPass(u)});
  }
  WorkerOptions worker;
  worker.park_idle_sessions = spec.park_idle_sessions;
  if (spec.service == Service::kEcho) {
    config.services.push_back(
        {"echo", [] { return std::make_unique<EchoService>(); }, false, worker});
  } else {
    config.services.push_back(
        {"notes", [] { return std::make_unique<NotesService>(); }, false, worker});
    config.extra_tables.push_back(NotesService::kTableSql);
  }
  if (spec.durable) {
    std::filesystem::create_directories(work_dir);
    config.idd_options.store_dir = work_dir + "/idd";
    config.demux_options.store_dir = work_dir + "/demux";
    config.dbproxy_options.store_dir = work_dir + "/dbproxy";
    config.dbproxy_options.replication.listen_tcp_port = kDbproxyReplPort;
  }
  auto world = std::make_unique<OkwsWorld>(std::move(config));
  world->PumpUntilReady();
  Kernel& kernel = world->kernel();
  kernel.SetScaleUserCount(spec.users);

  // Typed views, taken before any wrapping hides the concrete classes.
  const auto* idd = CodeAs<IddProcess>(kernel, "idd");
  const auto* demux = CodeAs<DemuxProcess>(kernel, "demux");
  const auto* dbproxy = CodeAs<DbproxyProcess>(kernel, "dbproxy");

  std::unique_ptr<FollowerWorld> follower;
  std::unique_ptr<ReplicationLink> link;
  auto synced = [&] {
    return dbproxy->replication() != nullptr && dbproxy->replication()->hub()->AllFullySynced();
  };
  if (spec.durable) {
    follower = std::make_unique<FollowerWorld>(
        0x3333, kFollowerPort, StoreOptions{work_dir + "/dbproxy-replica", 4, 1024, 4});
    link = std::make_unique<ReplicationLink>(&world->net(), kDbproxyReplPort, &follower->net(),
                                             kFollowerPort);
    for (int i = 0; i < kMaxSyncPumps && !(link->connected() && synced()); ++i) {
      link->Step();
      world->Pump();
      follower->Pump();
    }
    if (!synced()) {
      fail("follower never completed its first sync");
    }
  }

  uint32_t pump_id = 0;
  uint32_t client_id = 0;
  uint32_t link_id = 0;
  uint32_t follower_id = 0;
  if (rec != nullptr) {
    const std::string service = spec.service == Service::kEcho ? "echo" : "notes";
    const std::vector<std::string> processes = {"netd", "launcher", "demux",
                                                "idd",  "dbproxy",  "worker-" + service};
    for (const std::string& name : processes) {
      if (!WrapProcess(kernel, name, rec)) {
        fail("no process named " + name + " to trace");
      }
    }
    pump_id = rec->NameId("pump");
    client_id = rec->NameId("client.step");
    link_id = rec->NameId("link.step");
    follower_id = rec->NameId("follower.pump");
  }
  r.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  if (setup_only) {
    link.reset();
    follower.reset();
    world.reset();
    SetScaleAccountingEnabled(false);
    std::filesystem::remove_all(work_dir);
    return r;
  }

  // --- Baselines: every "/conn" ratio covers the measured phase only ---------
  if (spec.durable) {
    FlushDirectory(work_dir);
  }
  obs::ResetAll();
  const Snapshot base = TakeSnapshot(kernel);
  WalMeter wal;
  if (spec.durable) {
    wal.Add(idd->store());
    wal.Add(demux->store());
    wal.Add(dbproxy->store());
  }

  // --- Measured phase: closed loop, one request per user in flight -----------
  HttpLoadClient client(&world->net(), 80, kConcurrency);
  const std::string target = spec.service == Service::kEcho ? "/echo" : "/notes";
  std::deque<uint32_t> pending(script.items.size());
  for (uint32_t i = 0; i < pending.size(); ++i) {
    pending[i] = i;
  }
  std::vector<bool> busy(spec.users, false);
  std::vector<std::string> user_notes(spec.users);  // a user's expected list body
  std::vector<std::string> expected(script.items.size());
  uint64_t issued = 0;
  size_t seen = 0;
  bool stop_feeding = false;
  auto feed = [&] {
    while (!stop_feeding && !pending.empty() &&
           issued - client.results().size() - client.failures() < kConcurrency) {
      auto pick = pending.begin();
      while (pick != pending.end() && busy[script.items[*pick].user]) {
        ++pick;
      }
      if (pick == pending.end()) {
        return;  // every remaining user is in flight
      }
      const uint32_t idx = *pick;
      pending.erase(pick);
      const Item& it = script.items[idx];
      busy[it.user] = true;
      std::string url = target;
      switch (it.op) {
        case Op::kEcho:
          url += StrFormat("?n=%u", it.arg);
          expected[idx] = std::string(it.arg, 'x');
          break;
        case Op::kAdd:
          url += "?op=add&text=" + script.notes[it.arg];
          expected[idx] = "added 1";
          user_notes[it.user] += script.notes[it.arg] + "\n";
          break;
        case Op::kList:
          url += "?op=list";
          expected[idx] = user_notes[it.user];
          break;
      }
      client.Enqueue(OkwsWorld::MakeRequest(url, UserName(it.user), UserPass(it.user)), idx);
      ++issued;
    }
  };

  const int64_t measure_start = NowNs();
  feed();
  uint64_t last_progress = ~0ULL;
  int stagnant = 0;
  while (!client.idle()) {
    if (rec != nullptr) {
      {
        ScopedSpan s(rec, client_id);
        client.Step();
      }
      {
        ScopedSpan s(rec, pump_id);
        world->Pump();
      }
      if (link != nullptr) {
        {
          ScopedSpan s(rec, link_id);
          link->Step();
        }
        ScopedSpan s(rec, follower_id);
        follower->Pump();
      }
    } else {
      client.Step();
      world->Pump();
      if (link != nullptr) {
        link->Step();
        follower->Pump();
      }
    }
    wal.Sample();
    auto& results = client.results();
    for (; seen < results.size(); ++seen) {
      HttpLoadClient::Result& res = results[seen];
      busy[script.items[res.tag].user] = false;
      if (res.status != 200 || res.body != expected[res.tag]) {
        fail(StrFormat("request %llu (user %u): status %d, body of %zu bytes, expected %zu",
                       (unsigned long long)res.tag, script.items[res.tag].user, res.status,
                       res.body.size(), expected[res.tag].size()));
      }
      res.body.clear();
    }
    if (client.failures() > 0) {
      stop_feeding = true;  // a dropped connection's user can never be freed
    }
    feed();
    const uint64_t progress = kernel.stats().deliveries + results.size() + client.failures();
    if (progress == last_progress) {
      if (++stagnant > 1000) {
        break;
      }
    } else {
      stagnant = 0;
      last_progress = progress;
    }
  }
  const int64_t measure_end = NowNs();
  r.measured_s = static_cast<double>(measure_end - measure_start) / 1e9;
  r.attempted = script.items.size();
  r.completed = client.results().size();
  if (client.failures() > 0) {
    fail(StrFormat("%llu connections failed", (unsigned long long)client.failures()));
  }
  if (r.completed + client.failures() != r.attempted) {
    fail(StrFormat("%llu of %llu requests unanswered",
                   (unsigned long long)(r.attempted - r.completed - client.failures()),
                   (unsigned long long)r.attempted));
  }
  // login_5k exists to resume every user once from a parked record.
  const uint64_t resumes = GetSessionParkStats().resumes;
  if (spec.park_idle_sessions && spec.requests >= 2 * spec.users && resumes < spec.users) {
    fail(StrFormat("%llu parked sessions resumed, expected at least %llu",
                   (unsigned long long)resumes, (unsigned long long)spec.users));
  }

  // --- Deterministic counts of the measured phase ------------------------------
  const Snapshot end = TakeSnapshot(kernel);
  auto& c = r.counts;
  c["completed"] = static_cast<double>(r.completed);
  c["cycles.elapsed"] = static_cast<double>(end.now - base.now);
  const char* component_names[kComponentCount] = {"okws", "network", "kernel_ipc", "okdb",
                                                  "other"};
  for (int i = 0; i < kComponentCount; ++i) {
    c[std::string("cycles.") + component_names[i]] =
        static_cast<double>(end.component[i] - base.component[i]);
  }
  std::vector<uint64_t> lat;
  lat.reserve(client.results().size());
  for (const auto& res : client.results()) {
    lat.push_back(res.end_cycles - res.start_cycles);
  }
  std::sort(lat.begin(), lat.end());
  if (!PercentileSupported(lat.size(), 0.99)) {
    fail(StrFormat("%zu latency samples cannot carry a p99", lat.size()));
  }
  c["latency.p50_cycles"] = static_cast<double>(Percentile(lat, 0.50));
  c["latency.p99_cycles"] = static_cast<double>(Percentile(lat, 0.99));
  c["mem.total_bytes"] = static_cast<double>(kernel.MemReport().total_bytes());
  c["kernel.sends"] = static_cast<double>(end.kernel.sends - base.kernel.sends);
  c["kernel.deliveries"] = static_cast<double>(end.kernel.deliveries - base.kernel.deliveries);
  c["kernel.drops_label_check"] =
      static_cast<double>(end.kernel.drops_label_check - base.kernel.drops_label_check);
  c["kernel.check_cache_hits"] =
      static_cast<double>(end.check_cache.hits - base.check_cache.hits);
  c["kernel.check_cache_misses"] =
      static_cast<double>(end.check_cache.misses - base.check_cache.misses);
  c["kernel.payload_cow_bytes"] =
      static_cast<double>(end.payload.cow_bytes_copied - base.payload.cow_bytes_copied);
  c["labels.ops"] = static_cast<double>(end.work.ops - base.work.ops);
  c["labels.entries_visited"] =
      static_cast<double>(end.work.entries_visited - base.work.entries_visited);
  c["labels.fast_path_hits"] =
      static_cast<double>(end.work.fast_path_hits - base.work.fast_path_hits);
  c["labels.intern_probes"] = static_cast<double>(end.intern.probes - base.intern.probes);
  c["labels.intern_hits"] = static_cast<double>(end.intern.hits - base.intern.hits);
  c["okws.session_parks"] = static_cast<double>(end.park.parks - base.park.parks);
  c["okws.session_resumes"] = static_cast<double>(end.park.resumes - base.park.resumes);
  c["pump.batches"] = Registry("pump.batches");
  c["netd.write_bytes"] = Registry("netd.write_bytes");
  c["store.wal_bytes"] = static_cast<double>(wal.appended());
  c["store.wal_syncs"] = Registry("store.wal_syncs");
  c["store.sync_calls"] = Registry("store.sync_calls") + Registry("store.sync_pipelined_calls");
  c["repl.bytes_shipped"] = Registry("repl.bytes_shipped");
  c["repl.batches_shipped"] = Registry("repl.batches_shipped");
  c["repl.frame_cache_hits"] = Registry("repl.frame_cache.hits");
  c["repl.frame_cache_misses"] = Registry("repl.frame_cache.misses");
  c["repl.rewinds"] = Registry("repl.rewinds");

  // --- Traced: host time per layer, from the measured phase's spans ----------
  if (rec != nullptr) {
    const std::vector<Span>& spans = rec->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string& name = rec->names()[spans[i].name];
      const std::string layer = LayerOf(name);
      r.host_ns[layer] += static_cast<double>(self[i]);
      if (name.size() > 7 && name.compare(name.size() - 7, 7, ".handle") == 0) {
        r.calls[layer] += 1;
      }
      if (spans[i].parent < 0) {
        r.root_span_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
    }
  }

  // --- After the run, outside the timed phase: drain replication and compare -
  if (spec.durable) {
    for (int i = 0; i < kMaxSyncPumps && !synced(); ++i) {
      link->Step();
      world->Pump();
      follower->Pump();
    }
    const DurableStore* primary = dbproxy->store();
    const DurableStore* replica = follower->follower()->replica()->store();
    if (!synced()) {
      fail("replication did not drain after the run");
    } else if (replica->size() != primary->size()) {
      fail(StrFormat("follower holds %zu records, primary %zu", replica->size(),
                     primary->size()));
    } else {
      uint64_t mismatched = 0;
      primary->ForEach([&](const std::string& key, const StoreRecord& want) {
        const StoreRecord* got = replica->Get(key);
        if (got == nullptr || !SameRecord(*got, want)) {
          ++mismatched;
        }
      });
      if (mismatched > 0) {
        fail(StrFormat("%llu follower records differ from the primary's",
                       (unsigned long long)mismatched));
      }
    }
  }

  link.reset();
  follower.reset();
  world.reset();
  SetScaleAccountingEnabled(false);
  std::filesystem::remove_all(work_dir);
  return r;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> w = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec echo;
    echo.name = "echo_hot";
    echo.users = 64;
    echo.requests = 4096;
    v.push_back(echo);

    WorkloadSpec login;
    login.name = "login_5k";
    login.users = 5000;
    login.requests = 10000;  // one login and one resume per user
    login.park_idle_sessions = true;
    v.push_back(login);

    WorkloadSpec notes;
    notes.name = "notes_durable";
    notes.service = Service::kNotes;
    notes.users = 256;
    // dbproxy rewrites a table's whole row image per insert, so WAL bytes
    // grow with the square of the adds. 1024 requests (256 adds) keep a
    // round near 1 MB of WAL and half a second of host time, so a run holds
    // dozens of rounds, and still carry a p99 (10 samples beyond it).
    notes.requests = 1024;
    notes.durable = true;
    v.push_back(notes);
    return v;
  }();
  return w;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string Serialize(const RoundResult& r) {
  std::string out;
  auto line = [&out](const char* kind, const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.17g\n", value);
    out += kind;
    out += ' ';
    out += key;
    out += buf;
  };
  line("scalar", "attempted", static_cast<double>(r.attempted));
  line("scalar", "failed", static_cast<double>(r.failed));
  line("scalar", "setup_s", r.setup_s);
  line("scalar", "measured_s", r.measured_s);
  line("scalar", "completed", static_cast<double>(r.completed));
  line("scalar", "root_span_ns", r.root_span_ns);
  line("scalar", "peak_rss_mb", r.peak_rss_mb);
  for (const auto& [k, v] : r.counts) {
    line("count", k, v);
  }
  for (const auto& [k, v] : r.host_ns) {
    line("host_ns", k, v);
  }
  for (const auto& [k, v] : r.calls) {
    line("calls", k, v);
  }
  for (const std::string& e : r.errors) {
    std::string flat = e;
    std::replace(flat.begin(), flat.end(), '\n', ' ');
    out += "error " + flat + "\n";
  }
  return out;
}

RoundResult Deserialize(const std::string& text) {
  RoundResult r;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "error") {
      std::string rest;
      std::getline(in, rest);
      r.errors.push_back(rest.empty() ? rest : rest.substr(1));
      continue;
    }
    std::string key;
    double value = 0;
    in >> key >> value;
    if (kind == "count") {
      r.counts[key] = value;
    } else if (kind == "host_ns") {
      r.host_ns[key] = value;
    } else if (kind == "calls") {
      r.calls[key] = value;
    } else if (key == "attempted") {
      r.attempted = static_cast<uint64_t>(value);
    } else if (key == "failed") {
      r.failed = static_cast<uint64_t>(value);
    } else if (key == "setup_s") {
      r.setup_s = value;
    } else if (key == "measured_s") {
      r.measured_s = value;
    } else if (key == "completed") {
      r.completed = static_cast<uint64_t>(value);
    } else if (key == "root_span_ns") {
      r.root_span_ns = value;
    } else if (key == "peak_rss_mb") {
      r.peak_rss_mb = value;
    }
  }
  return r;
}

namespace {

// The child's end of the result pipe.
constexpr int kResultFd = 3;
constexpr char kRoundFlag[] = "--round";

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, const std::string& work_dir,
                     const std::string& spans_csv, bool setup_only) {
  RoundResult failed;
  failed.attempted = setup_only ? 0 : spec.requests;
  failed.failed = setup_only ? 1 : spec.requests;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.errors.push_back("pipe failed");
    return failed;
  }
  // The child re-executes this program, so every round also gets a fresh
  // address-space layout instead of inheriting the parent's.
  const std::vector<std::string> args = {
      "okbench-round",         kRoundFlag,
      spec.name,               std::to_string(spec.users),
      std::to_string(spec.requests), std::to_string(seed),
      work_dir,                spans_csv.empty() ? "-" : spans_csv,
      setup_only ? "1" : "0"};
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  std::fflush(nullptr);  // the child must not re-flush the parent's buffers
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    if (dup2(fds[1], kResultFd) < 0) {
      _exit(126);
    }
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string blob;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    blob.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    failed.errors.push_back(StrFormat("round process failed (status %d)", status));
    std::filesystem::remove_all(work_dir);
    return failed;
  }
  return Deserialize(blob);
}

int RoundMain(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) != kRoundFlag) {
    return -1;
  }
  if (argc != 9 || FindWorkload(argv[2]) == nullptr) {
    return 2;
  }
  WorkloadSpec spec = *FindWorkload(argv[2]);
  spec.users = std::strtoull(argv[3], nullptr, 10);
  spec.requests = std::strtoull(argv[4], nullptr, 10);
  const uint64_t seed = std::strtoull(argv[5], nullptr, 10);
  const std::string work_dir = argv[6];
  const std::string spans_csv = std::string(argv[7]) == "-" ? "" : argv[7];
  const bool setup_only = std::string(argv[8]) == "1";

  // One untimed boot first, so the timed set-up does not pay the fresh
  // process's first heap page faults. Every round does the same, so rounds
  // stay identical.
  RunRoundInProcess(spec, seed, work_dir, nullptr, /*setup_only=*/true);
  SpanRecorder rec;
  RoundResult r =
      RunRoundInProcess(spec, seed, work_dir, spans_csv.empty() ? nullptr : &rec, setup_only);
  if (!spans_csv.empty() && !rec.WriteCsv(spans_csv)) {
    r.errors.push_back("cannot write " + spans_csv);
    ++r.failed;
  }
  r.peak_rss_mb = PeakRssMb();
  const std::string blob = Serialize(r);
  size_t off = 0;
  while (off < blob.size()) {
    const ssize_t written = write(kResultFd, blob.data() + off, blob.size() - off);
    if (written <= 0) {
      return 3;
    }
    off += static_cast<size_t>(written);
  }
  return 0;
}

}  // namespace okbench
