// odebench: one round of one benchmark workload against the event engine.
//
// A round is: set up the system from nothing (timed: setup_s), a closed-loop
// saturation phase (events_per_s), a fixed-rate open-loop phase (latencies,
// each timed from the post's due time), and output checks against values
// the generator computes apart from the program. perfbench/run.py repeats
// rounds for the run length and aggregates them; README.md documents the
// workloads, metrics and checks.
//
//   odebench --workload objects|class-seq|net-durable --seed N
//            [--trace 0|1] [--spans FILE] [--smoke] [--contended]
//            [--daemon PATH] [--work-dir DIR]
//
// --smoke shrinks the round to seconds. --contended (class-seq only) puts
// the class-scope triggers on the hot set instead of the ticks, to
// reproduce the class-event fault described in README.md. Prints one JSON
// object on stdout. With --trace 1 the round also records
// spans (written to --spans), times each layer's public entry point in a
// one-thread replay over the same generated inputs, and prints a layer
// self-time summary on stderr.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile/compiler.h"
#include "lang/event_parser.h"
#include "lang/mask_parser.h"
#include "mask/mask_eval.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ode/database.h"
#include "runtime/ingest_runtime.h"
#include "wal/log_writer.h"

extern char** environ;

namespace {

using ode::ActionContext;
using ode::Oid;
using ode::Status;
using ode::Value;

// ---------------------------------------------------------------------------
// Small utilities

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The net-durable daemon child, killed by Die so no exit path leaves it.
std::atomic<pid_t> g_daemon_pid{-1};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "odebench: %s\n", what.c_str());
  pid_t pid = g_daemon_pid.exchange(-1);
  if (pid > 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::_Exit(1);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Take(ode::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// splitmix64: the generator's only source of randomness, seeded by --seed.
struct Rng {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
};

/// Linear-interpolated percentile (p in [0,100]); sorts `v` in place.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double pos = p / 100.0 * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (pos - static_cast<double>(lo));
}

/// x / n, or 0 when nothing was counted.
double Ratio(double x, double n) { return n > 0 ? x / n : 0; }

/// kB fields of /proc/<pid>/status ("VmRSS", "VmHWM").
uint64_t ProcStatusKb(pid_t pid, const char* field) {
  std::string path = pid == 0 ? "/proc/self/status"
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// utime + stime of another process, from /proc/<pid>/stat.
double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  size_t close = all.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(all.substr(close + 2));
  std::string f;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14 || i == 15) ticks += std::strtod(f.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A JSON object built field by field, numbers printed with all digits.
class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(k, buf);
  }
  void Bool(const std::string& k, bool v) { Raw(k, v ? "true" : "false"); }
  void Str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    Raw(k, q + "\"");
  }
  void Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Workload inputs

enum class Workload { kObjects, kClassSeq, kNetDurable };

/// Round sizes. The fixed rates sit well below saturation on the reference
/// host (README.md), so the open loop measures latency, not backlog.
struct Sizes {
  size_t objects = 0;  ///< Objects with per-object triggers (hot set).
  size_t sat_events = 0;
  size_t fix_events = 0;
  double rate = 0;  ///< Offered rate of the fixed-rate phase, events/s.
  size_t connections = 1;
  /// class-seq: objects of class `tick`, which carries the class-scope
  /// triggers. Every other post goes to a tick, and a tick gets at most one
  /// post per phase (see Generate).
  size_t ticks = 0;
};

Sizes SizesFor(Workload w, bool smoke, bool contended) {
  Sizes s;
  size_t cpus = std::max<size_t>(1, std::thread::hardware_concurrency());
  switch (w) {
    case Workload::kObjects:
      s = {4096, 150000, 30000, 20000, 1};
      break;
    case Workload::kClassSeq:
      s = {32, 100000, 22500, 15000, 1};
      break;
    case Workload::kNetDurable:
      s = {8192, 150000, 30000, 20000, std::min<size_t>(4, cpus)};
      break;
  }
  if (smoke) {
    s.sat_events = 6000;
    s.fix_events = 2000;
    s.rate = 4000;
  }
  if (w == Workload::kClassSeq && !contended) {
    s.ticks = (std::max(s.sat_events, s.fix_events) + 1) / 2;
  }
  return s;
}

/// One generated operation on object index `obj` (hot-set objects first,
/// then ticks). `peek` posts only occur on net-durable.
struct Op {
  uint32_t obj;
  int32_t d;
  bool peek;
};

std::vector<Op> Generate(Workload w, const Sizes& sz, uint64_t seed) {
  Rng rng{seed * 0x2545f4914f6cdd1dull + 17};
  size_t n = sz.sat_events + sz.fix_events;
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    if (w == Workload::kNetDurable) {
      // Skewed keys: index = floor(K * u^3), so the hottest 1% of cells
      // take about 22% of the posts. One post in five is a read.
      double u = rng.Uniform();
      op.obj = std::min<uint32_t>(
          static_cast<uint32_t>(sz.objects - 1),
          static_cast<uint32_t>(static_cast<double>(sz.objects) * u * u * u));
      op.peek = rng.Below(5) == 0;
    } else if (sz.ticks != 0 && i % 2 == 1) {
      // A tick's class firing locks the tick; since no later batch of the
      // phase posts to it, firings never contend with shard batches.
      size_t phase_pos = i < sz.sat_events ? i : i - sz.sat_events;
      op.obj = static_cast<uint32_t>(sz.objects + phase_pos / 2);
      op.peek = false;
    } else {
      op.obj = rng.Below(static_cast<uint32_t>(sz.objects));
      op.peek = false;
    }
    op.d = static_cast<int32_t>(rng.Below(100)) + 1;
  }
  return ops;
}

/// What the program's outputs must be, computed from the inputs alone:
/// per object, the sum of `d`, the number of adds, and of adds with d > 90.
struct Expected {
  std::vector<int64_t> sum_d, adds, big;
};

Expected ComputeExpected(const std::vector<Op>& ops, size_t objects) {
  Expected e;
  e.sum_d.assign(objects, 0);
  e.adds.assign(objects, 0);
  e.big.assign(objects, 0);
  for (const Op& op : ops) {
    if (op.peek) continue;
    e.sum_d[op.obj] += op.d;
    ++e.adds[op.obj];
    if (op.d > 90) ++e.big[op.obj];
  }
  return e;
}

// ---------------------------------------------------------------------------
// In-process schema, with the benchmark's latency stamps

using StampArray = std::unique_ptr<std::atomic<int64_t>[]>;

StampArray NewStamps(size_t n) {
  StampArray a(new std::atomic<int64_t>[n]);
  for (size_t i = 0; i < n; ++i) a[i].store(0, std::memory_order_relaxed);
  return a;
}

/// Clock stamps written by the method body and the actions, indexed by
/// the event id the generator passes as `add`'s second argument. Written
/// on worker threads, read by the main thread after the drain barriers.
/// The `*_end` arrays exist only in traced rounds (span ends).
struct Stamps {
  size_t n = 0;
  bool trace = false;
  uint64_t oid_base = 0;
  StampArray apply, fire3, fire90, cfire5, cfire90, commit;
  StampArray apply_end, fire3_end, fire90_end, cfire5_end, cfire90_end,
      commit_end;
  /// Event ids of each object in posting order, and how many of them the
  /// commit observer has seen committed.
  std::vector<std::vector<uint32_t>> obj_events;
  std::unique_ptr<std::atomic<int64_t>[]> committed;
  std::atomic<uint64_t> commit_claims{0};

  Stamps(size_t events, size_t objects, bool traced)
      : n(events), trace(traced) {
    apply = NewStamps(n);
    fire3 = NewStamps(n);
    fire90 = NewStamps(n);
    cfire5 = NewStamps(n);
    cfire90 = NewStamps(n);
    commit = NewStamps(n);
    if (trace) {
      apply_end = NewStamps(n);
      fire3_end = NewStamps(n);
      fire90_end = NewStamps(n);
      cfire5_end = NewStamps(n);
      cfire90_end = NewStamps(n);
      commit_end = NewStamps(n);
    }
    obj_events.resize(objects);
    committed = NewStamps(objects);
  }
};

std::atomic<Stamps*> g_stamps{nullptr};

/// Sink for results of timed loops whose output is otherwise unused.
volatile int64_t g_sink = 0;

uint32_t EventId(const ode::PostedEvent* ev) {
  const Value* id = ev ? ev->FindArg("id") : nullptr;
  if (id == nullptr) return UINT32_MAX;
  ode::Result<int64_t> v = id->AsInt();
  return v.ok() ? static_cast<uint32_t>(*v) : UINT32_MAX;
}

Status Increment(const ActionContext& ctx, const char* attr) {
  ODE_ASSIGN_OR_RETURN(Value cur, ctx.db->GetAttr(ctx.txn, ctx.self, attr));
  ODE_ASSIGN_OR_RETURN(Value next, cur.Add(Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, attr, next);
}

/// A trigger action: stamps the firing event's action start (one clock
/// read), counts the firing in a transactional attribute of the posting
/// object, and in traced rounds stamps the action's end.
ode::TriggerAction StampingAction(StampArray Stamps::*start,
                                  StampArray Stamps::*end, const char* attr) {
  return [start, end, attr](const ActionContext& ctx) -> Status {
    int64_t t = NowNs();
    Stamps* s = g_stamps;
    if (s == nullptr) return Increment(ctx, attr);
    uint32_t g = EventId(ctx.event);
    if (g < s->n) (s->*start)[g].store(t, std::memory_order_relaxed);
    Status st = Increment(ctx, attr);
    if (s->trace && g < s->n) {
      (s->*end)[g].store(NowNs(), std::memory_order_relaxed);
    }
    return st;
  };
}

/// `after tcommit` observer: the object's committed `n` says how many of
/// its posts are committed; the observer claims the newly committed range
/// (exactly once, by compare-exchange) and stamps those events.
Status CommitObserver(const ActionContext& ctx) {
  int64_t t = NowNs();
  Stamps* s = g_stamps;
  if (s == nullptr) return Status::OK();  // Setup commits, before stamping.
  uint64_t idx = ctx.self.id - s->oid_base;
  if (idx >= s->obj_events.size()) return Status::OK();
  ODE_ASSIGN_OR_RETURN(Value nv, ctx.db->PeekAttr(ctx.self, "n"));
  ODE_ASSIGN_OR_RETURN(int64_t n, nv.AsInt());
  const std::vector<uint32_t>& evs = s->obj_events[idx];
  n = std::min<int64_t>(n, static_cast<int64_t>(evs.size()));
  int64_t last = s->committed[idx].load(std::memory_order_relaxed);
  while (n > last) {
    if (s->committed[idx].compare_exchange_weak(last, n)) {
      for (int64_t k = last; k < n; ++k) {
        s->commit[evs[k]].store(t, std::memory_order_relaxed);
      }
      s->commit_claims.fetch_add(n - last, std::memory_order_relaxed);
      if (s->trace) {
        int64_t e = NowNs();
        for (int64_t k = last; k < n; ++k) {
          s->commit_end[evs[k]].store(e, std::memory_order_relaxed);
        }
      }
      break;
    }
  }
  return Status::OK();
}

const char* const kObjectTriggers[] = {
    "T3(): perpetual every 3 (after add) ==> on3",
    "T90(): perpetual after add(d, id) && d > 90 ==> on90",
    "TC(): perpetual after tcommit ==> oncommit",
};
const char* const kClassTriggers[] = {
    "C5(): perpetual every 5 (after add) ==> cls5",
    "C90(): perpetual after add(d, id) && d > 90 ==> cls90",
};

/// `add(d, id)`: v += d, n += 1, and one clock stamp of the body's start
/// (`id` is the generator's event id, so stamps can be matched to posts).
Status AddBody(ode::MethodContext* ctx) {
  int64_t t = NowNs();
  Stamps* s = g_stamps;
  ODE_ASSIGN_OR_RETURN(Value idv, ctx->Arg("id"));
  ODE_ASSIGN_OR_RETURN(int64_t g, idv.AsInt());
  if (s == nullptr || g < 0 || static_cast<size_t>(g) >= s->n) g = -1;
  if (g >= 0) s->apply[g].store(t, std::memory_order_relaxed);
  ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
  ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
  ODE_ASSIGN_OR_RETURN(Value v2, v.Add(d));
  ODE_RETURN_IF_ERROR(ctx->Set("v", v2));
  ODE_ASSIGN_OR_RETURN(Value n, ctx->Get("n"));
  ODE_ASSIGN_OR_RETURN(Value n2, n.Add(Value(1)));
  ODE_RETURN_IF_ERROR(ctx->Set("n", n2));
  if (g >= 0 && s->trace) {
    s->apply_end[g].store(NowNs(), std::memory_order_relaxed);
  }
  return Status::OK();
}

ode::ClassDef StampedClass(const char* name, bool object_triggers,
                           bool class_triggers) {
  ode::ClassDef def(name);
  for (const char* attr : {"v", "n", "f3", "f90", "c5", "c90"}) {
    def.AddAttr(attr, Value(0));
  }
  def.AddMethod(ode::MethodDef{"add",
                               {{"int", "d"}, {"int", "id"}},
                               ode::MethodKind::kUpdate,
                               AddBody});
  if (object_triggers) {
    for (const char* t : kObjectTriggers) def.AddTrigger(t);
  }
  if (class_triggers) {
    for (const char* t : kClassTriggers) def.AddTrigger(t);
  }
  return def;
}

void RegisterAcctActions(ode::Database* db) {
  Check(db->RegisterAction("on3", StampingAction(&Stamps::fire3,
                                                 &Stamps::fire3_end, "f3")),
        "register on3");
  Check(db->RegisterAction("on90", StampingAction(&Stamps::fire90,
                                                  &Stamps::fire90_end, "f90")),
        "register on90");
  Check(db->RegisterAction("cls5", StampingAction(&Stamps::cfire5,
                                                  &Stamps::cfire5_end, "c5")),
        "register cls5");
  Check(db->RegisterAction("cls90",
                           StampingAction(&Stamps::cfire90,
                                          &Stamps::cfire90_end, "c90")),
        "register cls90");
  Check(db->RegisterAction("oncommit", CommitObserver), "register oncommit");
}

/// The daemon's demo schema (tools/ode_ingestd.cc), rebuilt in process for
/// the net-durable layer replay.
ode::ClassDef CellClass() {
  ode::ClassDef def("cell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(ode::MethodDef{
      "add",
      {{"int", "d"}},
      ode::MethodKind::kUpdate,
      [](ode::MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(
      ode::MethodDef{"peek", {}, ode::MethodKind::kReadOnly, nullptr});
  def.AddTrigger("T1(): perpetual every 3 (after add) ==> count");
  return def;
}

Status CellCount(const ActionContext& ctx) {
  ODE_ASSIGN_OR_RETURN(Value t, ctx.db->PeekAttr(ctx.self, "touches"));
  ODE_ASSIGN_OR_RETURN(Value next, t.Add(Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", next);
}

/// Creates `count` objects of `cls` with `triggers` active on each; returns
/// the first oid (oids are checked to be contiguous).
uint64_t CreateObjects(ode::Database* db, const char* cls, size_t count,
                       const std::vector<std::string>& triggers) {
  ode::TxnId txn = Take(db->Begin(), "begin");
  uint64_t first = 0;
  for (size_t i = 0; i < count; ++i) {
    Oid oid = Take(db->New(txn, cls), "new");
    if (i == 0) first = oid.id;
    if (oid.id != first + i) Die("object ids are not contiguous");
    for (const std::string& t : triggers) {
      Check(db->ActivateTrigger(txn, oid, t), "activate trigger");
    }
  }
  Check(db->Commit(txn), "commit setup");
  return first;
}

/// The in-process schema and objects: the hot set (class `acct`, per-object
/// triggers T3/T90/TC active on each) and, on class-seq, the ticks (class
/// `tick`, class-scope triggers C5/C90 active). The contended variant puts
/// the class-scope triggers on `acct` instead. Returns the first oid (all
/// oids are contiguous, hot set first); *objects_ms gets the time of New +
/// ActivateTrigger for all objects.
uint64_t SetupInProcess(ode::Database* db, Workload w, bool contended,
                        const Sizes& sz, double* objects_ms) {
  const bool class_seq = w == Workload::kClassSeq;
  RegisterAcctActions(db);
  Take(db->RegisterClass(StampedClass("acct", true, class_seq && contended)),
       "register acct");
  if (sz.ticks != 0) {
    Take(db->RegisterClass(StampedClass("tick", false, true)), "register tick");
  }
  int64_t t0 = NowNs();
  uint64_t base = CreateObjects(db, "acct", sz.objects, {"T3", "T90", "TC"});
  if (sz.ticks != 0 &&
      CreateObjects(db, "tick", sz.ticks, {}) != base + sz.objects) {
    Die("tick oids do not follow the hot set");
  }
  *objects_ms = (NowNs() - t0) * 1e-6;
  if (class_seq) {
    const char* cls = contended ? "acct" : "tick";
    Check(db->ActivateClassTrigger(cls, "C5"), "activate C5");
    Check(db->ActivateClassTrigger(cls, "C90"), "activate C90");
  }
  return base;
}

// ---------------------------------------------------------------------------
// Round results

struct Round {
  uint64_t posts = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint64_t drift = 0;    ///< Contended variant: firings off their counts.
  uint64_t aborted = 0;  ///< Contended variant: aborted shard batches.
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  void Error(const std::string& e) {
    static std::mutex mu;  // Connection threads report errors too.
    std::lock_guard<std::mutex> lock(mu);
    if (errors.size() < 20) errors.push_back(e);
  }
};

template <typename A, typename B>
void Expect(Round* r, const char* what, A got, B want) {
  if (static_cast<int64_t>(got) != static_cast<int64_t>(want)) {
    r->Error(std::string(what) + ": got " + std::to_string(got) +
             ", expected " + std::to_string(want));
  }
}

/// Latency samples in microseconds between two stamp arrays over the
/// events [from, to) where both stamps are set.
std::vector<double> Lat(const std::atomic<int64_t>* end,
                        const std::vector<int64_t>& start, size_t from,
                        size_t to) {
  std::vector<double> out;
  for (size_t g = from; g < to; ++g) {
    int64_t e = end[g].load(std::memory_order_relaxed);
    if (e != 0 && start[g] != 0) out.push_back((e - start[g]) * 1e-3);
  }
  return out;
}

std::vector<int64_t> Load(const StampArray& a, size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = a[i].load(std::memory_order_relaxed);
  return v;
}

void PutPercentiles(std::map<std::string, double>* m, const std::string& name,
                    std::vector<double> v) {
  (*m)[name + "_p50_us"] = Percentile(&v, 50);
  (*m)[name + "_p99_us"] = Percentile(&v, 99);
}

/// Spin (sleeping while far ahead) until `due`; returns how late we woke.
int64_t WaitUntil(int64_t due) {
  for (;;) {
    int64_t now = NowNs();
    if (now >= due) return now - due;
    if (due - now > 300000) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

// ---------------------------------------------------------------------------
// Spans (traced rounds)

struct Span {
  const char* name;
  int64_t start, end;
  const char* parent;  ///< Name of the parent span of the same event.
  uint64_t event;
};

/// Self time per span name: duration minus the part of the interval its
/// child spans (same event, parent == this name) cover.
void SummarizeSpans(const std::vector<Span>& spans, const char* title) {
  std::map<std::pair<uint64_t, std::string>, std::vector<const Span*>> kids;
  for (const Span& s : spans) {
    if (s.parent) kids[{s.event, s.parent}].push_back(&s);
  }
  struct Agg {
    uint64_t count = 0;
    double self_ms = 0;
    std::vector<double> self_us;
  };
  std::map<std::string, Agg> agg;
  for (const Span& s : spans) {
    double covered = 0;
    auto it = kids.find({s.event, s.name});
    if (it != kids.end()) {
      for (const Span* k : it->second) {
        int64_t lo = std::max(s.start, k->start), hi = std::min(s.end, k->end);
        if (hi > lo) covered += static_cast<double>(hi - lo);
      }
    }
    double self = std::max(0.0, static_cast<double>(s.end - s.start) - covered);
    Agg& a = agg[s.name];
    ++a.count;
    a.self_ms += self * 1e-6;
    a.self_us.push_back(self * 1e-3);
  }
  std::fprintf(stderr, "layer self time (%s):\n", title);
  std::fprintf(stderr, "  %-14s %10s %12s %12s\n", "span", "count",
               "self_ms", "p50_self_us");
  for (auto& [name, a] : agg) {
    std::fprintf(stderr, "  %-14s %10" PRIu64 " %12.3f %12.3f\n", name.c_str(),
                 a.count, a.self_ms, Percentile(&a.self_us, 50));
  }
}

/// Writes spans as JSON lines; only every 8th event is written, to keep
/// the file small (the summary above covers every span).
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write spans to " + path);
  for (const Span& s : spans) {
    if (s.event % 8 != 0) continue;
    // Span ids are "<name>:<event>"; a parent is a span of the same event.
    std::string parent = "null";
    if (s.parent != nullptr) {
      parent = "\"" + std::string(s.parent) + ":" +
               std::to_string(s.event) + "\"";
    }
    std::fprintf(f,
                 "{\"id\": \"%s:%" PRIu64 "\", \"name\": \"%s\", "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                 ", \"parent\": %s, \"event\": %" PRIu64 "}\n",
                 s.name, s.event, s.name, s.start, s.end, parent.c_str(),
                 s.event);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Layer replay: each layer's public function timed on one thread over the
// round's first kReplayPosts generated posts.

using Layer = std::map<std::string, double>;
constexpr size_t kReplayPosts = 50000;

/// Event texts of the triggers a workload activates per object.
std::vector<std::string> TriggerEventTexts(Workload w) {
  if (w == Workload::kNetDurable) return {"every 3 (after add)"};
  std::vector<std::string> out = {"every 3 (after add)",
                                  "after add(d, id) && d > 90",
                                  "after tcommit"};
  if (w == Workload::kClassSeq) {
    out.push_back("every 5 (after add)");
    out.push_back("after add(d, id) && d > 90");
  }
  return out;
}

ode::PostedEvent AfterEvent(Workload w, const Op& op, size_t g) {
  if (w == Workload::kNetDurable) {
    if (op.peek) {
      return ode::MakePostedMethod(ode::EventQualifier::kAfter, "peek");
    }
    return ode::MakePostedMethod(ode::EventQualifier::kAfter, "add",
                                 {{"d", Value(op.d)}});
  }
  return ode::MakePostedMethod(
      ode::EventQualifier::kAfter, "add",
      {{"d", Value(op.d)}, {"id", Value(static_cast<int64_t>(g))}});
}

void ReplayCompileAndAutomaton(Workload w, const std::vector<Op>& ops,
                               size_t limit, Layer* out) {
  std::vector<std::string> texts = TriggerEventTexts(w);
  // compile.ms_per_trigger: ParseEvent + CompileEvent, repeated.
  const int kReps = 20;
  int64_t t0 = NowNs();
  std::vector<ode::CompiledEvent> compiled;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& text : texts) {
      ode::EventExprPtr e = Take(ode::ParseEvent(text), "parse event");
      ode::CompiledEvent c = Take(ode::CompileEvent(e), "compile event");
      if (rep == 0) compiled.push_back(std::move(c));
    }
  }
  (*out)["compile.ms_per_trigger"] =
      (NowNs() - t0) * 1e-6 / (kReps * static_cast<double>(texts.size()));

  // Symbols for each trigger over the workload's events (untimed), then
  // automaton.step_ns: Dfa::Step over them.
  size_t n = std::min(limit, ops.size());
  std::vector<std::vector<ode::SymbolId>> syms(compiled.size());
  auto eval = [](const ode::MaskSlot& slot,
                 const ode::PostedEvent& ev) -> ode::Result<bool> {
    ode::SimpleMaskEnv env;
    for (size_t i = 0; i < slot.params.size() && i < ev.args.size(); ++i) {
      env.Bind(slot.params[i].name, ev.args[i].value);
    }
    return ode::EvalMaskBool(*slot.mask, env);
  };
  for (size_t g = 0; g < n; ++g) {
    ode::PostedEvent ev = AfterEvent(w, ops[g], g);
    for (size_t t = 0; t < compiled.size(); ++t) {
      ode::SymbolId s =
          Take(compiled[t].alphabet.Classify(ev, eval), "classify");
      syms[t].push_back(compiled[t].ExtendSymbol(s, 0));
    }
  }
  uint64_t steps = 0;
  int64_t sink = 0;
  t0 = NowNs();
  for (int rep = 0; rep < 10; ++rep) {
    for (size_t t = 0; t < compiled.size(); ++t) {
      const ode::Dfa& dfa = compiled[t].dfa;
      auto s = dfa.start();
      for (ode::SymbolId sym : syms[t]) {
        s = dfa.Step(s, sym);
        sink += dfa.accepting(s);
      }
      steps += syms[t].size();
    }
  }
  (*out)["automaton.step_ns"] =
      Ratio(static_cast<double>(NowNs() - t0), static_cast<double>(steps));
  g_sink = sink;  // Keeps the timed loop from being optimized away.

  // mask.eval_ns: EvalMaskBool of the workload's mask over its arguments.
  if (w == Workload::kNetDurable) {
    (*out)["mask.eval_ns"] = 0;  // The daemon's trigger has no mask.
    return;
  }
  ode::MaskExprPtr mask = Take(ode::ParseMask("d > 90"), "parse mask");
  ode::SimpleMaskEnv env;
  int64_t total = 0;
  uint64_t hits = 0;
  for (size_t g = 0; g < n; ++g) {
    env.Bind("d", Value(ops[g].d));
    int64_t a = NowNs();
    bool r = Take(ode::EvalMaskBool(*mask, env), "eval mask");
    total += NowNs() - a;
    hits += r;
  }
  (*out)["mask.eval_ns"] =
      Ratio(static_cast<double>(total), static_cast<double>(n));
  g_sink = static_cast<int64_t>(hits);
}

/// ode.call_ns and txn.begin_commit_us_per_batch: Database::Begin / Call /
/// Commit on a fresh database with the workload's schema, at the batch
/// size the runtime reached in this round.
void ReplayDatabase(Workload w, const Sizes& sz, const std::vector<Op>& ops,
                    size_t limit, double mean_batch, Layer* out) {
  size_t n = std::min(limit, ops.size());
  auto db = std::make_unique<ode::Database>();
  uint64_t base = 0;
  Stamps scratch(n, sz.objects + sz.ticks, false);
  Stamps* saved = g_stamps.exchange(&scratch);
  if (w == Workload::kNetDurable) {
    Check(db->RegisterAction("count", CellCount), "register count");
    Take(db->RegisterClass(CellClass()), "register cell");
    int64_t t0 = NowNs();
    base = CreateObjects(db.get(), "cell", sz.objects, {"T1"});
    (*out)["ode.objects_setup_ms"] = (NowNs() - t0) * 1e-6;
  } else {
    double unused_ms = 0;
    base = SetupInProcess(db.get(), w, false, sz, &unused_ms);
  }
  scratch.oid_base = base;
  for (size_t g = 0; g < n; ++g) scratch.obj_events[ops[g].obj].push_back(g);
  size_t batch =
      std::max<size_t>(1, static_cast<size_t>(std::lround(mean_batch)));
  int64_t call_ns = 0, txn_ns = 0;
  uint64_t batches = 0;
  uint64_t posted0 = db->stats().events_posted.load();
  uint64_t fired0 = db->stats().triggers_fired.load();
  uint64_t masks0 = db->stats().mask_evaluations.load();
  uint64_t sys0 = db->stats().system_txns.load();
  for (size_t g = 0; g < n;) {
    int64_t a = NowNs();
    ode::TxnId txn = Take(db->Begin(), "replay begin");
    txn_ns += NowNs() - a;
    size_t end = std::min(n, g + batch);
    for (; g < end; ++g) {
      const Op& op = ops[g];
      Oid oid{base + op.obj};
      std::vector<Value> args;
      const char* method = op.peek ? "peek" : "add";
      if (!op.peek) args.push_back(Value(op.d));
      if (!op.peek && w != Workload::kNetDurable) {
        args.push_back(Value(static_cast<int64_t>(g)));
      }
      int64_t c = NowNs();
      Take(db->Call(txn, oid, method, std::move(args)), "replay call");
      call_ns += NowNs() - c;
    }
    a = NowNs();
    Check(db->Commit(txn), "replay commit");
    txn_ns += NowNs() - a;
    ++batches;
  }
  const double k = static_cast<double>(n);
  (*out)["ode.call_ns"] = Ratio(static_cast<double>(call_ns), k);
  (*out)["txn.begin_commit_us_per_batch"] =
      Ratio(txn_ns * 1e-3, static_cast<double>(batches));
  if (w == Workload::kNetDurable) {
    // The daemon's DatabaseStats are not visible over the wire; the
    // replay runs the same schema over the same posts.
    const ode::DatabaseStats& st = db->stats();
    auto delta = [](const std::atomic<uint64_t>& c, uint64_t before) {
      return static_cast<double>(c.load() - before);
    };
    (*out)["ode.postings_per_event"] =
        Ratio(delta(st.events_posted, posted0), k);
    (*out)["ode.system_txns_per_kevent"] =
        Ratio(delta(st.system_txns, sys0) * 1000, k);
    (*out)["trigger.fires_per_kevent"] =
        Ratio(delta(st.triggers_fired, fired0) * 1000, k);
    (*out)["trigger.mask_evals_per_event"] =
        Ratio(delta(st.mask_evaluations, masks0), k);
  }
  g_stamps = saved;
  // Leak deliberately: destroying a database of this size takes longer
  // than the replay, and the process exits right after.
  db.release();
}

/// net.encode_ns / net.decode_ns / net.wire_bytes_per_event (AppendPost and
/// FrameDecoder) and wal.append_us (LogWriter::Append under the daemon's
/// default fsync policy) over the round's posts.
void ReplayWire(const std::vector<Op>& ops, uint64_t base, size_t limit,
                const std::string& work_dir, Layer* out) {
  size_t n = std::min(limit, ops.size());
  std::string buf;
  buf.reserve(n * 48);
  std::vector<Value> args1(1);
  const std::vector<Value> none;
  int64_t t0 = NowNs();
  for (size_t g = 0; g < n; ++g) {
    const Op& op = ops[g];
    args1[0] = Value(op.d);
    Check(ode::net::AppendPost(&buf, g + 1, Oid{base + op.obj},
                               op.peek ? "peek" : "add",
                               op.peek ? none : args1),
          "encode");
  }
  const double k = static_cast<double>(n);
  (*out)["net.encode_ns"] = Ratio(static_cast<double>(NowNs() - t0), k);
  (*out)["net.wire_bytes_per_event"] =
      Ratio(static_cast<double>(buf.size()), k);
  ode::net::FrameDecoder dec;
  ode::net::Frame frame;
  size_t frames = 0;
  t0 = NowNs();
  dec.Append(buf.data(), buf.size());
  while (dec.Next(&frame) == ode::net::FrameDecoder::State::kFrame) ++frames;
  (*out)["net.decode_ns"] = Ratio(static_cast<double>(NowNs() - t0),
                                      static_cast<double>(frames));
  if (frames != n) Die("decoder replay lost frames");

  std::string dir = work_dir + "/replay-wal-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  {
    ode::wal::WalOptions wo;  // The daemon's default policy.
    wo.dir = dir;
    ode::wal::LogWriter writer;
    Check(writer.Open(ode::wal::ShardLogPath(dir, 0), 1, wo), "open wal");
    int64_t total = 0;
    for (size_t g = 0; g < n; ++g) {
      const Op& op = ops[g];
      ode::wal::WalRecord rec;
      rec.oid = Oid{base + op.obj};
      rec.method = op.peek ? "peek" : "add";
      if (!op.peek) rec.args.push_back(Value(op.d));
      int64_t a = NowNs();
      Check(writer.Append(&rec), "wal append");
      total += NowNs() - a;
    }
    Check(writer.Sync(), "wal sync");
    (*out)["wal.append_us"] = Ratio(total * 1e-3, k);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// In-process workloads: objects, class-seq

Round RunInProcess(Workload w, bool contended, uint64_t seed, bool trace,
                   bool smoke, const std::string& spans_path,
                   int64_t t_start) {
  Round r;
  const Sizes sz = SizesFor(w, smoke, contended);
  const bool class_seq = w == Workload::kClassSeq;
  const size_t all_objects = sz.objects + sz.ticks;

  // ---- Setup: schema, triggers, objects, runtime accepting posts.
  ode::Database* db = new ode::Database();  // Freed by process exit.
  double objects_setup_ms = 0;
  uint64_t base = SetupInProcess(db, w, contended, sz, &objects_setup_ms);
  auto* rt = new ode::runtime::IngestRuntime(db, ode::runtime::IngestOptions{});
  Check(rt->Start(), "runtime start");
  int64_t ready = NowNs();
  r.e2e["setup_s"] = (ready - t_start) * 1e-9;

  // The benchmark's own inputs and stamp tables, made after `ready` so
  // that setup_s is the system's alone.
  std::vector<Op> ops = Generate(w, sz, seed);
  const size_t n = ops.size();
  Stamps stamps(n, all_objects, trace);
  stamps.oid_base = base;
  for (size_t g = 0; g < n; ++g) stamps.obj_events[ops[g].obj].push_back(g);
  g_stamps = &stamps;
  const uint64_t rss0_kb = ProcStatusKb(0, "VmRSS");
  const double cpu0 = SelfCpuSeconds();

  std::vector<int64_t> due(n, 0), postret(n, 0);
  std::vector<uint32_t> post_ns;
  if (trace) post_ns.reserve(sz.sat_events);
  auto post = [&](size_t g) {
    const Op& op = ops[g];
    Status s = rt->Post(Oid{base + op.obj}, "add",
                        {Value(op.d), Value(static_cast<int64_t>(g))});
    if (!s.ok()) {
      ++r.failed;
      r.Error("post: " + s.ToString());
    }
  };
  auto barrier = [&](double* drain_ms, double* seq_ms) {
    int64_t a = NowNs();
    Check(rt->Drain(), "drain");
    int64_t b = NowNs();
    if (rt->sequencer() != nullptr) rt->sequencer()->WaitDrained();
    int64_t c = NowNs();
    *drain_ms = (b - a) * 1e-6;
    *seq_ms = (c - b) * 1e-6;
  };

  // ---- Saturation phase: closed loop, as fast as kBlock admits.
  int64_t sat0 = NowNs();
  for (size_t g = 0; g < sz.sat_events; ++g) {
    if (trace) {
      int64_t a = NowNs();
      post(g);
      post_ns.push_back(static_cast<uint32_t>(NowNs() - a));
    } else {
      post(g);
    }
  }
  double drain_ms = 0, seq_drain_ms = 0;
  barrier(&drain_ms, &seq_drain_ms);
  int64_t sat1 = NowNs();
  r.e2e["events_per_s"] =
      static_cast<double>(sz.sat_events) / ((sat1 - sat0) * 1e-9);

  // ---- Fixed-rate phase: open loop; latencies from each post's due time.
  std::vector<double> late;
  late.reserve(sz.fix_events);
  const int64_t fix0 = NowNs() + 1000000;
  const double gap_ns = 1e9 / sz.rate;
  for (size_t i = 0; i < sz.fix_events; ++i) {
    size_t g = sz.sat_events + i;
    due[g] = fix0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
    late.push_back(WaitUntil(due[g]) * 1e-3);
    post(g);
    postret[g] = NowNs();
  }
  double fix_drain_ms = 0, fix_seq_ms = 0;
  barrier(&fix_drain_ms, &fix_seq_ms);
  r.posts = n;

  // ---- Memory and CPU of the process holding the database.
  const uint64_t hwm_kb = ProcStatusKb(0, "VmHWM");
  r.e2e["rss_bytes_per_event"] =
      (static_cast<double>(hwm_kb) - static_cast<double>(rss0_kb)) * 1024.0 /
      static_cast<double>(n);
  const double cpu_us_per_event =
      Ratio((SelfCpuSeconds() - cpu0) * 1e6, static_cast<double>(n));

  // ---- Latencies of the fixed-rate phase.
  const size_t f0 = sz.sat_events;
  std::vector<int64_t> apply = Load(stamps.apply, n);
  std::vector<double> commit = Lat(stamps.commit.get(), due, f0, n);
  std::vector<double> fire = Lat(stamps.fire3.get(), due, f0, n);
  std::vector<double> fire90 = Lat(stamps.fire90.get(), due, f0, n);
  fire.insert(fire.end(), fire90.begin(), fire90.end());
  std::vector<double> cfire = Lat(stamps.cfire5.get(), due, f0, n);
  std::vector<double> cfire90 = Lat(stamps.cfire90.get(), due, f0, n);
  cfire.insert(cfire.end(), cfire90.begin(), cfire90.end());
  std::vector<double> ack;
  for (size_t g = f0; g < n; ++g) ack.push_back((postret[g] - due[g]) * 1e-3);
  PutPercentiles(&r.e2e, "commit", commit);
  PutPercentiles(&r.e2e, "fire", fire);
  PutPercentiles(&r.e2e, "ack", ack);
  if (class_seq) PutPercentiles(&r.e2e, "class_fire", cfire);

  // ---- Output checks against the generator's own accounting.
  Expected ex = ComputeExpected(ops, all_objects);
  ode::runtime::RuntimeMetricsSnapshot m = rt->Metrics();
  Expect(&r, "processed", m.total.processed, n);
  Expect(&r, "dead_lettered", m.total.dead_lettered, 0);
  Expect(&r, "rejected+dropped", m.total.rejected + m.total.dropped, 0);
  uint64_t hot_posts = 0;
  for (size_t g = 0; g < n; ++g) {
    if (ops[g].obj >= sz.objects) continue;  // Ticks have no observer.
    ++hot_posts;
    if (stamps.commit[g].load() == 0 && r.errors.empty()) {
      r.Error("event " + std::to_string(g) + " never seen committed");
    }
  }
  Expect(&r, "commit observer claims", stamps.commit_claims.load(), hot_posts);
  int64_t drift = 0;  // Firings off their expected counts (contended only).
  int64_t c5 = 0, c90 = 0, class_adds = 0, class_big = 0;
  for (size_t o = 0; o < all_objects; ++o) {
    Oid oid{base + o};
    auto attr = [&](const char* a) {
      return Take(Take(db->PeekAttr(oid, a), "peek attr").AsInt(), "attr int");
    };
    Expect(&r, "object v", attr("v"), ex.sum_d[o]);
    Expect(&r, "object n", attr("n"), ex.adds[o]);
    if (o < sz.objects) {
      Expect(&r, "object committed", stamps.committed[o].load(), ex.adds[o]);
      Expect(&r, "object d>90 firings", attr("f90"), ex.big[o]);
      if (contended) {
        drift += std::llabs(attr("f3") - ex.adds[o] / 3);
      } else {
        Expect(&r, "object every-3 firings", attr("f3"), ex.adds[o] / 3);
      }
    }
    if (o >= sz.objects || contended) {  // Objects the class triggers see.
      class_adds += ex.adds[o];
      class_big += ex.big[o];
    }
    c5 += attr("c5");
    c90 += attr("c90");
  }
  if (!class_seq) {
    class_adds = class_big = 0;
  }
  if (contended) {
    // Class firings contend with shard batches here, and an aborted batch
    // is replayed event by event while the aborted attempt's class events
    // stay published and the per-object slots advance in both attempts
    // (README.md, "Faults"). The drift is reported, not checked.
    drift += std::llabs(c5 - class_adds / 5) + std::llabs(c90 - class_big);
    r.drift = static_cast<uint64_t>(drift);
    r.aborted = m.total.aborted;
  } else {
    Expect(&r, "class every-5 firings", c5, class_adds / 5);
    Expect(&r, "class d>90 firings", c90, class_big);
    Expect(&r, "aborted batches", m.total.aborted, 0);
  }

  // ---- Traced round: per-layer metrics, spans, layer replay.
  if (trace) {
    std::map<std::string, double>& L = r.layer;
    double k = static_cast<double>(n);
    L["trace.events_per_s"] = r.e2e["events_per_s"];
    std::vector<double> pn(post_ns.begin(), post_ns.end());
    L["runtime.post_ns"] = Percentile(&pn, 50);
    std::vector<double> qw;
    for (size_t g = f0; g < n; ++g) {
      if (apply[g] != 0) qw.push_back((apply[g] - postret[g]) * 1e-3);
    }
    L["runtime.queue_wait_us_p50"] = Percentile(&qw, 50);
    L["runtime.queue_wait_us_p99"] = Percentile(&qw, 99);
    L["runtime.mean_batch"] = m.total.MeanBatch();
    L["runtime.aborts_per_kevent"] = m.total.aborted * 1000.0 / k;
    L["runtime.retries_per_kevent"] = m.total.retried * 1000.0 / k;
    L["runtime.drain_ms"] = drain_ms;
    L["runtime.queue_high_water"] =
        static_cast<double>(m.total.queue_high_water);
    L["ode.postings_per_event"] = db->stats().events_posted.load() / k;
    L["ode.system_txns_per_kevent"] =
        db->stats().system_txns.load() * 1000.0 / k;
    L["ode.objects_setup_ms"] = objects_setup_ms;
    L["trigger.fires_per_kevent"] =
        db->stats().triggers_fired.load() * 1000.0 / k;
    L["trigger.mask_evals_per_event"] = db->stats().mask_evaluations.load() / k;
    std::vector<double> a2c = Lat(stamps.commit.get(), apply, f0, n);
    L["ode.apply_to_commit_us_p50"] = Percentile(&a2c, 50);
    L["ode.apply_to_commit_us_p99"] = Percentile(&a2c, 99);
    std::vector<double> a2f = Lat(stamps.fire3.get(), apply, f0, n);
    std::vector<double> a2f90 = Lat(stamps.fire90.get(), apply, f0, n);
    a2f.insert(a2f.end(), a2f90.begin(), a2f90.end());
    L["trigger.apply_to_fire_us_p50"] = Percentile(&a2f, 50);
    std::vector<double> a2c5 = Lat(stamps.cfire5.get(), apply, f0, n);
    std::vector<double> a2c90 = Lat(stamps.cfire90.get(), apply, f0, n);
    a2c5.insert(a2c5.end(), a2c90.begin(), a2c90.end());
    L["seq.apply_to_class_fire_us_p50"] = Percentile(&a2c5, 50);
    L["seq.apply_to_class_fire_us_p99"] = Percentile(&a2c5, 99);
    L["seq.published_per_post"] = m.sequencer.published / k;
    L["seq.drain_ms"] = seq_drain_ms;
    L["seq.queue_high_water"] =
        static_cast<double>(m.sequencer.queue_high_water);
    L["seq.lock_timeouts"] = static_cast<double>(m.sequencer.lock_timeouts);
    L["proc.cpu_us_per_event"] = cpu_us_per_event;
    L["gen.late_p99_us"] = Percentile(&late, 99);
    for (const char* key :
         {"wal.bytes_per_event", "wal.fsyncs_per_kevent", "wal.append_us",
          "net.client_post_ns", "net.flush_us_p50", "net.drain_rtt_ms",
          "net.encode_ns", "net.decode_ns", "net.wire_bytes_per_event"}) {
      L[key] = 0;  // Not on this workload's path.
    }

    std::vector<Span> spans;
    auto add = [&](const char* name, int64_t s, int64_t e, const char* parent,
                   size_t g) {
      if (s != 0 && e != 0) spans.push_back(Span{name, s, e, parent, g});
    };
    for (size_t g = f0; g < n; ++g) {
      int64_t call = due[g] + static_cast<int64_t>(late[g - f0] * 1e3);
      add("post", call, postret[g], nullptr, g);
      add("apply", apply[g], stamps.apply_end[g].load(), "post", g);
      auto child = [&](const char* name, const StampArray& s,
                       const StampArray& e) {
        add(name, s[g].load(), e[g].load(), "apply", g);
      };
      child("fire", stamps.fire3, stamps.fire3_end);
      child("fire90", stamps.fire90, stamps.fire90_end);
      child("class_fire", stamps.cfire5, stamps.cfire5_end);
      child("class_fire90", stamps.cfire90, stamps.cfire90_end);
      child("commit_obs", stamps.commit, stamps.commit_end);
    }
    SummarizeSpans(spans, class_seq ? "class-seq" : "objects");
    WriteSpans(spans, spans_path);

    ReplayCompileAndAutomaton(w, ops, kReplayPosts, &L);
    ReplayDatabase(w, sz, ops, kReplayPosts, m.total.MeanBatch(), &L);
  }
  Check(rt->Stop(), "runtime stop");
  return r;
}

// ---------------------------------------------------------------------------
// net-durable: ode-ingestd as a child process, driven over loopback

/// The daemon child: spawned with stdout on a pipe; killed and reaped on
/// every exit path.
class Daemon {
 public:
  Daemon(const std::string& path, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe(fds) != 0) Die("pipe");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    int rc =
        posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) Die("cannot start " + path + ": " + std::strerror(rc));
    g_daemon_pid.store(pid_);
    out_ = fdopen(fds[0], "r");
  }
  ~Daemon() {
    if (pid_ > 0 && g_daemon_pid.exchange(-1) == pid_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_) std::fclose(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// Next stdout line ("" at EOF).
  std::string Line() {
    char* buf = nullptr;
    size_t cap = 0;
    ssize_t got = getline(&buf, &cap, out_);
    std::string s = got > 0 ? std::string(buf, static_cast<size_t>(got)) : "";
    std::free(buf);
    return s;
  }
  /// SIGTERM, collect the rest of stdout (the final metrics), reap.
  std::string Stop(int* status) {
    kill(pid_, SIGTERM);
    std::string rest, line;
    while (!(line = Line()).empty()) rest += line;
    waitpid(pid_, status, 0);
    g_daemon_pid.store(-1);
    pid_ = -1;
    return rest;
  }

 private:
  pid_t pid_ = -1;
  FILE* out_ = nullptr;
};

uint64_t ParseField(const std::string& text, const std::string& key) {
  size_t p = text.find(key + "=");
  if (p == std::string::npos) return UINT64_MAX;
  return std::strtoull(text.c_str() + p + key.size() + 1, nullptr, 10);
}

Round RunNetDurable(uint64_t seed, bool trace, bool smoke,
                    const std::string& spans_path, const std::string& daemon,
                    const std::string& work_dir, int64_t t_start) {
  Round r;
  const Sizes sz = SizesFor(Workload::kNetDurable, smoke, false);
  const size_t conns = sz.connections;

  // ---- Setup: daemon process start until it answers a ping.
  std::string wal_dir = work_dir + "/wal-" + std::to_string(getpid());
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(work_dir);
  Daemon d(daemon, {"--port=0", "--objects=" + std::to_string(sz.objects),
                    "--wal-dir=" + wal_dir});
  std::string banner = d.Line();
  size_t colon = banner.find("listening on ");
  if (colon == std::string::npos) Die("daemon did not start: " + banner);
  colon = banner.find(':', colon + 13);
  uint16_t port = static_cast<uint16_t>(
      std::strtoul(banner.c_str() + colon + 1, nullptr, 10));
  size_t op_at = banner.find("oids ");
  if (op_at == std::string::npos) Die("daemon banner lacks oids: " + banner);
  uint64_t base = std::strtoull(banner.c_str() + op_at + 5, nullptr, 10);
  ode::net::ClientOptions co;
  co.port = port;
  {
    ode::net::IngestClient probe(co);
    Check(probe.Connect(), "connect");
    Check(probe.Ping(), "ping");
  }
  int64_t ready = NowNs();
  r.e2e["setup_s"] = (ready - t_start) * 1e-9;
  std::vector<Op> ops = Generate(Workload::kNetDurable, sz, seed);
  const size_t n = ops.size();
  const uint64_t rss0_kb = ProcStatusKb(d.pid(), "VmRSS");
  const double cpu0 = ProcCpuSeconds(d.pid());

  // ---- Saturation phase: one IngestClient per connection thread, each
  // posting its share as fast as the connection admits, then Drain.
  std::vector<std::vector<double>> post_ns(conns), flush_us(conns),
      drain_ms(conns);
  std::vector<uint64_t> acked(conns, 0), sent(conns, 0), errs(conns, 0);
  std::atomic<int> ready_threads{0};
  std::atomic<bool> go{false};
  int64_t sat0 = 0;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        ode::net::IngestClient client(co);
        Check(client.Connect(), "connect");
        ready_threads.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        std::vector<Value> args1(1);
        const std::vector<Value> none;
        uint64_t k = 0;
        for (size_t g = c; g < sz.sat_events; g += conns) {
          const Op& op = ops[g];
          args1[0] = Value(op.d);
          int64_t a = trace ? NowNs() : 0;
          Status s = client.Post(Oid{base + op.obj}, op.peek ? "peek" : "add",
                                 op.peek ? none : args1);
          if (trace) post_ns[c].push_back(static_cast<double>(NowNs() - a));
          if (!s.ok()) ++errs[c];
          if (++k % 1024 == 0) {
            a = NowNs();
            Check(client.Flush(), "flush");
            if (trace) flush_us[c].push_back((NowNs() - a) * 1e-3);
          }
        }
        int64_t a = NowNs();
        Status s = client.Drain();
        drain_ms[c].push_back((NowNs() - a) * 1e-6);
        if (!s.ok()) ++errs[c];
        acked[c] = client.stats().acked;
        sent[c] = client.stats().posted;
        errs[c] += client.stats().errors + client.stats().rejected;
      });
    }
    while (ready_threads.load() < static_cast<int>(conns)) {
      std::this_thread::yield();
    }
    sat0 = NowNs();
    go.store(true);
    for (std::thread& t : threads) t.join();
  }
  int64_t sat1 = NowNs();
  r.e2e["events_per_s"] =
      static_cast<double>(sz.sat_events) / ((sat1 - sat0) * 1e-9);
  for (size_t c = 0; c < conns; ++c) {
    Expect(&r, "client acked == posted", acked[c], sent[c]);
    r.failed += errs[c];
  }

  // ---- Fixed-rate phase: raw sockets and the public codec, so each ACK
  // frame is stamped on arrival. Connection c sends every conns-th post.
  std::vector<int64_t> due(n, 0), sent_at(n, 0), ack_at(n, 0);
  std::vector<std::vector<double>> late(conns);
  const int64_t fix0 = NowNs() + 2000000;
  const double gap_ns = 1e9 / sz.rate;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        ode::net::Socket sock =
            Take(ode::net::TcpConnect("127.0.0.1", port), "connect");
        Check(ode::net::SetNoDelay(sock.fd()), "nodelay");
        Check(ode::net::SetNonBlocking(sock.fd(), true), "nonblocking");
        std::vector<size_t> mine;  // seq s (1-based) -> event id
        for (size_t i = c; i < sz.fix_events; i += conns) {
          mine.push_back(sz.sat_events + i);
        }
        using FrameState = ode::net::FrameDecoder::State;
        ode::net::FrameDecoder dec;
        ode::net::Frame frame;
        uint64_t acked_upto = 0;
        bool drained = false;
        std::string out;
        std::vector<Value> args1(1);
        const std::vector<Value> none;
        char chunk[65536];
        auto pump = [&]() {
          for (;;) {
            ssize_t got = recv(sock.fd(), chunk, sizeof(chunk), 0);
            if (got <= 0) break;
            int64_t now = NowNs();
            dec.Append(chunk, static_cast<size_t>(got));
            ode::net::FrameDecoder::State st;
            while ((st = dec.Next(&frame)) == FrameState::kFrame) {
              if (frame.type == ode::net::FrameType::kAck) {
                uint64_t upto = std::min<uint64_t>(frame.seq, mine.size());
                for (uint64_t s = acked_upto + 1; s <= upto; ++s) {
                  ack_at[mine[s - 1]] = now;
                }
                acked_upto = std::max(acked_upto, frame.seq);
              } else if (frame.type == ode::net::FrameType::kDrainOk) {
                drained = true;
              } else if (frame.type == ode::net::FrameType::kErr) {
                ++errs[c];
              }
            }
            if (st == FrameState::kError) Die("bad reply stream");
          }
        };
        auto send_all = [&]() {
          size_t off = 0;
          while (off < out.size()) {
            ssize_t w = send(sock.fd(), out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
            if (w > 0) {
              off += static_cast<size_t>(w);
            } else {
              pump();  // Full socket: keep reading replies meanwhile.
            }
          }
          out.clear();
        };
        for (size_t s = 1; s <= mine.size(); ++s) {
          size_t g = mine[s - 1];
          size_t i = g - sz.sat_events;
          due[g] = fix0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
          // Read ACKs while waiting for the due time.
          for (;;) {
            int64_t now = NowNs();
            if (now >= due[g]) break;
            pump();
            if (due[g] - now > 300000) {
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
          }
          int64_t start = NowNs();
          late[c].push_back((start - due[g]) * 1e-3);
          const Op& op = ops[g];
          args1[0] = Value(op.d);
          Check(ode::net::AppendPost(&out, s, Oid{base + op.obj},
                                     op.peek ? "peek" : "add",
                                     op.peek ? none : args1),
                "encode");
          send_all();
          sent_at[g] = NowNs();
          pump();
        }
        ode::net::AppendDrain(&out, mine.size() + 1);
        send_all();
        int64_t deadline = NowNs() + 60'000'000'000;
        while (!drained && NowNs() < deadline) {
          pump();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (!drained) Die("fixed-rate drain timed out");
        if (acked_upto != mine.size()) {
          r.Error("connection acked " + std::to_string(acked_upto) + " of " +
                  std::to_string(mine.size()));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  r.posts = n;

  const size_t f0 = sz.sat_events;
  std::vector<double> ack, all_late;
  for (size_t g = f0; g < n; ++g) {
    if (ack_at[g] == 0) {
      r.Error("post " + std::to_string(g) + " never acknowledged");
      break;
    }
    ack.push_back((ack_at[g] - due[g]) * 1e-3);
  }
  for (auto& v : late) all_late.insert(all_late.end(), v.begin(), v.end());
  // Generator lateness per fixed-phase event (connection c sent events
  // c, c + conns, ... in order).
  std::vector<double> late_of(sz.fix_events, 0);
  for (size_t c = 0; c < conns; ++c) {
    for (size_t j = 0; j < late[c].size(); ++j) {
      late_of[c + j * conns] = late[c][j];
    }
  }
  PutPercentiles(&r.e2e, "ack", ack);
  // The daemon's commits and firings are not visible to a network client;
  // the covering ACK is the only per-post confirmation it receives, so the
  // commit and fire metrics repeat it here (README.md, stand-ins).
  for (const char* name : {"commit", "fire"}) {
    PutPercentiles(&r.e2e, name, ack);
  }

  // ---- Checks: the daemon's counters against the generator's.
  Expected ex = ComputeExpected(ops, sz.objects);
  uint64_t fired_expected = 0;
  for (size_t o = 0; o < sz.objects; ++o) fired_expected += ex.adds[o] / 3;
  ode::net::RemoteMetrics rm;
  {
    ode::net::IngestClient client(co);
    Check(client.Connect(), "connect");
    rm = Take(client.Metrics(), "metrics");
  }
  Expect(&r, "daemon processed", rm.total.processed, n);
  Expect(&r, "daemon fired", rm.total.fired, fired_expected);
  Expect(&r, "daemon aborted", rm.total.aborted, 0);
  Expect(&r, "daemon rejected", rm.total.rejected + rm.total.dropped, 0);
  Expect(&r, "daemon dead_lettered", rm.total.dead_lettered, 0);

  const uint64_t hwm_kb = ProcStatusKb(d.pid(), "VmHWM");
  r.e2e["rss_bytes_per_event"] =
      (static_cast<double>(hwm_kb) - static_cast<double>(rss0_kb)) * 1024.0 /
      static_cast<double>(n);
  const double cpu_us_per_event =
      Ratio((ProcCpuSeconds(d.pid()) - cpu0) * 1e6, static_cast<double>(n));
  int status = 0;
  std::string final_text = d.Stop(&status);
  std::filesystem::remove_all(wal_dir);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.Error("daemon exited uncleanly");
  }
  uint64_t wal_bytes = ParseField(final_text, "bytes");
  uint64_t wal_fsyncs = ParseField(final_text, "fsyncs");
  uint64_t wal_appends = ParseField(final_text, "appends");
  if (wal_bytes == UINT64_MAX || wal_fsyncs == UINT64_MAX) {
    r.Error("daemon printed no wal metrics");
  }
  Expect(&r, "wal appends", wal_appends, n);

  if (trace) {
    std::map<std::string, double>& L = r.layer;
    double k = static_cast<double>(n);
    L["trace.events_per_s"] = r.e2e["events_per_s"];
    L["runtime.post_ns"] = 0;  // Inside the daemon; not observable here.
    L["runtime.queue_wait_us_p50"] = 0;
    L["runtime.queue_wait_us_p99"] = 0;
    L["runtime.mean_batch"] = rm.total.MeanBatch();
    L["runtime.aborts_per_kevent"] = rm.total.aborted * 1000.0 / k;
    L["runtime.retries_per_kevent"] = rm.total.retried * 1000.0 / k;
    L["runtime.drain_ms"] = 0;
    L["runtime.queue_high_water"] =
        static_cast<double>(rm.total.queue_high_water);
    for (const char* key :
         {"ode.apply_to_commit_us_p50", "ode.apply_to_commit_us_p99",
          "trigger.apply_to_fire_us_p50", "seq.apply_to_class_fire_us_p50",
          "seq.apply_to_class_fire_us_p99", "seq.published_per_post",
          "seq.drain_ms", "seq.queue_high_water", "seq.lock_timeouts",
          }) {
      L[key] = 0;  // Not observable over the wire / not on this path.
    }
    L["wal.bytes_per_event"] = static_cast<double>(wal_bytes) / k;
    L["wal.fsyncs_per_kevent"] = static_cast<double>(wal_fsyncs) * 1000.0 / k;
    std::vector<double> pn, fl, dr;
    for (size_t c = 0; c < conns; ++c) {
      pn.insert(pn.end(), post_ns[c].begin(), post_ns[c].end());
      fl.insert(fl.end(), flush_us[c].begin(), flush_us[c].end());
      dr.insert(dr.end(), drain_ms[c].begin(), drain_ms[c].end());
    }
    L["net.client_post_ns"] = Percentile(&pn, 50);
    L["net.flush_us_p50"] = Percentile(&fl, 50);
    L["net.drain_rtt_ms"] = Percentile(&dr, 50);
    L["proc.cpu_us_per_event"] = cpu_us_per_event;
    L["gen.late_p99_us"] = Percentile(&all_late, 99);

    std::vector<Span> spans;
    for (size_t g = f0; g < n; ++g) {
      int64_t start = due[g] + static_cast<int64_t>(late_of[g - f0] * 1e3);
      spans.push_back(Span{"send", start, sent_at[g], nullptr, g});
      spans.push_back(Span{"await_ack", sent_at[g],
                           std::max(sent_at[g], ack_at[g]), "send", g});
    }
    SummarizeSpans(spans, "net-durable");
    WriteSpans(spans, spans_path);

    ReplayCompileAndAutomaton(Workload::kNetDurable, ops, kReplayPosts, &L);
    ReplayDatabase(Workload::kNetDurable, sz, ops, kReplayPosts,
                   rm.total.MeanBatch(), &L);
    ReplayWire(ops, base, kReplayPosts, work_dir, &L);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t t_start = NowNs();
  std::string workload, spans, daemon, work_dir = ".";
  uint64_t seed = 1;
  bool trace = false, smoke = false, contended = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") workload = val();
    else if (a == "--seed") seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--trace") trace = val() == "1";
    else if (a == "--spans") spans = val();
    else if (a == "--daemon") daemon = val();
    else if (a == "--work-dir") work_dir = val();
    else if (a == "--smoke") smoke = true;
    else if (a == "--contended") contended = true;
    else Die("unknown argument " + a);
  }
  Round r;
  if (workload == "objects") {
    r = RunInProcess(Workload::kObjects, false, seed, trace, smoke, spans,
                     t_start);
  } else if (workload == "class-seq") {
    r = RunInProcess(Workload::kClassSeq, contended, seed, trace, smoke,
                     spans, t_start);
  } else if (workload == "net-durable") {
    if (daemon.empty()) Die("--daemon is required for net-durable");
    r = RunNetDurable(seed, trace, smoke, spans, daemon, work_dir, t_start);
  } else {
    Die("unknown workload '" + workload + "'");
  }
  Json e2e, layer, out;
  for (auto& [k, v] : r.e2e) e2e.Num(k, v);
  for (auto& [k, v] : r.layer) layer.Num(k, v);
  std::string errors = "[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    errors += (i ? ", " : "") + std::string("\"");
    for (char c : r.errors[i]) errors += (c == '"' ? '\'' : c);
    errors += "\"";
  }
  errors += "]";
  out.Str("workload", workload);
  out.Num("seed", static_cast<double>(seed));
  out.Num("posts", static_cast<double>(r.posts));
  out.Num("failed", static_cast<double>(r.failed));
  out.Num("drift", static_cast<double>(r.drift));
  out.Num("aborted", static_cast<double>(r.aborted));
  out.Bool("correct", r.errors.empty());
  out.Raw("errors", errors);
  out.Raw("e2e", e2e.Done());
  out.Raw("layer", layer.Done());
  std::printf("%s\n", out.Done().c_str());
  std::fflush(stdout);
  // The database and runtime are left to process exit: tearing down a
  // database of this size takes longer than the round's checks.
  std::_Exit(0);
}
