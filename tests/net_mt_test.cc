// Multi-threaded front-end tests for IngestServer: worker dispatch under
// connection churn, the non-blocking shard handoff (a kBlock-full shard
// parks only the posting connection), and the server edge cases fixed
// alongside the threading rework — non-blocking connection-limit
// rejection, the malformed-frame ERR surviving a full write buffer, and
// Stop() flushing each connection's earned ACK watermark — and the idle
// ACK: posts are confirmed once a connection's replies are flushed, never
// beyond the last accepted post.
#include <gtest/gtest.h>

#include <poll.h>
#include <stdlib.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "ode/database.h"
#include "runtime/ingest_runtime.h"
#include "test_util.h"

namespace ode {
namespace net {
namespace {

using runtime::BackpressurePolicy;
using runtime::IngestOptions;
using runtime::IngestRuntime;

// `count` bumps `touches` — the standard observable action.
Status CountAction(const ActionContext& ctx) {
  ODE_ASSIGN_OR_RETURN(Value t, ctx.db->PeekAttr(ctx.self, "touches"));
  ODE_ASSIGN_OR_RETURN(Value next, t.Add(Value(1)));
  return ctx.db->SetAttr(ctx.txn, ctx.self, "touches", next);
}

// Parity class (same construction as net_e2e_test): batching-insensitive
// triggers, so multi-worker ingest must reproduce the single-threaded
// outcome exactly.
ClassDef ParityClass() {
  ClassDef def("cell");
  def.AddAttr("v", Value(0));
  def.AddAttr("touches", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{"peek", {}, MethodKind::kReadOnly, nullptr});
  def.AddTrigger("T1(): perpetual every 3 (after add) ==> count");
  def.AddTrigger("T2(): perpetual after add (d) && d > 50 ==> count");
  def.AddTrigger("T3(): perpetual relative(after add, after peek) ==> count");
  return def;
}

std::vector<Oid> SetupParityDb(Database* db, size_t num_objects) {
  EXPECT_TRUE(db->RegisterAction("count", CountAction).ok());
  EXPECT_TRUE(db->RegisterClass(ParityClass()).status().ok());
  std::vector<Oid> oids;
  TxnId t = db->Begin().value();
  for (size_t i = 0; i < num_objects; ++i) {
    Result<Oid> oid = db->New(t, "cell");
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
    for (const char* trig : {"T1", "T2", "T3"}) {
      ODE_EXPECT_OK(db->ActivateTrigger(t, *oid, trig));
    }
  }
  ODE_EXPECT_OK(db->Commit(t));
  return oids;
}

struct WorkItem {
  size_t obj;
  bool is_add;
  int delta;
};

std::vector<WorkItem> MakeWorkload(size_t num_objects, size_t num_events,
                                   uint32_t seed) {
  uint64_t state = seed * 2654435761u + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<WorkItem> work;
  work.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    WorkItem w;
    w.obj = next() % num_objects;
    w.is_add = next() % 4 != 0;
    w.delta = static_cast<int>(next() % 100);
    work.push_back(w);
  }
  return work;
}

/// Full server+runtime fixture over the parity schema.
struct Rig {
  explicit Rig(IngestOptions ingest_options = {}, size_t num_objects = 16,
               ServerOptions server_options = {})
      : oids(SetupParityDb(&db, num_objects)),
        rt(&db, ingest_options),
        server(&rt, server_options) {
    ODE_EXPECT_OK(rt.Start());
    ODE_EXPECT_OK(server.Start());
  }

  ClientOptions Client() const {
    ClientOptions options;
    options.port = server.port();
    options.recv_timeout_ms = 30000;
    return options;
  }

  Database db;
  std::vector<Oid> oids;
  IngestRuntime rt;
  IngestServer server;
};

// 8 identified clients against 4 IO workers, each thread dropping and
// redialing its connection every 1500 events. Churn moves connections
// across workers while replay dedup keeps delivery exactly-once, so the
// multi-worker server must still match the single-threaded oracle.
TEST(NetMtTest, MultiWorkerChurnMatchesOracle) {
  constexpr size_t kThreads = 8;
  constexpr size_t kObjectsPerThread = 2;
  constexpr size_t kEventsPerThread = 6000;
  constexpr size_t kCloseEvery = 1500;

  IngestOptions ingest_options;
  ingest_options.num_shards = 4;
  ingest_options.queue_capacity = 2048;
  ingest_options.max_batch = 128;
  ServerOptions server_options;
  server_options.io_threads = 4;
  Rig rig(ingest_options, kThreads * kObjectsPerThread, server_options);
  ASSERT_EQ(rig.server.io_threads(), 4u);

  std::vector<std::vector<WorkItem>> work(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    work[t] = MakeWorkload(kObjectsPerThread, kEventsPerThread,
                           static_cast<uint32_t>(t + 1));
  }

  std::vector<Status> results(kThreads, Status::OK());
  std::vector<IngestClient::Stats> stats(kThreads);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ClientOptions options = rig.Client();
        options.identity = "mt-churn-" + std::to_string(t);
        IngestClient client(options);
        Status s = client.Connect();
        size_t sent = 0;
        for (const WorkItem& w : work[t]) {
          if (!s.ok()) break;
          if (sent > 0 && sent % kCloseEvery == 0) {
            // Drop the connection mid-stream; the next Post redials and
            // replays the unacked pipeline under the durable identity.
            client.Close();
          }
          Oid oid = rig.oids[t * kObjectsPerThread + w.obj];
          s = w.is_add ? client.Post(oid, "add", {Value(w.delta)})
                       : client.Post(oid, "peek");
          ++sent;
        }
        if (s.ok()) s = client.Drain();
        results[t] = s;
        stats[t] = client.stats();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok())
        << "thread " << t << ": " << results[t].ToString();
    EXPECT_EQ(stats[t].posted, kEventsPerThread) << "thread " << t;
    EXPECT_EQ(stats[t].errors, 0u) << "thread " << t;
    EXPECT_GE(stats[t].reconnects, kEventsPerThread / kCloseEvery - 1)
        << "thread " << t;
  }

  // Exactly-once across the churn: every event applied once, none lost.
  runtime::RuntimeMetricsSnapshot snap = rig.rt.Metrics();
  EXPECT_EQ(snap.total.processed, kThreads * kEventsPerThread);
  EXPECT_EQ(snap.total.dropped, 0u);
  EXPECT_EQ(snap.total.dead_lettered, 0u);
  EXPECT_GE(rig.server.connections_accepted(),
            kThreads * (kEventsPerThread / kCloseEvery));

  Database oracle;
  std::vector<Oid> oracle_oids =
      SetupParityDb(&oracle, kThreads * kObjectsPerThread);
  for (size_t t = 0; t < kThreads; ++t) {
    for (const WorkItem& w : work[t]) {
      TxnId txn = oracle.Begin().value();
      Oid oid = oracle_oids[t * kObjectsPerThread + w.obj];
      Result<Value> r = w.is_add
                            ? oracle.Call(txn, oid, "add", {Value(w.delta)})
                            : oracle.Call(txn, oid, "peek");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ODE_ASSERT_OK(oracle.Commit(txn));
    }
  }
  for (size_t i = 0; i < rig.oids.size(); ++i) {
    Result<Value> v = rig.db.PeekAttr(rig.oids[i], "v");
    Result<Value> ov = oracle.PeekAttr(oracle_oids[i], "v");
    Result<Value> touches = rig.db.PeekAttr(rig.oids[i], "touches");
    Result<Value> otouches = oracle.PeekAttr(oracle_oids[i], "touches");
    ASSERT_TRUE(v.ok() && ov.ok() && touches.ok() && otouches.ok());
    EXPECT_EQ(v->AsInt().value(), ov->AsInt().value()) << "object " << i;
    EXPECT_EQ(touches->AsInt().value(), otouches->AsInt().value())
        << "object " << i;
  }
}

// A latch the shard worker parks on inside a method body, wedging its
// shard until the test opens it.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int waiting = 0;  ///< Shard workers parked in Wait().

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiting;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --waiting;
  }
  /// Blocks until a shard worker is parked in Wait().
  void AwaitWaiter() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return waiting > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

// "gcell": `add` is the fast path, `gate` parks the shard worker on the
// latch — a deterministic stand-in for a slow consumer.
ClassDef GateClass(Latch* latch) {
  ClassDef def("gcell");
  def.AddAttr("v", Value(0));
  def.AddMethod(MethodDef{
      "add",
      {{"int", "d"}},
      MethodKind::kUpdate,
      [](MethodContext* ctx) -> Status {
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value d, ctx->Arg("d"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(d));
        return ctx->Set("v", next);
      }});
  def.AddMethod(MethodDef{
      "gate",
      {},
      MethodKind::kUpdate,
      [latch](MethodContext* ctx) -> Status {
        latch->Wait();
        ODE_ASSIGN_OR_RETURN(Value v, ctx->Get("v"));
        ODE_ASSIGN_OR_RETURN(Value next, v.Add(Value(1)));
        return ctx->Set("v", next);
      }});
  return def;
}

/// Reads reply frames from a raw socket into `on_frame` until it returns
/// true (then true), or until `timeout_ms` pass or the peer closes (then
/// false).
bool ReadUntil(int fd, FrameDecoder* decoder, int timeout_ms,
               const std::function<bool(const Frame&)>& on_frame) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  Frame frame;
  char chunk[64 * 1024];
  while (true) {
    while (decoder->Next(&frame) == FrameDecoder::State::kFrame) {
      if (on_frame(frame)) return true;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) return false;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    decoder->Append(chunk, static_cast<size_t>(n));
  }
}

// The head-of-line regression test: with kBlock backpressure and a wedged
// shard, the old server's blocking Post() froze the whole IO loop. The
// TryPost handoff must instead park only the posting connection — a
// second connection on the SAME worker (io_threads = 1) keeps posting to
// the healthy shard and answering pings while the victim's frames sit in
// its deferred queue. Opening the latch drains everything exactly once.
TEST(NetMtTest, FullShardParksOnlyThePostingConnection) {
  constexpr int kGatePosts = 30;
  constexpr int kHealthyPosts = 500;

  Latch latch;
  Database db;
  ASSERT_TRUE(db.RegisterClass(GateClass(&latch)).status().ok());
  std::vector<Oid> oids;
  {
    TxnId t = db.Begin().value();
    for (int i = 0; i < 16; ++i) oids.push_back(db.New(t, "gcell").value());
    ODE_ASSERT_OK(db.Commit(t));
  }

  IngestOptions ingest_options;
  ingest_options.num_shards = 2;
  ingest_options.queue_capacity = 8;
  ingest_options.max_batch = 4;
  ingest_options.backpressure = BackpressurePolicy::kBlock;
  IngestRuntime rt(&db, ingest_options);
  ODE_ASSERT_OK(rt.Start());

  ServerOptions server_options;
  server_options.io_threads = 1;  // Isolation must hold within one worker.
  server_options.max_deferred_frames = 8;
  server_options.ack_every = 1;
  IngestServer server(&rt, server_options);
  ODE_ASSERT_OK(server.Start());

  Oid victim_oid = oids[0];
  size_t victim_shard = rt.ShardOf(victim_oid);
  Oid healthy_oid;
  bool found = false;
  for (const Oid& oid : oids) {
    if (rt.ShardOf(oid) != victim_shard) {
      healthy_oid = oid;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no oid landed on the other shard";

  ClientOptions client_options;
  client_options.port = server.port();
  client_options.recv_timeout_ms = 30000;
  client_options.auto_reconnect = false;

  // Wedge the victim shard: the first gate post parks its worker on the
  // latch, the rest fill the in-flight batch + queue, and the overflow
  // must land in the connection's deferred queue.
  IngestClient victim(client_options);
  ODE_ASSERT_OK(victim.Connect());
  for (int i = 0; i < kGatePosts; ++i) {
    ODE_ASSERT_OK(victim.Post(victim_oid, "gate"));
  }
  ODE_ASSERT_OK(victim.Flush());
  for (int spin = 0; spin < 2000 && server.frames_deferred() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(server.frames_deferred(), 0u)
      << "full shard never parked a frame";

  // The victim is parked; a healthy connection on the same worker must
  // still make full progress. Everything below happens while the latch is
  // closed, so success here *is* the absence of head-of-line blocking.
  IngestClient healthy(client_options);
  ODE_ASSERT_OK(healthy.Connect());
  for (int i = 0; i < kHealthyPosts; ++i) {
    ODE_ASSERT_OK(healthy.Post(healthy_oid, "add", {Value(1)}));
  }
  ODE_ASSERT_OK(healthy.Flush());
  ODE_ASSERT_OK(healthy.Ping());
  for (int spin = 0; spin < 2000; ++spin) {
    if (rt.Metrics().shards[1 - victim_shard].processed >=
        static_cast<uint64_t>(kHealthyPosts)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runtime::RuntimeMetricsSnapshot mid = rt.Metrics();
  EXPECT_EQ(mid.shards[1 - victim_shard].processed,
            static_cast<uint64_t>(kHealthyPosts));
  // The victim shard is still parked inside the first gate body.
  EXPECT_EQ(mid.shards[victim_shard].processed, 0u);

  // Release the wedge; the capacity wakeups retry the deferral and the
  // victim's barrier completes with every post applied exactly once.
  latch.Open();
  ODE_ASSERT_OK(victim.Drain());
  ODE_ASSERT_OK(healthy.Drain());
  EXPECT_EQ(db.PeekAttr(victim_oid, "v").value().AsInt().value(), kGatePosts);
  EXPECT_EQ(db.PeekAttr(healthy_oid, "v").value().AsInt().value(),
            kHealthyPosts);
  runtime::RuntimeMetricsSnapshot snap = rt.Metrics();
  EXPECT_EQ(snap.total.processed,
            static_cast<uint64_t>(kGatePosts + kHealthyPosts));
  EXPECT_EQ(snap.total.dropped, 0u);
  EXPECT_EQ(snap.total.rejected, 0u);

  server.Stop();
  ODE_ASSERT_OK(rt.Stop());
}

// Connection-limit rejections must be best-effort and non-blocking: a
// flood of over-limit dials each gets the courtesy ERR + close (when the
// socket accepts it), and the acceptor never wedges on a peer that is not
// reading — the admitted connection stays fully responsive throughout.
TEST(NetMtTest, ConnectionLimitRejectIsBestEffort) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  server_options.io_threads = 2;
  Rig rig({}, 4, server_options);

  IngestClient admitted(rig.Client());
  ODE_ASSERT_OK(admitted.Connect());
  ODE_ASSERT_OK(admitted.Ping());  // Round trip ⇒ the slot is occupied.

  // Flood with raw dials that never read. Each must observe the courtesy
  // ERR and then EOF; none may wedge the acceptor.
  std::vector<Socket> rejected;
  for (int i = 0; i < 5; ++i) {
    Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
    ODE_ASSERT_OK(sock.status());
    rejected.push_back(std::move(*sock));
  }
  for (Socket& sock : rejected) {
    FrameDecoder decoder;
    Frame frame;
    bool got_err = false;
    bool closed = false;
    char chunk[4096];
    while (!closed) {
      ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
      if (n <= 0) {
        closed = true;
        break;
      }
      decoder.Append(chunk, static_cast<size_t>(n));
      while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
        EXPECT_EQ(frame.type, FrameType::kErr);
        got_err = true;
      }
    }
    EXPECT_TRUE(got_err) << "over-limit dial got no courtesy ERR";
    EXPECT_TRUE(closed);
  }

  // The admitted connection never noticed the flood.
  ODE_ASSERT_OK(admitted.Post(rig.oids[0], "add", {Value(1)}));
  ODE_ASSERT_OK(admitted.Drain());
  EXPECT_EQ(rig.db.PeekAttr(rig.oids[0], "v").value().AsInt().value(), 1);

  // Freeing the slot re-admits: dropping the client must eventually let a
  // fresh dial through the limit check.
  admitted.Close();
  Status readmitted = Status::Unavailable("never re-admitted");
  for (int spin = 0; spin < 2000; ++spin) {
    IngestClient next(rig.Client());
    Status s = next.Connect();
    if (s.ok()) s = next.Ping();
    if (s.ok()) {
      readmitted = Status::OK();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ODE_EXPECT_OK(readmitted);
}

// Regression: a malformed frame arriving behind enough pending replies to
// overflow max_write_buffer must still get its promised ERR_MALFORMED —
// the over-limit close path owes the connection one final best-effort
// flush. (max_write_buffer = 100 holds 7 of the 8 13-byte ACKs, so the
// batch + ERR overflows it on any read split.)
TEST(NetMtTest, MalformedFrameErrSurvivesFullWriteBuffer) {
  ServerOptions server_options;
  server_options.ack_every = 1;
  server_options.max_write_buffer = 100;
  Rig rig({}, 4, server_options);

  Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
  ODE_ASSERT_OK(sock.status());
  std::string wire;
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    ODE_ASSERT_OK(AppendPost(&wire, seq, rig.oids[0], "add", {Value(1)}));
  }
  // A header declaring a payload far beyond kMaxFramePayload.
  const char garbage[] = {'\xFF', '\xFF', '\xFF', '\xFF', '\x01'};
  wire.append(garbage, sizeof(garbage));
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  Frame frame;
  bool got_err = false;
  uint64_t ack_watermark = 0;
  bool closed = false;
  char chunk[4096];
  while (!closed) {
    ssize_t n = ::recv(sock->fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    decoder.Append(chunk, static_cast<size_t>(n));
    while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
      if (frame.type == FrameType::kAck) {
        ack_watermark = frame.seq;
      } else {
        EXPECT_EQ(frame.type, FrameType::kErr);
        EXPECT_EQ(frame.error, WireError::kMalformed);
        got_err = true;
      }
    }
  }
  EXPECT_TRUE(got_err) << "over-buffer close dropped the promised ERR";
  EXPECT_TRUE(closed);
  EXPECT_EQ(ack_watermark, 8u);
}

// Regression: Stop() must flush each connection's earned-but-unsent ACK
// watermark before closing. The idle ACK usually delivers the watermark
// before Stop() runs; whichever path sends it, the peer must hold the full
// watermark when it sees EOF.
TEST(NetMtTest, StopFlushesEarnedAckWatermark) {
  constexpr uint64_t kPosts = 5;
  Rig rig;

  Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
  ODE_ASSERT_OK(sock.status());
  std::string wire;
  for (uint64_t seq = 1; seq <= kPosts; ++seq) {
    ODE_ASSERT_OK(AppendPost(&wire, seq, rig.oids[0], "add", {Value(1)}));
  }
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  for (int spin = 0; spin < 2000 && rig.rt.Metrics().total.enqueued < kPosts;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(rig.rt.Metrics().total.enqueued, kPosts);

  rig.server.Stop();

  FrameDecoder decoder;
  Frame frame;
  uint64_t ack_watermark = 0;
  bool closed = false;
  char chunk[4096];
  while (!closed) {
    ssize_t n = ::recv(sock->fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    decoder.Append(chunk, static_cast<size_t>(n));
    while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
      if (frame.type == FrameType::kAck) ack_watermark = frame.seq;
    }
  }
  EXPECT_TRUE(closed);
  EXPECT_EQ(ack_watermark, kPosts) << "Stop() stranded the ACK watermark";
}

// The idle ACK: a lone post, with no DRAIN and nothing posted after it,
// is acknowledged as soon as the worker has flushed the connection's
// replies — not after ack_every (1024) posts.
TEST(NetMtTest, IdleAckConfirmsALonePost) {
  Rig rig({}, 4);
  Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
  ODE_ASSERT_OK(sock.status());
  std::string wire;
  ODE_ASSERT_OK(AppendPost(&wire, 1, rig.oids[0], "add", {Value(1)}));
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  uint64_t acked = 0;
  EXPECT_TRUE(ReadUntil(sock->fd(), &decoder, 5000, [&](const Frame& f) {
    EXPECT_EQ(f.type, FrameType::kAck);
    acked = f.seq;
    return f.type == FrameType::kAck;
  })) << "no ACK within 5 s for a lone post";
  EXPECT_EQ(acked, 1u);
}

// The idle ACK goes only into an empty write buffer. A peer that does not
// read floods PINGs until its PONGs back up in the server's write buffer,
// then posts one frame at a time (each handled in a round of its own).
// While replies are pending no idle ACK is added, so once the peer reads,
// one ACK covering every post arrives after the last PONG — not one ACK
// per round.
TEST(NetMtTest, IdleAckWaitsForAnEmptyWriteBuffer) {
  constexpr uint64_t kPosts = 5;
  ServerOptions server_options;
  server_options.max_write_buffer = 64 * 1024 * 1024;
  Rig rig({}, 4, server_options);

  // The PONGs must outgrow what the kernel buffers: the peer's receive
  // buffer (locked small below) plus the server's send buffer, which
  // grows up to tcp_wmem's maximum.
  size_t wmem_max = 4 * 1024 * 1024;
  {
    std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
    size_t lo = 0, def = 0, hi = 0;
    if (in >> lo >> def >> hi) wmem_max = hi;
  }
  std::string ping;
  AppendPing(&ping, 0);
  const size_t kPings = (wmem_max + (2u << 20)) / ping.size();

  Result<Socket> sock = TcpConnect("127.0.0.1", rig.server.port());
  ODE_ASSERT_OK(sock.status());
  int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);

  std::string wire;
  for (size_t i = 0; i < kPings; ++i) AppendPing(&wire, kPosts + 1 + i);
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  for (uint64_t seq = 1; seq <= kPosts; ++seq) {
    wire.clear();
    ODE_ASSERT_OK(AppendPost(&wire, seq, rig.oids[0], "add", {Value(1)}));
    ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    for (int spin = 0; spin < 2000 && rig.rt.Metrics().total.enqueued < seq;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(rig.rt.Metrics().total.enqueued, seq);
  }

  FrameDecoder decoder;
  size_t pongs = 0;
  size_t pongs_before_ack = 0;
  std::vector<uint64_t> acks;
  EXPECT_TRUE(ReadUntil(sock->fd(), &decoder, 30000, [&](const Frame& f) {
    if (f.type == FrameType::kPong) {
      ++pongs;
    } else {
      EXPECT_EQ(f.type, FrameType::kAck);
      if (acks.empty()) pongs_before_ack = pongs;
      acks.push_back(f.seq);
    }
    return !acks.empty() && pongs == kPings;
  }));
  EXPECT_EQ(pongs, kPings);
  EXPECT_EQ(pongs_before_ack, kPings) << "an ACK overtook pending PONGs";
  // A second ACK would be right behind the first; give it time to show.
  ReadUntil(sock->fd(), &decoder, 300, [&](const Frame& f) {
    acks.push_back(f.seq);
    return false;
  });
  EXPECT_EQ(acks, std::vector<uint64_t>{kPosts})
      << "idle ACKs were added while replies were pending";
}

// The idle ACK never covers a parked post. The victim shard is wedged
// (the FullShardParksOnlyThePostingConnection setup) and the overflow
// sits in the connection's deferred queue; every ACK meanwhile stays
// within the posts the runtime has accepted. Once the wedge opens, the
// idle ACK covers them all without a DRAIN.
TEST(NetMtTest, IdleAckNeverCoversAParkedPost) {
  constexpr uint64_t kGatePosts = 30;

  Latch latch;
  Database db;
  ASSERT_TRUE(db.RegisterClass(GateClass(&latch)).status().ok());
  TxnId t = db.Begin().value();
  Oid victim_oid = db.New(t, "gcell").value();
  ODE_ASSERT_OK(db.Commit(t));

  IngestOptions ingest_options;
  ingest_options.num_shards = 1;
  ingest_options.queue_capacity = 8;
  ingest_options.max_batch = 4;
  ingest_options.backpressure = BackpressurePolicy::kBlock;
  IngestRuntime rt(&db, ingest_options);
  ODE_ASSERT_OK(rt.Start());
  ServerOptions server_options;
  server_options.max_deferred_frames = 8;
  IngestServer server(&rt, server_options);
  ODE_ASSERT_OK(server.Start());

  Result<Socket> sock = TcpConnect("127.0.0.1", server.port());
  ODE_ASSERT_OK(sock.status());
  std::string wire;
  for (uint64_t seq = 1; seq <= kGatePosts; ++seq) {
    ODE_ASSERT_OK(AppendPost(&wire, seq, victim_oid, "gate", {}));
  }
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  for (int spin = 0; spin < 2000 && server.frames_deferred() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(server.frames_deferred(), 0u) << "full shard never parked a frame";

  // Several poll timeouts' worth of retry rounds while the wedge holds.
  FrameDecoder decoder;
  uint64_t watermark = 0;
  ReadUntil(sock->fd(), &decoder, 700, [&](const Frame& f) {
    EXPECT_EQ(f.type, FrameType::kAck);
    EXPECT_LE(f.seq, rt.Metrics().total.enqueued) << "ACK covers a parked post";
    watermark = f.seq;
    return false;
  });
  const uint64_t accepted = rt.Metrics().total.enqueued;
  EXPECT_LT(accepted, kGatePosts);
  EXPECT_EQ(watermark, accepted) << "the accepted prefix was not idle-ACKed";

  latch.Open();
  EXPECT_TRUE(ReadUntil(sock->fd(), &decoder, 30000, [&](const Frame& f) {
    EXPECT_EQ(f.type, FrameType::kAck);
    watermark = f.seq;
    return watermark == kGatePosts;
  })) << "stopped at ACK " << watermark;
  ODE_ASSERT_OK(rt.Drain());
  EXPECT_EQ(db.PeekAttr(victim_oid, "v").value().AsInt().value(),
            static_cast<int64_t>(kGatePosts));
  server.Stop();
  ODE_ASSERT_OK(rt.Stop());
}

// The idle ACK never covers an ERRed post: with kReject and the shard
// wedged, the posts that do not fit the queue get ERR_WOULD_BLOCK, and no
// ACK reaches past the last accepted post.
TEST(NetMtTest, IdleAckNeverCoversARejectedPost) {
  constexpr uint64_t kGatePosts = 30;
  constexpr uint64_t kQueue = 8;

  Latch latch;
  Database db;
  ASSERT_TRUE(db.RegisterClass(GateClass(&latch)).status().ok());
  TxnId t = db.Begin().value();
  Oid victim_oid = db.New(t, "gcell").value();
  ODE_ASSERT_OK(db.Commit(t));

  IngestOptions ingest_options;
  ingest_options.num_shards = 1;
  ingest_options.queue_capacity = kQueue;
  ingest_options.backpressure = BackpressurePolicy::kReject;
  IngestRuntime rt(&db, ingest_options);
  ODE_ASSERT_OK(rt.Start());
  IngestServer server(&rt);
  ODE_ASSERT_OK(server.Start());

  // The first gate post wedges the shard worker; the rest follow once it
  // is parked, so the queue takes exactly the next kQueue of them.
  Result<Socket> sock = TcpConnect("127.0.0.1", server.port());
  ODE_ASSERT_OK(sock.status());
  std::string wire;
  ODE_ASSERT_OK(AppendPost(&wire, 1, victim_oid, "gate", {}));
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  latch.AwaitWaiter();
  wire.clear();
  for (uint64_t seq = 2; seq <= kGatePosts; ++seq) {
    ODE_ASSERT_OK(AppendPost(&wire, seq, victim_oid, "gate", {}));
  }
  ASSERT_EQ(::send(sock->fd(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  uint64_t watermark = 0;
  uint64_t first_err = 0;
  uint64_t errs = 0;
  EXPECT_TRUE(ReadUntil(sock->fd(), &decoder, 30000, [&](const Frame& f) {
    if (f.type == FrameType::kAck) {
      EXPECT_TRUE(first_err == 0 || f.seq < first_err)
          << "ACK " << f.seq << " covers ERRed post " << first_err;
      watermark = f.seq;
    } else {
      EXPECT_EQ(f.type, FrameType::kErr);
      EXPECT_EQ(f.error, WireError::kWouldBlock);
      if (first_err == 0) first_err = f.seq;
      ++errs;
    }
    return errs == kGatePosts - 1 - kQueue;
  }));
  // Nothing is accepted after the queue fills, so no ACK follows the ERRs.
  ReadUntil(sock->fd(), &decoder, 300, [&](const Frame& f) {
    ADD_FAILURE() << "unexpected " << FrameTypeName(f.type) << " " << f.seq;
    return false;
  });
  EXPECT_EQ(rt.Metrics().total.enqueued, 1 + kQueue);
  EXPECT_EQ(watermark, 1 + kQueue);
  EXPECT_EQ(first_err, 2 + kQueue);

  latch.Open();
  ODE_ASSERT_OK(rt.Drain());
  server.Stop();
  ODE_ASSERT_OK(rt.Stop());
}

}  // namespace
}  // namespace net
}  // namespace ode
