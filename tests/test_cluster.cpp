// Cluster fault-tolerance suite: the incremental wire decoder (partial
// reads, resync after corruption), the message protocol, and a real
// master exercised by scripted hostile workers over loopback TCP — the
// wire-corruption sweep asserting the master never commits a corrupt,
// stale, or duplicated record.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "cluster/master.hpp"
#include "cluster/protocol.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "nas/evaluator.hpp"
#include "nas/genome.hpp"
#include "util/frame.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

using namespace a4nn;
using cluster::MsgType;

namespace {

// ---------------------------------------------------------------------------
// StreamDecoder: incremental decoding + resync
// ---------------------------------------------------------------------------

TEST(StreamDecoder, SingleFrameRoundTrip) {
  util::StreamDecoder dec;
  dec.feed(util::encode_wire_frame(4, "hello cluster"));
  util::WireFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.type, 4);
  EXPECT_EQ(f.payload, "hello cluster");
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.frames_decoded(), 1u);
  EXPECT_EQ(dec.corrupt_frames(), 0u);
}

TEST(StreamDecoder, SplitAtEveryByteBoundary) {
  // Three frames of varying sizes; the stream must decode identically no
  // matter where a read() boundary falls — including inside the length
  // prefix, the type byte, the integrity header, and the payload.
  std::string stream;
  stream += util::encode_wire_frame(1, "");
  stream += util::encode_wire_frame(2, "x");
  stream += util::encode_wire_frame(9, std::string(257, 'q') + "\n\x01 end");
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    util::StreamDecoder dec;
    dec.feed(stream.data(), split);
    std::vector<util::WireFrame> got;
    util::WireFrame f;
    while (dec.next(f)) got.push_back(f);
    dec.feed(stream.data() + split, stream.size() - split);
    while (dec.next(f)) got.push_back(f);
    ASSERT_EQ(got.size(), 3u) << "split at byte " << split;
    EXPECT_EQ(got[0].type, 1) << "split at byte " << split;
    EXPECT_EQ(got[1].payload, "x") << "split at byte " << split;
    EXPECT_EQ(got[2].type, 9) << "split at byte " << split;
    EXPECT_EQ(dec.corrupt_frames(), 0u) << "split at byte " << split;
  }
}

TEST(StreamDecoder, OneBytePerFeed) {
  std::string stream;
  for (int i = 0; i < 5; ++i)
    stream += util::encode_wire_frame(static_cast<std::uint8_t>(i + 1),
                                      "payload " + std::to_string(i));
  util::StreamDecoder dec;
  std::vector<util::WireFrame> got;
  util::WireFrame f;
  for (char c : stream) {
    dec.feed(&c, 1);
    while (dec.next(f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(got[i].payload, "payload " + std::to_string(i));
}

TEST(StreamDecoder, ResyncAfterGarbageBetweenFrames) {
  std::string stream = util::encode_wire_frame(1, "before");
  stream += "\x13\x37garbage bytes that are not a frame\xff\xfe";
  stream += util::encode_wire_frame(2, "after");
  util::StreamDecoder dec;
  dec.feed(stream);
  util::WireFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "before");
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "after");
  EXPECT_FALSE(dec.next(f));
  EXPECT_GE(dec.corrupt_frames(), 1u);
  EXPECT_GE(dec.resyncs(), 1u);
  EXPECT_GT(dec.bytes_discarded(), 0u);
}

TEST(StreamDecoder, ResyncAfterBitFlipInPayload) {
  std::string a = util::encode_wire_frame(1, "first frame payload");
  std::string b = util::encode_wire_frame(2, "second frame payload");
  a[a.size() / 2] ^= 0x40;  // flip a bit inside the first frame's payload
  util::StreamDecoder dec;
  dec.feed(a + b);
  util::WireFrame f;
  // The corrupted frame must be dropped (CRC catches the flip) and the
  // clean one recovered via resync.
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "second frame payload");
  EXPECT_FALSE(dec.next(f));
  EXPECT_GE(dec.corrupt_frames(), 1u);
}

TEST(StreamDecoder, ResyncAfterBitFlipEveryPosition) {
  // A bit flip at ANY byte of the first frame must never corrupt what the
  // decoder yields, and once enough bytes arrive to resolve even an
  // inflated length claim (bounded here by a small max_frame_bytes), the
  // clean frames that follow must all be recovered. A flush frame larger
  // than the length bound guarantees every stall resolves.
  const std::string clean = util::encode_wire_frame(3, "victim payload");
  const std::string follow = util::encode_wire_frame(4, "survivor");
  const std::string flush = util::encode_wire_frame(5, std::string(1000, 'f'));
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string corrupted = clean;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x20);
    if (corrupted == clean) continue;
    util::StreamDecoder dec(1024);
    dec.feed(corrupted + follow + flush);
    util::WireFrame f;
    std::vector<std::string> got;
    while (dec.next(f)) got.push_back(f.payload);
    // The survivor and (if the flip hit only the victim's type byte) the
    // victim may decode; a corrupted victim payload must never appear.
    for (const std::string& p : got)
      EXPECT_TRUE(p == "victim payload" || p == "survivor" ||
                  p == std::string(1000, 'f'))
          << "flip at byte " << i << " yielded corrupt payload";
    ASSERT_GE(got.size(), 2u) << "flip at byte " << i;
    EXPECT_EQ(got[got.size() - 2], "survivor") << "flip at byte " << i;
    EXPECT_EQ(got.back(), std::string(1000, 'f')) << "flip at byte " << i;
  }
}

TEST(StreamDecoder, TruncatedFrameWaitsForMoreBytes) {
  const std::string frame = util::encode_wire_frame(5, "truncation test");
  util::StreamDecoder dec;
  dec.feed(frame.data(), frame.size() - 4);
  util::WireFrame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.corrupt_frames(), 0u);  // incomplete, not corrupt
  dec.feed(frame.data() + frame.size() - 4, 4);
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "truncation test");
}

TEST(StreamDecoder, DuplicatedFrameDecodesTwice) {
  // The decoder is dumb on purpose: duplicates are the master's problem
  // (job-id matching), detecting them here would need unbounded memory.
  const std::string frame = util::encode_wire_frame(6, "dup");
  util::StreamDecoder dec;
  dec.feed(frame + frame);
  util::WireFrame f;
  ASSERT_TRUE(dec.next(f));
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "dup");
  EXPECT_FALSE(dec.next(f));
}

TEST(StreamDecoder, OversizedLengthIsCorruptNotFatal) {
  // A torn length prefix can claim gigabytes; the decoder must reject it
  // instead of buffering forever, then recover the next clean frame.
  std::string evil = "\xff\xff\xff\x7f" + std::string(1, '\x01') + "junk";
  util::StreamDecoder dec(1 << 20);
  dec.feed(evil + util::encode_wire_frame(7, "clean"));
  util::WireFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.payload, "clean");
  EXPECT_GE(dec.corrupt_frames(), 1u);
}

// ---------------------------------------------------------------------------
// Protocol bodies
// ---------------------------------------------------------------------------

TEST(Protocol, HelloRoundTrip) {
  cluster::Hello h;
  h.worker = "node-17";
  h.ram_bytes = 64ull << 30;
  h.threads = 12;
  h.config_crc = 0xDEADBEEF;
  const cluster::Hello back = cluster::Hello::from_json(h.to_json());
  EXPECT_EQ(back.worker, "node-17");
  EXPECT_EQ(back.ram_bytes, 64ull << 30);
  EXPECT_EQ(back.threads, 12u);
  EXPECT_EQ(back.config_crc, 0xDEADBEEFu);
  EXPECT_EQ(back.protocol, cluster::kProtocolVersion);
}

TEST(Protocol, SeedHexSurvivesBeyondDoublePrecision) {
  // 2^53 + 1 is unrepresentable as a double — the reason seeds ride as hex.
  const std::uint64_t seeds[] = {0ull, 1ull, (1ull << 53) + 1,
                                 0xFFFFFFFFFFFFFFFFull,
                                 0x9E3779B97F4A7C15ull};
  for (std::uint64_t s : seeds)
    EXPECT_EQ(cluster::hex_to_u64(cluster::u64_to_hex(s)), s);
  EXPECT_THROW(cluster::hex_to_u64("not hex"), std::runtime_error);
}

TEST(Protocol, JobRequestRoundTrip) {
  util::Rng rng(11);
  cluster::JobRequest req;
  req.job = (1ull << 40) + 3;
  req.model_id = 42;
  req.generation = 7;
  req.seed_hex = cluster::u64_to_hex(0xABCDEF0123456789ull);
  req.genome = nas::random_genome(3, 4, rng).to_json();
  const std::string wire = cluster::encode(MsgType::kJobRequest, req.to_json());
  util::StreamDecoder dec;
  dec.feed(wire);
  util::WireFrame f;
  ASSERT_TRUE(dec.next(f));
  ASSERT_TRUE(cluster::known_type(f.type));
  ASSERT_EQ(static_cast<MsgType>(f.type), MsgType::kJobRequest);
  const cluster::JobRequest back =
      cluster::JobRequest::from_json(cluster::parse_body(f));
  EXPECT_EQ(back.job, req.job);
  EXPECT_EQ(back.model_id, 42);
  EXPECT_EQ(back.generation, 7);
  EXPECT_EQ(nas::Genome::from_json(back.genome).key(),
            nas::Genome::from_json(req.genome).key());
}

// ---------------------------------------------------------------------------
// Master vs scripted hostile workers (loopback TCP)
// ---------------------------------------------------------------------------

cluster::MasterOptions fast_master_options() {
  cluster::MasterOptions o;
  o.port = 0;  // ephemeral
  o.config_crc = 0xC0FFEE;
  o.heartbeat_interval_ms = 50;
  o.heartbeat_timeout_ms = 2000;
  o.max_attempts = 4;
  o.quarantine_after = 3;
  o.backoff_base_ms = 5.0;
  o.backoff_cap_ms = 20.0;
  o.seed = 99;
  return o;
}

util::Json job_payload(int model_id) {
  util::Json p = util::Json::object();
  p["job"] = 0.0;
  p["model_id"] = model_id;
  p["generation"] = 1;
  p["seed"] = cluster::u64_to_hex(1234);
  util::Rng rng(static_cast<std::uint64_t>(model_id) + 1);
  p["genome"] = nas::random_genome(2, 3, rng).to_json();
  return p;
}

util::Json record_for(const cluster::JobRequest& req) {
  nas::EvaluationRecord rec;
  rec.model_id = req.model_id;
  rec.generation = req.generation;
  rec.genome = nas::Genome::from_json(req.genome);
  rec.fitness = 90.0 + req.model_id;
  rec.virtual_seconds = 1.5;
  return rec.to_json();
}

/// Blocking handshake helper for scripted raw-socket workers.
struct RawWorker {
  cluster::TcpConn conn;
  util::StreamDecoder dec;

  static RawWorker join(std::uint16_t port, std::uint32_t crc = 0xC0FFEE,
                        const std::string& name = "raw") {
    RawWorker w;
    w.conn = cluster::TcpConn::connect("127.0.0.1", port, 2000);
    EXPECT_TRUE(w.conn.valid());
    cluster::Hello hello;
    hello.worker = name;
    hello.threads = 2;
    hello.ram_bytes = 1ull << 30;
    hello.config_crc = crc;
    EXPECT_TRUE(
        w.conn.send_all(cluster::encode(MsgType::kHello, hello.to_json())));
    return w;
  }

  /// Pump until a frame of `want` arrives (answering heartbeats), or fail.
  bool await(MsgType want, util::WireFrame& out, int total_timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(total_timeout_ms);
    char buf[8192];
    for (;;) {
      util::WireFrame f;
      while (dec.next(f)) {
        if (!cluster::known_type(f.type)) continue;
        const auto type = static_cast<MsgType>(f.type);
        if (type == MsgType::kHeartbeat) {
          conn.send_all(cluster::encode(MsgType::kHeartbeatAck));
          continue;
        }
        if (type == want) {
          out = f;
          return true;
        }
      }
      if (std::chrono::steady_clock::now() > deadline) return false;
      const int n = conn.recv_some(buf, sizeof(buf), 50);
      if (n < 0) return false;
      if (n > 0) dec.feed(buf, static_cast<std::size_t>(n));
    }
  }
};

TEST(Master, NoWorkersMeansImmediateLocalFallback) {
  cluster::Master master(fast_master_options());
  util::metrics::Registry reg;
  master.set_metrics(&reg);
  EXPECT_EQ(master.connected_workers(), 0u);
  const auto result = master.evaluate(job_payload(1));
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(reg.counter("cluster.local_fallbacks").value(), 1.0);
  master.set_metrics(nullptr);
}

TEST(Master, ConfigDigestMismatchIsRejected) {
  cluster::Master master(fast_master_options());
  RawWorker w = RawWorker::join(master.port(), /*crc=*/0xBAD);
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kReject, f));
  const cluster::Reject r = cluster::Reject::from_json(cluster::parse_body(f));
  EXPECT_NE(r.reason.find("config"), std::string::npos);
  EXPECT_EQ(master.connected_workers(), 0u);
}

TEST(Master, HappyPathRemoteEvaluation) {
  cluster::Master master(fast_master_options());
  RawWorker w = RawWorker::join(master.port());
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kWelcome, f));
  ASSERT_TRUE(master.wait_for_workers(1, 2000));

  auto fut = std::async(std::launch::async,
                        [&] { return master.evaluate(job_payload(7)); });
  ASSERT_TRUE(w.await(MsgType::kJobRequest, f));
  const cluster::JobRequest req =
      cluster::JobRequest::from_json(cluster::parse_body(f));
  EXPECT_EQ(req.model_id, 7);
  cluster::JobResult res;
  res.job = req.job;
  res.record = record_for(req);
  ASSERT_TRUE(
      w.conn.send_all(cluster::encode(MsgType::kJobResult, res.to_json())));
  const auto result = fut.get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), 7);
}

// The wire-corruption sweep: bit-flipped frame, duplicated frame, stale
// job id, wrong-model record, truncated frame + drop. In every case the
// master must commit only the one clean record (or fall back locally) and
// account for what it dropped.
TEST(Master, CorruptionSweepNeverCommitsBadRecords) {
  cluster::Master master(fast_master_options());
  util::metrics::Registry reg;
  master.set_metrics(&reg);
  RawWorker w = RawWorker::join(master.port());
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kWelcome, f));
  ASSERT_TRUE(master.wait_for_workers(1, 2000));

  // --- stale reply for a job id that was never dispatched: dropped.
  {
    cluster::JobResult ghost;
    ghost.job = 999999;
    cluster::JobRequest fake;
    fake.model_id = 12;
    fake.generation = 0;
    util::Rng rng(5);
    fake.genome = nas::random_genome(2, 3, rng).to_json();
    ghost.record = record_for(fake);
    ASSERT_TRUE(w.conn.send_all(
        cluster::encode(MsgType::kJobResult, ghost.to_json())));
  }

  auto fut = std::async(std::launch::async,
                        [&] { return master.evaluate(job_payload(3)); });
  ASSERT_TRUE(w.await(MsgType::kJobRequest, f));
  const cluster::JobRequest req =
      cluster::JobRequest::from_json(cluster::parse_body(f));

  cluster::JobResult good;
  good.job = req.job;
  good.record = record_for(req);
  const std::string good_bytes =
      cluster::encode(MsgType::kJobResult, good.to_json());

  // --- bit-flipped copy first: CRC must reject it, the master must not
  //     finish the job with it.
  std::string flipped = good_bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  ASSERT_TRUE(w.conn.send_all(flipped));
  // --- then the clean frame, TWICE (duplicated-frame case): the first
  //     commits, the second is stale because the job is already done.
  ASSERT_TRUE(w.conn.send_all(good_bytes));
  ASSERT_TRUE(w.conn.send_all(good_bytes));

  const auto result = fut.get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), 3);
  EXPECT_DOUBLE_EQ(result->at("fitness").as_number(), 93.0);

  // Give the io thread a beat to account the trailing duplicate and the
  // decoder-corruption tally (the tally runs at the top of the next pump
  // tick, one tick after the frames decode).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while ((reg.counter("cluster.stale_results").value() < 2.0 ||
          reg.counter("cluster.corrupt_frames").value() < 1.0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(reg.counter("cluster.corrupt_frames").value(), 1.0);
  EXPECT_EQ(reg.counter("cluster.stale_results").value(), 2.0);
  EXPECT_EQ(reg.counter("cluster.remote_results").value(), 1.0);
  master.set_metrics(nullptr);
}

// Hostile-input leg of the sweep: a CRC-valid result frame whose body is a
// million nested arrays. The parser's depth cap makes it a malformed body
// instead of a stack overflow, so the master drops the frame and the
// worker; with no worker left the job is declined (the scheduler would run
// it locally) and nothing remote is committed.
TEST(Master, DeeplyNestedFrameIsDroppedAndCommitsNothing) {
  cluster::Master master(fast_master_options());
  util::metrics::Registry reg;
  master.set_metrics(&reg);
  RawWorker w = RawWorker::join(master.port());
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kWelcome, f));
  ASSERT_TRUE(master.wait_for_workers(1, 2000));

  auto fut = std::async(std::launch::async,
                        [&] { return master.evaluate(job_payload(5)); });
  ASSERT_TRUE(w.await(MsgType::kJobRequest, f));
  ASSERT_TRUE(w.conn.send_all(util::encode_wire_frame(
      static_cast<std::uint8_t>(MsgType::kJobResult),
      std::string(1000000, '['))));

  EXPECT_FALSE(fut.get().has_value());
  EXPECT_GE(reg.counter("cluster.corrupt_frames").value(), 1.0);
  EXPECT_GE(reg.counter("cluster.worker_failures").value(), 1.0);
  EXPECT_EQ(reg.counter("cluster.remote_results").value(), 0.0);
  EXPECT_EQ(master.connected_workers(), 0u);
  master.set_metrics(nullptr);
}

TEST(Master, WrongModelRecordIsRejectedAndRedispatched) {
  auto opts = fast_master_options();
  opts.quarantine_after = 10;  // let the same identity reconnect
  cluster::Master master(opts);
  util::metrics::Registry reg;
  master.set_metrics(&reg);

  RawWorker w = RawWorker::join(master.port());
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kWelcome, f));
  ASSERT_TRUE(master.wait_for_workers(1, 2000));

  auto fut = std::async(std::launch::async,
                        [&] { return master.evaluate(job_payload(5)); });
  ASSERT_TRUE(w.await(MsgType::kJobRequest, f));
  cluster::JobRequest req =
      cluster::JobRequest::from_json(cluster::parse_body(f));

  // CRC-valid result naming the WRONG model: must never be committed.
  cluster::JobRequest wrong = req;
  wrong.model_id = req.model_id + 100;
  cluster::JobResult evil;
  evil.job = req.job;
  evil.record = record_for(wrong);
  ASSERT_TRUE(
      w.conn.send_all(cluster::encode(MsgType::kJobResult, evil.to_json())));

  // The master drops the connection; reconnect as the same identity and
  // serve the re-dispatched job correctly.
  RawWorker w2 = RawWorker::join(master.port());
  ASSERT_TRUE(w2.await(MsgType::kWelcome, f));
  ASSERT_TRUE(w2.await(MsgType::kJobRequest, f, 10000));
  req = cluster::JobRequest::from_json(cluster::parse_body(f));
  EXPECT_EQ(req.model_id, 5);
  cluster::JobResult good;
  good.job = req.job;
  good.record = record_for(req);
  ASSERT_TRUE(
      w2.conn.send_all(cluster::encode(MsgType::kJobResult, good.to_json())));

  const auto result = fut.get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), 5);
  EXPECT_GE(reg.counter("cluster.corrupt_results").value(), 1.0);
  EXPECT_GE(reg.counter("cluster.redispatches").value(), 1.0);
  master.set_metrics(nullptr);
}

TEST(Master, TruncatedResultAndDropTriggersRedispatch) {
  auto opts = fast_master_options();
  opts.quarantine_after = 10;
  cluster::Master master(opts);
  util::metrics::Registry reg;
  master.set_metrics(&reg);

  RawWorker w = RawWorker::join(master.port());
  util::WireFrame f;
  ASSERT_TRUE(w.await(MsgType::kWelcome, f));
  ASSERT_TRUE(master.wait_for_workers(1, 2000));

  auto fut = std::async(std::launch::async,
                        [&] { return master.evaluate(job_payload(8)); });
  ASSERT_TRUE(w.await(MsgType::kJobRequest, f));
  cluster::JobRequest req =
      cluster::JobRequest::from_json(cluster::parse_body(f));
  cluster::JobResult res;
  res.job = req.job;
  res.record = record_for(req);
  // Torn mid-frame, then the connection dies (the classic kill -9).
  w.conn.send_torn(cluster::encode(MsgType::kJobResult, res.to_json()),
                   /*prefix=*/30);

  RawWorker w2 = RawWorker::join(master.port());
  ASSERT_TRUE(w2.await(MsgType::kWelcome, f));
  ASSERT_TRUE(w2.await(MsgType::kJobRequest, f, 10000));
  req = cluster::JobRequest::from_json(cluster::parse_body(f));
  EXPECT_EQ(req.model_id, 8);
  res.job = req.job;
  res.record = record_for(req);
  ASSERT_TRUE(
      w2.conn.send_all(cluster::encode(MsgType::kJobResult, res.to_json())));

  const auto result = fut.get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), 8);
  EXPECT_GE(reg.counter("cluster.worker_failures").value(), 1.0);
  EXPECT_GE(reg.counter("cluster.redispatches").value(), 1.0);
  master.set_metrics(nullptr);
}

TEST(Master, RepeatOffenderIsQuarantined) {
  auto opts = fast_master_options();
  opts.quarantine_after = 2;
  cluster::Master master(opts);
  util::metrics::Registry reg;
  master.set_metrics(&reg);

  util::WireFrame f;
  for (int round = 0; round < 2; ++round) {
    RawWorker w = RawWorker::join(master.port(), 0xC0FFEE, "flaky");
    ASSERT_TRUE(w.await(MsgType::kWelcome, f));
    w.conn.close();  // immediate drop = one failure
    // Wait until the master notices the drop.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (reg.counter("cluster.worker_failures").value() < round + 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reg.counter("cluster.worker_quarantines").value(), 1.0);

  RawWorker w = RawWorker::join(master.port(), 0xC0FFEE, "flaky");
  ASSERT_TRUE(w.await(MsgType::kReject, f));
  const cluster::Reject r = cluster::Reject::from_json(cluster::parse_body(f));
  EXPECT_NE(r.reason.find("quarantine"), std::string::npos);
  // A DIFFERENT identity is still welcome.
  RawWorker fresh = RawWorker::join(master.port(), 0xC0FFEE, "healthy");
  ASSERT_TRUE(fresh.await(MsgType::kWelcome, f));
  master.set_metrics(nullptr);
}

// ---------------------------------------------------------------------------
// Real Worker + Master end to end, with injected worker-side faults
// ---------------------------------------------------------------------------

TEST(Cluster, RealWorkerServesJobsAndShutsDownCleanly) {
  cluster::Master master(fast_master_options());

  cluster::WorkerOptions wopts;
  wopts.port = master.port();
  wopts.name = "real-0";
  wopts.threads = 2;
  wopts.config_crc = 0xC0FFEE;
  cluster::Worker worker(wopts);
  std::thread worker_thread([&] {
    const cluster::WorkerStats stats = worker.run(
        [](const cluster::JobRequest& req) { return record_for(req); });
    EXPECT_TRUE(stats.clean_shutdown);
    EXPECT_EQ(stats.jobs_completed, 6u);
  });
  ASSERT_TRUE(master.wait_for_workers(1, 3000));

  std::vector<std::future<std::optional<util::Json>>> futs;
  for (int m = 0; m < 6; ++m)
    futs.push_back(std::async(std::launch::async, [&master, m] {
      return master.evaluate(job_payload(m));
    }));
  for (int m = 0; m < 6; ++m) {
    const auto result = futs[m].get();
    ASSERT_TRUE(result.has_value()) << "model " << m;
    EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), m);
  }
  master.stop();  // sends Shutdown
  worker_thread.join();
}

TEST(Cluster, InjectedWorkerCrashesAreSurvived) {
  auto mopts = fast_master_options();
  mopts.quarantine_after = 50;  // crashes are injected, don't quarantine
  mopts.max_attempts = 20;
  cluster::Master master(mopts);
  util::metrics::Registry reg;
  master.set_metrics(&reg);

  cluster::WorkerOptions wopts;
  wopts.port = master.port();
  wopts.name = "crashy";
  wopts.config_crc = 0xC0FFEE;
  wopts.reconnect_base_ms = 5.0;
  wopts.reconnect_cap_ms = 20.0;
  wopts.max_reconnects = 100;
  wopts.seed = 4242;
  wopts.fault.enabled = true;
  wopts.fault.worker_crash_prob = 0.3;  // dies after ~1 in 3 jobs
  cluster::Worker worker(wopts);
  std::thread worker_thread([&] {
    const cluster::WorkerStats stats = worker.run(
        [](const cluster::JobRequest& req) { return record_for(req); });
    EXPECT_GT(stats.injected_crashes, 0u);
  });
  ASSERT_TRUE(master.wait_for_workers(1, 3000));

  for (int m = 0; m < 8; ++m) {
    const auto result = master.evaluate(job_payload(m));
    // A crash mid-job may exhaust the moment's workers; local fallback is
    // legal. What is NOT legal is a wrong or corrupt result.
    if (result.has_value()) {
      EXPECT_EQ(static_cast<int>(result->at("model_id").as_number()), m);
    }
  }
  EXPECT_GE(reg.counter("cluster.worker_failures").value(), 1.0);
  master.set_metrics(nullptr);
  master.stop();
  worker.request_stop();
  worker_thread.join();
}

}  // namespace
