// Thread pool, filesystem helpers, table rendering, and logging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include <sys/time.h>

#include "util/fsutil.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace a4nn::util {
namespace {

namespace fs = std::filesystem;

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * 2);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, TrySubmitRefusesWhenBoundedQueueIsFull) {
  // One worker pinned on a latch, capacity 2: the first submit occupies
  // the worker, two more fill the queue, the fourth must be refused.
  ThreadPool pool(1, 2);
  EXPECT_EQ(pool.queue_capacity(), 2u);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  auto running = std::make_shared<std::promise<void>>();
  auto first = pool.try_submit([latch, running] {
    running->set_value();
    latch.wait();
  });
  ASSERT_TRUE(first.has_value());
  running->get_future().wait();  // worker is busy, queue is empty
  auto second = pool.try_submit([latch] { latch.wait(); });
  auto third = pool.try_submit([latch] { latch.wait(); });
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(pool.queued(), 2u);
  EXPECT_FALSE(pool.try_submit([] {}).has_value());  // full → refused
  release.set_value();
  first->get();
  second->get();
  third->get();
  // Capacity freed: accepted again.
  EXPECT_TRUE(pool.try_submit([] {}).has_value());
  pool.wait_idle();
}

TEST(ThreadPool, BoundedSubmitBlocksUntilASlotFrees) {
  ThreadPool pool(1, 1);
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  auto running = std::make_shared<std::promise<void>>();
  auto first = pool.submit([latch, running] {
    running->set_value();
    latch.wait();
  });
  running->get_future().wait();
  auto second = pool.submit([] { return 1; });  // fills the single slot
  // Third submit must block (backpressure) until the latch releases the
  // worker; run it from a helper thread and observe the ordering.
  std::atomic<bool> third_accepted{false};
  std::thread submitter([&] {
    auto third = pool.submit([] { return 2; });
    third_accepted.store(true);
    EXPECT_EQ(third.get(), 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load());  // still stuck behind the full queue
  release.set_value();
  submitter.join();
  EXPECT_TRUE(third_accepted.load());
  first.get();
  EXPECT_EQ(second.get(), 1);
  pool.wait_idle();
}

TEST(ThreadPool, BoundedQueueDrainsAndPropagatesExceptions) {
  ThreadPool pool(2, 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 7 == 0) throw std::runtime_error("bounded boom");
      return i;
    }));
  }
  pool.wait_idle();  // drain completes even with interleaved failures
  for (int i = 0; i < 64; ++i) {
    if (i % 7 == 0) {
      EXPECT_THROW(futures[i].get(), std::runtime_error) << i;
    } else {
      EXPECT_EQ(futures[i].get(), i);
    }
  }
}

TEST(ThreadPool, ThrowingTaskDoesNotWedgeWaitIdle) {
  ThreadPool pool(2);
  auto bad =
      pool.submit([]() -> int { throw std::runtime_error("task fault"); });
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) pool.submit([&done] { done.fetch_add(1); });
  // The throw is captured in the future; the worker survives and the pool
  // drains normally.
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool stays usable after the failure.
  EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
  pool.wait_idle();
}

TEST(ThreadPool, ZeroWorkersRunsInlineAtSubmit) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  // Task runs on the calling thread, during submit, not on a worker.
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  auto fut = pool.submit([&ran, caller] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return 7;
  });
  EXPECT_TRUE(ran);  // before get(): submit itself executed it
  EXPECT_EQ(fut.get(), 7);
  pool.wait_idle();  // trivially idle; must not block
}

TEST(ThreadPool, ZeroWorkerExceptionLandsInFuture) {
  ThreadPool pool(0);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("inline"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // Queue far more tasks than workers, then destroy the pool immediately:
  // the destructor must run every queued task, not drop the backlog.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.submit([&done] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, SizeReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(FsUtil, WriteReadRoundTrip) {
  const fs::path dir = make_temp_dir("a4nn-test");
  const fs::path file = dir / "sub" / "data.txt";
  write_file(file, "hello\nworld");
  EXPECT_EQ(read_file(file), "hello\nworld");
  fs::remove_all(dir);
}

TEST(FsUtil, WriteIsAtomicNoTmpLeftBehind) {
  const fs::path dir = make_temp_dir("a4nn-test");
  write_file(dir / "x.json", "{}");
  EXPECT_FALSE(fs::exists(dir / "x.json.tmp"));
  fs::remove_all(dir);
}

TEST(FsUtil, ConcurrentWritersLeaveOneCompletePayload) {
  // Regression: writers once shared a single "<path>.tmp" staging name, so
  // two concurrent write_file calls to the same target could interleave
  // (one writer renaming the other's half-written file). Staging names are
  // now unique per writer; the surviving file must always be one writer's
  // payload in full.
  const fs::path dir = make_temp_dir("a4nn-conc-write");
  const fs::path target = dir / "contested.json";
  constexpr int kThreads = 8;
  constexpr int kWrites = 25;
  ThreadPool pool(kThreads);
  std::vector<std::future<void>> futures;
  for (int t = 0; t < kThreads; ++t) {
    futures.push_back(pool.submit([&target, t] {
      const std::string payload(4096, static_cast<char>('a' + t));
      for (int i = 0; i < kWrites; ++i) write_file(target, payload);
    }));
  }
  for (auto& f : futures) f.get();

  const std::string content = read_file(target);
  ASSERT_EQ(content.size(), 4096u);
  EXPECT_EQ(content, std::string(4096, content[0]));
  // No staging files left behind by any of the 200 writes.
  for (const auto& f : list_files(dir))
    EXPECT_EQ(f.filename().string().find(".tmp"), std::string::npos)
        << f.filename();
  fs::remove_all(dir);
}

TEST(FsUtil, ReadMissingThrows) {
  EXPECT_THROW(read_file("/nonexistent/a4nn/file"), std::runtime_error);
}

TEST(FsUtil, ListFilesFiltersAndSorts) {
  const fs::path dir = make_temp_dir("a4nn-test");
  write_file(dir / "b.json", "{}");
  write_file(dir / "a.json", "{}");
  write_file(dir / "c.txt", "x");
  const auto jsons = list_files(dir, ".json");
  ASSERT_EQ(jsons.size(), 2u);
  EXPECT_EQ(jsons[0].filename(), "a.json");
  EXPECT_EQ(list_files(dir).size(), 3u);
  EXPECT_TRUE(list_files(dir / "missing").empty());
  fs::remove_all(dir);
}

TEST(FsUtil, TempDirsAreUnique) {
  const fs::path a = make_temp_dir("a4nn-test");
  const fs::path b = make_temp_dir("a4nn-test");
  EXPECT_NE(a, b);
  fs::remove_all(a);
  fs::remove_all(b);
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "val"});
  t.add_row({"model_1", "99.50"});
  t.add_row({"m", "1"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name    | val   |"), std::string::npos);
  EXPECT_NE(out.find("| model_1 | 99.50 |"), std::string::npos);
  EXPECT_NE(out.find("|---------|-------|"), std::string::npos);
}

TEST(AsciiTable, WidthMismatchThrows) {
  AsciiTable t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(AsciiTable, NumFormatting) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds() * 1000.0 * 0.99);
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  log_error("this should not crash and not print");
  set_log_level(LogLevel::kDebug);
  log_debug("value=", 42, " name=", "x");
  set_log_level(before);
}

TEST(Histogram, WindowSnapshotPartitionsTheObservationStream) {
  metrics::Histogram h(0.0, 100.0, 10);
  h.observe(5.0);
  h.observe(15.0);
  h.observe(95.0);
  auto w1 = h.window_snapshot();
  EXPECT_EQ(w1.total, 3u);
  ASSERT_EQ(w1.counts.size(), 10u);
  EXPECT_EQ(w1.counts[0], 1u);
  EXPECT_EQ(w1.counts[1], 1u);
  EXPECT_EQ(w1.counts[9], 1u);
  // The p99 estimate is confined to the containing bin (width 10).
  EXPECT_GE(w1.p99, 90.0);
  EXPECT_LE(w1.p99, 100.0);

  // The snapshot exchanged the bins to zero: the next window sees only
  // what was observed after it — an observation lands in exactly one
  // window, and the cumulative view restarts too.
  EXPECT_EQ(h.total(), 0u);
  for (int i = 0; i < 4; ++i) h.observe(50.0);
  auto w2 = h.window_snapshot();
  EXPECT_EQ(w2.total, 4u);
  EXPECT_EQ(w2.counts[5], 4u);
  EXPECT_EQ(w2.counts[0], 0u);
  for (double q : {w2.p50, w2.p95, w2.p99}) {
    EXPECT_GE(q, 50.0);
    EXPECT_LE(q, 60.0);
  }
}

TEST(Histogram, WindowSnapshotOfEmptyWindowIsZeroed) {
  metrics::Histogram h(10.0, 20.0, 4);
  auto w = h.window_snapshot();
  EXPECT_EQ(w.total, 0u);
  EXPECT_DOUBLE_EQ(w.p50, 10.0);  // empty quantile pins to lo
  EXPECT_DOUBLE_EQ(w.p99, 10.0);
  ASSERT_EQ(w.counts.size(), 4u);
  for (auto c : w.counts) EXPECT_EQ(c, 0u);
}

TEST(FsUtil, ReadWriteSurviveSignalInterruption) {
  // A 1ms SIGALRM ticker installed WITHOUT SA_RESTART: every slow syscall
  // in this window is eligible to fail with EINTR, so the write/read loops
  // must retry instead of producing short transfers.
  struct sigaction action{};
  struct sigaction previous {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(sigaction(SIGALRM, &action, &previous), 0);
  itimerval ticker{};
  ticker.it_interval.tv_usec = 1000;
  ticker.it_value.tv_usec = 1000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &ticker, nullptr), 0);

  const fs::path dir = make_temp_dir("a4nn-eintr");
  std::string payload;
  payload.reserve(8u << 20);
  while (payload.size() < (8u << 20))
    payload += "0123456789abcdef0123456789ABCDEF";
  for (int round = 0; round < 4; ++round) {
    const fs::path file = dir / ("blob" + std::to_string(round));
    write_file(file, payload, Durability::kFsync);
    EXPECT_EQ(read_file(file), payload) << "round " << round;
  }

  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &previous, nullptr);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace a4nn::util
