// Unit tests for the process-global work-stealing pool: deque ordering
// (owner LIFO / thief FIFO), randomized nested fork-join trees checked
// against a serial reference with an order-sensitive fold, the
// help-while-waiting join, steal-counter sanity, and exception
// propagation from stolen tasks.  All shapes are derived from util::Rng
// named streams, so every run exercises bit-identical trees.
#include "util/work_steal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace ww::util {
namespace {

TEST(StealDeque, OwnerPopsLifoThiefStealsFifo) {
  StealDeque dq;
  std::vector<int> order;
  for (int v : {1, 2, 3})
    dq.push_bottom([&order, v] { order.push_back(v); });

  std::function<void()> task;
  // Owner side is a stack: the most recently pushed task comes back first.
  ASSERT_TRUE(dq.try_pop_bottom(task));
  task();
  ASSERT_EQ(order.back(), 3);
  // Thief side is a queue: steals take the *oldest* task.
  ASSERT_TRUE(dq.try_steal_top(task));
  task();
  ASSERT_EQ(order.back(), 1);
  ASSERT_TRUE(dq.try_pop_bottom(task));
  task();
  ASSERT_EQ(order.back(), 2);

  // Exactly the three pushed tasks came out: the deque is now empty.
  EXPECT_FALSE(dq.try_pop_bottom(task));
  EXPECT_FALSE(dq.try_steal_top(task));
}

TEST(WorkStealingPool, ResolveThreadsAndGrowth) {
  EXPECT_EQ(WorkStealingPool::resolve_threads(3), 3u);
  EXPECT_GE(WorkStealingPool::resolve_threads(0), 1u);
  EXPECT_EQ(WorkStealingPool::resolve_threads(100000),
            WorkStealingPool::kMaxWorkers);

  WorkStealingPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  pool.ensure_workers(4);
  EXPECT_EQ(pool.size(), 4u);
  pool.ensure_workers(1);  // never shrinks
  EXPECT_EQ(pool.size(), 4u);
}

TEST(WorkStealingPool, ParallelForCoversAllIndicesExactlyOnce) {
  WorkStealingPool pool(4);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, GlobalParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(128);
  global_parallel_for(2, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(WorkStealingPool::global().size(), 2u);
}

TEST(WorkStealingPool, GlobalParallelForSerialRunsInlineInOrder) {
  // threads == 1 means serial: every index runs on the calling thread, in
  // index order, with no pool task spawned.
  constexpr std::size_t kTasks = 64;
  const auto caller = std::this_thread::get_id();
  std::vector<char> on_caller(kTasks, 0);
  std::vector<std::size_t> position(kTasks);
  std::atomic<std::size_t> next{0};
  const std::uint64_t run_before = WorkStealingPool::global().tasks_run();
  global_parallel_for(1, kTasks, [&](std::size_t i) {
    on_caller[i] = std::this_thread::get_id() == caller ? 1 : 0;
    position[i] = next.fetch_add(1);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(on_caller[i], 1) << "index " << i;
    EXPECT_EQ(position[i], i);
  }
  EXPECT_EQ(WorkStealingPool::global().tasks_run(), run_before);
}

// --- Randomized nested fork-join trees vs a serial reference --------------

struct Node {
  long value = 0;
  std::vector<Node> kids;
};

/// Deterministic tree: every shape decision comes from a named child
/// stream of the seed, so the same seed always yields the same tree.
Node build_tree(const Rng& stream, int depth) {
  Rng rng = stream;
  Node n;
  n.value = rng.uniform_int(-1000, 1000);
  if (depth == 0) return n;
  const auto fanout = rng.uniform_int(2, 8);
  n.kids.reserve(static_cast<std::size_t>(fanout));
  for (std::int64_t k = 0; k < fanout; ++k)
    n.kids.push_back(
        build_tree(rng.child(static_cast<std::uint64_t>(k)), depth - 1));
  return n;
}

/// Order-sensitive fold (h = h * 31 + child), so a commit in anything but
/// child-index order changes the fingerprint — unlike a plain sum, which
/// would hide reorderings.  Unsigned, so the fold wraps instead of
/// overflowing.
std::uint64_t serial_fold(const Node& n) {
  auto h = static_cast<std::uint64_t>(n.value);
  for (const Node& kid : n.kids) h = h * 31 + serial_fold(kid);
  return h;
}

std::uint64_t parallel_fold(WorkStealingPool& pool, const Node& n) {
  if (n.kids.empty()) return static_cast<std::uint64_t>(n.value);
  std::vector<std::uint64_t> kid(n.kids.size(), 0);
  {
    TaskGroup group(pool);
    for (std::size_t i = 0; i < n.kids.size(); ++i)
      group.spawn([&pool, &n, &kid, i] {
        kid[i] = parallel_fold(pool, n.kids[i]);  // disjoint slot per child
      });
    group.wait();
  }
  auto h = static_cast<std::uint64_t>(n.value);
  for (const std::uint64_t v : kid) h = h * 31 + v;  // child-index order
  return h;
}

TEST(WorkStealingPool, RandomizedNestedForkJoinMatchesSerial) {
  // Depth-3 and depth-4 trees with fanout 2..8: thousands of tasks whose
  // spawning tasks themselves block in helping joins.  Nested TaskGroups
  // on one pool is exactly the scenario x chunk shape the scheduler runs.
  WorkStealingPool pool(4);
  const Rng root(20260808);
  for (const int depth : {3, 4}) {
    for (std::uint64_t seed_idx = 0; seed_idx < 4; ++seed_idx) {
      const Node tree =
          build_tree(root.child("tree").child(seed_idx), depth);
      const std::uint64_t want = serial_fold(tree);
      const std::uint64_t got = parallel_fold(pool, tree);
      EXPECT_EQ(got, want) << "depth=" << depth << " seed=" << seed_idx;
    }
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, WaitHelpsWhileSoleWorkerIsBlocked) {
  // One worker, pinned by a task that spins until released: every task the
  // main thread then spawns can only finish if TaskGroup::wait() runs it
  // on the *waiting* thread (help-while-waiting).  A parking join would
  // deadlock here; a helping join finishes all eight before the release.
  WorkStealingPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup blocker(pool);
  blocker.spawn([&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  std::atomic<int> ran{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i)
      group.spawn(
          [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  // The sole worker is still spinning in the blocker, so the helping
  // waiter must have executed all eight itself.
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(release.load());
  release.store(true, std::memory_order_release);
  blocker.wait();
}

TEST(WorkStealingPool, GroupDestroyedImmediatelyAfterWaitIsSafe) {
  // Regression for a completion-path lifetime race: the last task's wrapper
  // used to decrement pending_ *before* locking mutex_ to notify, so a
  // waiter could observe pending_ == 0, return from wait(), and destroy the
  // stack-allocated group while the wrapper was still about to lock the now
  // dead mutex.  Thousands of short-lived groups whose tasks finish right
  // as wait() returns keep that window hot; the suite's TSan job flags the
  // use-after-free if the decrement ever moves back outside the lock.
  WorkStealingPool pool(4);
  std::atomic<long> ran{0};
  for (int wave = 0; wave < 1500; ++wave) {
    TaskGroup group(pool);
    for (int i = 0; i < 4; ++i)
      group.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }  // group destroyed immediately after wait() on every iteration
  EXPECT_EQ(ran.load(), 1500L * 4);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, ParkedWaiterWakesOnGroupCompletion) {
  // The waiter parks on the pool's wake channel once every deque is empty
  // (the only remaining task is *running* on a worker); the last task's
  // wrapper must notify that channel or wait() would hang forever.  The
  // release comes from a separate thread so the waiting main thread really
  // has nothing to help with.
  WorkStealingPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  TaskGroup group(pool);
  group.spawn([&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  // det-ok: test-only releaser thread, off the pool by design
  std::thread releaser([&started, &release] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 1000; ++i) std::this_thread::yield();
    release.store(true, std::memory_order_release);
  });
  group.wait();  // must wake on the completion notification, not a timeout
  releaser.join();
  EXPECT_TRUE(release.load());
}

TEST(WorkStealingPool, StealCountersAreSane) {
  // Counters are observational; what must hold under any interleaving:
  // every executed task is counted once, every successful steal implies an
  // attempt, and the queue drains to zero after a join.
  WorkStealingPool pool(4);
  const std::uint64_t run_before = pool.tasks_run();
  const Rng root(4242);
  const Node tree = build_tree(root.child("counters"), 3);
  (void)parallel_fold(pool, tree);

  std::size_t spawned = 0;
  const std::function<void(const Node&)> count = [&](const Node& n) {
    spawned += n.kids.size();  // one task per child of an inner node
    for (const Node& kid : n.kids) count(kid);
  };
  count(tree);

  EXPECT_EQ(pool.tasks_run() - run_before, spawned);
  EXPECT_LE(pool.tasks_stolen(), pool.steal_attempts());
  EXPECT_LE(pool.tasks_stolen(), pool.tasks_run());
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// --- Exception propagation ------------------------------------------------

TEST(WorkStealingPool, TaskGroupWaitRethrowsTaskException) {
  WorkStealingPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ok_ran{0};
  group.spawn([] { throw std::runtime_error("spawned failure"); });
  for (int i = 0; i < 4; ++i)
    group.spawn([&ok_ran] { ok_ran.fetch_add(1); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // TaskGroup does not fail fast: the healthy siblings all still ran.
  EXPECT_EQ(ok_ran.load(), 4);
}

TEST(WorkStealingPool, ParallelForRethrowsLowestFailingIndex) {
  // Every index that executes throws an error naming itself; the
  // parallel_for contract requires the rethrown exception to be the lowest
  // index that actually failed, regardless of which workers stole what.
  WorkStealingPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> threw(kTasks);
  try {
    pool.parallel_for(kTasks, [&threw](std::size_t i) {
      threw[i].store(1, std::memory_order_relaxed);
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const std::runtime_error& e) {
    std::size_t lowest = kTasks;
    for (std::size_t i = 0; i < kTasks; ++i)
      if (threw[i].load(std::memory_order_relaxed) != 0) {
        lowest = i;
        break;
      }
    ASSERT_LT(lowest, kTasks);
    EXPECT_EQ(e.what(), std::to_string(lowest));
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, NestedGroupPropagatesThroughOuterTask) {
  // An inner group's failure rethrows from the inner wait() inside the
  // outer task, which the outer group captures and rethrows from its own
  // wait(): errors surface through nested fork-join scopes, not into
  // std::terminate on a worker thread.
  WorkStealingPool pool(2);
  TaskGroup outer(pool);
  outer.spawn([&pool] {
    TaskGroup inner(pool);
    inner.spawn([] { throw std::logic_error("inner failure"); });
    inner.wait();
  });
  EXPECT_THROW(outer.wait(), std::logic_error);
}

TEST(WorkStealingPool, GroupDestructorSwallowsUnobservedError) {
  WorkStealingPool pool(2);
  {
    TaskGroup group(pool);
    group.spawn([] { throw std::runtime_error("never observed"); });
    // No wait(): the destructor must join and swallow, not terminate.
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, ManyWavesOnOneExternalThread) {
  // The campaign pattern: one long-lived pool, many short fan-out waves
  // injected from a non-worker thread.  The notify/park edge is where
  // lost-wakeup bugs live, so wave count is high and tasks are tiny.
  WorkStealingPool pool(3);
  std::atomic<long> hits{0};
  for (int wave = 0; wave < 200; ++wave) {
    pool.parallel_for(17, [&hits](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(hits.load(), 200L * 17);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

}  // namespace
}  // namespace ww::util
