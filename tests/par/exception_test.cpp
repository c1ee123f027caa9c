// Exception semantics of the runtime: a throwing task must surface from
// wait()/parallel_for on the calling thread, after the whole group drains,
// without deadlocking or leaking tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "par/parallel_for.hpp"
#include "par/task_group.hpp"

namespace pmpr::par {
namespace {

TEST(ParExceptions, TaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  WaitGroup wg;
  wg.add(1);
  pool.submit([] { throw std::runtime_error("boom"); }, wg);
  EXPECT_THROW(pool.wait(wg), std::runtime_error);
}

TEST(ParExceptions, ExceptionMessagePreserved) {
  ThreadPool pool(2);
  WaitGroup wg;
  wg.add(1);
  pool.submit([] { throw std::runtime_error("specific message"); }, wg);
  try {
    pool.wait(wg);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST(ParExceptions, OtherTasksStillComplete) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  WaitGroup wg;
  for (int i = 0; i < 100; ++i) {
    wg.add(1);
    pool.submit(
        [&ran, i] {
          if (i == 50) throw std::logic_error("one bad task");
          ran.fetch_add(1);
        },
        wg);
  }
  EXPECT_THROW(pool.wait(wg), std::logic_error);
  EXPECT_EQ(ran.load(), 99);  // every non-throwing task ran
}

TEST(ParExceptions, OnlyFirstExceptionSurfaces) {
  ThreadPool pool(2);
  WaitGroup wg;
  for (int i = 0; i < 10; ++i) {
    wg.add(1);
    pool.submit([] { throw std::runtime_error("any"); }, wg);
  }
  // All ten throw; exactly one must be delivered and the wait must return.
  EXPECT_THROW(pool.wait(wg), std::runtime_error);
}

TEST(ParExceptions, ParallelForPropagates) {
  ThreadPool pool(2);
  ForOptions opts{Partitioner::kSimple, 1, &pool};
  EXPECT_THROW(parallel_for(0, 100, opts,
                            [](std::size_t i) {
                              if (i == 37) throw std::out_of_range("i=37");
                            }),
               std::out_of_range);
}

TEST(ParExceptions, ParallelReducePropagates) {
  // Leaf 0 throws on the calling thread while its right siblings are still
  // queued; the last leaf throws inside a stolen right half.
  ThreadPool pool(4);
  ForOptions opts{Partitioner::kSimple, 1, &pool};
  for (const std::size_t bad : {std::size_t{0}, std::size_t{99}}) {
    EXPECT_THROW(parallel_reduce(
                     0, 100, 0, opts,
                     [bad](std::size_t lo, std::size_t) {
                       if (lo == bad) throw std::out_of_range("bad leaf");
                       return 1;
                     },
                     [](int a, int b) { return a + b; }),
                 std::out_of_range)
        << "leaf " << bad;
  }
  const int sum = parallel_reduce(
      0, 100, 0, opts, [](std::size_t lo, std::size_t hi) {
        return static_cast<int>(hi - lo);
      },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(sum, 100);
}

TEST(ParExceptions, ParallelForSmallRangeInlinePathPropagates) {
  // Ranges at or below the grain run inline on the caller.
  EXPECT_THROW(
      parallel_for(0, 1, {}, [](std::size_t) { throw std::bad_alloc(); }),
      std::bad_alloc);
}

TEST(ParExceptions, TaskGroupWaitThrows) {
  TaskGroup group;
  group.run([] { throw std::runtime_error("from group"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ParExceptions, TaskGroupDestructorSwallows) {
  // Must not terminate the process.
  {
    TaskGroup group;
    group.run([] { throw std::runtime_error("dropped"); });
  }
  SUCCEED();
}

TEST(ParExceptions, PoolUsableAfterException) {
  ThreadPool pool(2);
  {
    WaitGroup wg;
    wg.add(1);
    pool.submit([] { throw std::runtime_error("first batch"); }, wg);
    EXPECT_THROW(pool.wait(wg), std::runtime_error);
  }
  std::atomic<int> ran{0};
  WaitGroup wg2;
  for (int i = 0; i < 100; ++i) {
    wg2.add(1);
    pool.submit([&] { ran.fetch_add(1); }, wg2);
  }
  pool.wait(wg2);
  EXPECT_EQ(ran.load(), 100);
}

}  // namespace
}  // namespace pmpr::par
