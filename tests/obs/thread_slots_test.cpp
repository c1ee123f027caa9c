#include "obs/thread_slots.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace pmpr {
namespace {

struct TallyBlock {
  std::atomic<std::uint64_t> adds{0};
};

constexpr std::size_t kOwned = obs::kOwnedThreadSlots;

// Namespace scope like the production registries: the leaked blocks stay
// reachable, and a registry nobody touched has none.
obs::ThreadSlots<TallyBlock, kOwned> g_tallies;
obs::ThreadSlots<TallyBlock, 4> g_small;
obs::ThreadSlots<TallyBlock, kOwned> g_untouched;

TEST(ThreadSlots, OverflowKeepsEveryAddAndClaimedIsCapped) {
  constexpr std::size_t kThreads = 300;  // > kOwned owned blocks
  constexpr std::uint64_t kPerThread = 50;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          // relaxed: a tally summed after join() publishes it.
          g_tallies.mine().adds.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ASSERT_GE(obs::thread_slots_claimed(), kThreads);
  EXPECT_EQ(g_tallies.claimed(), kOwned + 1);

  std::vector<std::size_t> visited;
  std::uint64_t total = 0;
  g_tallies.for_each_claimed([&](std::size_t i, const TallyBlock& block) {
    visited.push_back(i);
    // relaxed: read after the producers joined.
    total += block.adds.load(std::memory_order_relaxed);
  });
  ASSERT_EQ(visited.size(), kOwned + 1);
  for (std::size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
  EXPECT_EQ(total, kThreads * kPerThread);

  // At least kThreads - kOwned threads had an index past the owned pool,
  // so the shared overflow block holds at least their adds.
  std::uint64_t overflow = 0;
  g_tallies.for_each_claimed([&](std::size_t i, const TallyBlock& block) {
    // relaxed: as above.
    if (i == kOwned) overflow = block.adds.load(std::memory_order_relaxed);
  });
  EXPECT_GE(overflow, (kThreads - kOwned) * kPerThread);

  // A smaller registry caps at its own capacity on the same indices, and
  // a registry nobody used visits nothing.
  g_small.mine();
  EXPECT_EQ(g_small.claimed(), 5u);
  std::size_t small_visits = 0;
  g_small.for_each_claimed([&](std::size_t, const TallyBlock&) {
    ++small_visits;
  });
  EXPECT_EQ(small_visits, 5u);
  std::size_t untouched_visits = 0;
  g_untouched.for_each_claimed([&](std::size_t, const TallyBlock&) {
    ++untouched_visits;
  });
  EXPECT_EQ(untouched_visits, 0u);
}

TEST(ThreadSlots, HeartbeatAndFlightRecorderShareOneTid) {
  const bool beats_were = obs::set_heartbeats_enabled(true);
  const bool recorder_was = obs::set_flight_recorder_enabled(true);
  obs::clear_flight_recorder();
  // A recorder-only thread first: were the registries numbered in their
  // own first-touch order, the next thread's heartbeat and ring indices
  // would now differ.
  std::thread([] {
    obs::fr_record(obs::FrEvent::kMark, "slots.test.other");
  }).join();
  std::thread([] {
    obs::heartbeat("slots.test.phase");
    obs::fr_record(obs::FrEvent::kMark, "slots.test.mark");
    obs::set_thread_name("slots.test.thread");
    obs::heartbeat_idle();
  }).join();

  std::int64_t heartbeat_tid = -1;
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) {
    if (v.label == "slots.test.thread") heartbeat_tid = v.tid;
  }
  std::int64_t recorder_tid = -1;
  for (const obs::FlightEvent& e : obs::snapshot_flight_recorder()) {
    if (e.name == "slots.test.mark") recorder_tid = e.tid;
  }
  std::ostringstream box;
  obs::write_blackbox_json(box);

  obs::clear_flight_recorder();
  obs::set_flight_recorder_enabled(recorder_was);
  obs::set_heartbeats_enabled(beats_were);

  ASSERT_GE(heartbeat_tid, 0);
  ASSERT_GE(recorder_tid, 0);
  EXPECT_EQ(heartbeat_tid, recorder_tid);
  // The blackbox thread table labels that tid with the same name.
  EXPECT_NE(box.str().find("{\"tid\": " + std::to_string(heartbeat_tid) +
                           ", \"label\": \"slots.test.thread\""),
            std::string::npos)
      << box.str();
}

}  // namespace
}  // namespace pmpr
