#include "obs/flightrec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/thread_slots.hpp"

namespace pmpr {
namespace {

/// Disables the recorder and empties the shared rings on both sides of a
/// test so sibling tests (and pool workers from earlier suites) cannot
/// leak events into each other.
struct FlightRecGuard {
  const bool enabled = obs::set_flight_recorder_enabled(false);
  FlightRecGuard() { obs::clear_flight_recorder(); }
  ~FlightRecGuard() {
    obs::clear_flight_recorder();
    obs::set_flight_recorder_enabled(enabled);
  }
};

/// Events carrying `name`, in snapshot order.
std::vector<obs::FlightEvent> named(const std::vector<obs::FlightEvent>& all,
                                    const std::string& name) {
  std::vector<obs::FlightEvent> out;
  for (const obs::FlightEvent& e : all) {
    if (e.name == name) out.push_back(e);
  }
  return out;
}

TEST(FlightRecorder, DisabledRecordIsDropped) {
  FlightRecGuard guard;
  EXPECT_FALSE(obs::flight_recorder_enabled());
  obs::fr_record(obs::FrEvent::kMark, "fr.test.off", 1, 2);
  EXPECT_TRUE(named(obs::snapshot_flight_recorder(), "fr.test.off").empty());
  EXPECT_EQ(obs::flight_recorder_stats().records, 0u);
}

TEST(FlightRecorder, RecordRoundTripsFields) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  obs::fr_record(obs::FrEvent::kMark, "fr.test.mark", 7, 9);
  const std::vector<obs::FlightEvent> events =
      named(obs::snapshot_flight_recorder(), "fr.test.mark");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FrEvent::kMark);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 9u);
  EXPECT_GT(events[0].t_ns, 0);
  EXPECT_STREQ(obs::to_string(events[0].kind), "mark");
  const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GE(stats.threads, 1u);
}

TEST(FlightRecorder, SnapshotDoesNotConsume) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  obs::fr_record(obs::FrEvent::kMark, "fr.test.keep");
  EXPECT_EQ(named(obs::snapshot_flight_recorder(), "fr.test.keep").size(), 1u);
  EXPECT_EQ(named(obs::snapshot_flight_recorder(), "fr.test.keep").size(), 1u);
}

TEST(FlightRecorder, DrainConsumesExactlyOnceSerially) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  for (std::uint64_t i = 0; i < 5; ++i) {
    obs::fr_record(obs::FrEvent::kMark, "fr.test.drain1", i);
  }
  EXPECT_EQ(named(obs::drain_flight_recorder(), "fr.test.drain1").size(), 5u);
  EXPECT_TRUE(named(obs::drain_flight_recorder(), "fr.test.drain1").empty());
  // But a non-consuming snapshot still sees the ring contents.
  EXPECT_EQ(named(obs::snapshot_flight_recorder(), "fr.test.drain1").size(),
            5u);
  EXPECT_EQ(obs::flight_recorder_stats().drains, 2u);
}

TEST(FlightRecorder, RingKeepsMostRecentWhenFull) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  // 200 events through a 128-slot ring: the oldest 72 are overwritten.
  for (std::uint64_t i = 0; i < 200; ++i) {
    obs::fr_record(obs::FrEvent::kMark, "fr.test.wrap", i);
  }
  const std::vector<obs::FlightEvent> events =
      named(obs::snapshot_flight_recorder(), "fr.test.wrap");
  ASSERT_EQ(events.size(), 128u);
  std::uint64_t min_a = events[0].a;
  std::uint64_t max_a = events[0].a;
  for (const obs::FlightEvent& e : events) {
    min_a = std::min(min_a, e.a);
    max_a = std::max(max_a, e.a);
  }
  EXPECT_EQ(min_a, 72u);
  EXPECT_EQ(max_a, 199u);
  const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
  EXPECT_EQ(stats.records, 200u);
  EXPECT_EQ(stats.dropped, 72u);
}

TEST(FlightRecorder, ErrorBreadcrumbSurvivesAndSetsLastError) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  {
    // Transient text: fr_record_error must copy the bytes, not the pointer.
    const std::string transient = "fr test boom";
    obs::fr_record_error(transient.c_str());
  }
  EXPECT_EQ(obs::last_error(), "fr test boom");
  const std::vector<obs::FlightEvent> events =
      named(obs::snapshot_flight_recorder(), "fr test boom");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FrEvent::kError);
  // clear_flight_recorder drops the breadcrumb with everything else.
  obs::clear_flight_recorder();
  EXPECT_EQ(obs::last_error(), "");
}

TEST(FlightRecorder, ErrorBreadcrumbIsGated) {
  FlightRecGuard guard;
  obs::fr_record_error("fr gated boom");
  EXPECT_EQ(obs::last_error(), "");
}

TEST(FlightRecorder, PerThreadRingsGetDistinctTids) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  obs::fr_record(obs::FrEvent::kMark, "fr.test.main");
  std::thread t([] { obs::fr_record(obs::FrEvent::kMark, "fr.test.other"); });
  t.join();
  const std::vector<obs::FlightEvent> all = obs::snapshot_flight_recorder();
  const std::vector<obs::FlightEvent> main_ev = named(all, "fr.test.main");
  const std::vector<obs::FlightEvent> other_ev = named(all, "fr.test.other");
  ASSERT_EQ(main_ev.size(), 1u);
  ASSERT_EQ(other_ev.size(), 1u);
  EXPECT_NE(main_ev[0].tid, other_ev[0].tid);
  EXPECT_GE(obs::flight_recorder_stats().threads, 2u);
}

TEST(FlightRecorder, BlackboxJsonCarriesSchemaLabelsAndEvents) {
  FlightRecGuard guard;
  obs::set_thread_slot_label("fr.test.thread");
  obs::set_flight_recorder_enabled(true);
  obs::fr_record(obs::FrEvent::kMark, "fr.test.box", 3, 4);
  std::ostringstream out;
  obs::write_blackbox_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"pmpr-blackbox-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_capacity\": 128"), std::string::npos);
  EXPECT_NE(json.find("fr.test.thread"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"mark\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fr.test.box\""), std::string::npos);
}

TEST(FlightRecorder, BlackboxFileVariantReportsOpenFailure) {
  FlightRecGuard guard;
  EXPECT_FALSE(
      obs::write_blackbox_json("/nonexistent-pmpr-dir/blackbox.json"));
}

TEST(FlightRecorder, ConcurrentDrainsSeeEachEventExactlyOnce) {
  FlightRecGuard guard;
  obs::set_flight_recorder_enabled(true);
  // Fewer events than one ring holds, so nothing is dropped and the
  // exactly-once partition is checkable over the full id set.
  constexpr std::uint64_t kEvents = 100;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    obs::fr_record(obs::FrEvent::kMark, "fr.test.race", i);
  }
  std::mutex mu;
  std::vector<obs::FlightEvent> drained;
  std::vector<std::thread> drainers;
  drainers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    drainers.emplace_back([&] {
      const std::vector<obs::FlightEvent> mine = obs::drain_flight_recorder();
      const std::lock_guard<std::mutex> lock(mu);
      drained.insert(drained.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& t : drainers) t.join();
  const std::vector<obs::FlightEvent> mine = named(drained, "fr.test.race");
  EXPECT_EQ(mine.size(), kEvents);
  std::set<std::uint64_t> ids;
  for (const obs::FlightEvent& e : mine) {
    EXPECT_TRUE(ids.insert(e.a).second) << "event " << e.a << " drained twice";
  }
  EXPECT_EQ(ids.size(), kEvents);
  EXPECT_EQ(obs::flight_recorder_stats().drains, 8u);
}

}  // namespace
}  // namespace pmpr
