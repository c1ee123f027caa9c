#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/thread_slots.hpp"

namespace pmpr {
namespace {

/// Restores the heartbeat/recorder gates, retires this thread's heartbeat
/// slot, and zeroes the process-wide watchdog totals so sibling tests see
/// a quiet monitor surface.
struct WatchdogTestGuard {
  const bool heartbeats = obs::set_heartbeats_enabled(false);
  const bool recorder = obs::set_flight_recorder_enabled(false);
  WatchdogTestGuard() {
    obs::reset_watchdog_stats();
    obs::clear_flight_recorder();
  }
  ~WatchdogTestGuard() {
    // heartbeat_idle is gated; force it through so no stale active phase
    // outlives the test on the shared main-thread slot.
    obs::set_heartbeats_enabled(true);
    obs::heartbeat_idle();
    obs::set_heartbeats_enabled(heartbeats);
    obs::set_flight_recorder_enabled(recorder);
    obs::reset_watchdog_stats();
    obs::clear_flight_recorder();
  }
};

std::uint64_t total_beats() {
  std::uint64_t sum = 0;
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) sum += v.beats;
  return sum;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Heartbeat, DisabledBeatIsDropped) {
  WatchdogTestGuard guard;
  EXPECT_FALSE(obs::heartbeats_enabled());
  const std::uint64_t before = total_beats();
  obs::heartbeat("wd.test.off");
  obs::heartbeat("wd.test.off");
  EXPECT_EQ(total_beats(), before);
}

TEST(Heartbeat, RecordsPhaseLabelAndBeats) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::set_thread_slot_label("wd.test.label");
  obs::heartbeat("wd.test.phase");
  bool found = false;
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) {
    if (v.label != "wd.test.label") continue;
    found = true;
    EXPECT_EQ(v.phase, "wd.test.phase");
    EXPECT_GE(v.beats, 1u);
    EXPECT_GE(v.age_ns, 0);
  }
  EXPECT_TRUE(found);
  // Retiring the slot marks it idle, not gone: the tid stays claimed.
  obs::heartbeat_idle();
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) {
    if (v.label == "wd.test.label") {
      EXPECT_EQ(v.phase, "");
    }
  }
}

TEST(Watchdog, CheckOnceFiresOnStaleActiveSlot) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::milliseconds(1);
  obs::Watchdog wd(opts);
  obs::heartbeat("wd.test.stall");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(wd.check_once());
  EXPECT_EQ(wd.fires(), 1u);
  const obs::WatchdogStats stats = obs::watchdog_stats();
  EXPECT_EQ(stats.fires, 1u);
  EXPECT_EQ(stats.last_stalled_phase, "wd.test.stall");
  EXPECT_GT(stats.max_heartbeat_age_ns, 0);
}

TEST(Watchdog, CheckOnceStaysQuietWhileBeating) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::milliseconds(500);
  obs::Watchdog wd(opts);
  obs::heartbeat("wd.test.live");
  EXPECT_FALSE(wd.check_once());
  EXPECT_EQ(wd.fires(), 0u);
  EXPECT_EQ(obs::watchdog_stats().fires, 0u);
}

TEST(Watchdog, CheckOnceIgnoresIdleSlots) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::milliseconds(1);
  obs::Watchdog wd(opts);
  obs::heartbeat("wd.test.retired");
  obs::heartbeat_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // However old its last beat, an idle slot is not a stall.
  EXPECT_FALSE(wd.check_once());
  EXPECT_EQ(wd.fires(), 0u);
}

TEST(Watchdog, StallEpisodeRefiresOnlyAfterProgress) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::milliseconds(1);
  obs::Watchdog wd(opts);
  obs::heartbeat("wd.test.episode");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(wd.check_once());
  // Same incident, zero beats since: no refire per tick.
  EXPECT_FALSE(wd.check_once());
  EXPECT_FALSE(wd.check_once());
  EXPECT_EQ(wd.fires(), 1u);
  // Progress re-arms the episode; going quiet again is a new stall.
  obs::heartbeat("wd.test.episode");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(wd.check_once());
  EXPECT_EQ(wd.fires(), 2u);
}

TEST(Watchdog, FireWritesDumpNamingPhaseAndRecordsEvent) {
  WatchdogTestGuard guard;
  obs::set_heartbeats_enabled(true);
  obs::set_flight_recorder_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::milliseconds(1);
  opts.dump_path = ::testing::TempDir() + "pmpr_wd_test_dump.json";
  obs::Watchdog wd(opts);
  obs::heartbeat("wd.test.dump");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(wd.check_once());
  const std::string report = slurp(opts.dump_path);
  EXPECT_NE(report.find("\"schema\": \"pmpr-crash-v1\""), std::string::npos);
  EXPECT_NE(report.find("\"kind\": \"watchdog_stall\""), std::string::npos);
  EXPECT_NE(report.find("wd.test.dump"), std::string::npos);
  // The fire also leaves a breadcrumb in the flight recorder.
  bool saw_fire = false;
  for (const obs::FlightEvent& e : obs::snapshot_flight_recorder()) {
    saw_fire |=
        e.kind == obs::FrEvent::kWatchdogFire && e.name == "wd.test.dump";
  }
  EXPECT_TRUE(saw_fire);
}

TEST(Watchdog, StartStopManagesHeartbeatGateAndArmStat) {
  WatchdogTestGuard guard;
  EXPECT_FALSE(obs::heartbeats_enabled());
  obs::set_flight_recorder_enabled(true);
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::seconds(10);
  obs::Watchdog wd(opts);
  EXPECT_FALSE(wd.running());
  wd.start();
  EXPECT_TRUE(wd.running());
  EXPECT_TRUE(obs::heartbeats_enabled());
  wd.start();  // no-op while running
  EXPECT_EQ(obs::watchdog_stats().arms, 1u);
  wd.stop();
  EXPECT_FALSE(wd.running());
  // stop restores the pre-start heartbeat gate.
  EXPECT_FALSE(obs::heartbeats_enabled());
  // Arming is breadcrumbed with the configured threshold.
  bool saw_arm = false;
  for (const obs::FlightEvent& e : obs::snapshot_flight_recorder()) {
    if (e.kind != obs::FrEvent::kWatchdogArm) continue;
    saw_arm = true;
    EXPECT_EQ(e.a, 10'000'000'000u);
  }
  EXPECT_TRUE(saw_arm);
}

TEST(Watchdog, ConcurrentStopsAreSafeAndIdempotent) {
  WatchdogTestGuard guard;
  obs::WatchdogOptions opts;
  opts.stall_threshold = std::chrono::minutes(10);  // never fires here
  obs::Watchdog wd(opts);
  wd.start();
  std::vector<std::thread> stoppers;
  stoppers.reserve(4);
  for (int i = 0; i < 4; ++i) stoppers.emplace_back([&wd] { wd.stop(); });
  for (std::thread& t : stoppers) t.join();
  EXPECT_FALSE(wd.running());
  wd.stop();  // and once more after the fact
  // The instance restarts cleanly after a full stop.
  wd.start();
  EXPECT_TRUE(wd.running());
  wd.stop();
  EXPECT_FALSE(wd.running());
}

}  // namespace
}  // namespace pmpr
