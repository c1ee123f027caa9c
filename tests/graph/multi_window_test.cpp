#include "graph/multi_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "par/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace pmpr {
namespace {

/// Parameterized over the number of multi-window parts (the paper's Y).
class MultiWindowParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiWindowParam, PartsCoverAllWindowsExactlyOnce) {
  const std::size_t parts = GetParam();
  const TemporalEdgeList events = test::random_events(17, 60, 4000, 100000);
  const WindowSpec spec = WindowSpec::cover(0, 100000, 12000, 2000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, parts);

  std::set<std::size_t> covered;
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    const auto& part = set.part(p);
    for (std::size_t i = 0; i < part.num_windows; ++i) {
      const bool inserted = covered.insert(part.first_window + i).second;
      EXPECT_TRUE(inserted) << "window held by two parts";
    }
  }
  EXPECT_EQ(covered.size(), spec.count);
}

TEST_P(MultiWindowParam, PartForWindowIsConsistent) {
  const std::size_t parts = GetParam();
  const TemporalEdgeList events = test::random_events(17, 60, 4000, 100000);
  const WindowSpec spec = WindowSpec::cover(0, 100000, 12000, 2000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, parts);
  for (std::size_t w = 0; w < spec.count; ++w) {
    const auto& part = set.part_for_window(w);
    EXPECT_GE(w, part.first_window);
    EXPECT_LT(w, part.first_window + part.num_windows);
  }
}

TEST_P(MultiWindowParam, PartEventsMatchSpan) {
  const std::size_t parts = GetParam();
  const TemporalEdgeList events = test::random_events(23, 60, 4000, 100000);
  const WindowSpec spec = WindowSpec::cover(0, 100000, 12000, 2000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, parts);
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    const auto& part = set.part(p);
    EXPECT_EQ(part.span_start, spec.start(part.first_window));
    EXPECT_EQ(part.span_end,
              spec.end(part.first_window + part.num_windows - 1));
    EXPECT_EQ(part.num_events,
              events.slice(part.span_start, part.span_end).size());
  }
}

TEST_P(MultiWindowParam, WindowEdgesMatchBruteForceThroughParts) {
  const std::size_t parts = GetParam();
  const TemporalEdgeList events = test::random_events(31, 40, 3000, 50000);
  const WindowSpec spec = WindowSpec::cover(0, 50000, 8000, 1500);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, parts);

  for (std::size_t w = 0; w < spec.count; w += 3) {
    const auto& part = set.part_for_window(w);
    const auto brute =
        test::brute_window_edges(events, spec.start(w), spec.end(w));
    // Collect edges from the part's reverse temporal CSR (global ids).
    std::set<std::pair<VertexId, VertexId>> got;
    for (VertexId v = 0; v < part.num_local(); ++v) {
      part.in.for_each_active_neighbor(
          v, spec.start(w), spec.end(w), [&](VertexId u) {
            got.emplace(part.global_of(u), part.global_of(v));
          });
    }
    ASSERT_EQ(got, brute) << "window " << w << " parts=" << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, MultiWindowParam,
                         ::testing::Values(1, 2, 3, 6, 17, 1000),
                         [](const auto& pinfo) {
                           // += instead of operator+ dodges a GCC 12
                           // -Wrestrict false positive (PR105651).
                           std::string name = "Y";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(MultiWindow, LocalGlobalMappingRoundTrips) {
  const TemporalEdgeList events = test::random_events(3, 100, 2000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 2000, 500);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 4);
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    const auto& part = set.part(p);
    for (VertexId local = 0; local < part.num_local(); ++local) {
      EXPECT_EQ(part.local_of(part.global_of(local)), local);
    }
  }
}

TEST(MultiWindow, LocalOfAbsentVertexIsInvalid) {
  TemporalEdgeList events;
  events.add(0, 5, 10);
  events.ensure_vertices(100);
  const WindowSpec spec = WindowSpec::cover(0, 10, 10, 5);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  EXPECT_EQ(part.num_local(), 2u);
  EXPECT_EQ(part.local_of(3), kInvalidVertex);
  EXPECT_EQ(part.local_of(99), kInvalidVertex);
  EXPECT_NE(part.local_of(0), kInvalidVertex);
  EXPECT_NE(part.local_of(5), kInvalidVertex);
}

TEST(MultiWindow, MorePartsNeverLosesEvents) {
  // Σ_w |E_w| >= |Events| (boundary duplication), and with one part per
  // dataset-covering span, equality when windows tile the data.
  const TemporalEdgeList events = test::random_events(41, 50, 3000, 60000);
  const WindowSpec spec = WindowSpec::cover(0, 60000, 9000, 3000);
  const std::size_t covered =
      events.slice(spec.start(0), spec.end(spec.count - 1)).size();
  for (const std::size_t parts : {1u, 2u, 5u, 10u}) {
    const MultiWindowSet set = MultiWindowSet::build(events, spec, parts);
    EXPECT_GE(set.total_events(), covered) << parts;
  }
}

TEST(MultiWindow, PartCountClampedToWindows) {
  const TemporalEdgeList events = test::random_events(5, 20, 500, 1000);
  const WindowSpec spec = WindowSpec::cover(0, 1000, 300, 200);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 500);
  EXPECT_LE(set.num_parts(), spec.count);
  EXPECT_GE(set.num_parts(), 1u);
}

TEST(MultiWindow, EmptySpanPartsStillValid) {
  // Events concentrated at the start; later windows are empty but their
  // parts must still exist and answer queries.
  TemporalEdgeList events;
  events.add(0, 1, 0);
  events.add(1, 2, 1);
  events.ensure_vertices(3);
  const WindowSpec spec{.t0 = 0, .delta = 10, .sw = 100, .count = 5};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 5);
  EXPECT_EQ(set.num_parts(), 5u);
  for (std::size_t w = 1; w < 5; ++w) {
    const auto& part = set.part_for_window(w);
    EXPECT_EQ(part.num_events, 0u);
    EXPECT_EQ(part.num_local(), 0u);
  }
}

/// The compaction the bitmap-rank build replaced: collect both endpoints
/// of every event, sort, unique, and remap each endpoint by binary search.
MultiWindowGraph sort_oracle_part(std::span<const TemporalEdge> slice) {
  MultiWindowGraph part;
  part.num_events = slice.size();
  for (const auto& e : slice) {
    part.local_to_global.push_back(e.src);
    part.local_to_global.push_back(e.dst);
  }
  std::sort(part.local_to_global.begin(), part.local_to_global.end());
  part.local_to_global.erase(
      std::unique(part.local_to_global.begin(), part.local_to_global.end()),
      part.local_to_global.end());
  std::vector<TemporalEdge> local_events;
  for (const auto& e : slice) {
    local_events.push_back({part.local_of(e.src), part.local_of(e.dst),
                            e.time});
  }
  part.in = TemporalCsr::build(local_events, part.num_local(),
                               /*reverse=*/true);
  return part;
}

void expect_same_part(const MultiWindowGraph& got,
                      const MultiWindowGraph& want, const std::string& label) {
  EXPECT_EQ(got.num_events, want.num_events) << label;
  EXPECT_EQ(got.local_to_global, want.local_to_global) << label;
  const auto eq = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(eq(got.in.row_ptr(), want.in.row_ptr())) << label;
  EXPECT_TRUE(eq(got.in.col(), want.in.col())) << label;
  EXPECT_TRUE(eq(got.in.time(), want.in.time())) << label;
}

TEST(MultiWindow, PartCompactionMatchesSortOracle) {
  std::vector<std::pair<std::string, std::vector<TemporalEdge>>> cases = {
      {"empty", {}},
      {"self-loop", {{7, 7, 3}}},
      {"duplicates", {{1, 2, 5}, {1, 2, 5}, {2, 1, 5}, {1, 2, 4}}},
      {"one pair", {{9, 4, 1}, {9, 4, 2}, {9, 4, 3}, {9, 4, 3}}},
      {"word boundary", {{63, 64, 1}, {64, 65, 2}, {65, 63, 3}, {64, 64, 4}}},
      {"sparse", {{0, (1u << 20) + 63, 1}, {(1u << 20) + 63, 0, 2}}},
      {"large min id",
       {{4000000, 4000100, 1}, {4000063, 4000000, 2}, {4000127, 4000064, 3}}},
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Xoshiro256 rng(seed);
    const auto n = static_cast<VertexId>(1 + rng.bounded(5000));
    std::vector<TemporalEdge> slice(rng.bounded(20000));
    for (auto& e : slice) {
      e = {static_cast<VertexId>(rng.bounded(n)),
           static_cast<VertexId>(rng.bounded(n)),
           static_cast<Timestamp>(rng.bounded(1000))};
    }
    cases.emplace_back("random seed " + std::to_string(seed),
                       std::move(slice));
  }
  for (const auto& [label, slice] : cases) {
    const MultiWindowGraph got = build_multi_window_part(slice, 0, 1, 0, 1000);
    expect_same_part(got, sort_oracle_part(slice), label);
    got.validate();
  }
}

TEST(MultiWindow, BuildIdenticalAcrossPools) {
  const TemporalEdgeList events = test::random_events(13, 400, 20000, 50000);
  const WindowSpec spec = WindowSpec::cover(0, 50000, 9000, 1000);
  par::ThreadPool one(1);
  const MultiWindowSet want =
      MultiWindowSet::build(events, spec, 6, PartitionPolicy::kUniformWindows,
                            &one);
  for (const std::size_t workers : {2u, 4u}) {
    par::ThreadPool pool(workers);
    const MultiWindowSet got = MultiWindowSet::build(
        events, spec, 6, PartitionPolicy::kUniformWindows, &pool);
    ASSERT_EQ(got.num_parts(), want.num_parts());
    for (std::size_t p = 0; p < got.num_parts(); ++p) {
      expect_same_part(got.part(p), want.part(p),
                       std::to_string(workers) + " workers, part " +
                           std::to_string(p));
    }
  }
}

TEST(MultiWindow, MemoryBytesReported) {
  const TemporalEdgeList events = test::random_events(7, 50, 2000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 2000, 1000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 3);
  EXPECT_GT(set.memory_bytes(), 0u);
}

}  // namespace
}  // namespace pmpr
