#include "graph/temporal_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace pmpr {
namespace {

TEST(TemporalCsr, StoresEveryEvent) {
  const TemporalEdgeList events = test::paper_example_symmetric();
  const TemporalCsr g =
      TemporalCsr::build(events.events(), events.num_vertices(), false);
  // Fig. 3: 28 entries for the symmetrized example.
  EXPECT_EQ(g.num_entries(), 28u);
  EXPECT_EQ(g.num_vertices(), 7u);
}

TEST(TemporalCsr, RowsSortedByNeighborThenTime) {
  const TemporalEdgeList events = test::random_events(11, 30, 3000, 2000);
  const TemporalCsr g =
      TemporalCsr::build(events.events(), events.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto cols = g.row_cols(v);
    const auto times = g.row_times(v);
    for (std::size_t i = 1; i < cols.size(); ++i) {
      const bool ordered =
          cols[i - 1] < cols[i] ||
          (cols[i - 1] == cols[i] && times[i - 1] <= times[i]);
      ASSERT_TRUE(ordered) << "row " << v << " entry " << i;
    }
  }
}

TEST(TemporalCsr, ForwardRowHoldsOutEvents) {
  TemporalEdgeList events;
  events.add(0, 1, 10);
  events.add(0, 2, 20);
  events.add(1, 0, 30);
  const TemporalCsr g = TemporalCsr::build(events.events(), 3, false);
  EXPECT_EQ(g.row_cols(0).size(), 2u);
  EXPECT_EQ(g.row_cols(1).size(), 1u);
  EXPECT_EQ(g.row_cols(2).size(), 0u);
}

TEST(TemporalCsr, ReverseRowHoldsInEvents) {
  TemporalEdgeList events;
  events.add(0, 1, 10);
  events.add(0, 2, 20);
  events.add(1, 0, 30);
  const TemporalCsr g = TemporalCsr::build(events.events(), 3, true);
  EXPECT_EQ(g.row_cols(0).size(), 1u);  // in-edge from 1
  EXPECT_EQ(g.row_cols(0)[0], 1u);
  EXPECT_EQ(g.row_cols(1).size(), 1u);
  EXPECT_EQ(g.row_cols(2).size(), 1u);
}

/// Property: for_each_active_neighbor over random events matches a
/// brute-force filter over many random windows.
TEST(TemporalCsr, ActiveNeighborsMatchBruteForce) {
  const TemporalEdgeList events = test::random_events(5, 25, 2000, 1000);
  const TemporalCsr g =
      TemporalCsr::build(events.events(), events.num_vertices(), false);
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const auto ts = static_cast<Timestamp>(rng.bounded(1100));
    const auto te = ts + static_cast<Timestamp>(rng.bounded(400));
    // Brute force: distinct out-neighbors per source in [ts, te].
    std::map<VertexId, std::set<VertexId>> expect;
    for (const auto& e : events.events()) {
      if (e.time >= ts && e.time <= te) expect[e.src].insert(e.dst);
    }
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      std::set<VertexId> got;
      g.for_each_active_neighbor(v, ts, te, [&](VertexId u) {
        const bool inserted = got.insert(u).second;
        EXPECT_TRUE(inserted) << "duplicate neighbor " << u << " of " << v;
      });
      ASSERT_EQ(got, expect[v]) << "v=" << v << " [" << ts << "," << te << "]";
    }
  }
}

TEST(TemporalCsr, DuplicateEventsReportedOnce) {
  TemporalEdgeList events;
  events.add(0, 1, 10);
  events.add(0, 1, 15);
  events.add(0, 1, 20);
  const TemporalCsr g = TemporalCsr::build(events.events(), 2, false);
  int count = 0;
  g.for_each_active_neighbor(0, 0, 100, [&](VertexId u) {
    EXPECT_EQ(u, 1u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(TemporalCsr, WindowExcludesOutOfRangeRuns) {
  TemporalEdgeList events;
  events.add(0, 1, 10);
  events.add(0, 2, 50);
  const TemporalCsr g = TemporalCsr::build(events.events(), 3, false);
  int count = 0;
  VertexId seen = 99;
  g.for_each_active_neighbor(0, 40, 60, [&](VertexId u) {
    seen = u;
    ++count;
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(seen, 2u);
}

TEST(TemporalCsr, EmptyWindowNoNeighbors) {
  const TemporalEdgeList events = test::paper_example_directed();
  const TemporalCsr g = TemporalCsr::build(events.events(), 7, false);
  for (VertexId v = 0; v < 7; ++v) {
    g.for_each_active_neighbor(
        v, 0, 100, [&](VertexId) { FAIL() << "no events before day 100"; });
  }
}

TEST(TemporalCsr, PaperExampleWindowT1) {
  // In interval T1, vertex 1 (paper's 2) has distinct neighbors
  // {0 (via 6/21 event? no—that's 0->1), 2, 3} in the directed version:
  // out-edges of vertex 1 in T1: (1,2)@212, (1,3)@222.
  const TemporalEdgeList events = test::paper_example_directed();
  const TemporalCsr g = TemporalCsr::build(events.events(), 7, false);
  std::set<VertexId> got;
  g.for_each_active_neighbor(1, test::PaperIntervals::t1_start,
                             test::PaperIntervals::t1_end,
                             [&](VertexId u) { got.insert(u); });
  EXPECT_EQ(got, (std::set<VertexId>{2, 3}));
}

TEST(TemporalCsr, MemoryBytesGrowsWithEvents) {
  const TemporalEdgeList small = test::random_events(2, 20, 100, 100);
  const TemporalEdgeList big = test::random_events(2, 20, 10000, 100);
  const TemporalCsr gs = TemporalCsr::build(small.events(), 20, false);
  const TemporalCsr gb = TemporalCsr::build(big.events(), 20, false);
  EXPECT_LT(gs.memory_bytes(), gb.memory_bytes());
}

/// A CSR with the given row lengths and seeded columns and times.
TemporalCsr csr_with_rows(const std::vector<std::size_t>& lengths,
                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::size_t> row_ptr{0};
  std::vector<VertexId> cols;
  std::vector<Timestamp> times;
  for (const std::size_t len : lengths) {
    for (std::size_t i = 0; i < len; ++i) {
      cols.push_back(static_cast<VertexId>(rng.bounded(1000)));
      times.push_back(static_cast<Timestamp>(rng.bounded(1u << 30)));
    }
    row_ptr.push_back(cols.size());
  }
  return TemporalCsr::adopt(std::move(row_ptr), std::move(cols),
                            std::move(times));
}

std::vector<std::uint8_t> serialized(const io::CompressedTemporalCsr& c) {
  std::vector<std::uint8_t> bytes;
  c.serialize_to(bytes);
  return bytes;
}

TEST(TemporalCsr, ChunkParallelEncodeMatchesSerial) {
  // The chunk plan depends on row_ptr alone and each chunk encodes on its
  // own, so the store bytes cannot depend on the pool.
  struct Case {
    const char* name;
    TemporalCsr csr;
    std::size_t target;
  };
  std::vector<std::size_t> many(3000);
  Xoshiro256 rng(77);
  for (std::size_t& len : many) len = rng.bounded(30);
  std::vector<Case> cases;
  cases.push_back({"zero rows", TemporalCsr{}, 4});
  cases.push_back({"empty rows", csr_with_rows({3, 0, 0, 5, 0, 2, 0}, 1), 4});
  cases.push_back({"only empty rows", csr_with_rows({0, 0, 0}, 2), 4});
  cases.push_back(
      {"trailing empty rows", csr_with_rows({4, 2, 0, 0, 0}, 3), 3});
  cases.push_back(
      {"row longer than target", csr_with_rows({2, 50, 3, 1}, 4), 8});
  cases.push_back({"target 1", csr_with_rows({1, 3, 0, 2, 7, 0, 1}, 5), 1});
  cases.push_back({"many chunks", csr_with_rows(many, 6), 64});
  par::ThreadPool one(1);
  par::ThreadPool two(2);
  par::ThreadPool four(4);
  for (const Case& c : cases) {
    const std::vector<std::uint8_t> serial =
        serialized(io::CompressedTemporalCsr::encode(
            c.csr.row_ptr(), c.csr.col(), c.csr.time(), c.target));
    const std::vector<std::uint8_t> on_one =
        serialized(compress_temporal_csr(c.csr, c.target, &one));
    EXPECT_EQ(on_one, serial) << c.name;
    for (par::ThreadPool* pool : {&two, &four}) {
      EXPECT_EQ(serialized(compress_temporal_csr(c.csr, c.target, pool)),
                on_one)
          << c.name << ", " << pool->num_threads() << " workers";
    }
    const TemporalCsr back = decompress_temporal_csr(
        compress_temporal_csr(c.csr, c.target, &four));
    EXPECT_TRUE(std::ranges::equal(back.row_ptr(), c.csr.row_ptr()) &&
                std::ranges::equal(back.col(), c.csr.col()) &&
                std::ranges::equal(back.time(), c.csr.time()))
        << c.name;
  }
}

}  // namespace
}  // namespace pmpr
