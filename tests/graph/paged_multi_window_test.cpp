#include "graph/paged_multi_window.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/multi_window.hpp"
#include "graph/temporal_csr.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

WindowSpec test_spec() { return {0, 400, 100, 16}; }

TemporalEdgeList test_events() {
  return test::random_events(99, 60, 5000, 1999);
}

/// Options factory: a partial designated initializer trips GCC's
/// -Wmissing-field-initializers under -Wextra -Werror (sanitize builds).
PagedMultiWindowSet::Options opts_with(std::size_t num_parts,
                                       std::size_t budget_bytes = 0,
                                       std::string spill_path = {}) {
  PagedMultiWindowSet::Options opts;
  opts.num_parts = num_parts;
  opts.budget_bytes = budget_bytes;
  opts.spill_path = std::move(spill_path);
  return opts;
}

/// Decoded part adjacency must equal the in-RAM build's raw CSR.
void expect_part_matches(const MultiWindowGraph& paged_part,
                         const MultiWindowGraph& ram_part) {
  EXPECT_EQ(paged_part.first_window, ram_part.first_window);
  EXPECT_EQ(paged_part.num_windows, ram_part.num_windows);
  EXPECT_EQ(paged_part.span_start, ram_part.span_start);
  EXPECT_EQ(paged_part.span_end, ram_part.span_end);
  EXPECT_EQ(paged_part.num_events, ram_part.num_events);
  EXPECT_EQ(paged_part.local_to_global, ram_part.local_to_global);
  ASSERT_TRUE(paged_part.is_compressed());
  ASSERT_FALSE(ram_part.is_compressed());
  const TemporalCsr decoded =
      decompress_temporal_csr(*paged_part.in_compressed);
  ASSERT_EQ(decoded.num_vertices(), ram_part.in.num_vertices());
  ASSERT_EQ(decoded.num_entries(), ram_part.in.num_entries());
  for (VertexId v = 0; v < decoded.num_vertices(); ++v) {
    const auto cols = decoded.row_cols(v);
    const auto ref_cols = ram_part.in.row_cols(v);
    const auto times = decoded.row_times(v);
    const auto ref_times = ram_part.in.row_times(v);
    ASSERT_EQ(cols.size(), ref_cols.size()) << "row " << v;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      ASSERT_EQ(cols[i], ref_cols[i]) << "row " << v << " entry " << i;
      ASSERT_EQ(times[i], ref_times[i]) << "row " << v << " entry " << i;
    }
  }
}

TEST(PagedMultiWindowSet, BuildMatchesInRamDecomposition) {
  const TemporalEdgeList events = test_events();
  const WindowSpec spec = test_spec();
  const MultiWindowSet ram = MultiWindowSet::build(events, spec, 4);
  PagedMultiWindowSet::Options opts;
  opts.num_parts = 4;
  const auto paged = PagedMultiWindowSet::build(events, spec, opts);
  ASSERT_EQ(paged->num_parts(), ram.num_parts());
  EXPECT_EQ(paged->num_global_vertices(), ram.num_global_vertices());
  for (std::size_t p = 0; p < paged->num_parts(); ++p) {
    const PagedMultiWindowSet::Lease lease = paged->acquire(p);
    expect_part_matches(lease.part(), ram.part(p));
    lease.part().validate();
  }
  for (std::size_t w = 0; w < spec.count; ++w) {
    EXPECT_EQ(paged->part_index_for_window(w), ram.part_index_for_window(w));
  }
}

TEST(PagedMultiWindowSet, ZeroBudgetPagesOnePartAtATime) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(6));
  ASSERT_EQ(paged->num_parts(), 6u);
  // budget 0 resolves to the largest single part.
  EXPECT_GT(paged->budget_bytes(), 0u);
  for (std::size_t p = 0; p < paged->num_parts(); ++p) {
    const PagedMultiWindowSet::Lease lease = paged->acquire(p);
    EXPECT_TRUE(lease.valid());
    EXPECT_LE(paged->resident_bytes(), paged->budget_bytes());
  }
  const PagingStats stats = paged->stats();
  // Touching all 6 parts under a one-part budget must have evicted along
  // the way (every part payload here is non-empty).
  EXPECT_GE(stats.parts_evicted, 4u);
  EXPECT_LE(paged->resident_bytes(), paged->budget_bytes());
}

TEST(PagedMultiWindowSet, ReacquiringEvictedPartCountsRefault) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(4));
  (void)paged->acquire(0);
  for (std::size_t p = 1; p < paged->num_parts(); ++p) (void)paged->acquire(p);
  const std::size_t evicted_before = paged->stats().parts_evicted;
  ASSERT_GE(evicted_before, 1u);
  (void)paged->acquire(0);
  EXPECT_GE(paged->stats().part_refaults, 1u);
}

TEST(PagedMultiWindowSet, RefaultCountedExactlyOncePerRemap) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(4));
  // First pass over all parts: cold faults only, never refaults.
  for (std::size_t p = 0; p < paged->num_parts(); ++p) (void)paged->acquire(p);
  EXPECT_EQ(paged->stats().part_refaults, 0u);
  // Part 0 was evicted during the sweep: re-mapping it is one refault.
  (void)paged->acquire(0);
  EXPECT_EQ(paged->stats().part_refaults, 1u);
  // Acquiring a part that is already resident is a hit, not a refault.
  (void)paged->acquire(0);
  EXPECT_EQ(paged->stats().part_refaults, 1u);
  // Each further evict + re-map pair adds exactly one.
  (void)paged->acquire(1);  // evicted earlier in the sweep
  EXPECT_EQ(paged->stats().part_refaults, 2u);
  (void)paged->acquire(0);  // just evicted by the line above
  EXPECT_EQ(paged->stats().part_refaults, 3u);
}

TEST(PagedMultiWindowSet, PeakResidentMonotoneUnderChurn) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(6));
  std::size_t last_peak = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < paged->num_parts(); ++p) {
      const PagedMultiWindowSet::Lease lease = paged->acquire(p);
      const PagingStats s = paged->stats();
      // The charged watermark never decreases, and always dominates the
      // instantaneous residency — pin/unpin churn must not reset it.
      EXPECT_GE(s.peak_resident_bytes, last_peak);
      EXPECT_GE(s.peak_resident_bytes, paged->resident_bytes());
      last_peak = s.peak_resident_bytes;
    }
  }
  EXPECT_GT(last_peak, 0u);
  EXPECT_LE(last_peak, paged->budget_bytes());
  // The churn mapped real store pages, so the mincore audit saw some.
  EXPECT_GT(paged->stats().measured_resident_peak_bytes, 0u);
}

TEST(PagedMultiWindowSet, MeasuredResidencyCountsOnlyMappedParts) {
  // build() leaves the whole store file in the page cache, so a scan of
  // the file would report every part as resident. The audit scans only the
  // mapped payloads and counts only their own bytes, so it can never
  // exceed the charge.
  const TemporalEdgeList events = test::random_events(77, 2000, 100000, 1999);
  const auto paged = PagedMultiWindowSet::build(events, test_spec(),
                                                opts_with(4));
  ASSERT_EQ(paged->num_parts(), 4u);
  for (std::size_t p = 0; p < 3; ++p) {
    PagedMultiWindowSet::Lease lease = paged->acquire(p);
    lease.release();
  }
  const PagingStats stats = paged->stats();
  EXPECT_GT(stats.measured_resident_peak_bytes, 0u);
  EXPECT_LE(stats.measured_resident_peak_bytes, stats.peak_resident_bytes);
  EXPECT_LT(stats.measured_resident_peak_bytes, stats.store_bytes / 2);
}

TEST(PagedMultiWindowSet, PinnedPartsAreNeverEvicted) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(4));
  const PagedMultiWindowSet::Lease held = paged->acquire(0);
  const MultiWindowGraph& part = held.part();
  ASSERT_TRUE(part.is_compressed());
  const TemporalCsr before = decompress_temporal_csr(*part.in_compressed);
  // Under the one-part budget, every further acquire needs the full budget
  // and part 0 is pinned — so these must throw rather than evict it.
  EXPECT_THROW((void)paged->acquire(1), InvariantError);
  // The pinned part stays mapped and intact.
  ASSERT_TRUE(part.is_compressed());
  const TemporalCsr after = decompress_temporal_csr(*part.in_compressed);
  ASSERT_EQ(after.num_entries(), before.num_entries());
}

TEST(PagedMultiWindowSet, BudgetAdmitsMultipleParts) {
  const auto one_at_a_time =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(4));
  std::size_t total_payload = 0;
  {
    const PagingStats s = one_at_a_time->stats();
    total_payload = s.store_bytes;  // upper bound on Σ payload
  }
  const auto roomy = PagedMultiWindowSet::build(
      test_events(), test_spec(),
      opts_with(4, total_payload * 2));
  std::vector<PagedMultiWindowSet::Lease> leases;
  for (std::size_t p = 0; p < roomy->num_parts(); ++p) {
    leases.push_back(roomy->acquire(p));
  }
  EXPECT_EQ(roomy->stats().parts_evicted, 0u);
  for (const auto& lease : leases) {
    EXPECT_TRUE(lease.part().is_compressed());
  }
}

TEST(PagedMultiWindowSet, MetadataReadableWhileEvicted) {
  const TemporalEdgeList events = test_events();
  const WindowSpec spec = test_spec();
  const MultiWindowSet ram = MultiWindowSet::build(events, spec, 4);
  const auto paged = PagedMultiWindowSet::build(events, spec, opts_with(4));
  // Cycle through all parts so earlier ones get evicted...
  for (std::size_t p = 0; p < paged->num_parts(); ++p) (void)paged->acquire(p);
  // ...then read every part's metadata without pinning.
  for (std::size_t p = 0; p < paged->num_parts(); ++p) {
    const MultiWindowGraph& meta = paged->part_meta(p);
    EXPECT_EQ(meta.first_window, ram.part(p).first_window);
    EXPECT_EQ(meta.num_windows, ram.part(p).num_windows);
    EXPECT_EQ(meta.local_to_global, ram.part(p).local_to_global);
  }
}

TEST(PagedMultiWindowSet, StatsReportStoreAndRawBytes) {
  const auto paged =
      PagedMultiWindowSet::build(test_events(), test_spec(), opts_with(4));
  const PagingStats stats = paged->stats();
  EXPECT_GT(stats.store_bytes, 0u);
  EXPECT_GT(stats.raw_bytes, 0u);
  EXPECT_GT(stats.chunks_total, 0u);
  // Delta+varint on sorted adjacency beats the raw 12-byte entries.
  EXPECT_LT(stats.store_bytes, stats.raw_bytes);
  EXPECT_EQ(std::filesystem::file_size(paged->store_path()),
            stats.store_bytes);
}

TEST(PagedMultiWindowSet, TempStoreFileRemovedOnDestroy) {
  std::string path;
  {
    const auto paged = PagedMultiWindowSet::build(test_events(), test_spec(),
                                                  opts_with(2));
    path = paged->store_path();
    ASSERT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(PagedMultiWindowSet, ExplicitSpillPathIsUsed) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pmpr-test-spill.bin")
          .string();
  {
    const auto paged = PagedMultiWindowSet::build(
        test_events(), test_spec(), opts_with(2, 0, path));
    EXPECT_EQ(paged->store_path(), path);
    ASSERT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

/// FNV-1a (64-bit) over a file's bytes.
std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (auto it = std::istreambuf_iterator<char>(in);
       it != std::istreambuf_iterator<char>(); ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(PagedMultiWindowSet, StoreBytesArePinned) {
  // Golden digest of the store file for a fixed seeded input. The store
  // bytes encode the local vertex numbering, the row order of the reverse
  // temporal CSR and the chunk codec, so any change to the part build or
  // the on-disk form — a different local-id order included — moves it.
  const TemporalEdgeList events = test::random_events(2024, 700, 20000, 1999);
  const auto paged =
      PagedMultiWindowSet::build(events, test_spec(), opts_with(5));
  const PagingStats stats = paged->stats();
  EXPECT_EQ(stats.store_bytes, 103559u);
  EXPECT_EQ(fnv1a_file(paged->store_path()), 0x5add6becb7a25e7dULL);
}

TEST(PagedMultiWindowSet, RejectsUnsortedEvents) {
  TemporalEdgeList events;
  events.add(0, 1, 100);
  events.add(1, 2, 50);
  EXPECT_THROW(
      (void)PagedMultiWindowSet::build(events, {0, 10, 10, 4}, opts_with(2)),
      InvariantError);
}

}  // namespace
}  // namespace pmpr
