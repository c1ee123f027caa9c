#include "graph/multi_window.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "par/task_group.hpp"
#include "util/check.hpp"

namespace pmpr {

VertexId MultiWindowGraph::local_of(VertexId global) const {
  const auto it =
      std::lower_bound(local_to_global.begin(), local_to_global.end(), global);
  if (it == local_to_global.end() || *it != global) return kInvalidVertex;
  return static_cast<VertexId>(it - local_to_global.begin());
}

void MultiWindowGraph::compress(std::size_t target_chunk_entries) {
  if (is_compressed()) return;
  in_compressed = std::make_shared<const io::CompressedTemporalCsr>(
      compress_temporal_csr(in, target_chunk_entries));
  in = TemporalCsr{};
}

MultiWindowGraph build_multi_window_part(std::span<const TemporalEdge> slice,
                                         std::size_t first_window,
                                         std::size_t num_windows,
                                         Timestamp span_start,
                                         Timestamp span_end,
                                         par::ThreadPool* pool) {
  MultiWindowGraph part;
  part.first_window = first_window;
  part.num_windows = num_windows;
  part.span_start = span_start;
  part.span_end = span_end;
  part.num_events = slice.size();

  // Compact vertex space in O(E + V/64): mark every endpoint in a bitmap,
  // rank each word by a prefix sum of popcounts, and read the set bits
  // back in ascending order. Local id of g = marked ids below g.
  VertexId max_id = 0;
  for (const auto& e : slice) max_id = std::max({max_id, e.src, e.dst});
  const std::size_t words = static_cast<std::size_t>(max_id / 64) + 1;
  std::vector<std::uint64_t> marked(words, 0);
  const auto bit = [](VertexId g) { return std::uint64_t{1} << (g % 64); };
  for (const auto& e : slice) {
    marked[e.src / 64] |= bit(e.src);
    marked[e.dst / 64] |= bit(e.dst);
  }
  std::vector<VertexId> rank(words);  // marked ids below word w
  VertexId distinct = 0;
  for (std::size_t w = 0; w < words; ++w) {
    rank[w] = distinct;
    distinct += static_cast<VertexId>(std::popcount(marked[w]));
  }
  part.local_to_global.reserve(distinct);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t m = marked[w]; m != 0; m &= m - 1) {
      part.local_to_global.push_back(
          static_cast<VertexId>(w * 64 + std::countr_zero(m)));
    }
  }
  const auto local = [&marked, &rank, bit](VertexId g) {
    return rank[g / 64] +
           static_cast<VertexId>(std::popcount(marked[g / 64] & (bit(g) - 1)));
  };

  // Remap events to local ids and build the reverse temporal CSR.
  std::vector<TemporalEdge> local_events;
  local_events.reserve(slice.size());
  for (const auto& e : slice) {
    local_events.push_back({local(e.src), local(e.dst), e.time});
  }
  part.in = TemporalCsr::build(local_events, part.num_local(),
                               /*reverse=*/true, pool);
  return part;
}

std::string_view to_string(PartitionPolicy p) {
  return p == PartitionPolicy::kUniformWindows ? "uniform-windows"
                                               : "balanced-events";
}

namespace {

/// Window-range boundaries per part: boundaries[p]..boundaries[p+1] is the
/// half-open window range of part p.
std::vector<std::size_t> uniform_boundaries(std::size_t windows,
                                            std::size_t parts) {
  std::vector<std::size_t> b(parts + 1);
  for (std::size_t p = 0; p <= parts; ++p) b[p] = p * windows / parts;
  return b;
}

/// Greedy linear partitioning on per-window event counts: each part closes
/// once it holds at least (remaining events / remaining parts). Keeps every
/// part non-empty.
std::vector<std::size_t> balanced_boundaries(const TemporalEdgeList& events,
                                             const WindowSpec& spec,
                                             std::size_t parts) {
  std::vector<std::size_t> cost(spec.count);
  std::size_t total = 0;
  for (std::size_t w = 0; w < spec.count; ++w) {
    cost[w] = events.slice(spec.start(w), spec.end(w)).size();
    total += cost[w];
  }
  std::vector<std::size_t> b;
  b.reserve(parts + 1);
  b.push_back(0);
  std::size_t remaining = total;
  std::size_t w = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t parts_left = parts - p;
    // Leave at least one window per remaining part.
    const std::size_t max_end = spec.count - (parts_left - 1);
    const std::size_t target =
        (remaining + parts_left - 1) / parts_left;
    std::size_t acc = 0;
    std::size_t end = w;
    while (end < max_end && (acc < target || end == w)) {
      acc += cost[end];
      ++end;
    }
    remaining -= acc;
    w = end;
    b.push_back(end);
  }
  b.back() = spec.count;
  return b;
}

}  // namespace

std::vector<std::size_t> partition_boundaries(const TemporalEdgeList& events,
                                              const WindowSpec& spec,
                                              std::size_t num_parts,
                                              PartitionPolicy policy) {
  num_parts = std::max<std::size_t>(1, std::min(num_parts, spec.count));
  return policy == PartitionPolicy::kUniformWindows
             ? uniform_boundaries(spec.count, num_parts)
             : balanced_boundaries(events, spec, num_parts);
}

MultiWindowSet MultiWindowSet::build(const TemporalEdgeList& events,
                                     const WindowSpec& spec,
                                     std::size_t num_parts,
                                     PartitionPolicy policy,
                                     par::ThreadPool* pool) {
  spec.validate();
  PMPR_CHECK_MSG(spec.count >= 1,
                 "MultiWindowSet::build needs at least one window");
  PMPR_CHECK_MSG(events.is_sorted_by_time(),
                 "MultiWindowSet::build requires time-sorted events; call "
                 "sort_by_time() first");
  MultiWindowSet set;
  set.spec_ = spec;
  set.num_global_ = events.num_vertices();
  num_parts = std::max<std::size_t>(1, std::min(num_parts, spec.count));
  set.parts_.resize(num_parts);

  const std::vector<std::size_t> boundaries =
      partition_boundaries(events, spec, num_parts, policy);

  par::TaskGroup group(pool);
  for (std::size_t p = 0; p < num_parts; ++p) {
    const std::size_t first = boundaries[p];
    const std::size_t last = boundaries[p + 1];  // exclusive
    const std::size_t nwin = last - first;
    if (nwin == 0) continue;
    const Timestamp span_start = spec.start(first);
    const Timestamp span_end = spec.end(last - 1);
    group.run([&set, &events, p, first, nwin, span_start, span_end, pool] {
      set.parts_[p] = build_multi_window_part(
          events.slice(span_start, span_end), first, nwin, span_start,
          span_end, pool);
    });
  }
  group.wait();

  // Drop any empty parts created when num_parts > count (defensive; the
  // clamp above should prevent it).
  std::erase_if(set.parts_,
                [](const MultiWindowGraph& g) { return g.num_windows == 0; });
  return set;
}

MultiWindowSet MultiWindowSet::adopt(const WindowSpec& spec,
                                     VertexId num_global,
                                     std::vector<MultiWindowGraph> parts) {
  spec.validate();
  PMPR_CHECK_MSG(!parts.empty(), "adopt needs at least one part");
  MultiWindowSet set;
  set.spec_ = spec;
  set.num_global_ = num_global;
  set.parts_ = std::move(parts);
  return set;
}

void MultiWindowSet::compress_in_place(std::size_t target_chunk_entries,
                                       par::ThreadPool* pool) {
  par::TaskGroup group(pool);
  for (auto& part : parts_) {
    group.run([&part, target_chunk_entries] {
      part.compress(target_chunk_entries);
    });
  }
  group.wait();
}

std::size_t MultiWindowSet::part_index_for_window(std::size_t w) const {
  assert(w < spec_.count);
  // Parts hold contiguous, sorted window ranges: binary search.
  std::size_t lo = 0;
  std::size_t hi = parts_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (parts_[mid].first_window <= w) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  assert(w >= parts_[lo].first_window &&
         w < parts_[lo].first_window + parts_[lo].num_windows);
  return lo;
}

void MultiWindowGraph::validate() const {
  PMPR_CHECK_MSG(num_windows >= 1, "part holds no windows");
  PMPR_CHECK_MSG(span_start <= span_end,
                 "part span [" << span_start << ", " << span_end
                               << "] is inverted");
  for (std::size_t i = 1; i < local_to_global.size(); ++i) {
    PMPR_CHECK_MSG(local_to_global[i - 1] < local_to_global[i],
                   "local_to_global not strictly increasing at index "
                       << i << ": " << local_to_global[i - 1]
                       << " >= " << local_to_global[i]);
  }
  // Compressed parts are audited on a full decode: the codec must
  // reproduce a structurally valid raw CSR (and the decode itself verifies
  // chunk-table/payload integrity).
  const TemporalCsr* csr = &in;
  TemporalCsr decoded;
  if (is_compressed()) {
    PMPR_CHECK_MSG(in.num_entries() == 0 && in.num_vertices() == 0,
                   "compressed part still holds a raw in-CSR");
    PMPR_CHECK_MSG(in_compressed->num_rows() == num_local(),
                   "compressed in-CSR covers " << in_compressed->num_rows()
                                               << " rows, local space has "
                                               << num_local());
    decoded = decompress_temporal_csr(*in_compressed);
    csr = &decoded;
  }
  PMPR_CHECK_MSG(csr->num_vertices() == num_local() ||
                     (num_local() == 0 && csr->num_entries() == 0),
                 "in-CSR covers " << csr->num_vertices()
                                  << " vertices, local space has "
                                  << num_local());
  PMPR_CHECK_MSG(csr->num_entries() == num_events,
                 "in-CSR stores " << csr->num_entries()
                                  << " events, part says " << num_events);
  csr->validate();
  for (VertexId v = 0; v < csr->num_vertices(); ++v) {
    for (const Timestamp t : csr->row_times(v)) {
      PMPR_CHECK_MSG(t >= span_start && t <= span_end,
                     "row " << v << " stores an event at time " << t
                            << " outside the part span [" << span_start
                            << ", " << span_end << "]");
    }
  }
}

void MultiWindowSet::validate() const {
  spec_.validate();
  PMPR_CHECK_MSG(!parts_.empty(), "multi-window set holds no parts");
  std::size_t next_window = 0;
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    const MultiWindowGraph& part = parts_[p];
    part.validate();
    PMPR_CHECK_MSG(part.first_window == next_window,
                   "part " << p << " starts at window " << part.first_window
                           << ", expected " << next_window
                           << " (gap or overlap in the window coverage)");
    PMPR_CHECK_MSG(part.span_start == spec_.start(part.first_window) &&
                       part.span_end == spec_.end(part.first_window +
                                                  part.num_windows - 1),
                   "part " << p << " span does not match its window range");
    for (const VertexId g : part.local_to_global) {
      PMPR_CHECK_MSG(g < num_global_,
                     "part " << p << " maps a local vertex to global id " << g
                             << " outside [0, " << num_global_ << ")");
    }
    next_window += part.num_windows;
  }
  PMPR_CHECK_MSG(next_window == spec_.count,
                 "parts cover " << next_window << " windows, spec has "
                                << spec_.count);
}

std::size_t MultiWindowSet::total_events() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p.num_events;
  return total;
}

std::size_t MultiWindowSet::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p.memory_bytes();
  return total;
}

}  // namespace pmpr
