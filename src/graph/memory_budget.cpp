#include "graph/memory_budget.hpp"

#include <algorithm>
#include <cstdint>

namespace pmpr {

namespace {

/// Working vectors per execution context for a part with `vertices` locals:
/// x + scratch + prev_x (3 doubles) per lane, degrees (u32) per lane,
/// activity mask (one u64 word), plus the batch-compiled adjacency
/// (pagerank/batch_csr.hpp): row pointers, run-compressed neighbor + lane
/// mask entries (bounded by the part's stored events — run compression and
/// mask-0 dropping only shrink it), and the compacted active/dangling lists
/// (dangling rows carry a mask word too).
std::size_t working_bytes(std::size_t vertices, std::size_t events,
                          std::size_t vector_length) {
  const std::size_t lanes = std::max<std::size_t>(1, vector_length);
  const std::size_t mask_bytes = sizeof(std::uint64_t);
  const std::size_t vectors =
      vertices * (3 * sizeof(double) * lanes +
                  sizeof(std::uint32_t) * lanes + mask_bytes);
  const std::size_t compiled =
      (vertices + 1) * sizeof(std::size_t)               // row_ptr
      + events * (sizeof(VertexId) + mask_bytes)         // nbr + mask
      + vertices * (2 * sizeof(VertexId) + mask_bytes);  // lists
  return vectors + compiled;
}

std::size_t representation_bytes_for(std::size_t vertices,
                                     std::size_t events) {
  return (vertices + 1) * sizeof(std::size_t)  // row pointers
         + events * (sizeof(VertexId) + sizeof(Timestamp))  // colA + timeA
         + vertices * sizeof(VertexId);                     // local->global
}

}  // namespace

MemoryEstimate estimate_memory(const MultiWindowSet& set,
                               std::size_t vector_length) {
  MemoryEstimate est;
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    const auto& part = set.part(p);
    const std::size_t bytes = part.memory_bytes();
    est.representation_bytes += bytes;
    if (bytes >= est.largest_part_bytes) {
      est.largest_part_bytes = bytes;
      est.working_bytes_per_context =
          working_bytes(part.num_local(), part.num_events, vector_length);
    }
  }
  return est;
}

MemoryEstimate predict_memory(const TemporalEdgeList& events,
                              const WindowSpec& spec, std::size_t num_parts,
                              std::size_t vector_length) {
  num_parts = std::max<std::size_t>(1, std::min(num_parts, spec.count));
  MemoryEstimate est;
  for (std::size_t p = 0; p < num_parts; ++p) {
    const std::size_t first = p * spec.count / num_parts;
    const std::size_t last = (p + 1) * spec.count / num_parts;
    if (first == last) continue;
    const std::size_t part_events =
        events.slice(spec.start(first), spec.end(last - 1)).size();
    const std::size_t part_vertices = std::min<std::size_t>(
        2 * part_events, events.num_vertices());
    const std::size_t bytes =
        representation_bytes_for(part_vertices, part_events);
    est.representation_bytes += bytes;
    if (bytes >= est.largest_part_bytes) {
      est.largest_part_bytes = bytes;
      est.working_bytes_per_context =
          working_bytes(part_vertices, part_events, vector_length);
    }
  }
  return est;
}

std::size_t suggest_num_multi_windows(const TemporalEdgeList& events,
                                      const WindowSpec& spec,
                                      std::size_t budget_bytes,
                                      std::size_t vector_length,
                                      std::size_t contexts) {
  contexts = std::max<std::size_t>(1, contexts);
  std::size_t y = 1;
  while (y < spec.count) {
    const MemoryEstimate est =
        predict_memory(events, spec, y, vector_length);
    if (est.peak_bytes(contexts) <= budget_bytes) return y;
    y *= 2;
  }
  return std::min<std::size_t>(y, spec.count);
}

std::size_t suggest_num_parts_for_budget(const TemporalEdgeList& events,
                                         const WindowSpec& spec,
                                         std::size_t budget_bytes,
                                         std::size_t vector_length,
                                         std::size_t contexts) {
  contexts = std::max<std::size_t>(1, contexts);
  std::size_t y = 1;
  while (y < spec.count) {
    const MemoryEstimate est =
        predict_memory(events, spec, y, vector_length);
    const std::size_t resident =
        est.largest_part_bytes + contexts * est.working_bytes_per_context;
    if (resident <= budget_bytes) return y;
    y *= 2;
  }
  return std::min<std::size_t>(y, spec.count);
}

}  // namespace pmpr
