#include "graph/temporal_csr.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

#include "par/parallel_for.hpp"
#include "util/check.hpp"

namespace pmpr {

TemporalCsr TemporalCsr::build(std::span<const TemporalEdge> events,
                               VertexId num_vertices, bool reverse,
                               par::ThreadPool* pool) {
  TemporalCsr g;
  g.row_ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);

  auto row_of = [reverse](const TemporalEdge& e) {
    return reverse ? e.dst : e.src;
  };
  auto col_of = [reverse](const TemporalEdge& e) {
    return reverse ? e.src : e.dst;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TemporalEdge& e = events[i];
    PMPR_CHECK_MSG(e.src < num_vertices && e.dst < num_vertices,
                   "event " << i << " = <" << e.src << ", " << e.dst << ", "
                            << e.time << "> has an endpoint outside the "
                            << "vertex space [0, " << num_vertices << ")");
    ++g.row_ptr_[row_of(e) + 1];
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    g.row_ptr_[v + 1] += g.row_ptr_[v];
  }

  g.col_.resize(events.size());
  g.time_.resize(events.size());
  {
    std::vector<std::size_t> cursor(g.row_ptr_.begin(), g.row_ptr_.end() - 1);
    for (const auto& e : events) {
      const std::size_t at = cursor[row_of(e)]++;
      g.col_[at] = col_of(e);
      g.time_[at] = e.time;
    }
  }

  // Sort every row by <neighbor, time> so events between the same pair form
  // a consecutive, time-ascending run. Rows are independent -> parallel.
  par::ForOptions rows;
  rows.pool = pool;
  par::parallel_for_range(
      0, num_vertices, rows,
      [&g](std::size_t lo_v, std::size_t hi_v) {
        std::vector<std::uint32_t> order;
        std::vector<VertexId> tmp_col;
        std::vector<Timestamp> tmp_time;
        for (std::size_t v = lo_v; v < hi_v; ++v) {
          const std::size_t lo = g.row_ptr_[v];
          const std::size_t hi = g.row_ptr_[v + 1];
          const std::size_t len = hi - lo;
          if (len < 2) continue;
          order.resize(len);
          std::iota(order.begin(), order.end(), 0u);
          std::sort(order.begin(), order.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      const VertexId ca = g.col_[lo + a];
                      const VertexId cb = g.col_[lo + b];
                      if (ca != cb) return ca < cb;
                      return g.time_[lo + a] < g.time_[lo + b];
                    });
          tmp_col.resize(len);
          tmp_time.resize(len);
          for (std::size_t k = 0; k < len; ++k) {
            tmp_col[k] = g.col_[lo + order[k]];
            tmp_time[k] = g.time_[lo + order[k]];
          }
          std::copy(tmp_col.begin(), tmp_col.end(), g.col_.begin() + lo);
          std::copy(tmp_time.begin(), tmp_time.end(), g.time_.begin() + lo);
        }
      });
  g.charge_.reset(obs::MemTag::kGraph, g.memory_bytes());
  return g;
}

void TemporalCsr::validate() const {
  if (row_ptr_.empty()) {
    PMPR_CHECK_MSG(col_.empty() && time_.empty(),
                   "default-constructed TemporalCsr holds entries");
    return;
  }
  const std::size_t n = row_ptr_.size() - 1;
  PMPR_CHECK_MSG(row_ptr_.front() == 0,
                 "row_ptr[0] = " << row_ptr_.front() << ", expected 0");
  for (std::size_t v = 0; v < n; ++v) {
    PMPR_CHECK_MSG(row_ptr_[v] <= row_ptr_[v + 1],
                   "row_ptr not monotone at vertex " << v << ": "
                       << row_ptr_[v] << " > " << row_ptr_[v + 1]);
  }
  PMPR_CHECK_MSG(row_ptr_.back() == col_.size(),
                 "row_ptr.back() = " << row_ptr_.back() << " but col holds "
                                     << col_.size() << " entries");
  PMPR_CHECK_MSG(time_.size() == col_.size(),
                 "time array holds " << time_.size() << " entries, col holds "
                                     << col_.size());
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = row_ptr_[v]; i < row_ptr_[v + 1]; ++i) {
      PMPR_CHECK_MSG(col_[i] < n, "row " << v << " entry " << i
                                         << " references vertex " << col_[i]
                                         << " outside [0, " << n << ")");
      if (i > row_ptr_[v]) {
        // <neighbor, time> lexicographic order within the row.
        const bool ordered =
            col_[i - 1] < col_[i] ||
            (col_[i - 1] == col_[i] && time_[i - 1] <= time_[i]);
        PMPR_CHECK_MSG(ordered, "row " << v << " not sorted by <neighbor, "
                                       << "time> at entry " << i << ": <"
                                       << col_[i - 1] << ", " << time_[i - 1]
                                       << "> before <" << col_[i] << ", "
                                       << time_[i] << ">");
      }
    }
  }
}

TemporalCsr TemporalCsr::adopt(std::vector<std::size_t> row_ptr,
                               std::vector<VertexId> col,
                               std::vector<Timestamp> time) {
  PMPR_CHECK_MSG(col.size() == time.size(),
                 "adopt: col holds " << col.size() << " entries, time holds "
                                     << time.size());
  PMPR_CHECK_MSG(
      row_ptr.empty() ? col.empty()
                      : (row_ptr.front() == 0 && row_ptr.back() == col.size()),
      "adopt: row_ptr does not bracket the " << col.size() << " entries");
  TemporalCsr g;
  g.row_ptr_ = std::move(row_ptr);
  g.col_ = std::move(col);
  g.time_ = std::move(time);
  g.charge_.reset(obs::MemTag::kGraph, g.memory_bytes());
  return g;
}

// The io layer cannot see graph/types.hpp, so it defines its own scalar
// widths; the bridge is only sound while they agree.
static_assert(std::is_same_v<io::ColId, VertexId>,
              "io::ColId must match VertexId");
static_assert(std::is_same_v<io::TimeValue, Timestamp>,
              "io::TimeValue must match Timestamp");

io::CompressedTemporalCsr compress_temporal_csr(
    const TemporalCsr& csr, std::size_t target_chunk_entries,
    par::ThreadPool* pool) {
  using io::CompressedTemporalCsr;
  std::vector<io::ChunkMeta> chunks = CompressedTemporalCsr::plan_chunks(
      csr.row_ptr(), csr.col(), csr.time(), target_chunk_entries);
  std::vector<std::vector<std::uint8_t>> payloads(chunks.size());
  par::parallel_for(0, chunks.size(),
                    par::ForOptions{par::Partitioner::kAuto, 1, pool},
                    [&](std::size_t c) {
                      payloads[c] = CompressedTemporalCsr::encode_chunk(
                          chunks[c], csr.row_ptr(), csr.col(), csr.time());
                    });
  return CompressedTemporalCsr::assemble(std::move(chunks), payloads);
}

TemporalCsr decompress_temporal_csr(const io::CompressedTemporalCsr& packed) {
  io::DecodeScratch scratch;
  packed.decode_all(scratch);
  if (packed.num_rows() == 0) return TemporalCsr{};
  return TemporalCsr::adopt(std::move(scratch.row_ptr),
                            std::move(scratch.cols),
                            std::move(scratch.times));
}

}  // namespace pmpr
