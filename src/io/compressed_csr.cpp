#include "io/compressed_csr.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "io/varint.hpp"
#include "util/check.hpp"

namespace pmpr::io {

namespace {

// On-disk layout (all fields native-endian; the endianness marker rejects
// foreign-endian files at load):
//   8   magic "PMPRCC01"
//   2   endianness marker 0x0102 (reads back 0x0201 on the wrong end)
//   1   codec tag (kCodecDeltaVarint)
//   5   reserved (zero)
//   8   num_rows
//   8   num_entries
//   8   num_chunks
//   8   payload_bytes
//   num_chunks * 64   chunk table (8 fields of 8 bytes, ChunkMeta order)
//   payload_bytes     encoded chunk payloads, back-to-back
constexpr char kMagic[8] = {'P', 'M', 'P', 'R', 'C', 'C', '0', '1'};
constexpr std::uint16_t kEndianMarker = 0x0102;
constexpr std::uint8_t kCodecDeltaVarint = 1;
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kChunkRecordBytes = 64;

template <typename T>
T read_pod(std::span<const std::uint8_t> bytes, std::size_t pos) {
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(T));
  return v;
}

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

}  // namespace

std::vector<ChunkMeta> CompressedTemporalCsr::plan_chunks(
    std::span<const std::size_t> row_ptr, std::span<const ColId> cols,
    std::span<const TimeValue> times, std::size_t target_chunk_entries) {
  PMPR_CHECK_MSG(cols.size() == times.size(),
                 "col/time arrays disagree: " << cols.size() << " vs "
                                              << times.size());
  const std::size_t num_rows = row_ptr.empty() ? 0 : row_ptr.size() - 1;
  if (num_rows == 0) {
    PMPR_CHECK_MSG(cols.empty(),
                   "rowless CSR carries " << cols.size() << " entries");
    return {};
  }
  PMPR_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == cols.size(),
                 "row_ptr ends [" << row_ptr.front() << ", "
                                  << row_ptr.back()
                                  << "] do not bracket the " << cols.size()
                                  << " entries");
  for (std::size_t v = 0; v < num_rows; ++v) {
    PMPR_CHECK_MSG(row_ptr[v] <= row_ptr[v + 1],
                   "row_ptr not monotone at row " << v);
  }

  const std::size_t target = std::max<std::size_t>(1, target_chunk_entries);
  std::vector<ChunkMeta> chunks;
  std::size_t r = 0;
  while (r < num_rows) {
    // Whole rows until the chunk holds >= target entries (a single long
    // row may exceed it alone; trailing empty rows join the last chunk).
    std::size_t end = r;
    do {
      ++end;
    } while (end < num_rows && row_ptr[end] - row_ptr[r] < target);
    ChunkMeta m;
    m.first_row = r;
    m.num_rows = end - r;
    m.first_entry = row_ptr[r];
    m.num_entries = row_ptr[end] - row_ptr[r];
    chunks.push_back(m);
    r = end;
  }
  return chunks;
}

std::vector<std::uint8_t> CompressedTemporalCsr::encode_chunk(
    ChunkMeta& m, std::span<const std::size_t> row_ptr,
    std::span<const ColId> cols, std::span<const TimeValue> times) {
  const std::size_t first = m.first_entry;
  const std::size_t last = first + m.num_entries;
  if (m.num_entries > 0) {
    TimeValue tmin = std::numeric_limits<TimeValue>::max();
    TimeValue tmax = std::numeric_limits<TimeValue>::min();
    for (std::size_t i = first; i < last; ++i) {
      tmin = std::min(tmin, times[i]);
      tmax = std::max(tmax, times[i]);
    }
    m.time_min = tmin;
    m.time_max = tmax;
  }
  const TimeValue base = m.num_entries > 0 ? m.time_min : 0;

  std::vector<std::uint8_t> buf;
  buf.reserve(m.num_entries * 2 + m.num_rows);
  for (std::size_t v = m.first_row; v < m.first_row + m.num_rows; ++v) {
    const std::size_t lo = row_ptr[v];
    const std::size_t hi = row_ptr[v + 1];
    append_varint(buf, hi - lo);
    ColId prev_col = 0;
    TimeValue prev_t = base;
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == lo) {
        append_varint(buf, cols[i]);
      } else {
        append_delta32(buf, cols[i], prev_col);
      }
      append_delta(buf, times[i], prev_t);
      prev_col = cols[i];
      prev_t = times[i];
    }
  }
  return buf;
}

CompressedTemporalCsr CompressedTemporalCsr::assemble(
    std::vector<ChunkMeta> chunks,
    std::span<const std::vector<std::uint8_t>> payloads) {
  PMPR_CHECK_MSG(payloads.size() == chunks.size(),
                 payloads.size() << " payloads for " << chunks.size()
                                 << " chunks");
  CompressedTemporalCsr out;
  std::size_t bytes = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    chunks[c].byte_offset = bytes;
    chunks[c].byte_size = payloads[c].size();
    bytes += payloads[c].size();
  }
  out.owned_payload_.reserve(bytes);
  for (const std::vector<std::uint8_t>& p : payloads) {
    out.owned_payload_.insert(out.owned_payload_.end(), p.begin(), p.end());
  }
  if (!chunks.empty()) {
    out.num_rows_ = chunks.back().first_row + chunks.back().num_rows;
    out.num_entries_ = chunks.back().first_entry + chunks.back().num_entries;
  }
  out.chunks_ = std::move(chunks);
  out.validate_chunk_table("assembled compressed CSR");
  return out;
}

CompressedTemporalCsr CompressedTemporalCsr::encode(
    std::span<const std::size_t> row_ptr, std::span<const ColId> cols,
    std::span<const TimeValue> times, std::size_t target_chunk_entries) {
  std::vector<ChunkMeta> chunks =
      plan_chunks(row_ptr, cols, times, target_chunk_entries);
  std::vector<std::vector<std::uint8_t>> payloads(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    payloads[c] = encode_chunk(chunks[c], row_ptr, cols, times);
  }
  return assemble(std::move(chunks), payloads);
}

void CompressedTemporalCsr::decode_chunk(std::size_t c,
                                         DecodeScratch& scratch) const {
  PMPR_CHECK_MSG(c < chunks_.size(),
                 "chunk index " << c << " out of " << chunks_.size());
  const ChunkMeta& m = chunks_[c];
  const std::span<const std::uint8_t> pl = payload();
  PMPR_CHECK_MSG(m.byte_offset + m.byte_size <= pl.size(),
                 "chunk " << c << " byte range exceeds the payload");
  const std::uint8_t* p = pl.data() + m.byte_offset;
  const std::uint8_t* end = p + m.byte_size;

  scratch.row_ptr.resize(m.num_rows + 1);
  scratch.row_ptr[0] = 0;
  scratch.cols.resize(m.num_entries);
  scratch.times.resize(m.num_entries);
  const TimeValue base = m.num_entries > 0 ? m.time_min : 0;

  std::size_t at = 0;
  for (std::size_t i = 0; i < m.num_rows; ++i) {
    std::uint64_t cnt = 0;
    p = decode_varint(p, end, cnt);
    PMPR_CHECK_MSG(cnt <= m.num_entries - at,
                   "chunk " << c << " row " << i
                            << " entry count overruns the chunk total "
                               "(corrupt payload)");
    ColId prev_col = 0;
    TimeValue prev_t = base;
    for (std::uint64_t e = 0; e < cnt; ++e) {
      ColId col = 0;
      if (e == 0) {
        std::uint64_t u = 0;
        p = decode_varint(p, end, u);
        PMPR_CHECK_MSG(u <= std::numeric_limits<ColId>::max(),
                       "chunk " << c << " first column " << u
                                << " exceeds 32 bits (corrupt payload)");
        col = static_cast<ColId>(u);
      } else {
        p = decode_delta32(p, end, prev_col, col);
      }
      TimeValue t = 0;
      p = decode_delta(p, end, prev_t, t);
      scratch.cols[at] = col;
      scratch.times[at] = t;
      ++at;
      prev_col = col;
      prev_t = t;
    }
    scratch.row_ptr[i + 1] = at;
  }
  PMPR_CHECK_MSG(at == m.num_entries,
                 "chunk " << c << " decoded " << at << " entries, table says "
                          << m.num_entries);
  PMPR_CHECK_MSG(p == end,
                 "chunk " << c << " payload has trailing bytes");
  scratch.recharge();
}

void CompressedTemporalCsr::decode_all(DecodeScratch& scratch) const {
  scratch.cols.resize(num_entries_);
  scratch.times.resize(num_entries_);
  scratch.row_ptr.assign(num_rows_ + 1, 0);
  DecodeScratch tmp;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    decode_chunk(c, tmp);
    const ChunkMeta& m = chunks_[c];
    std::copy(tmp.cols.begin(), tmp.cols.end(),
              scratch.cols.begin() + static_cast<std::ptrdiff_t>(m.first_entry));
    std::copy(tmp.times.begin(), tmp.times.end(),
              scratch.times.begin() +
                  static_cast<std::ptrdiff_t>(m.first_entry));
    for (std::size_t i = 0; i < m.num_rows; ++i) {
      scratch.row_ptr[m.first_row + i + 1] = m.first_entry + tmp.row_ptr[i + 1];
    }
  }
  scratch.recharge();
}

void CompressedTemporalCsr::serialize_to(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + serialized_bytes());
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  append_pod(out, kEndianMarker);
  append_pod(out, kCodecDeltaVarint);
  for (int i = 0; i < 5; ++i) append_pod<std::uint8_t>(out, 0);
  append_pod<std::uint64_t>(out, num_rows_);
  append_pod<std::uint64_t>(out, num_entries_);
  append_pod<std::uint64_t>(out, chunks_.size());
  const std::span<const std::uint8_t> pl = payload();
  append_pod<std::uint64_t>(out, pl.size());
  for (const ChunkMeta& m : chunks_) {
    append_pod(out, m.byte_offset);
    append_pod(out, m.byte_size);
    append_pod(out, m.first_row);
    append_pod(out, m.num_rows);
    append_pod(out, m.first_entry);
    append_pod(out, m.num_entries);
    append_pod(out, m.time_min);
    append_pod(out, m.time_max);
  }
  out.insert(out.end(), pl.begin(), pl.end());
}

std::size_t CompressedTemporalCsr::serialized_bytes() const {
  return kHeaderBytes + chunks_.size() * kChunkRecordBytes + payload().size();
}

void CompressedTemporalCsr::write_bytes(std::ostream& out,
                                        std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void CompressedTemporalCsr::save(const std::string& path) const {
  std::vector<std::uint8_t> bytes;
  serialize_to(bytes);
  std::ofstream out(path, std::ios::binary);
  PMPR_CHECK_MSG(static_cast<bool>(out),
                 "cannot open " << path << " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  PMPR_CHECK_MSG(static_cast<bool>(out), "write failure on " << path);
}

CompressedTemporalCsr CompressedTemporalCsr::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  PMPR_CHECK_MSG(static_cast<bool>(in), "cannot open " << path);
  const std::streamoff size = in.tellg();
  PMPR_CHECK_MSG(size >= 0, "cannot stat " << path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!bytes.empty()) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    PMPR_CHECK_MSG(static_cast<bool>(in), "short read on " << path);
  }
  return parse(bytes, nullptr, 0, path);
}

CompressedTemporalCsr CompressedTemporalCsr::map_at(
    std::shared_ptr<MmapFile> file, std::size_t offset, std::size_t size) {
  PMPR_CHECK_MSG(file != nullptr, "map_at needs a file");
  const std::span<const std::uint8_t> all = file->bytes();
  PMPR_CHECK_MSG(offset <= all.size() && size <= all.size() - offset,
                 "mapped section [" << offset << ", +" << size
                                    << ") exceeds the file ("
                                    << all.size() << " bytes)");
  const std::span<const std::uint8_t> bytes = all.subspan(offset, size);
  return parse(bytes, std::move(file), offset, "mapped compressed CSR");
}

CompressedTemporalCsr CompressedTemporalCsr::parse(
    std::span<const std::uint8_t> bytes, std::shared_ptr<MmapFile> file,
    std::size_t file_offset, const std::string& origin) {
  PMPR_CHECK_MSG(bytes.size() >= kHeaderBytes,
                 origin << ": truncated compressed-CSR header");
  PMPR_CHECK_MSG(std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0,
                 origin << ": not a pmpr compressed-CSR file");
  const auto endian = read_pod<std::uint16_t>(bytes, 8);
  PMPR_CHECK_MSG(endian == kEndianMarker,
                 origin << ": endianness mismatch (written on a foreign-"
                           "endian machine)");
  const auto codec = read_pod<std::uint8_t>(bytes, 10);
  PMPR_CHECK_MSG(codec == kCodecDeltaVarint,
                 origin << ": unsupported compression kind " << int{codec});

  CompressedTemporalCsr out;
  out.num_rows_ = read_pod<std::uint64_t>(bytes, 16);
  out.num_entries_ = read_pod<std::uint64_t>(bytes, 24);
  const auto num_chunks = read_pod<std::uint64_t>(bytes, 32);
  const auto payload_bytes = read_pod<std::uint64_t>(bytes, 40);
  // Size-bound the chunk count before sizing any allocation from it: a
  // corrupt or hostile header must not trigger a huge resize (same defense
  // as the edge_list/export binary loaders).
  PMPR_CHECK_MSG(num_chunks <= (bytes.size() - kHeaderBytes) /
                                   kChunkRecordBytes,
                 origin << ": chunk count " << num_chunks
                        << " exceeds what the file can hold");
  const std::size_t table_end =
      kHeaderBytes + static_cast<std::size_t>(num_chunks) * kChunkRecordBytes;
  PMPR_CHECK_MSG(payload_bytes == bytes.size() - table_end,
                 origin << ": payload size " << payload_bytes
                        << " disagrees with the file size");

  out.chunks_.resize(static_cast<std::size_t>(num_chunks));
  std::size_t pos = kHeaderBytes;
  for (ChunkMeta& m : out.chunks_) {
    m.byte_offset = read_pod<std::uint64_t>(bytes, pos);
    m.byte_size = read_pod<std::uint64_t>(bytes, pos + 8);
    m.first_row = read_pod<std::uint64_t>(bytes, pos + 16);
    m.num_rows = read_pod<std::uint64_t>(bytes, pos + 24);
    m.first_entry = read_pod<std::uint64_t>(bytes, pos + 32);
    m.num_entries = read_pod<std::uint64_t>(bytes, pos + 40);
    m.time_min = read_pod<TimeValue>(bytes, pos + 48);
    m.time_max = read_pod<TimeValue>(bytes, pos + 56);
    pos += kChunkRecordBytes;
  }
  if (file != nullptr) {
    out.view_ = bytes.subspan(table_end);
    out.file_ = std::move(file);
    out.payload_file_offset_ = file_offset + table_end;
  } else {
    out.owned_payload_.assign(bytes.begin() + static_cast<std::ptrdiff_t>(
                                                  table_end),
                              bytes.end());
  }
  // After the payload is installed: the table checks include a
  // coverage-vs-payload-size comparison.
  out.validate_chunk_table(origin);
  return out;
}

void CompressedTemporalCsr::validate_chunk_table(
    const std::string& origin) const {
  if (chunks_.empty()) {
    PMPR_CHECK_MSG(num_rows_ == 0 && num_entries_ == 0,
                   origin << ": chunkless table claims " << num_rows_
                          << " rows / " << num_entries_ << " entries");
    return;
  }
  std::uint64_t next_row = 0;
  std::uint64_t next_entry = 0;
  std::uint64_t next_byte = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const ChunkMeta& m = chunks_[c];
    PMPR_CHECK_MSG(m.first_row == next_row && m.num_rows >= 1,
                   origin << ": chunk " << c
                          << " breaks contiguous row coverage");
    PMPR_CHECK_MSG(m.first_entry == next_entry,
                   origin << ": chunk " << c
                          << " breaks contiguous entry coverage");
    PMPR_CHECK_MSG(m.byte_offset == next_byte,
                   origin << ": chunk " << c
                          << " breaks contiguous byte coverage");
    PMPR_CHECK_MSG(m.num_entries == 0 || m.time_min <= m.time_max,
                   origin << ": chunk " << c << " has an inverted time "
                                                "extent");
    next_row = m.first_row + m.num_rows;
    next_entry = m.first_entry + m.num_entries;
    next_byte = m.byte_offset + m.byte_size;
  }
  PMPR_CHECK_MSG(next_row == num_rows_ && next_entry == num_entries_,
                 origin << ": chunk table covers " << next_row << " rows / "
                        << next_entry << " entries, header says "
                        << num_rows_ << " / " << num_entries_);
  PMPR_CHECK_MSG(next_byte == payload().size(),
                 origin << ": chunk table covers " << next_byte
                        << " payload bytes, stream has "
                        << payload().size());
}

void CompressedTemporalCsr::advise(Advice advice) const {
  if (file_ != nullptr) {
    file_->advise(payload_file_offset_, view_.size(), advice);
  }
}

}  // namespace pmpr::io
