#include "io/mmap_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PMPR_IO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PMPR_IO_HAVE_MMAP 0
#endif

namespace pmpr::io {

namespace {

#if PMPR_IO_HAVE_MMAP
std::size_t page_size() {
  const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}

#if defined(__APPLE__)
using MincoreVec = char;  // macOS declares mincore(2) with a char vector.
#else
using MincoreVec = unsigned char;
#endif

int native_advice(Advice a) {
  switch (a) {
    case Advice::kSequential:
      return MADV_SEQUENTIAL;
    case Advice::kWillNeed:
      return MADV_WILLNEED;
    case Advice::kDontNeed:
      return MADV_DONTNEED;
    case Advice::kNormal:
      break;
  }
  return MADV_NORMAL;
}
#endif

void read_whole_file(const std::string& path,
                     std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  PMPR_CHECK_MSG(static_cast<bool>(in), "cannot open " << path);
  const std::streamoff size = in.tellg();
  PMPR_CHECK_MSG(size >= 0, "cannot stat " << path);
  out.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out.data()), size);
    PMPR_CHECK_MSG(static_cast<bool>(in), "short read on " << path);
  }
}

}  // namespace

MmapFile::~MmapFile() {
#if PMPR_IO_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  if (!mapped_) data_ = fallback_.data();
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
#if PMPR_IO_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  if (!mapped_) data_ = fallback_.data();
  return *this;
}

MmapFile MmapFile::open(const std::string& path) {
  MmapFile f;
#if PMPR_IO_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  PMPR_CHECK_MSG(fd >= 0,
                 "cannot open " << path << ": " << std::strerror(errno));
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    PMPR_CHECK_MSG(false,
                   "cannot stat " << path << ": " << std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return f;  // empty span; nothing to map
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (addr != MAP_FAILED) {
    f.data_ = static_cast<const std::uint8_t*>(addr);
    f.size_ = size;
    f.mapped_ = true;
    return f;
  }
#endif
  read_whole_file(path, f.fallback_);
  f.data_ = f.fallback_.data();
  f.size_ = f.fallback_.size();
  f.mapped_ = false;
  return f;
}

void MmapFile::advise([[maybe_unused]] std::size_t offset,
                      [[maybe_unused]] std::size_t length,
                      [[maybe_unused]] Advice advice) const {
#if PMPR_IO_HAVE_MMAP
  if (!mapped_ || data_ == nullptr || offset >= size_) return;
  length = std::min(length, size_ - offset);
  // madvise wants a page-aligned start; align down and widen the length so
  // the requested range stays covered.
  const std::size_t ps = page_size();
  const std::size_t misalign = offset % ps;
  offset -= misalign;
  length += misalign;
  length = std::min(length, size_ - offset);
  // Advisory: a failure (e.g. an unsupported advice value) degrades paging
  // behavior, never correctness, so the return value is ignored.
  (void)::madvise(const_cast<std::uint8_t*>(data_) + offset, length,
                  native_advice(advice));
#endif
}

std::size_t MmapFile::resident_bytes(std::size_t offset,
                                     std::size_t length) const {
  if (data_ == nullptr || offset >= size_) return 0;
  length = std::min(length, size_ - offset);
  if (length == 0) return 0;
  // The read-into-RAM fallback IS anonymous resident memory: report it all.
  if (!mapped_) return length;
#if PMPR_IO_HAVE_MMAP
  // mincore wants a page-aligned start; scan from the page holding
  // `offset`, then count only each resident page's overlap with the range,
  // so partial pages at either end never over-report.
  const std::size_t ps = page_size();
  const std::size_t end = offset + length;
  const std::size_t first = offset - offset % ps;
  const std::size_t pages = (end - first + ps - 1) / ps;
  std::vector<MincoreVec> vec(pages);
  // Advisory measurement: a failed scan reports 0 rather than guessing.
  if (::mincore(const_cast<std::uint8_t*>(data_) + first, end - first,
                vec.data()) != 0) {
    return 0;
  }
  std::size_t resident = 0;
  for (std::size_t i = 0; i < pages; ++i) {
    if ((static_cast<unsigned char>(vec[i]) & 1u) == 0) continue;
    const std::size_t page_lo = first + i * ps;
    resident += std::min(page_lo + ps, end) - std::max(page_lo, offset);
  }
  return resident;
#else
  return 0;
#endif
}

}  // namespace pmpr::io
