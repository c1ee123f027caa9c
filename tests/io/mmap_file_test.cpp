#include "io/mmap_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pmpr::io {
namespace {

class MmapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("pmpr-mmap-test-" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".bin"))
                .string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  void write_file(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  std::string path_;
};

TEST_F(MmapFileTest, ExposesFileBytes) {
  std::vector<std::uint8_t> bytes(10'000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31);
  }
  write_file(bytes);
  const MmapFile file = MmapFile::open(path_);
  const auto view = file.bytes();
  ASSERT_EQ(view.size(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(view[i], bytes[i]) << "byte " << i;
  }
}

TEST_F(MmapFileTest, EmptyFileYieldsEmptySpan) {
  write_file({});
  const MmapFile file = MmapFile::open(path_);
  EXPECT_TRUE(file.bytes().empty());
}

TEST_F(MmapFileTest, MissingFileThrows) {
  EXPECT_THROW((void)MmapFile::open(path_ + ".does-not-exist"),
               InvariantError);
}

TEST_F(MmapFileTest, AdviseKeepsBytesReadable) {
  std::vector<std::uint8_t> bytes(3 * 4096 + 17, 0xA5);
  write_file(bytes);
  const MmapFile file = MmapFile::open(path_);
  // All hints, including drops and misaligned/overlong ranges, are
  // advisory: the data must stay byte-identical afterwards.
  file.advise(0, bytes.size(), Advice::kSequential);
  file.advise(100, 5000, Advice::kWillNeed);
  file.advise(1, bytes.size() * 10, Advice::kDontNeed);
  const auto view = file.bytes();
  ASSERT_EQ(view.size(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    ASSERT_EQ(view[i], 0xA5) << "byte " << i;
  }
}

TEST_F(MmapFileTest, ResidentBytesCountOnlyTheRange) {
  std::vector<std::uint8_t> bytes(4 * 4096, 0x5A);
  write_file(bytes);
  const MmapFile file = MmapFile::open(path_);
  // Touch every byte: the whole file is then resident (a read-into-RAM
  // fallback counts as resident by definition).
  unsigned sum = 0;
  for (const std::uint8_t b : file.bytes()) sum += b;
  ASSERT_EQ(sum, 0x5Au * bytes.size());
  EXPECT_EQ(file.resident_bytes(), bytes.size());
  // Ranges that start and end mid-page count their own bytes, not the
  // pages they touch.
  EXPECT_EQ(file.resident_bytes(4096 - 8, 16), 16u);
  EXPECT_EQ(file.resident_bytes(100, 2 * 4096), 2u * 4096);
  EXPECT_EQ(file.resident_bytes(bytes.size() - 5, 100), 5u);
  EXPECT_EQ(file.resident_bytes(bytes.size(), 1), 0u);
}

TEST_F(MmapFileTest, MoveTransfersOwnership) {
  write_file({1, 2, 3, 4});
  MmapFile a = MmapFile::open(path_);
  MmapFile b = std::move(a);
  ASSERT_EQ(b.bytes().size(), 4u);
  EXPECT_EQ(b.bytes()[2], 3u);
  MmapFile c;
  c = std::move(b);
  ASSERT_EQ(c.bytes().size(), 4u);
  EXPECT_EQ(c.bytes()[0], 1u);
}

}  // namespace
}  // namespace pmpr::io
