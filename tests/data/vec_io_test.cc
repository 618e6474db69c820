#include "data/vec_io.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "test_util.h"

namespace resinfer::data {
namespace {

class VecIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs each case (and its label twin) in
    // its own process, and a shared directory would let one case's
    // TearDown delete another's files mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("resinfer_vec_io_test_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(VecIoTest, FvecsRoundTrip) {
  linalg::Matrix original = testing::RandomMatrix(17, 9, 81);
  util::Status s = WriteFvecs(Path("a.fvecs"), original);
  ASSERT_TRUE(s.ok()) << s.ToString();

  linalg::Matrix loaded;
  s = ReadFvecs(Path("a.fvecs"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(loaded.rows(), 17);
  ASSERT_EQ(loaded.cols(), 9);
  EXPECT_EQ(linalg::MaxAbsDifference(original, loaded), 0.0);
}

TEST_F(VecIoTest, IvecsRoundTrip) {
  std::vector<std::vector<int32_t>> rows = {{1, 2, 3}, {}, {7}};
  util::Status s = WriteIvecs(Path("a.ivecs"), rows);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::vector<std::vector<int32_t>> loaded;
  s = ReadIvecs(Path("a.ivecs"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded, rows);
}

TEST_F(VecIoTest, BvecsWidensToFloat) {
  // Hand-roll a bvecs file: 2 vectors of dim 3.
  std::ofstream out(Path("a.bvecs"), std::ios::binary);
  int32_t d = 3;
  uint8_t v1[3] = {0, 128, 255};
  uint8_t v2[3] = {1, 2, 3};
  out.write(reinterpret_cast<char*>(&d), 4);
  out.write(reinterpret_cast<char*>(v1), 3);
  out.write(reinterpret_cast<char*>(&d), 4);
  out.write(reinterpret_cast<char*>(v2), 3);
  out.close();

  linalg::Matrix loaded;
  util::Status s = ReadBvecs(Path("a.bvecs"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(loaded.rows(), 2);
  ASSERT_EQ(loaded.cols(), 3);
  EXPECT_FLOAT_EQ(loaded.At(0, 2), 255.0f);
  EXPECT_FLOAT_EQ(loaded.At(1, 0), 1.0f);
}

TEST_F(VecIoTest, MissingFileFailsGracefully) {
  linalg::Matrix out;
  util::Status s = ReadFvecs(Path("missing.fvecs"), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(VecIoTest, TruncatedFileFails) {
  // Write a valid file then chop bytes off the end.
  linalg::Matrix original = testing::RandomMatrix(4, 8, 82);
  ASSERT_TRUE(WriteFvecs(Path("t.fvecs"), original).ok());
  std::filesystem::resize_file(Path("t.fvecs"),
                               std::filesystem::file_size(Path("t.fvecs")) -
                                   5);
  linalg::Matrix out;
  util::Status s = ReadFvecs(Path("t.fvecs"), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(VecIoTest, NegativeDimensionFails) {
  std::ofstream out(Path("bad.fvecs"), std::ios::binary);
  int32_t d = -3;
  out.write(reinterpret_cast<char*>(&d), 4);
  float payload[3] = {1, 2, 3};
  out.write(reinterpret_cast<char*>(payload), 12);
  out.close();
  linalg::Matrix m;
  EXPECT_EQ(ReadFvecs(Path("bad.fvecs"), &m).code(),
            util::StatusCode::kCorruption);
}

TEST_F(VecIoTest, InconsistentDimensionFails) {
  std::ofstream out(Path("mixed.fvecs"), std::ios::binary);
  int32_t d1 = 2, d2 = 3;
  float p2[2] = {1, 2};
  float p3[3] = {1, 2, 3};
  out.write(reinterpret_cast<char*>(&d1), 4);
  out.write(reinterpret_cast<char*>(p2), 8);
  out.write(reinterpret_cast<char*>(&d2), 4);
  out.write(reinterpret_cast<char*>(p3), 12);
  out.close();
  linalg::Matrix m;
  EXPECT_EQ(ReadFvecs(Path("mixed.fvecs"), &m).code(),
            util::StatusCode::kCorruption);
}

TEST_F(VecIoTest, EmptyFileYieldsEmptyMatrix) {
  std::ofstream out(Path("empty.fvecs"), std::ios::binary);
  out.close();
  linalg::Matrix m;
  util::Status s = ReadFvecs(Path("empty.fvecs"), &m);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(m.rows(), 0);
}

// Writes a 4 x 2 fvecs file whose row 1 contains a NaN and row 2 an Inf.
std::string WriteNonFiniteFile(const std::filesystem::path& dir) {
  linalg::Matrix m(4, 2);
  for (int64_t i = 0; i < 4; ++i) {
    m.At(i, 0) = static_cast<float>(i);
    m.At(i, 1) = static_cast<float>(10 * i);
  }
  m.At(1, 1) = std::numeric_limits<float>::quiet_NaN();
  m.At(2, 0) = std::numeric_limits<float>::infinity();
  const std::string path = (dir / "nonfinite.fvecs").string();
  EXPECT_TRUE(WriteFvecs(path, m).ok());
  return path;
}

TEST_F(VecIoTest, NonFiniteRejectedByDefault) {
  const std::string path = WriteNonFiniteFile(dir_);
  linalg::Matrix m;
  util::Status s = ReadFvecs(path, &m);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  // The message should name the offending vector so the user can fix it.
  EXPECT_NE(s.message().find("vector 1"), std::string::npos) << s.ToString();
}

TEST_F(VecIoTest, FvecsViewServesRowsInPlaceFromTheMapping) {
  linalg::Matrix original = testing::RandomMatrix(23, 7, 83);
  ASSERT_TRUE(WriteFvecs(Path("view.fvecs"), original).ok());

  FvecsView view;
  util::Status s = FvecsView::Open(Path("view.fvecs"), &view);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(view.rows(), 23);
  ASSERT_EQ(view.dim(), 7);
  ASSERT_FALSE(view.storage().empty());
  for (int64_t i = 0; i < view.rows(); ++i) {
    const float* row = view.Row(i);
    // Rows are served from inside the mapping, not a heap copy.
    ASSERT_GE(reinterpret_cast<const uint8_t*>(row), view.storage().data());
    ASSERT_LT(reinterpret_cast<const uint8_t*>(row),
              view.storage().data() + view.storage().size());
    for (int64_t c = 0; c < view.dim(); ++c) {
      ASSERT_EQ(row[c], original.At(i, c)) << i << "," << c;
    }
  }
}

TEST_F(VecIoTest, FvecsViewSharingTheStoragePinsTheRows) {
  linalg::Matrix original = testing::RandomMatrix(3, 4, 84);
  ASSERT_TRUE(WriteFvecs(Path("pin.fvecs"), original).ok());
  storage::Blob pin;
  const float* row1 = nullptr;
  {
    FvecsView view;
    ASSERT_TRUE(FvecsView::Open(Path("pin.fvecs"), &view).ok());
    pin = view.storage();
    row1 = view.Row(1);
  }  // the view dies; the shared handle must keep the mapping alive
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(row1[c], original.At(1, c)) << c;
  }
}

TEST_F(VecIoTest, FvecsViewValidatesTheFrameStructure) {
  // Empty file: a valid zero-row view.
  { std::ofstream out(Path("empty.fvecs"), std::ios::binary); }
  FvecsView view;
  util::Status s = FvecsView::Open(Path("empty.fvecs"), &view);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(view.rows(), 0);

  EXPECT_EQ(FvecsView::Open(Path("missing.fvecs"), &view).code(),
            util::StatusCode::kNotFound);

  // Truncation breaks the whole-number-of-records invariant.
  linalg::Matrix m = testing::RandomMatrix(4, 5, 85);
  ASSERT_TRUE(WriteFvecs(Path("short.fvecs"), m).ok());
  std::filesystem::resize_file(
      Path("short.fvecs"), std::filesystem::file_size(Path("short.fvecs")) - 3);
  EXPECT_EQ(FvecsView::Open(Path("short.fvecs"), &view).code(),
            util::StatusCode::kCorruption);

  // A record whose dim header disagrees with the first must be caught at
  // Open — Row() does no per-call validation.
  {
    std::ofstream out(Path("mixed.fvecs"), std::ios::binary);
    int32_t d2 = 2, d_bad = 7;
    float p[2] = {1.0f, 2.0f};
    out.write(reinterpret_cast<char*>(&d2), 4);
    out.write(reinterpret_cast<char*>(p), 8);
    out.write(reinterpret_cast<char*>(&d_bad), 4);
    out.write(reinterpret_cast<char*>(p), 8);
  }
  s = FvecsView::Open(Path("mixed.fvecs"), &view);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_NE(s.message().find("inconsistent dimensions"), std::string::npos);

  // Non-positive leading dimension.
  {
    std::ofstream out(Path("neg.fvecs"), std::ios::binary);
    int32_t d = -1;
    float p[1] = {0.0f};
    out.write(reinterpret_cast<char*>(&d), 4);
    out.write(reinterpret_cast<char*>(p), 4);
  }
  EXPECT_EQ(FvecsView::Open(Path("neg.fvecs"), &view).code(),
            util::StatusCode::kCorruption);
}

TEST_F(VecIoTest, NonFiniteDropPolicySkipsAndCounts) {
  const std::string path = WriteNonFiniteFile(dir_);
  linalg::Matrix m;
  ReadStats stats;
  util::Status s = ReadFvecs(path, &m, NonFinitePolicy::kDrop, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(stats.rows_read, 2);
  EXPECT_EQ(stats.dropped_rows, 2);
  EXPECT_EQ(stats.first_bad_row, 1);
  // Surviving rows are the finite ones, in order.
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(m.At(1, 1), 30.0f);
}

TEST_F(VecIoTest, NonFiniteKeepPolicyPreservesRows) {
  const std::string path = WriteNonFiniteFile(dir_);
  linalg::Matrix m;
  ReadStats stats;
  util::Status s = ReadFvecs(path, &m, NonFinitePolicy::kKeep, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(stats.dropped_rows, 0);
  EXPECT_EQ(stats.first_bad_row, 1);
  EXPECT_TRUE(std::isnan(m.At(1, 1)));
}

}  // namespace
}  // namespace resinfer::data
