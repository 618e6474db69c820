#include "persist/persist.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "data/ground_truth.h"
#include "quant/code_store.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/binary_io.h"

namespace resinfer::persist {
namespace {

// The record bytes of a store as an independent vector — for byte-for-byte
// comparisons and for hand-writing legacy count-prefixed code sections.
std::vector<uint8_t> CodeBytes(const quant::CodeStore& codes) {
  return std::vector<uint8_t>(codes.data(),
                              codes.data() + codes.data_bytes());
}

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs each case in its own process, and a
    // shared directory would let one case's TearDown delete another's
    // files mid-test.
    dir_ = std::filesystem::temp_directory_path() /
           ("resinfer_persist_test_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    SetWriteFailureForTesting(-1);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Chops `bytes` off the end of a file.
  void Truncate(const std::string& path, int64_t bytes) {
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) - bytes);
  }

  // XORs one byte of the file at `offset` (negative: from the end).
  void FlipByte(const std::string& path, int64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (offset < 0) {
      f.seekg(offset, std::ios::end);
      offset = f.tellg();
    }
    f.seekg(offset, std::ios::beg);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(offset, std::ios::beg);
    f.write(&b, 1);
  }

  std::filesystem::path dir_;
};

TEST_F(PersistTest, MatrixRoundTrip) {
  linalg::Matrix m = testing::RandomMatrix(13, 7, 301);
  util::Status s = SaveMatrix(Path("m.bin"), m);
  ASSERT_TRUE(s.ok()) << s.ToString();
  linalg::Matrix loaded;
  s = LoadMatrix(Path("m.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(linalg::MaxAbsDifference(m, loaded), 0.0);
}

TEST_F(PersistTest, MatrixWrongMagicFails) {
  linalg::Matrix m = testing::RandomMatrix(3, 3, 302);
  ASSERT_TRUE(SavePca(Path("pca_as_matrix.bin"),
                      linalg::PcaModel::Fit(m.data(), 3, 3))
                  .ok());
  linalg::Matrix loaded;
  util::Status s = LoadMatrix(Path("pca_as_matrix.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, MatrixBitFlipDetectedByChecksum) {
  // Any single corrupted payload byte must be caught by the v5 section
  // CRC — even one that yields a structurally valid matrix.
  linalg::Matrix m = testing::RandomMatrix(9, 5, 316);
  ASSERT_TRUE(SaveMatrix(Path("m_flip.bin"), m).ok());
  // Flip a byte deep in the float payload (header is 12 bytes; the section
  // frame and rows/cols sit before the floats).
  FlipByte(Path("m_flip.bin"), 64);
  linalg::Matrix loaded;
  util::Status s = LoadMatrix(Path("m_flip.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos) << s.ToString();
}

TEST_F(PersistTest, SaveIsAtomicUnderWriteFailure) {
  // A failed save (simulated ENOSPC) must leave the existing good file
  // untouched and leave no temp litter behind.
  linalg::Matrix good = testing::RandomMatrix(6, 6, 317);
  ASSERT_TRUE(SaveMatrix(Path("atomic.bin"), good).ok());

  linalg::Matrix other = testing::RandomMatrix(50, 50, 318);
  SetWriteFailureForTesting(64);  // fail after 64 bytes
  util::Status s = SaveMatrix(Path("atomic.bin"), other);
  SetWriteFailureForTesting(-1);
  EXPECT_EQ(s.code(), util::StatusCode::kIOError) << s.ToString();
  EXPECT_NE(s.ToString().find("untouched"), std::string::npos) << s.ToString();

  // Original contents survive and still verify.
  linalg::Matrix loaded;
  util::Status load = LoadMatrix(Path("atomic.bin"), &loaded);
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_EQ(linalg::MaxAbsDifference(good, loaded), 0.0);
  // No leftover temp files.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
}

TEST_F(PersistTest, VerifyFileChecksumWalk) {
  linalg::Matrix m = testing::RandomMatrix(11, 3, 319);
  ASSERT_TRUE(SaveMatrix(Path("v.bin"), m).ok());
  std::string format;
  util::Status s = VerifyFile(Path("v.bin"), &format);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(format, "matrix");

  FlipByte(Path("v.bin"), 48);
  s = VerifyFile(Path("v.bin"), &format);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption) << s.ToString();
  EXPECT_FALSE(s.message().empty());

  // Pre-checksum versions are reported as unverifiable, not corrupt.
  {
    BinaryWriter writer(Path("old.bin"));
    const char magic[8] = {'R', 'I', 'S', 'Q', 'C', 'B', 'K', '1'};
    WriteHeader(writer, magic, /*version=*/1);
    writer.WriteVector(std::vector<float>{0.0f, 0.0f});
    writer.WriteVector(std::vector<float>{0.5f, 0.5f});
    ASSERT_TRUE(writer.Close());
  }
  s = VerifyFile(Path("old.bin"), &format);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition) << s.ToString();

  EXPECT_EQ(VerifyFile(Path("missing.bin")).code(),
            util::StatusCode::kNotFound);
}

TEST_F(PersistTest, PcaRoundTripPreservesTransforms) {
  data::Dataset ds = testing::SmallDataset(1000, 24, 1.0, 303);
  linalg::PcaModel pca =
      linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
  util::Status s = SavePca(Path("pca.bin"), pca);
  ASSERT_TRUE(s.ok()) << s.ToString();
  linalg::PcaModel loaded;
  s = LoadPca(Path("pca.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<float> a(ds.dim()), b(ds.dim());
  for (int64_t i = 0; i < 10; ++i) {
    pca.Transform(ds.base.Row(i), a.data());
    loaded.Transform(ds.base.Row(i), b.data());
    for (int64_t j = 0; j < ds.dim(); ++j) EXPECT_EQ(a[j], b[j]);
  }
  EXPECT_EQ(pca.suffix_variance(), loaded.suffix_variance());
}

TEST_F(PersistTest, PqRoundTripPreservesCodesAndAdc) {
  data::Dataset ds = testing::SmallDataset(1500, 16, 1.0, 304);
  quant::PqOptions options;
  options.num_subspaces = 4;
  options.nbits = 5;
  quant::PqCodebook pq =
      quant::PqCodebook::Train(ds.base.data(), ds.size(), 16, options);
  util::Status s = SavePq(Path("pq.bin"), pq);
  ASSERT_TRUE(s.ok()) << s.ToString();
  quant::PqCodebook loaded;
  s = LoadPq(Path("pq.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(loaded.dim(), pq.dim());
  EXPECT_EQ(loaded.num_subspaces(), pq.num_subspaces());
  std::vector<uint8_t> c1(pq.code_size()), c2(pq.code_size());
  std::vector<float> t1(pq.adc_table_size()), t2(pq.adc_table_size());
  for (int64_t i = 0; i < 20; ++i) {
    pq.Encode(ds.base.Row(i), c1.data());
    loaded.Encode(ds.base.Row(i), c2.data());
    EXPECT_EQ(c1, c2);
  }
  pq.ComputeAdcTable(ds.queries.Row(0), t1.data());
  loaded.ComputeAdcTable(ds.queries.Row(0), t2.data());
  EXPECT_EQ(t1, t2);
}

TEST_F(PersistTest, OpqRoundTrip) {
  data::Dataset ds = testing::SmallDataset(1200, 16, 1.0, 305);
  quant::OpqOptions options;
  options.pq.num_subspaces = 4;
  options.pq.nbits = 5;
  options.num_iterations = 2;
  quant::OpqModel opq =
      quant::OpqModel::Train(ds.base.data(), ds.size(), 16, options);
  util::Status s = SaveOpq(Path("opq.bin"), opq);
  ASSERT_TRUE(s.ok()) << s.ToString();
  quant::OpqModel loaded;
  s = LoadOpq(Path("opq.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(linalg::MaxAbsDifference(opq.rotation(), loaded.rotation()), 0.0);
}

TEST_F(PersistTest, HnswRoundTripIdenticalSearch) {
  data::Dataset ds = testing::SmallDataset(2000, 24, 1.0, 306, 16, 4);
  index::HnswOptions options;
  options.M = 8;
  options.ef_construction = 60;
  index::HnswIndex hnsw = index::HnswIndex::Build(ds.base, options);
  util::Status s = SaveHnsw(Path("hnsw.bin"), hnsw);
  ASSERT_TRUE(s.ok()) << s.ToString();
  index::HnswIndex loaded;
  s = LoadHnsw(Path("hnsw.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(loaded.size(), hnsw.size());
  EXPECT_EQ(loaded.max_level(), hnsw.max_level());
  EXPECT_EQ(loaded.entry_point(), hnsw.entry_point());

  index::FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    auto a = hnsw.Search(computer, ds.queries.Row(q), 10, 64);
    auto b = loaded.Search(computer, ds.queries.Row(q), 10, 64);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST_F(PersistTest, HnswSaveLoadSaveIsByteIdentical) {
  // The graph is int32 in memory and int64 on disk: a load narrows, a save
  // widens, and the round trip must not change a byte.
  data::Dataset ds = testing::SmallDataset(1200, 16, 1.0, 308, 2, 2);
  index::HnswOptions options;
  options.M = 6;
  options.ef_construction = 40;
  index::HnswIndex hnsw = index::HnswIndex::Build(ds.base, options);
  ASSERT_GT(hnsw.max_level(), 0);
  ASSERT_TRUE(SaveHnsw(Path("first.bin"), hnsw).ok());
  index::HnswIndex loaded;
  util::Status s = LoadHnsw(Path("first.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(SaveHnsw(Path("second.bin"), loaded).ok());
  const auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string first = bytes(Path("first.bin"));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, bytes(Path("second.bin")));
  EXPECT_EQ(loaded.GraphBytes(), hnsw.GraphBytes());
}

TEST_F(PersistTest, HnswTruncatedFails) {
  data::Dataset ds = testing::SmallDataset(500, 8, 1.0, 307, 2, 2);
  index::HnswOptions options;
  options.M = 8;
  options.ef_construction = 40;
  index::HnswIndex hnsw = index::HnswIndex::Build(ds.base, options);
  ASSERT_TRUE(SaveHnsw(Path("hnsw_t.bin"), hnsw).ok());
  Truncate(Path("hnsw_t.bin"), 64);
  index::HnswIndex loaded;
  util::Status s = LoadHnsw(Path("hnsw_t.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, IvfRoundTripIdenticalSearch) {
  data::Dataset ds = testing::SmallDataset(1500, 16, 1.0, 308, 8, 2);
  index::IvfOptions options;
  options.num_clusters = 24;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
  util::Status s = SaveIvf(Path("ivf.bin"), ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  index::IvfIndex loaded;
  s = LoadIvf(Path("ivf.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();

  index::FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    auto a = ivf.Search(computer, ds.queries.Row(q), 10, 6);
    auto b = loaded.Search(computer, ds.queries.Row(q), 10, 6);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST_F(PersistTest, IvfCsrRoundTripPreservesLayout) {
  data::Dataset ds = testing::SmallDataset(900, 12, 1.0, 312, 4, 2);
  index::IvfOptions options;
  options.num_clusters = 16;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
  ASSERT_TRUE(SaveIvf(Path("ivf_csr.bin"), ivf).ok());
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_csr.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.size(), ivf.size());
  EXPECT_EQ(loaded.bucket_offsets(), ivf.bucket_offsets());
  EXPECT_EQ(loaded.ids(), ivf.ids());
}

TEST_F(PersistTest, IvfLegacyNestedFormatStillLoads) {
  // Hand-write a v1 (nested-bucket) file; the loader must flatten it into
  // the CSR layout with identical search behavior.
  data::Dataset ds = testing::SmallDataset(300, 8, 1.0, 311, 6, 2);
  index::IvfOptions options;
  options.num_clusters = 8;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);

  {
    BinaryWriter writer(Path("ivf_v1.bin"));
    const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
    WriteHeader(writer, magic, /*version=*/1);
    writer.Write(ivf.size());
    writer.Write(ivf.centroids().rows());
    writer.Write(ivf.centroids().cols());
    writer.WriteFloats(ivf.centroids().data(), ivf.centroids().size());
    writer.Write<int32_t>(ivf.num_clusters());
    for (int b = 0; b < ivf.num_clusters(); ++b) {
      std::vector<int64_t> bucket(ivf.BucketIds(b),
                                  ivf.BucketIds(b) + ivf.BucketSize(b));
      writer.WriteVector(bucket);
    }
    ASSERT_TRUE(writer.ok());
  }

  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_v1.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.bucket_offsets(), ivf.bucket_offsets());
  EXPECT_EQ(loaded.ids(), ivf.ids());

  index::FlatDistanceComputer computer(ds.base.data(), ds.size(), ds.dim());
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    auto a = ivf.Search(computer, ds.queries.Row(q), 5, 3);
    auto b = loaded.Search(computer, ds.queries.Row(q), 5, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST_F(PersistTest, IvfBadOffsetsFail) {
  // Hand-write a pre-checksum v2 file with a negative offsets entry: the
  // CSR validation (not a checksum) must reject it, proving the semantic
  // checks still run for files the CRC cannot vouch for.
  data::Dataset ds = testing::SmallDataset(200, 8, 1.0, 313, 2, 2);
  index::IvfOptions options;
  options.num_clusters = 4;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
  {
    BinaryWriter writer(Path("ivf_o.bin"));
    const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
    WriteHeader(writer, magic, /*version=*/2);
    writer.Write(ivf.size());
    writer.Write(ivf.centroids().rows());
    writer.Write(ivf.centroids().cols());
    writer.WriteFloats(ivf.centroids().data(), ivf.centroids().size());
    writer.Write<int32_t>(ivf.num_clusters());
    std::vector<int64_t> offsets = ivf.bucket_offsets();
    offsets[1] = -5;
    writer.WriteVector(offsets);
    writer.WriteVector(ivf.ids());
    ASSERT_TRUE(writer.ok());
  }
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_o.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, IvfCorruptBucketIdFails) {
  // Corrupt a byte in the v5 ids payload: the section checksum catches it.
  data::Dataset ds = testing::SmallDataset(100, 8, 1.0, 309, 2, 2);
  index::IvfOptions options;
  options.num_clusters = 4;
  index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
  ASSERT_TRUE(SaveIvf(Path("ivf_c.bin"), ivf).ok());
  // The flat ids payload sits near the end, just before the codes section
  // and footer.
  FlipByte(Path("ivf_c.bin"), -64);
  index::IvfIndex loaded;
  EXPECT_EQ(LoadIvf(Path("ivf_c.bin"), &loaded).code(),
            util::StatusCode::kCorruption);
}

// --- v3 code-resident section ----------------------------------------------

// A small IVF with an attached (bucket-permuted) SQ code store; SQ needs no
// corrector training, which keeps these tests fast.
struct IvfWithCodes {
  data::Dataset ds = testing::SmallDataset(240, 8, 1.0, 317, 4, 2);
  core::SqEstimatorData sq = core::BuildSqEstimatorData(ds.base);
  index::IvfIndex ivf;

  IvfWithCodes() {
    index::IvfOptions options;
    options.num_clusters = 6;
    ivf = index::IvfIndex::Build(ds.base, options);
    core::SqAdcEstimator estimator(&sq);
    ivf.AttachCodes(estimator.MakeCodeStore());
  }
};

TEST_F(PersistTest, IvfV3RoundTripWithCodes) {
  IvfWithCodes fixture;
  ASSERT_TRUE(fixture.ivf.has_codes());
  util::Status s = SaveIvf(Path("ivf_v3.bin"), fixture.ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();

  index::IvfIndex loaded;
  s = LoadIvf(Path("ivf_v3.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(loaded.has_codes());
  EXPECT_EQ(loaded.bucket_offsets(), fixture.ivf.bucket_offsets());
  EXPECT_EQ(loaded.ids(), fixture.ivf.ids());
  // The store must come back byte-for-byte (it is already bucket-permuted
  // on disk, so the load path never re-permutes).
  EXPECT_EQ(loaded.codes().tag(), fixture.ivf.codes().tag());
  EXPECT_EQ(loaded.codes().code_size(), fixture.ivf.codes().code_size());
  EXPECT_EQ(loaded.codes().num_sidecars(),
            fixture.ivf.codes().num_sidecars());
  EXPECT_EQ(CodeBytes(loaded.codes()), CodeBytes(fixture.ivf.codes()));
}

TEST_F(PersistTest, IvfV2FormatStillLoads) {
  // Hand-write a v2 (CSR, no code section) file; the loader must accept it
  // and come back without attached codes.
  IvfWithCodes fixture;
  const index::IvfIndex& ivf = fixture.ivf;
  {
    BinaryWriter writer(Path("ivf_v2.bin"));
    const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
    WriteHeader(writer, magic, /*version=*/2);
    writer.Write(ivf.size());
    writer.Write(ivf.centroids().rows());
    writer.Write(ivf.centroids().cols());
    writer.WriteFloats(ivf.centroids().data(), ivf.centroids().size());
    writer.Write<int32_t>(ivf.num_clusters());
    writer.WriteVector(ivf.bucket_offsets());
    writer.WriteVector(ivf.ids());
    ASSERT_TRUE(writer.ok());
  }
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_v2.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(loaded.has_codes());
  EXPECT_EQ(loaded.bucket_offsets(), ivf.bucket_offsets());
  EXPECT_EQ(loaded.ids(), ivf.ids());
}

TEST_F(PersistTest, IvfV3TruncatedCodeSectionFails) {
  IvfWithCodes fixture;
  ASSERT_TRUE(SaveIvf(Path("ivf_v3_t.bin"), fixture.ivf).ok());
  Truncate(Path("ivf_v3_t.bin"), 16);
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_v3_t.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, IvfV3MissizedCodePayloadFails) {
  // Hand-write v3 files whose code payload disagrees with n * stride —
  // one short, one long. Both must be rejected (ValidateCsr-style) instead
  // of constructing a store that would be misindexed at scan time.
  IvfWithCodes fixture;
  const index::IvfIndex& ivf = fixture.ivf;
  const quant::CodeStore& codes = ivf.codes();
  for (int delta : {-4, 4}) {
    const std::string path =
        Path(delta < 0 ? "ivf_v3_short.bin" : "ivf_v3_long.bin");
    {
      BinaryWriter writer(path);
      const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
      WriteHeader(writer, magic, /*version=*/3);
      writer.Write(ivf.size());
      writer.Write(ivf.centroids().rows());
      writer.Write(ivf.centroids().cols());
      writer.WriteFloats(ivf.centroids().data(), ivf.centroids().size());
      writer.Write<int32_t>(ivf.num_clusters());
      writer.WriteVector(ivf.bucket_offsets());
      writer.WriteVector(ivf.ids());
      writer.Write<uint8_t>(1);
      writer.Write<int64_t>(codes.code_size());
      writer.Write<int32_t>(codes.num_sidecars());
      writer.WriteString(codes.tag());
      std::vector<uint8_t> data = CodeBytes(codes);
      data.resize(data.size() + delta, 0);
      writer.WriteVector(data);
      ASSERT_TRUE(writer.ok());
    }
    index::IvfIndex loaded;
    util::Status s = LoadIvf(path, &loaded);
    EXPECT_FALSE(s.ok()) << "delta=" << delta;
    EXPECT_NE(s.message().find("code section"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(PersistTest, IvfV4PackingTagMismatchFails) {
  // A v4 code section whose packing byte disagrees with the tag's "/pk4"
  // marker must be rejected: accepting it would let a packed store
  // tag-match a byte-per-code computer and be misindexed at scan time.
  IvfWithCodes fixture;
  const index::IvfIndex& ivf = fixture.ivf;
  const quant::CodeStore& codes = ivf.codes();
  ASSERT_EQ(codes.packing(), quant::CodePacking::kBytePerCode);
  {
    BinaryWriter writer(Path("ivf_v4_mismatch.bin"));
    const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
    WriteHeader(writer, magic, /*version=*/4);
    writer.Write(ivf.size());
    writer.Write(ivf.centroids().rows());
    writer.Write(ivf.centroids().cols());
    writer.WriteFloats(ivf.centroids().data(), ivf.centroids().size());
    writer.Write<int32_t>(ivf.num_clusters());
    writer.WriteVector(ivf.bucket_offsets());
    writer.WriteVector(ivf.ids());
    writer.Write<uint8_t>(1);
    writer.Write<int64_t>(codes.code_size());
    writer.Write<int32_t>(codes.num_sidecars());
    // Claim packed records under a tag without the "/pk4" marker.
    writer.Write<uint8_t>(
        static_cast<uint8_t>(quant::CodePacking::kPacked4));
    writer.WriteString(codes.tag());
    writer.WriteVector(CodeBytes(codes));
    ASSERT_TRUE(writer.ok());
  }
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_v4_mismatch.bin"), &loaded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("packing disagrees"), std::string::npos)
      << s.ToString();
}

TEST_F(PersistTest, CountBeyondTheFileIsRejectedBeforeAllocating) {
  // A well-formed 493-byte ddc-pca artifacts file whose stage_dims vector
  // declares 2^32 int64 elements (32 GiB). The count must be checked
  // against the bytes the file still holds and fail as a Status — never
  // sized into an allocation first (std::bad_alloc, or the OOM killer on
  // an overcommitting host).
  const std::string path = Path("huge_count.bin");
  {
    BinaryWriter writer(path);
    const char magic[8] = {'R', 'I', 'D', 'P', 'C', 'A', 'A', '1'};
    WriteHeader(writer, magic, /*version=*/2);
    writer.BeginSection("stage_dims");
    writer.Write<int64_t>(int64_t{1} << 32);
    const std::vector<uint8_t> filler(441, 0);
    writer.WriteBytes(filler.data(), filler.size());
    writer.EndSection();
    writer.WriteChecksumFooter();
    ASSERT_TRUE(writer.Close());
  }
  ASSERT_EQ(std::filesystem::file_size(path), 493u);
  core::DdcPcaArtifacts loaded;
  util::Status s = LoadDdcPcaArtifacts(path, &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("count out of range"), std::string::npos)
      << s.ToString();

  // Outside a section (pre-envelope files) the bound is the rest of the
  // file: a count of 2^20 bytes followed by 16 is refused up front, not
  // allocated and then found short ("unexpected end of file").
  const std::string raw = Path("raw_count.bin");
  {
    BinaryWriter writer(raw);
    writer.Write<int64_t>(int64_t{1} << 20);
    const std::vector<uint8_t> payload(16, 7);
    writer.WriteBytes(payload.data(), payload.size());
    ASSERT_TRUE(writer.Close());
  }
  BinaryReader reader(raw);
  EXPECT_EQ(reader.BytesRemaining(), 24u);
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(reader.ReadVector(&bytes));
  EXPECT_TRUE(bytes.empty());
  EXPECT_NE(reader.fail_reason().find("count out of range"),
            std::string::npos)
      << reader.fail_reason();
}

TEST_F(PersistTest, IvfV3CodesSurviveSearchAfterLoad) {
  // End-to-end: the loaded index's code-resident search must equal the
  // in-memory index's search through the same estimator data.
  IvfWithCodes fixture;
  ASSERT_TRUE(SaveIvf(Path("ivf_v3_s.bin"), fixture.ivf).ok());
  index::IvfIndex loaded;
  util::Status s = LoadIvf(Path("ivf_v3_s.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();

  core::TrainingDataOptions training;
  training.max_queries = 40;
  core::SqAdcEstimator trainer(&fixture.sq);
  core::LinearCorrector corrector = core::TrainAnyCorrector(
      trainer, fixture.ds.base, fixture.ds.train_queries, training);
  core::DdcAnyComputer a(&fixture.ds.base,
                         std::make_unique<core::SqAdcEstimator>(&fixture.sq),
                         &corrector);
  core::DdcAnyComputer b(&fixture.ds.base,
                         std::make_unique<core::SqAdcEstimator>(&fixture.sq),
                         &corrector);
  for (int64_t q = 0; q < fixture.ds.queries.rows(); ++q) {
    auto want = fixture.ivf.Search(a, fixture.ds.queries.Row(q), 5, 3);
    auto got = loaded.Search(b, fixture.ds.queries.Row(q), 5, 3);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id);
      EXPECT_EQ(want[i].distance, got[i].distance);
    }
  }
}

// --- v6 storage-backend section ---------------------------------------------

TEST_F(PersistTest, MatrixMappedLoadIsZeroCopyAndBitIdentical) {
  linalg::Matrix m = testing::RandomMatrix(37, 11, 329);
  ASSERT_TRUE(SaveMatrix(Path("m_map.bin"), m).ok());

  MappedMatrix mapped;
  util::Status s = LoadMatrixMapped(Path("m_map.bin"), &mapped,
                                    storage::StorageBackend::kMmap);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(mapped.backend, storage::StorageBackend::kMmap);
  EXPECT_TRUE(mapped.matrix.is_view());
  ASSERT_EQ(mapped.matrix.rows(), m.rows());
  ASSERT_EQ(mapped.matrix.cols(), m.cols());
  // The floats are served in place from the mapping's pin, at the aligned
  // offset the v3 layout promises. (Const access: the mutable data()
  // overload is off-limits on views.)
  const linalg::Matrix& view = mapped.matrix;
  ASSERT_FALSE(mapped.pin.empty());
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(view.data()),
            mapped.pin.data());
  EXPECT_EQ(mapped.pin.size(),
            static_cast<int64_t>(sizeof(float)) * m.rows() * m.cols());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.data()) % 64, 0u);
  EXPECT_EQ(linalg::MaxAbsDifference(m, mapped.matrix), 0.0);
}

TEST_F(PersistTest, MatrixMappedMemoryBackendOwnsItsFloats) {
  linalg::Matrix m = testing::RandomMatrix(5, 9, 330);
  ASSERT_TRUE(SaveMatrix(Path("m_heap.bin"), m).ok());
  MappedMatrix mapped;
  util::Status s = LoadMatrixMapped(Path("m_heap.bin"), &mapped,
                                    storage::StorageBackend::kMemory);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(mapped.backend, storage::StorageBackend::kMemory);
  EXPECT_FALSE(mapped.matrix.is_view());
  EXPECT_TRUE(mapped.pin.empty());
  EXPECT_EQ(linalg::MaxAbsDifference(m, mapped.matrix), 0.0);
}

TEST_F(PersistTest, IvfV6MmapLoadIsBitIdenticalToMemoryLoad) {
  IvfWithCodes fixture;
  ASSERT_TRUE(SaveIvf(Path("ivf_v6_rt.bin"), fixture.ivf).ok());

  index::IvfIndex mem;
  index::IvfIndex map;
  IvfLoadOptions memory_options;
  memory_options.backend = storage::StorageBackend::kMemory;
  IvfLoadOptions mmap_options;
  mmap_options.backend = storage::StorageBackend::kMmap;
  util::Status s = LoadIvf(Path("ivf_v6_rt.bin"), &mem, memory_options);
  ASSERT_TRUE(s.ok()) << s.ToString();
  s = LoadIvf(Path("ivf_v6_rt.bin"), &map, mmap_options);
  ASSERT_TRUE(s.ok()) << s.ToString();

  ASSERT_TRUE(mem.has_codes());
  ASSERT_TRUE(map.has_codes());
  EXPECT_EQ(mem.codes().storage_backend(), storage::StorageBackend::kMemory);
  EXPECT_EQ(map.codes().storage_backend(), storage::StorageBackend::kMmap);
  // v6 places the record bytes at a 64-byte-aligned file offset so the
  // mapped store can serve them in place.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(map.codes().data()) % 64, 0u);
  EXPECT_EQ(CodeBytes(map.codes()), CodeBytes(mem.codes()));
  EXPECT_EQ(map.codes().tag(), mem.codes().tag());
  EXPECT_EQ(map.bucket_offsets(), mem.bucket_offsets());
  EXPECT_EQ(map.ids(), mem.ids());

  // Code-resident searches through both loads must agree bit for bit.
  core::TrainingDataOptions training;
  training.max_queries = 40;
  core::SqAdcEstimator trainer(&fixture.sq);
  core::LinearCorrector corrector = core::TrainAnyCorrector(
      trainer, fixture.ds.base, fixture.ds.train_queries, training);
  core::DdcAnyComputer a(&fixture.ds.base,
                         std::make_unique<core::SqAdcEstimator>(&fixture.sq),
                         &corrector);
  core::DdcAnyComputer b(&fixture.ds.base,
                         std::make_unique<core::SqAdcEstimator>(&fixture.sq),
                         &corrector);
  for (int64_t q = 0; q < fixture.ds.queries.rows(); ++q) {
    auto want = mem.Search(a, fixture.ds.queries.Row(q), 5, 3);
    auto got = map.Search(b, fixture.ds.queries.Row(q), 5, 3);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id);
      EXPECT_EQ(want[i].distance, got[i].distance);
    }
  }
}

TEST_F(PersistTest, ListSectionsReportsTheV6Envelope) {
  IvfWithCodes fixture;
  ASSERT_TRUE(SaveIvf(Path("ivf_ls.bin"), fixture.ivf).ok());

  std::vector<SectionInfo> sections;
  std::string format;
  uint32_t version = 0;
  util::Status s = ListSections(Path("ivf_ls.bin"), &sections, &format,
                                &version);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(format, "ivf index");
  EXPECT_EQ(version, 6u);
  ASSERT_EQ(sections.size(), 4u);
  EXPECT_EQ(sections[0].name, "meta");
  EXPECT_EQ(sections[1].name, "centroids");
  EXPECT_EQ(sections[2].name, "buckets");
  EXPECT_EQ(sections[3].name, "codes");

  // Frames are in file order, non-overlapping, and inside the file.
  const auto file_size =
      static_cast<int64_t>(std::filesystem::file_size(Path("ivf_ls.bin")));
  int64_t prev_end = 0;
  for (const SectionInfo& sec : sections) {
    EXPECT_GE(sec.payload_offset, prev_end) << sec.name;
    EXPECT_GT(sec.payload_bytes, 0) << sec.name;
    prev_end = sec.payload_offset + sec.payload_bytes;
    EXPECT_LE(prev_end, file_size) << sec.name;
    EXPECT_EQ(sec.aligned, sec.payload_offset % 64 == 0) << sec.name;
  }

  // The record bytes sit at the tail of the codes payload, and v6 pads so
  // that tail begins at a 64-byte-aligned file offset — the property the
  // zero-copy mmap load relies on.
  const SectionInfo& codes = sections[3];
  const int64_t record_bytes = fixture.ivf.codes().data_bytes();
  ASSERT_GE(codes.payload_bytes, record_bytes);
  EXPECT_EQ((codes.payload_offset + codes.payload_bytes - record_bytes) % 64,
            0);
}

TEST_F(PersistTest, ListSectionsRejectsPreEnvelopeAndForeignFiles) {
  // Pre-checksum versions have no section frames to walk.
  {
    BinaryWriter writer(Path("ivf_old.bin"));
    const char magic[8] = {'R', 'I', 'I', 'V', 'F', 'I', 'X', '1'};
    WriteHeader(writer, magic, /*version=*/2);
    ASSERT_TRUE(writer.ok());
  }
  std::vector<SectionInfo> sections;
  util::Status s = ListSections(Path("ivf_old.bin"), &sections);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition) << s.ToString();

  // Unknown magic is InvalidArgument, same as VerifyFile.
  {
    std::ofstream f(Path("junk.bin"), std::ios::binary);
    f << "NOTPERSISTFILE__";
  }
  s = ListSections(Path("junk.bin"), &sections);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument) << s.ToString();
}

TEST_F(PersistTest, DdcArtifactsRoundTripIdenticalDecisions) {
  data::Dataset ds = testing::SmallDataset(2000, 32, 1.0, 310, 8, 100);
  linalg::PcaModel pca =
      linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
  linalg::Matrix rotated = pca.TransformBatch(ds.base.data(), ds.size());
  core::DdcPcaOptions pca_options;
  pca_options.init_dim = 8;
  pca_options.delta_dim = 16;
  pca_options.training.max_queries = 60;
  core::DdcPcaArtifacts artifacts = core::TrainDdcPca(
      pca, rotated, ds.base, ds.train_queries, pca_options);

  util::Status s = SaveDdcPcaArtifacts(Path("dpca.bin"), artifacts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  core::DdcPcaArtifacts loaded;
  s = LoadDdcPcaArtifacts(Path("dpca.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(loaded.stage_dims, artifacts.stage_dims);
  for (std::size_t st = 0; st < loaded.correctors.size(); ++st) {
    EXPECT_EQ(loaded.correctors[st].w_approx(),
              artifacts.correctors[st].w_approx());
    EXPECT_EQ(loaded.correctors[st].bias(), artifacts.correctors[st].bias());
  }

  // Decisions must be bit-identical through a computer.
  core::DdcPcaComputer original(&pca, &rotated, &artifacts);
  core::DdcPcaComputer restored(&pca, &rotated, &loaded);
  original.BeginQuery(ds.queries.Row(0));
  restored.BeginQuery(ds.queries.Row(0));
  for (int64_t i = 0; i < 200; ++i) {
    auto a = original.EstimateWithThreshold(i, 5.0f);
    auto b = restored.EstimateWithThreshold(i, 5.0f);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.distance, b.distance);
  }
}

TEST_F(PersistTest, DdcOpqArtifactsRoundTrip) {
  data::Dataset ds = testing::SmallDataset(1500, 16, 1.0, 311, 8, 100);
  core::DdcOpqOptions options;
  options.opq.pq.num_subspaces = 4;
  options.opq.pq.nbits = 5;
  options.opq.num_iterations = 2;
  options.training.max_queries = 60;
  core::DdcOpqArtifacts artifacts =
      core::TrainDdcOpq(ds.base, ds.train_queries, options);

  util::Status s = SaveDdcOpqArtifacts(Path("dopq.bin"), artifacts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  core::DdcOpqArtifacts loaded;
  s = LoadDdcOpqArtifacts(Path("dopq.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.codes, artifacts.codes);
  EXPECT_EQ(loaded.recon_errors, artifacts.recon_errors);

  core::DdcOpqComputer original(&ds.base, &artifacts);
  core::DdcOpqComputer restored(&ds.base, &loaded);
  original.BeginQuery(ds.queries.Row(1));
  restored.BeginQuery(ds.queries.Row(1));
  for (int64_t i = 0; i < 200; ++i) {
    auto a = original.EstimateWithThreshold(i, 5.0f);
    auto b = restored.EstimateWithThreshold(i, 5.0f);
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.distance, b.distance);
  }
}

TEST_F(PersistTest, MissingFileFails) {
  linalg::Matrix m;
  linalg::PcaModel pca;
  index::HnswIndex hnsw;
  EXPECT_EQ(LoadMatrix(Path("nope.bin"), &m).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(LoadPca(Path("nope.bin"), &pca).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(LoadHnsw(Path("nope.bin"), &hnsw).code(),
            util::StatusCode::kNotFound);
}

TEST_F(PersistTest, RqRoundTripIdenticalCodes) {
  data::Dataset ds = testing::SmallDataset(800, 16, 0.8, 311);
  quant::RqOptions options;
  options.num_stages = 3;
  options.nbits = 5;
  quant::RqCodebook rq =
      quant::RqCodebook::Train(ds.base.data(), ds.size(), 16, options);
  util::Status s = SaveRq(Path("rq.bin"), rq);
  ASSERT_TRUE(s.ok()) << s.ToString();
  quant::RqCodebook loaded;
  s = LoadRq(Path("rq.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.dim(), rq.dim());
  EXPECT_EQ(loaded.num_stages(), rq.num_stages());
  std::vector<uint8_t> a(rq.code_size()), b(rq.code_size());
  for (int64_t i = 0; i < 40; ++i) {
    rq.Encode(ds.base.Row(i), a.data());
    loaded.Encode(ds.base.Row(i), b.data());
    EXPECT_EQ(a, b);
  }
}

TEST_F(PersistTest, RqTruncatedFails) {
  data::Dataset ds = testing::SmallDataset(500, 8, 0.8, 312);
  quant::RqOptions options;
  options.num_stages = 2;
  options.nbits = 4;
  quant::RqCodebook rq =
      quant::RqCodebook::Train(ds.base.data(), ds.size(), 8, options);
  ASSERT_TRUE(SaveRq(Path("rq_trunc.bin"), rq).ok());
  Truncate(Path("rq_trunc.bin"), 16);
  quant::RqCodebook loaded;
  util::Status s = LoadRq(Path("rq_trunc.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, SqRoundTripIdenticalCodes) {
  data::Dataset ds = testing::SmallDataset(600, 12, 0.5, 313);
  quant::SqCodebook sq =
      quant::SqCodebook::Train(ds.base.data(), ds.size(), 12);
  util::Status s = SaveSq(Path("sq.bin"), sq);
  ASSERT_TRUE(s.ok()) << s.ToString();
  quant::SqCodebook loaded;
  s = LoadSq(Path("sq.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::vector<uint8_t> a(12), b(12);
  for (int64_t i = 0; i < 40; ++i) {
    sq.Encode(ds.base.Row(i), a.data());
    loaded.Encode(ds.base.Row(i), b.data());
    EXPECT_EQ(a, b);
  }
}

TEST_F(PersistTest, SqCorruptStepFails) {
  // Hand-write a pre-checksum v1 SQ file with a negative step: the range
  // validation (not a checksum) must reject it.
  {
    BinaryWriter writer(Path("sq_bad.bin"));
    const char magic[8] = {'R', 'I', 'S', 'Q', 'C', 'B', 'K', '1'};
    WriteHeader(writer, magic, /*version=*/1);
    writer.WriteVector(std::vector<float>{0.0f, 1.0f, 2.0f, 3.0f});
    writer.WriteVector(std::vector<float>{0.5f, -1.0f, 0.5f, 0.5f});
    ASSERT_TRUE(writer.Close());
  }
  quant::SqCodebook loaded;
  util::Status s = LoadSq(Path("sq_bad.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_NE(s.message().find("step"), std::string::npos) << s.ToString();
}

TEST_F(PersistTest, CorrectorRoundTripIdenticalDecisions) {
  core::LinearCorrector corrector =
      core::LinearCorrector::FromWeights(1.25f, -0.75f, 0.5f, -2.0f, true);
  util::Status s = SaveCorrector(Path("corr.bin"), corrector);
  ASSERT_TRUE(s.ok()) << s.ToString();
  core::LinearCorrector loaded;
  s = LoadCorrector(Path("corr.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.trained(), corrector.trained());
  for (float approx : {0.5f, 1.0f, 4.0f}) {
    for (float tau : {0.25f, 2.0f}) {
      EXPECT_EQ(loaded.PredictPrunable(approx, tau, 0.1f),
                corrector.PredictPrunable(approx, tau, 0.1f));
    }
  }
}

TEST_F(PersistTest, CorrectorWrongMagicFails) {
  linalg::Matrix m = testing::RandomMatrix(2, 2, 315);
  ASSERT_TRUE(SaveMatrix(Path("not_corr.bin"), m).ok());
  core::LinearCorrector loaded;
  util::Status s = LoadCorrector(Path("not_corr.bin"), &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(s.message().empty());
}

TEST_F(PersistTest, DdcRqCascadeRoundTripIdenticalDecisions) {
  data::Dataset ds = testing::SmallDataset(900, 16, 0.8, 321, 8, 120);
  core::DdcRqCascadeOptions options;
  options.rq.nbits = 5;
  options.levels = {2, 4};
  options.training.max_queries = 60;
  core::DdcRqCascadeArtifacts artifacts =
      core::TrainDdcRqCascade(ds.base, ds.train_queries, options);
  util::Status s = SaveDdcRqCascadeArtifacts(Path("cascade.bin"), artifacts);
  ASSERT_TRUE(s.ok()) << s.ToString();
  core::DdcRqCascadeArtifacts loaded;
  s = LoadDdcRqCascadeArtifacts(Path("cascade.bin"), &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.levels, artifacts.levels);
  EXPECT_EQ(loaded.codes, artifacts.codes);
  ASSERT_EQ(loaded.correctors.size(), artifacts.correctors.size());

  // The loaded artifacts must reproduce the original computer's
  // prune/keep decisions bit-for-bit.
  core::DdcRqCascadeComputer original(&ds.base, &artifacts);
  core::DdcRqCascadeComputer rebuilt(&ds.base, &loaded);
  for (int64_t q = 0; q < ds.queries.rows(); ++q) {
    original.BeginQuery(ds.queries.Row(q));
    rebuilt.BeginQuery(ds.queries.Row(q));
    std::vector<data::Neighbor> nn =
        data::BruteForceKnnSingle(ds.base, ds.queries.Row(q), 5);
    const float tau = nn.back().distance;
    for (int64_t i = 0; i < ds.size(); i += 17) {
      index::EstimateResult a = original.EstimateWithThreshold(i, tau);
      index::EstimateResult b = rebuilt.EstimateWithThreshold(i, tau);
      EXPECT_EQ(a.pruned, b.pruned);
      EXPECT_FLOAT_EQ(a.distance, b.distance);
    }
  }
}

TEST_F(PersistTest, DdcRqCascadeTruncatedFails) {
  data::Dataset ds = testing::SmallDataset(400, 8, 0.8, 322, 4, 60);
  core::DdcRqCascadeOptions options;
  options.rq.nbits = 4;
  options.levels = {1, 2};
  options.training.max_queries = 30;
  core::DdcRqCascadeArtifacts artifacts =
      core::TrainDdcRqCascade(ds.base, ds.train_queries, options);
  ASSERT_TRUE(
      SaveDdcRqCascadeArtifacts(Path("cascade_trunc.bin"), artifacts).ok());
  Truncate(Path("cascade_trunc.bin"), 8);
  core::DdcRqCascadeArtifacts loaded;
  util::Status s = LoadDdcRqCascadeArtifacts(Path("cascade_trunc.bin"),
                                             &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kCorruption);
  EXPECT_FALSE(s.message().empty());
}

}  // namespace
}  // namespace resinfer::persist
