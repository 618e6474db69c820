// Cross-version on-disk compatibility against CHECKED-IN fixture files
// (tests/persist/testdata/, written once by tools/gen_persist_fixtures.cc).
//
// The roundtrip tests in persist_test.cc only prove that today's writer and
// today's reader agree; these prove that today's reader still understands
// yesterday's bytes. If a loader change breaks v1/v2/v3 compatibility, this
// suite fails in CI rather than at load time in production. The expected
// constants are duplicated from the generator on purpose — they describe
// the frozen files, not the current code.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "persist/persist.h"
#include "quant/code_store.h"
#include "storage/storage.h"

#ifndef RESINFER_SOURCE_DIR
#error "RESINFER_SOURCE_DIR must point at the repository root"
#endif

namespace resinfer::persist {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(RESINFER_SOURCE_DIR) + "/tests/persist/testdata/" +
         name;
}

// Mirrors gen_persist_fixtures.cc — frozen with the files.
const std::vector<int64_t> kOffsets = {0, 4, 9, 12};
const std::vector<int64_t> kIds = {0, 3, 6, 9, 1, 4, 7, 10, 11, 2, 5, 8};
constexpr int64_t kSize = 12;
constexpr int64_t kDim = 4;

void ExpectFixtureLayout(const index::IvfIndex& ivf) {
  EXPECT_EQ(ivf.size(), kSize);
  EXPECT_EQ(ivf.num_clusters(), 3);
  EXPECT_EQ(ivf.centroids().cols(), kDim);
  EXPECT_EQ(ivf.bucket_offsets(), kOffsets);
  EXPECT_EQ(ivf.ids(), kIds);
  for (int64_t c = 0; c < 3; ++c) {
    for (int64_t j = 0; j < kDim; ++j) {
      EXPECT_EQ(ivf.centroids().At(c, j),
                static_cast<float>(c) + 0.25f * static_cast<float>(j));
    }
  }
}

TEST(PersistFixtureTest, V1NestedBucketsStillLoad) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v1.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);
  EXPECT_FALSE(ivf.has_codes());
}

TEST(PersistFixtureTest, V2CsrStillLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v2.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);
  EXPECT_FALSE(ivf.has_codes());
}

TEST(PersistFixtureTest, V3CodeSectionStillLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v3.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);

  ASSERT_TRUE(ivf.has_codes());
  const quant::CodeStore& codes = ivf.codes();
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12");
  EXPECT_EQ(codes.code_size(), 2);
  EXPECT_EQ(codes.num_sidecars(), 1);
  // v3 predates the packing byte; its stores are byte-per-code by
  // definition.
  EXPECT_EQ(codes.packing(), quant::CodePacking::kBytePerCode);
  ASSERT_EQ(codes.size(), kSize);
  // Records are bucket-permuted on disk: record j belongs to point
  // kIds[j], whose code bytes are {id, 2*id} and sidecar id + 0.5.
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(rec[0], static_cast<uint8_t>(id)) << j;
    EXPECT_EQ(rec[1], static_cast<uint8_t>(2 * id)) << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.5f)
        << j;
  }
}

TEST(PersistFixtureTest, V4PackedCodeSectionLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v4.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);

  ASSERT_TRUE(ivf.has_codes());
  const quant::CodeStore& codes = ivf.codes();
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12/pk4");
  EXPECT_EQ(codes.code_size(), 2);
  EXPECT_EQ(codes.num_sidecars(), 1);
  EXPECT_EQ(codes.packing(), quant::CodePacking::kPacked4);
  ASSERT_EQ(codes.size(), kSize);
  // Record j belongs to point kIds[j]: three nibble codes {id, 2id, 3id}
  // (mod 16) packed into two bytes with a zero pad nibble, sidecar
  // id + 0.25.
  const quant::CodeLayout layout = quant::CodeLayout::ForBits(4);
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(quant::CodeAt(rec, 0, layout), id & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 1, layout), (2 * id) & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 2, layout), (3 * id) & 0xf) << j;
    EXPECT_EQ(rec[1] >> 4, 0) << "pad nibble must stay zero, record " << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.25f)
        << j;
  }
}

TEST(PersistFixtureTest, V5ChecksummedByteStoreLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v5.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);

  ASSERT_TRUE(ivf.has_codes());
  const quant::CodeStore& codes = ivf.codes();
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12");
  EXPECT_EQ(codes.packing(), quant::CodePacking::kBytePerCode);
  ASSERT_EQ(codes.size(), kSize);
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(rec[0], static_cast<uint8_t>(id)) << j;
    EXPECT_EQ(rec[1], static_cast<uint8_t>(2 * id)) << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.5f)
        << j;
  }
}

TEST(PersistFixtureTest, V5ChecksummedPackedStoreLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v5_packed.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);

  ASSERT_TRUE(ivf.has_codes());
  const quant::CodeStore& codes = ivf.codes();
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12/pk4");
  EXPECT_EQ(codes.packing(), quant::CodePacking::kPacked4);
  ASSERT_EQ(codes.size(), kSize);
  const quant::CodeLayout layout = quant::CodeLayout::ForBits(4);
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(quant::CodeAt(rec, 0, layout), id & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 1, layout), (2 * id) & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 2, layout), (3 * id) & 0xf) << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.25f)
        << j;
  }
}

void ExpectFixtureByteCodes(const quant::CodeStore& codes) {
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12");
  EXPECT_EQ(codes.code_size(), 2);
  EXPECT_EQ(codes.num_sidecars(), 1);
  EXPECT_EQ(codes.packing(), quant::CodePacking::kBytePerCode);
  ASSERT_EQ(codes.size(), kSize);
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(rec[0], static_cast<uint8_t>(id)) << j;
    EXPECT_EQ(rec[1], static_cast<uint8_t>(2 * id)) << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.5f)
        << j;
  }
}

TEST(PersistFixtureTest, V6AlignedByteStoreLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v6.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);
  ASSERT_TRUE(ivf.has_codes());
  ExpectFixtureByteCodes(ivf.codes());
}

TEST(PersistFixtureTest, V6AlignedPackedStoreLoads) {
  index::IvfIndex ivf;
  util::Status s = LoadIvf(FixturePath("ivf_v6_packed.bin"), &ivf);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectFixtureLayout(ivf);

  ASSERT_TRUE(ivf.has_codes());
  const quant::CodeStore& codes = ivf.codes();
  EXPECT_EQ(codes.tag(), "fixture/cs2/sc1/n12/pk4");
  EXPECT_EQ(codes.packing(), quant::CodePacking::kPacked4);
  ASSERT_EQ(codes.size(), kSize);
  const quant::CodeLayout layout = quant::CodeLayout::ForBits(4);
  for (std::size_t j = 0; j < kIds.size(); ++j) {
    const int64_t id = kIds[j];
    const uint8_t* rec = codes.record(static_cast<int64_t>(j));
    EXPECT_EQ(quant::CodeAt(rec, 0, layout), id & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 1, layout), (2 * id) & 0xf) << j;
    EXPECT_EQ(quant::CodeAt(rec, 2, layout), (3 * id) & 0xf) << j;
    EXPECT_EQ(quant::RecordSidecars(rec, codes.code_size())[0],
              static_cast<float>(id) + 0.25f)
        << j;
  }
}

TEST(PersistFixtureTest, V6FixturesLoadBitIdenticalFromMmap) {
  // The memory-vs-mmap load-parity check over frozen bytes: both backends
  // must materialize identical records (and metadata) from the same file,
  // with the mmap store reporting where its bytes actually live.
  for (const char* name : {"ivf_v6.bin", "ivf_v6_packed.bin"}) {
    index::IvfIndex memory, mapped;
    IvfLoadOptions options;
    options.backend = storage::StorageBackend::kMemory;
    util::Status s = LoadIvf(FixturePath(name), &memory, options);
    ASSERT_TRUE(s.ok()) << name << ": " << s.ToString();
    options.backend = storage::StorageBackend::kMmap;
    s = LoadIvf(FixturePath(name), &mapped, options);
    ASSERT_TRUE(s.ok()) << name << ": " << s.ToString();

    ASSERT_TRUE(memory.has_codes());
    ASSERT_TRUE(mapped.has_codes());
    EXPECT_EQ(memory.codes().storage_backend(),
              storage::StorageBackend::kMemory)
        << name;
    EXPECT_EQ(mapped.codes().storage_backend(),
              storage::StorageBackend::kMmap)
        << name;
    EXPECT_TRUE(mapped.codes().is_view()) << name;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped.codes().data()) % 64, 0u)
        << name << ": mapped records must sit on the v6 alignment";

    ASSERT_EQ(memory.codes().data_bytes(), mapped.codes().data_bytes())
        << name;
    EXPECT_EQ(std::memcmp(memory.codes().data(), mapped.codes().data(),
                          static_cast<std::size_t>(
                              memory.codes().data_bytes())),
              0)
        << name;
    EXPECT_EQ(memory.codes().tag(), mapped.codes().tag()) << name;
    EXPECT_EQ(memory.codes().stride(), mapped.codes().stride()) << name;
    EXPECT_EQ(memory.codes().packing(), mapped.codes().packing()) << name;
  }
}

TEST(PersistFixtureTest, V6FixturesPassChecksumVerification) {
  for (const char* name : {"ivf_v6.bin", "ivf_v6_packed.bin"}) {
    std::string format;
    util::Status s = VerifyFile(FixturePath(name), &format);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_EQ(format, "ivf index") << name;
  }
}

TEST(PersistFixtureTest, V5FixturesPassChecksumVerification) {
  for (const char* name : {"ivf_v5.bin", "ivf_v5_packed.bin"}) {
    std::string format;
    util::Status s = VerifyFile(FixturePath(name), &format);
    EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_EQ(format, "ivf index") << name;
  }
  // Pre-checksum fixtures are unverifiable by design, not corrupt.
  EXPECT_EQ(VerifyFile(FixturePath("ivf_v4.bin")).code(),
            util::StatusCode::kFailedPrecondition);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Mirrors gen_persist_fixtures.cc's WriteHnswV1: the graph it built over 12
// points with M = 2, ef_construction = 8, level_seed = 11. Node levels
// {2, 0, 1, 0, 4, 1, 0, 0, 0, 0, 1, 3}; the file widens every count and id
// to int64.
TEST(PersistFixtureTest, HnswGraphStillLoads) {
  index::HnswIndex graph;
  util::Status s = LoadHnsw(FixturePath("hnsw_v1.bin"), &graph);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(graph.size(), kSize);
  EXPECT_EQ(graph.options().M, 2);
  EXPECT_EQ(graph.options().ef_construction, 8);
  EXPECT_EQ(graph.options().level_seed, 11u);
  EXPECT_EQ(graph.max_level(), 4);
  EXPECT_EQ(graph.entry_point(), 4);
  const std::vector<std::vector<int32_t>> adjacency = {
      {1},        {0, 2, 3, 4}, {1, 4},     {1, 5, 6},
      {2, 1, 6},  {3, 7},       {4, 3, 7, 8}, {5, 9, 10},
      {6, 7, 10}, {7, 11},      {8, 7},     {9}};
  for (int64_t node = 0; node < kSize; ++node) {
    int count = 0;
    const int32_t* links = graph.NeighborsAtBase(node, &count);
    EXPECT_EQ(std::vector<int32_t>(links, links + count), adjacency[node])
        << "node " << node;
  }

  // Re-saving the narrowed in-memory graph reproduces the file: the upper
  // layers, the stale slots past each count and the int64 layout included.
  const std::string resaved =
      (std::filesystem::temp_directory_path() /
       ("resinfer_hnsw_fixture_" + std::to_string(::getpid()) + ".bin"))
          .string();
  s = SaveHnsw(resaved, graph);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(FileBytes(resaved), FileBytes(FixturePath("hnsw_v1.bin")));
  std::filesystem::remove(resaved);
}

}  // namespace
}  // namespace resinfer::persist
