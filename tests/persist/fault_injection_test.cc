// Randomized corruption suite (the fault-injection harness of
// docs/persistence.md): every format the library persists is saved once,
// then mutated hundreds of ways — truncations, single-bit flips, range
// corruptions — and every mutant must come back as a clean non-OK
// util::Status. No crash, no CHECK-abort, no silently-loaded garbage.
//
// The RNG seeds are fixed, so the exact mutation set is deterministic
// across runs and hosts: if this suite is green once, it stays green.
//
// Run via the labeled ctest entry:  ctest -L fault-injection
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "persist/persist.h"
#include "quant/code_store.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/fault_injection.h"
#include "util/status.h"

#ifndef RESINFER_SOURCE_DIR
#error "RESINFER_SOURCE_DIR must point at the repository root"
#endif

namespace resinfer::persist {
namespace {

using util::FaultInjectingFile;
using util::Status;
using util::StatusOr;

// One persisted format: how to write a pristine file and how to load one.
struct FormatCase {
  std::string name;
  std::function<Status(const std::string& path)> save;
  std::function<Status(const std::string& path)> load;
};

// Mutation counts per format. 12 current formats x 35 + 4 legacy fixtures
// x 25 + 4 frozen checksummed fixtures x 35 + 35 for the mmap recipe =
// 695 total mutations, comfortably above the 500-mutation floor the suite
// promises.
constexpr int kBitFlipsPerFormat = 20;
constexpr int kTruncationsPerFormat = 10;
constexpr int kRangeCorruptionsPerFormat = 5;
constexpr int kTruncationsPerLegacyFixture = 25;

// Corrupt files must be rejected from what they contain, never by
// allocating a count they declare. Under a 2 GiB address-space limit an
// allocation sized by a mutated count throws std::bad_alloc instead of
// quietly succeeding on an overcommitting host, so the suite imposes that
// limit on itself (lowering an inherited limit, never raising one).
// Sanitizer runtimes reserve far more address space than that up front, so
// sanitized builds run without it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kLimitAddressSpace = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kLimitAddressSpace = false;
#else
constexpr bool kLimitAddressSpace = true;
#endif
#else
constexpr bool kLimitAddressSpace = true;
#endif
constexpr rlim_t kAddressSpaceLimit = rlim_t{2} << 30;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kLimitAddressSpace && ::getrlimit(RLIMIT_AS, &saved_limit_) == 0 &&
        (saved_limit_.rlim_cur == RLIM_INFINITY ||
         saved_limit_.rlim_cur > kAddressSpaceLimit)) {
      rlimit limited = saved_limit_;
      limited.rlim_cur = kAddressSpaceLimit;
      ASSERT_EQ(::setrlimit(RLIMIT_AS, &limited), 0);
      restore_limit_ = true;
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("resinfer_fault_injection_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    if (restore_limit_) ::setrlimit(RLIMIT_AS, &saved_limit_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // Applies the per-format mutation schedule to a pristine file at
  // `good_path`, asserting every mutant fails `load` cleanly. Returns the
  // number of mutations exercised.
  int MutateAndExpectCleanFailure(
      const FormatCase& format, const std::string& good_path,
      uint32_t seed, bool include_bit_flips) {
    StatusOr<FaultInjectingFile> opened = FaultInjectingFile::Open(good_path);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return 0;
    FaultInjectingFile file = std::move(opened).value();
    EXPECT_GT(file.size(), 16u) << format.name;

    std::mt19937 rng(seed);
    const std::string mutant_path = good_path + ".mutant";
    int mutations = 0;
    auto check_load_fails = [&](const std::string& what) {
      Status write = file.WriteTo(mutant_path);
      ASSERT_TRUE(write.ok()) << write.ToString();
      Status status = format.load(mutant_path);
      EXPECT_FALSE(status.ok())
          << format.name << ": " << what << " loaded silently";
      EXPECT_FALSE(status.message().empty()) << format.name << ": " << what;
      ++mutations;
      file.Reset();
    };

    std::uniform_int_distribution<std::size_t> byte_dist(0, file.size() - 1);
    if (include_bit_flips) {
      std::uniform_int_distribution<int> bit_dist(0, 7);
      for (int i = 0; i < kBitFlipsPerFormat; ++i) {
        const std::size_t byte = byte_dist(rng);
        const int bit = bit_dist(rng);
        file.FlipBit(byte, bit);
        check_load_fails("bit flip at byte " + std::to_string(byte) +
                         " bit " + std::to_string(bit));
      }
      std::uniform_int_distribution<std::size_t> len_dist(1, 16);
      std::uniform_int_distribution<int> mask_dist(1, 255);
      for (int i = 0; i < kRangeCorruptionsPerFormat; ++i) {
        const std::size_t offset = byte_dist(rng);
        const std::size_t len = len_dist(rng);
        const uint8_t mask = static_cast<uint8_t>(mask_dist(rng));
        file.CorruptRange(offset, len, mask);
        check_load_fails("range corruption at " + std::to_string(offset));
      }
    }
    const int truncations = include_bit_flips ? kTruncationsPerFormat
                                              : kTruncationsPerLegacyFixture;
    for (int i = 0; i < truncations; ++i) {
      const std::size_t new_size = byte_dist(rng);  // always drops >= 1 byte
      file.Truncate(new_size);
      check_load_fails("truncation to " + std::to_string(new_size));
    }
    return mutations;
  }

  std::filesystem::path dir_;
  rlimit saved_limit_{};
  bool restore_limit_ = false;
};

// Builds the 12 persisted formats once, on tiny deterministic datasets.
std::vector<FormatCase> AllFormats() {
  std::vector<FormatCase> formats;

  formats.push_back(
      {"matrix",
       [](const std::string& p) {
         return SaveMatrix(p, testing::RandomMatrix(9, 7, 901));
       },
       [](const std::string& p) {
         linalg::Matrix m;
         return LoadMatrix(p, &m);
       }});

  formats.push_back(
      {"pca",
       [](const std::string& p) {
         linalg::Matrix m = testing::RandomMatrix(120, 8, 902);
         return SavePca(p, linalg::PcaModel::Fit(m.data(), 120, 8));
       },
       [](const std::string& p) {
         linalg::PcaModel pca;
         return LoadPca(p, &pca);
       }});

  formats.push_back(
      {"pq",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(300, 8, 1.0, 903);
         quant::PqOptions options;
         options.num_subspaces = 2;
         options.nbits = 4;
         return SavePq(p, quant::PqCodebook::Train(ds.base.data(), ds.size(),
                                                   8, options));
       },
       [](const std::string& p) {
         quant::PqCodebook pq;
         return LoadPq(p, &pq);
       }});

  formats.push_back(
      {"opq",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(300, 8, 1.0, 904);
         quant::OpqOptions options;
         options.pq.num_subspaces = 2;
         options.pq.nbits = 4;
         options.num_iterations = 1;
         return SaveOpq(p, quant::OpqModel::Train(ds.base.data(), ds.size(),
                                                  8, options));
       },
       [](const std::string& p) {
         quant::OpqModel opq;
         return LoadOpq(p, &opq);
       }});

  formats.push_back(
      {"rq",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(300, 8, 0.8, 905);
         quant::RqOptions options;
         options.num_stages = 2;
         options.nbits = 4;
         return SaveRq(p, quant::RqCodebook::Train(ds.base.data(), ds.size(),
                                                   8, options));
       },
       [](const std::string& p) {
         quant::RqCodebook rq;
         return LoadRq(p, &rq);
       }});

  formats.push_back(
      {"sq",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(200, 6, 0.5, 906);
         return SaveSq(p, quant::SqCodebook::Train(ds.base.data(), ds.size(),
                                                   6));
       },
       [](const std::string& p) {
         quant::SqCodebook sq;
         return LoadSq(p, &sq);
       }});

  formats.push_back(
      {"corrector",
       [](const std::string& p) {
         return SaveCorrector(p, core::LinearCorrector::FromWeights(
                                     1.5f, -0.5f, 0.25f, -1.0f, true));
       },
       [](const std::string& p) {
         core::LinearCorrector c;
         return LoadCorrector(p, &c);
       }});

  formats.push_back(
      {"hnsw",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(200, 8, 1.0, 907, 2, 2);
         index::HnswOptions options;
         options.M = 6;
         options.ef_construction = 30;
         return SaveHnsw(p, index::HnswIndex::Build(ds.base, options));
       },
       [](const std::string& p) {
         index::HnswIndex hnsw;
         return LoadHnsw(p, &hnsw);
       }});

  formats.push_back(
      {"ivf",  // saves the current (v6, aligned-codes) layout
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(240, 8, 1.0, 908, 4, 2);
         index::IvfOptions options;
         options.num_clusters = 6;
         index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
         core::SqEstimatorData sq = core::BuildSqEstimatorData(ds.base);
         core::SqAdcEstimator estimator(&sq);
         ivf.AttachCodes(estimator.MakeCodeStore());
         return SaveIvf(p, ivf);
       },
       [](const std::string& p) {
         index::IvfIndex ivf;
         return LoadIvf(p, &ivf);
       }});

  formats.push_back(
      {"ddc_pca",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(500, 16, 1.0, 909, 4, 40);
         linalg::PcaModel pca =
             linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
         linalg::Matrix rotated =
             pca.TransformBatch(ds.base.data(), ds.size());
         core::DdcPcaOptions options;
         options.init_dim = 4;
         options.delta_dim = 8;
         options.training.max_queries = 20;
         return SaveDdcPcaArtifacts(
             p, core::TrainDdcPca(pca, rotated, ds.base, ds.train_queries,
                                  options));
       },
       [](const std::string& p) {
         core::DdcPcaArtifacts a;
         return LoadDdcPcaArtifacts(p, &a);
       }});

  formats.push_back(
      {"ddc_opq",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(500, 8, 1.0, 910, 4, 40);
         core::DdcOpqOptions options;
         options.opq.pq.num_subspaces = 2;
         options.opq.pq.nbits = 4;
         options.opq.num_iterations = 1;
         options.training.max_queries = 20;
         return SaveDdcOpqArtifacts(
             p, core::TrainDdcOpq(ds.base, ds.train_queries, options));
       },
       [](const std::string& p) {
         core::DdcOpqArtifacts a;
         return LoadDdcOpqArtifacts(p, &a);
       }});

  formats.push_back(
      {"ddc_rq_cascade",
       [](const std::string& p) {
         data::Dataset ds = testing::SmallDataset(400, 16, 0.8, 911, 4, 60);
         core::DdcRqCascadeOptions options;
         options.rq.nbits = 4;
         options.levels = {2, 4};
         options.training.max_queries = 30;
         return SaveDdcRqCascadeArtifacts(
             p, core::TrainDdcRqCascade(ds.base, ds.train_queries, options));
       },
       [](const std::string& p) {
         core::DdcRqCascadeArtifacts a;
         return LoadDdcRqCascadeArtifacts(p, &a);
       }});

  return formats;
}

TEST_F(FaultInjectionTest, EveryCurrentFormatRejectsEveryMutation) {
  int total_mutations = 0;
  uint32_t seed = 0xC0FFEE;
  for (const FormatCase& format : AllFormats()) {
    SCOPED_TRACE(format.name);
    const std::string path = Path(format.name + ".bin");
    Status save = format.save(path);
    ASSERT_TRUE(save.ok()) << save.ToString();
    // Pristine file must load and checksum-verify before we break it.
    Status pristine = format.load(path);
    ASSERT_TRUE(pristine.ok()) << pristine.ToString();
    Status verified = VerifyFile(path);
    ASSERT_TRUE(verified.ok()) << verified.ToString();

    total_mutations += MutateAndExpectCleanFailure(
        format, path, ++seed, /*include_bit_flips=*/true);
  }
  // 12 formats x (20 flips + 5 ranges + 10 truncations).
  EXPECT_EQ(total_mutations, 12 * (kBitFlipsPerFormat +
                                   kRangeCorruptionsPerFormat +
                                   kTruncationsPerFormat));
}

TEST_F(FaultInjectionTest, LegacyFixtureVersionsRejectTruncation) {
  // Pre-checksum files cannot promise bit-flip detection, but every
  // truncation must still fail cleanly across all frozen versions.
  FormatCase ivf_loader{
      "ivf_legacy", nullptr,
      [](const std::string& p) {
        index::IvfIndex ivf;
        return LoadIvf(p, &ivf);
      }};
  int total_mutations = 0;
  uint32_t seed = 0xFEED;
  for (const char* fixture :
       {"ivf_v1.bin", "ivf_v2.bin", "ivf_v3.bin", "ivf_v4.bin"}) {
    SCOPED_TRACE(fixture);
    const std::string source = std::string(RESINFER_SOURCE_DIR) +
                               "/tests/persist/testdata/" + fixture;
    // Work on a scratch copy so the checked-in fixture is never at risk.
    const std::string path = Path(fixture);
    std::filesystem::copy_file(source, path);
    Status pristine = ivf_loader.load(path);
    ASSERT_TRUE(pristine.ok()) << pristine.ToString();

    total_mutations += MutateAndExpectCleanFailure(
        ivf_loader, path, ++seed, /*include_bit_flips=*/false);
  }
  EXPECT_EQ(total_mutations, 4 * kTruncationsPerLegacyFixture);
}

TEST_F(FaultInjectionTest, FrozenChecksummedFixturesRejectEveryMutation) {
  // v5 and v6 fixtures carry the section envelope, so the full schedule —
  // bit flips and range corruptions included — applies to the frozen
  // bytes, not just truncation.
  FormatCase ivf_loader{
      "ivf_checksummed", nullptr,
      [](const std::string& p) {
        index::IvfIndex ivf;
        return LoadIvf(p, &ivf);
      }};
  int total_mutations = 0;
  uint32_t seed = 0xBEEF;
  for (const char* fixture : {"ivf_v5.bin", "ivf_v5_packed.bin",
                              "ivf_v6.bin", "ivf_v6_packed.bin"}) {
    SCOPED_TRACE(fixture);
    const std::string source = std::string(RESINFER_SOURCE_DIR) +
                               "/tests/persist/testdata/" + fixture;
    const std::string path = Path(fixture);
    std::filesystem::copy_file(source, path);
    Status pristine = ivf_loader.load(path);
    ASSERT_TRUE(pristine.ok()) << pristine.ToString();

    total_mutations += MutateAndExpectCleanFailure(
        ivf_loader, path, ++seed, /*include_bit_flips=*/true);
  }
  EXPECT_EQ(total_mutations, 4 * (kBitFlipsPerFormat +
                                  kRangeCorruptionsPerFormat +
                                  kTruncationsPerFormat));
}

TEST_F(FaultInjectionTest, MmapRecipeRejectsEveryMutation) {
  // The zero-copy mmap load skips the code-payload CRC by design (reading
  // the payload would fault in every page, defeating the lazy tier), so a
  // bit flip inside the record bytes is only caught by VerifyFile. The
  // documented recipe — VerifyFile, then LoadIvf with the mmap backend —
  // must therefore reject every mutation end to end.
  FormatCase recipe{
      "ivf_mmap_recipe",
      [](const std::string& p) {
        data::Dataset ds = testing::SmallDataset(240, 8, 1.0, 913, 4, 2);
        index::IvfOptions options;
        options.num_clusters = 6;
        index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);
        core::SqEstimatorData sq = core::BuildSqEstimatorData(ds.base);
        core::SqAdcEstimator estimator(&sq);
        ivf.AttachCodes(estimator.MakeCodeStore());
        return SaveIvf(p, ivf);
      },
      [](const std::string& p) {
        Status verified = VerifyFile(p);
        if (!verified.ok()) return verified;
        index::IvfIndex ivf;
        IvfLoadOptions options;
        options.backend = storage::StorageBackend::kMmap;
        return LoadIvf(p, &ivf, options);
      }};

  const std::string path = Path("ivf_mmap_recipe.bin");
  Status save = recipe.save(path);
  ASSERT_TRUE(save.ok()) << save.ToString();
  Status pristine = recipe.load(path);
  ASSERT_TRUE(pristine.ok()) << pristine.ToString();

  const int total = MutateAndExpectCleanFailure(recipe, path, 0xD15C,
                                                /*include_bit_flips=*/true);
  EXPECT_EQ(total, kBitFlipsPerFormat + kRangeCorruptionsPerFormat +
                       kTruncationsPerFormat);
}

TEST_F(FaultInjectionTest, MutationsComposeAndResetRestores) {
  // Sanity-check the harness itself: mutations stack until Reset, and
  // Reset restores the exact original bytes.
  linalg::Matrix m = testing::RandomMatrix(5, 5, 912);
  const std::string path = Path("harness.bin");
  ASSERT_TRUE(SaveMatrix(path, m).ok());
  StatusOr<FaultInjectingFile> opened = FaultInjectingFile::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FaultInjectingFile file = std::move(opened).value();

  const std::vector<uint8_t> original = file.bytes();
  file.FlipBit(20, 3);
  file.CorruptRange(24, 4, 0xff);
  EXPECT_NE(file.bytes(), original);
  file.Truncate(file.size() - 8);
  EXPECT_EQ(file.size(), original.size() - 8);
  file.Reset();
  EXPECT_EQ(file.bytes(), original);

  EXPECT_EQ(FaultInjectingFile::Open(Path("missing.bin")).status().code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace resinfer::persist
