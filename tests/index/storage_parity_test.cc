// Storage-backend scan parity (ctest label: storage-parity).
//
// The PR 10 contract: a v6-saved index serves searches directly from an
// mmap'd file with results AND ComputerStats bit-identical to the memory
// backend, for every estimator route and every supported SIMD level. Both
// backends expose the same bytes at the same 64-byte alignment, so the
// scan kernels cannot tell them apart — this suite is the proof, and the
// CI matrix re-runs it (plus the serving suite) with RESINFER_STORAGE=mmap
// to cover the env-default path end to end.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_pca.h"
#include "core/training_data.h"
#include "index/batch.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "persist/persist.h"
#include "quant/code_store.h"
#include "simd/dispatch.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/macros.h"

#ifndef RESINFER_SOURCE_DIR
#error "RESINFER_SOURCE_DIR must point at the repository root"
#endif

namespace resinfer::index {
namespace {

using storage::StorageBackend;

constexpr int kK = 10;
constexpr int kNprobe = 6;

// One estimator route under test: the v6 file saved with its codes, and
// how to make a fresh computer whose code_tag matches them for an index
// loaded with a given backend. Routes whose survivors read a cold tier
// (ddc-pca's rotated rows) load that tier through the same backend; the PQ
// routes ignore it.
struct Route {
  std::string name;
  std::string path;
  std::function<std::unique_ptr<DistanceComputer>(StorageBackend)> make;
};

// Trained artifacts + v6 files on disk, built once (training dominates
// the suite's runtime). Three routes: a byte-per-code PQ store, a packed
// 4-bit one, and DDCpca's float heads whose survivors continue on rotated
// rows loaded by LoadMatrixMapped — so every record layout, and the
// head-stream + row-gather split, cross the mmap boundary.
struct ParityFixture {
  data::Dataset ds = testing::SmallDataset(1200, 32, 1.0, 205, 8, 140);
  core::PqEstimatorData pq_bytes;
  core::PqEstimatorData pq_packed;
  core::LinearCorrector bytes_corrector, packed_corrector;
  linalg::PcaModel pca;
  core::DdcPcaArtifacts pca_artifacts;
  persist::MappedMatrix rotated_memory, rotated_mapped;
  std::filesystem::path dir;
  std::string bytes_path, packed_path, pca_path;

  ParityFixture() {
    index::IvfOptions options;
    options.num_clusters = 16;
    index::IvfIndex ivf = index::IvfIndex::Build(ds.base, options);

    core::TrainingDataOptions training;
    training.max_queries = 60;
    {
      quant::PqOptions pq_options;
      pq_options.num_subspaces = 8;
      pq_options.nbits = 6;
      pq_bytes = core::BuildPqEstimatorData(ds.base, pq_options);
      core::PqAdcEstimator estimator(&pq_bytes);
      bytes_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                                ds.train_queries, training);
    }
    {
      quant::PqOptions pq_options;
      pq_options.num_subspaces = 8;
      pq_options.nbits = 4;
      pq_packed = core::BuildPqEstimatorData(ds.base, pq_options);
      core::PqAdcEstimator estimator(&pq_packed);
      packed_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                                 ds.train_queries, training);
    }
    pca = linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
    const linalg::Matrix rotated =
        pca.TransformBatch(ds.base.data(), ds.size());
    {
      core::DdcPcaOptions pca_options;
      pca_options.init_dim = 8;
      pca_options.delta_dim = 16;
      pca_options.training = training;
      pca_artifacts = core::TrainDdcPca(pca, rotated, ds.base,
                                        ds.train_queries, pca_options);
    }

    // Unique per process: ctest -j runs each case (and the label twin) in
    // its own process.
    dir = std::filesystem::temp_directory_path() /
          ("resinfer_storage_parity_test_" +
           std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::create_directories(dir);
    bytes_path = (dir / "ivf_bytes_v6.bin").string();
    packed_path = (dir / "ivf_packed_v6.bin").string();
    pca_path = (dir / "ivf_pca_v6.bin").string();
    const std::string rotated_path = (dir / "rotated.bin").string();

    ivf.AttachCodesFrom(*BytesFactory()());
    util::Status s = persist::SaveIvf(bytes_path, ivf);
    RESINFER_CHECK(s.ok());  // lint: allow-check
    ivf.AttachCodesFrom(*PackedFactory()());
    s = persist::SaveIvf(packed_path, ivf);
    RESINFER_CHECK(s.ok());  // lint: allow-check
    ivf.AttachCodesFrom(core::DdcPcaComputer(&pca, &rotated, &pca_artifacts));
    s = persist::SaveIvf(pca_path, ivf);
    RESINFER_CHECK(s.ok());  // lint: allow-check
    s = persist::SaveMatrix(rotated_path, rotated);
    RESINFER_CHECK(s.ok());  // lint: allow-check
    s = persist::LoadMatrixMapped(rotated_path, &rotated_memory,
                                  StorageBackend::kMemory);
    RESINFER_CHECK(s.ok());  // lint: allow-check
    s = persist::LoadMatrixMapped(rotated_path, &rotated_mapped,
                                  StorageBackend::kMmap);
    RESINFER_CHECK(s.ok());  // lint: allow-check
  }
  ~ParityFixture() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  ParityFixture(const ParityFixture&) = delete;
  ParityFixture& operator=(const ParityFixture&) = delete;

  index::ComputerFactory BytesFactory() {
    return [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq_bytes),
          &bytes_corrector);
    };
  }
  index::ComputerFactory PackedFactory() {
    return [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq_packed),
          &packed_corrector);
    };
  }

  std::vector<Route> Routes() {
    return {{"pq-bytes", bytes_path,
             [this](StorageBackend) { return BytesFactory()(); }},
            {"pq-packed", packed_path,
             [this](StorageBackend) { return PackedFactory()(); }},
            {"ddc-pca", pca_path, [this](StorageBackend backend) {
               const persist::MappedMatrix& rotated =
                   backend == StorageBackend::kMmap ? rotated_mapped
                                                    : rotated_memory;
               return std::make_unique<core::DdcPcaComputer>(
                   &pca, &rotated.matrix, &pca_artifacts);
             }}};
  }
};

ParityFixture& Fixture() {
  static ParityFixture fixture;
  return fixture;
}

index::IvfIndex LoadWith(const std::string& path, StorageBackend backend) {
  persist::IvfLoadOptions options;
  options.backend = backend;
  index::IvfIndex ivf;
  util::Status s = persist::LoadIvf(path, &ivf, options);
  EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
  return ivf;
}

void ExpectSameStats(const ComputerStats& want, const ComputerStats& got,
                     const std::string& label) {
  EXPECT_EQ(want.candidates, got.candidates) << label;
  EXPECT_EQ(want.pruned, got.pruned) << label;
  EXPECT_EQ(want.dims_scanned, got.dims_scanned) << label;
  EXPECT_EQ(want.exact_computations, got.exact_computations) << label;
}

TEST(StorageParityTest, MmapLoadIsAZeroCopyViewOfTheFile) {
  ParityFixture& f = Fixture();
  // The ddc-pca route's cold tier crosses the same boundary.
  EXPECT_EQ(f.rotated_memory.backend, StorageBackend::kMemory);
  EXPECT_EQ(f.rotated_mapped.backend, StorageBackend::kMmap);
  for (const Route& route : f.Routes()) {
    index::IvfIndex memory = LoadWith(route.path, StorageBackend::kMemory);
    index::IvfIndex mapped = LoadWith(route.path, StorageBackend::kMmap);
    ASSERT_TRUE(memory.has_codes()) << route.name;
    ASSERT_TRUE(mapped.has_codes()) << route.name;

    EXPECT_EQ(memory.codes().storage_backend(), StorageBackend::kMemory);
    EXPECT_EQ(mapped.codes().storage_backend(), StorageBackend::kMmap);
    EXPECT_TRUE(mapped.codes().is_view()) << route.name;

    // Identical bytes, identical layout metadata.
    ASSERT_EQ(memory.codes().data_bytes(), mapped.codes().data_bytes());
    EXPECT_EQ(std::vector<uint8_t>(memory.codes().data(),
                                   memory.codes().data() +
                                       memory.codes().data_bytes()),
              std::vector<uint8_t>(mapped.codes().data(),
                                   mapped.codes().data() +
                                       mapped.codes().data_bytes()))
        << route.name;
    EXPECT_EQ(memory.codes().tag(), mapped.codes().tag());
    EXPECT_EQ(memory.codes().stride(), mapped.codes().stride());
    EXPECT_EQ(memory.codes().packing(), mapped.codes().packing());

    // The v6 pad puts the first record on a 64-byte boundary inside the
    // mapping — the same alignment AllocateAligned gives the heap copy.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mapped.codes().data()) % 64, 0u)
        << route.name;
  }
}

TEST(StorageParityTest, SearchBitIdenticalAcrossBackendsAtEveryLevel) {
  ParityFixture& f = Fixture();
  for (const Route& route : f.Routes()) {
    index::IvfIndex memory = LoadWith(route.path, StorageBackend::kMemory);
    index::IvfIndex mapped = LoadWith(route.path, StorageBackend::kMmap);
    auto memory_computer = route.make(StorageBackend::kMemory);
    auto mapped_computer = route.make(StorageBackend::kMmap);
    // Both indexes must stream code-resident — a silent fall-back to the
    // gather path would make this suite vacuous.
    ASSERT_EQ(memory.codes().tag(), memory_computer->code_tag())
        << route.name;
    ASSERT_EQ(mapped.codes().tag(), mapped_computer->code_tag())
        << route.name;

    for (simd::SimdLevel level : simd::SupportedLevels()) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        const std::string label = route.name + " level=" +
                                  simd::SimdLevelName(level) +
                                  " q=" + std::to_string(q);
        memory_computer->stats().Reset();
        mapped_computer->stats().Reset();
        auto want = memory.Search(*memory_computer, f.ds.queries.Row(q),
                                  kK, kNprobe);
        auto got = mapped.Search(*mapped_computer, f.ds.queries.Row(q),
                                 kK, kNprobe);
        ASSERT_EQ(want.size(), got.size()) << label;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i].id, got[i].id) << label << " rank " << i;
          ASSERT_EQ(want[i].distance, got[i].distance)
              << label << " rank " << i;
        }
        ExpectSameStats(memory_computer->stats(), mapped_computer->stats(),
                        label);
      }
    }
  }
}

TEST(StorageParityTest, SearchBatchBitIdenticalAcrossBackends) {
  ParityFixture& f = Fixture();
  for (const Route& route : f.Routes()) {
    index::IvfIndex memory = LoadWith(route.path, StorageBackend::kMemory);
    index::IvfIndex mapped = LoadWith(route.path, StorageBackend::kMmap);
    auto memory_computer = route.make(StorageBackend::kMemory);
    auto mapped_computer = route.make(StorageBackend::kMmap);
    for (simd::SimdLevel level : simd::SupportedLevels()) {
      simd::ScopedSimdLevel guard(level);
      memory_computer->stats().Reset();
      mapped_computer->stats().Reset();
      auto want = memory.SearchBatch(*memory_computer, f.ds.queries, kK,
                                     kNprobe);
      auto got = mapped.SearchBatch(*mapped_computer, f.ds.queries, kK,
                                    kNprobe);
      const std::string label =
          route.name + " level=" + simd::SimdLevelName(level);
      ASSERT_EQ(want.size(), got.size()) << label;
      for (std::size_t q = 0; q < want.size(); ++q) {
        ASSERT_EQ(want[q].size(), got[q].size()) << label << " q=" << q;
        for (std::size_t i = 0; i < want[q].size(); ++i) {
          ASSERT_EQ(want[q][i].id, got[q][i].id)
              << label << " q=" << q << " rank " << i;
          ASSERT_EQ(want[q][i].distance, got[q][i].distance)
              << label << " q=" << q << " rank " << i;
        }
      }
      ExpectSameStats(memory_computer->stats(), mapped_computer->stats(),
                      label);
    }
  }
}

TEST(StorageParityTest, EnvironmentDefaultSelectsTheBackend) {
  ParityFixture& f = Fixture();
  const char* saved = std::getenv("RESINFER_STORAGE");
  const std::string restore = saved != nullptr ? saved : "";

  ::setenv("RESINFER_STORAGE", "mmap", 1);
  index::IvfIndex mapped;
  ASSERT_TRUE(persist::LoadIvf(f.bytes_path, &mapped).ok());
  EXPECT_EQ(mapped.codes().storage_backend(), StorageBackend::kMmap);

  ::unsetenv("RESINFER_STORAGE");
  index::IvfIndex memory;
  ASSERT_TRUE(persist::LoadIvf(f.bytes_path, &memory).ok());
  EXPECT_EQ(memory.codes().storage_backend(), StorageBackend::kMemory);

  if (saved != nullptr) ::setenv("RESINFER_STORAGE", restore.c_str(), 1);
}

TEST(StorageParityTest, PreV6FilesFallBackToTheMemoryBackend) {
  // Frozen v5 fixture: the count-prefixed code section cannot be mapped in
  // place, so an mmap request degrades to a heap load and says so via
  // storage_backend() — never an error, never silently different results.
  const std::string path = std::string(RESINFER_SOURCE_DIR) +
                           "/tests/persist/testdata/ivf_v5.bin";
  index::IvfIndex ivf = LoadWith(path, StorageBackend::kMmap);
  ASSERT_TRUE(ivf.has_codes());
  EXPECT_EQ(ivf.codes().storage_backend(), StorageBackend::kMemory);
}

TEST(StorageParityTest, LoadIvfIndexFactoryMatchesTheOutParamForm) {
  ParityFixture& f = Fixture();
  persist::IvfLoadOptions options;
  options.backend = StorageBackend::kMmap;
  auto loaded = persist::LoadIvfIndex(f.bytes_path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().codes().storage_backend(), StorageBackend::kMmap);
  EXPECT_EQ(loaded.value().size(), f.ds.size());

  auto missing = persist::LoadIvfIndex(f.bytes_path + ".missing");
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace resinfer::index
