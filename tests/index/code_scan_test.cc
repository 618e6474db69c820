// Code-resident scan conformance: for every computer with a code-resident
// form, EstimateBatchCodes over a bucket-contiguous record stream must be
// BIT-IDENTICAL to the id-gather path — same prune decisions, same
// distances, same ComputerStats — on randomized buckets (duplicates,
// out-of-order ids) including non-multiple-of-4 tails, across SIMD levels.
// Also covers the IvfIndex plumbing: a search through an attached CodeStore
// returns exactly the gather search's results, and mismatched tags fall
// back to the gather path instead of misreading records.
#include <algorithm>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "core/ddc_rq_cascade.h"
#include "index/distance_computer.h"
#include "index/ivf_index.h"
#include "quant/code_store.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "test_util.h"

namespace resinfer::index {
namespace {

struct CodeScanFixture {
  data::Dataset ds = testing::SmallDataset(1100, 32, 1.0, 57, 6, 160);

  core::PqEstimatorData pq;
  core::RqEstimatorData rq;
  core::SqEstimatorData sq;
  core::LinearCorrector pq_corrector, rq_corrector, sq_corrector;

  linalg::PcaModel pca;
  linalg::Matrix rotated;
  core::DdcPcaArtifacts pca_artifacts;
  core::DdcOpqArtifacts opq_artifacts;
  core::DdcRqCascadeArtifacts cascade_artifacts;

  CodeScanFixture() {
    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    quant::RqOptions rq_options;
    rq_options.num_stages = 4;
    rq_options.nbits = 6;
    rq = core::BuildRqEstimatorData(ds.base, rq_options);
    sq = core::BuildSqEstimatorData(ds.base);

    core::TrainingDataOptions training;
    training.max_queries = 60;
    {
      core::PqAdcEstimator estimator(&pq);
      pq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::RqAdcEstimator estimator(&rq);
      rq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }
    {
      core::SqAdcEstimator estimator(&sq);
      sq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                             ds.train_queries, training);
    }

    pca = linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
    rotated = pca.TransformBatch(ds.base.data(), ds.size());
    core::DdcPcaOptions pca_options;
    pca_options.init_dim = 8;
    pca_options.delta_dim = 16;
    pca_options.training.max_queries = 60;
    pca_artifacts = core::TrainDdcPca(pca, rotated, ds.base,
                                      ds.train_queries, pca_options);

    core::DdcOpqOptions opq_options;
    opq_options.training.max_queries = 60;
    opq_artifacts = core::TrainDdcOpq(ds.base, ds.train_queries, opq_options);

    core::DdcRqCascadeOptions cascade_options;
    cascade_options.levels = {1, 3};
    cascade_options.rq.num_stages = 3;
    cascade_options.rq.nbits = 6;
    cascade_options.training.max_queries = 60;
    cascade_artifacts =
        core::TrainDdcRqCascade(ds.base, ds.train_queries, cascade_options);
  }

  using ComputerFactory = std::function<std::unique_ptr<DistanceComputer>()>;

  // Every computer with a code-resident form, plus a factory so the
  // sequential reference and the code-scan run use independent instances.
  std::vector<std::pair<std::string, ComputerFactory>> Factories() {
    std::vector<std::pair<std::string, ComputerFactory>> factories;
    factories.emplace_back("ddc-pq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq),
          &pq_corrector);
    });
    factories.emplace_back("ddc-rq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::RqAdcEstimator>(&rq),
          &rq_corrector);
    });
    factories.emplace_back("ddc-sq", [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::SqAdcEstimator>(&sq),
          &sq_corrector);
    });
    factories.emplace_back("ddc-opq", [this] {
      return std::make_unique<core::DdcOpqComputer>(&ds.base,
                                                    &opq_artifacts);
    });
    factories.emplace_back("ddc-pca", [this] {
      return std::make_unique<core::DdcPcaComputer>(&pca, &rotated,
                                                    &pca_artifacts);
    });
    factories.emplace_back("ddc-res", [this] {
      core::DdcResOptions options;
      options.init_dim = 8;
      options.delta_dim = 8;
      return std::make_unique<core::DdcResComputer>(&pca, &rotated, options);
    });
    factories.emplace_back("ddc-rq-cascade", [this] {
      return std::make_unique<core::DdcRqCascadeComputer>(
          &ds.base, &cascade_artifacts);
    });
    return factories;
  }
};

CodeScanFixture& Fixture() {
  static CodeScanFixture* fixture = new CodeScanFixture();
  return *fixture;
}

// A randomized "bucket": out-of-order, with duplicates.
std::vector<int64_t> RandomBucket(int count, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<std::size_t>(count));
  for (auto& id : ids) {
    id = static_cast<int64_t>(rng.Uniform() * static_cast<double>(n - 1));
  }
  return ids;
}

void ExpectCodeScanMatchesGather(DistanceComputer& gather,
                                 DistanceComputer& streamed,
                                 const quant::CodeStore& store,
                                 const float* query,
                                 const std::vector<int64_t>& ids, float tau,
                                 const std::string& label) {
  // Bucket-contiguous records for exactly these candidates, in order.
  quant::CodeStore bucket = store.PermutedBy(ids);

  gather.BeginQuery(query);
  streamed.BeginQuery(query);
  gather.stats().Reset();
  streamed.stats().Reset();

  std::vector<EstimateResult> want(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    want[i] = gather.EstimateWithThreshold(ids[i], tau);
  }
  std::vector<EstimateResult> got(ids.size());
  streamed.EstimateBatchCodes(bucket.data(), ids.data(),
                              static_cast<int>(ids.size()), tau, got.data());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(want[i].pruned, got[i].pruned)
        << label << " count=" << ids.size() << " tau=" << tau << " i=" << i;
    // Bit-identical, not just close.
    ASSERT_EQ(want[i].distance, got[i].distance)
        << label << " count=" << ids.size() << " tau=" << tau << " i=" << i;
  }
  const ComputerStats& a = gather.stats();
  const ComputerStats& b = streamed.stats();
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.pruned, b.pruned) << label;
  EXPECT_EQ(a.dims_scanned, b.dims_scanned) << label;
  EXPECT_EQ(a.exact_computations, b.exact_computations) << label;
}

TEST(CodeScanTest, StoreLayoutMatchesComputerContract) {
  CodeScanFixture& f = Fixture();
  for (auto& [name, factory] : f.Factories()) {
    auto computer = factory();
    ASSERT_FALSE(computer->code_tag().empty()) << name;
    quant::CodeStore store = computer->MakeCodeStore();
    ASSERT_FALSE(store.empty()) << name;
    EXPECT_EQ(store.tag(), computer->code_tag()) << name;
    EXPECT_EQ(store.size(), computer->size()) << name;
  }
}

// FingerprintArray chained over the given float arrays, after `first`.
uint64_t Fingerprint(uint64_t first,
                     std::initializer_list<const std::vector<float>*> arrays) {
  uint64_t f = first;
  for (const std::vector<float>* a : arrays) {
    f = quant::FingerprintArray(a->data(), a->size() * sizeof(float), f);
  }
  return f;
}

uint64_t Fingerprint(const std::vector<uint8_t>& codes,
                     std::initializer_list<const std::vector<float>*> arrays) {
  return Fingerprint(quant::FingerprintArray(codes.data(), codes.size()),
                     arrays);
}

TEST(CodeScanTest, CodeTagRecipeIsPinned) {
  // The tag is what a persisted store is matched against: a change to its
  // recipe (method name, record layout, or what the fingerprint covers)
  // silently demotes every saved bundle to the gather path. Pin it per
  // computer against the artifacts the fixture built (D = 32).
  CodeScanFixture& f = Fixture();
  const int64_t n = f.ds.size();
  std::vector<float> norms(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    norms[static_cast<std::size_t>(i)] = simd::Norm2Sqr(
        f.rotated.Row(i), static_cast<std::size_t>(f.rotated.cols()));
  }
  const uint64_t rotated_fp = quant::FingerprintArray(
      f.rotated.data(), static_cast<std::size_t>(f.rotated.size()) *
                            sizeof(float));
  const core::DdcOpqArtifacts& opq = f.opq_artifacts;
  const core::DdcRqCascadeArtifacts& cascade = f.cascade_artifacts;
  const std::vector<std::pair<std::string, std::string>> want = {
      {"ddc-pq",
       quant::MakeCodeTag("pq-adc", 8, 1, n,
                          Fingerprint(f.pq.codes, {&f.pq.recon_errors}),
                          f.pq.pq.layout().packing)},
      {"ddc-rq",
       quant::MakeCodeTag(
           "rq-adc", 4, 2, n,
           Fingerprint(f.rq.codes, {&f.rq.recon_norms, &f.rq.recon_errors}),
           f.rq.rq.layout().packing)},
      {"ddc-sq",
       quant::MakeCodeTag("sq8-adc", 32, 1, n,
                          Fingerprint(f.sq.codes, {&f.sq.recon_errors}))},
      {"ddc-opq",
       quant::MakeCodeTag("ddc-opq", 8, 1, n,
                          Fingerprint(opq.codes, {&opq.recon_errors}),
                          opq.opq.codebook().layout().packing)},
      {"ddc-pca", quant::MakeCodeTag("ddc-pca", 8 * 4, 0, n, rotated_fp)},
      {"ddc-res", quant::MakeCodeTag("ddc-res", 8 * 4, 1, n,
                                     Fingerprint(rotated_fp, {&norms}))},
      {"ddc-rq-cascade",
       quant::MakeCodeTag(
           "ddc-rq-cascade", 3, 4, n,
           Fingerprint(cascade.codes,
                       {&cascade.level_norms, &cascade.level_errors}),
           cascade.rq.layout().packing)},
  };
  auto factories = f.Factories();
  ASSERT_EQ(factories.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(factories[i].first, want[i].first);
    EXPECT_EQ(factories[i].second()->code_tag(), want[i].second)
        << want[i].first;
  }
}

TEST(CodeScanTest, BitIdenticalToGatherAcrossComputersAndLevels) {
  CodeScanFixture& f = Fixture();

  const std::vector<simd::SimdLevel> levels = simd::SupportedLevels();

  for (auto& [name, factory] : f.Factories()) {
    auto gather = factory();
    auto streamed = factory();
    quant::CodeStore store = streamed->MakeCodeStore();
    for (simd::SimdLevel level : levels) {
      simd::ScopedSimdLevel guard(level);
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        const float* query = f.ds.queries.Row(q);
        FlatDistanceComputer exact(f.ds.base.data(), f.ds.size(),
                                   f.ds.dim());
        exact.BeginQuery(query);
        const float mid_tau = exact.ExactDistance(q * 7 + 3);
        for (float tau : {kInfDistance, 0.0f, mid_tau}) {
          // Bucket sizes straddling the 4-wide kernel groups and the
          // 16/32-candidate chunks, most with a non-multiple-of-4 tail.
          for (int count : {1, 2, 3, 4, 5, 7, 15, 31, 33, 64, 129}) {
            ExpectCodeScanMatchesGather(
                *gather, *streamed, store, query,
                RandomBucket(count, f.ds.size(),
                             static_cast<uint64_t>(q * 1000 + count)),
                tau, name + "/" + simd::SimdLevelName(level));
          }
        }
      }
    }
  }
}

TEST(CodeScanTest, IvfSearchWithAttachedCodesMatchesGatherSearch) {
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 24;
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);

  for (auto& [name, factory] : f.Factories()) {
    auto gather_computer = factory();
    auto code_computer = factory();

    IvfIndex coded = IvfIndex::Build(f.ds.base, options);
    ASSERT_TRUE(coded.AttachCodesFrom(*code_computer)) << name;
    ASSERT_TRUE(coded.has_codes());
    EXPECT_EQ(coded.codes().size(), coded.size());
    EXPECT_EQ(coded.codes().tag(), code_computer->code_tag());

    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      auto want = plain.Search(*gather_computer, f.ds.queries.Row(q),
                               /*k=*/10, /*nprobe=*/6);
      auto got = coded.Search(*code_computer, f.ds.queries.Row(q),
                              /*k=*/10, /*nprobe=*/6);
      ASSERT_EQ(want.size(), got.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << name << " q=" << q;
        EXPECT_EQ(want[i].distance, got[i].distance) << name << " q=" << q;
      }
    }
    // The whole sweep must advance stats identically too.
    EXPECT_EQ(gather_computer->stats().candidates,
              code_computer->stats().candidates)
        << name;
    EXPECT_EQ(gather_computer->stats().pruned, code_computer->stats().pruned)
        << name;
    EXPECT_EQ(gather_computer->stats().dims_scanned,
              code_computer->stats().dims_scanned)
        << name;
    EXPECT_EQ(gather_computer->stats().exact_computations,
              code_computer->stats().exact_computations)
        << name;
  }
}

TEST(CodeScanTest, RotatedRowRecordsHoldOnlyTheFirstStageHead) {
  // DDCpca/DDCres records carry the first stage's head of the rotated row
  // (plus DDCres's norm sidecar), not the whole row: the full rows stay in
  // the rotated base, where only first-stage survivors read them.
  CodeScanFixture& f = Fixture();
  const int64_t float_bytes = static_cast<int64_t>(sizeof(float));
  IvfOptions options;
  options.num_clusters = 16;

  core::DdcPcaComputer pca(&f.pca, &f.rotated, &f.pca_artifacts);
  IvfIndex pca_ivf = IvfIndex::Build(f.ds.base, options);
  ASSERT_TRUE(pca_ivf.AttachCodesFrom(pca));
  EXPECT_EQ(pca_ivf.codes().code_size(),
            f.pca_artifacts.stage_dims[0] * float_bytes);
  EXPECT_EQ(pca_ivf.codes().num_sidecars(), 0);
  EXPECT_LT(pca_ivf.codes().code_size(), f.ds.dim() * float_bytes);

  core::DdcResOptions res_options;
  res_options.init_dim = 8;
  for (bool incremental : {true, false}) {
    res_options.incremental = incremental;
    core::DdcResComputer res(&f.pca, &f.rotated, res_options);
    IvfIndex res_ivf = IvfIndex::Build(f.ds.base, options);
    ASSERT_TRUE(res_ivf.AttachCodesFrom(res));
    EXPECT_EQ(res_ivf.codes().code_size(), res_options.init_dim * float_bytes);
    EXPECT_EQ(res_ivf.codes().num_sidecars(), 1);
    EXPECT_EQ(res_ivf.codes().stride(),
              quant::CodeRecordStride(res_options.init_dim * float_bytes, 1));
  }

  // No test stage (init_dim >= D): nothing to stream, so no code form.
  res_options.init_dim = f.ds.dim();
  core::DdcResComputer exact_only(&f.pca, &f.rotated, res_options);
  EXPECT_TRUE(exact_only.code_tag().empty());
  IvfIndex none = IvfIndex::Build(f.ds.base, options);
  EXPECT_FALSE(none.AttachCodesFrom(exact_only));
}

// A store in the full-row layout rotated-row records had before they were
// cut to the first-stage head: record = the whole rotated row (plus
// ||x||^2 for DDCres), tagged with the full-row code size.
quant::CodeStore FullRowStore(const std::string& method,
                              const linalg::Matrix& rotated,
                              const std::vector<float>* norms) {
  const int64_t code_size =
      rotated.cols() * static_cast<int64_t>(sizeof(float));
  const int sidecars = norms != nullptr ? 1 : 0;
  uint64_t f = quant::FingerprintArray(
      rotated.data(), static_cast<std::size_t>(rotated.size()) * sizeof(float));
  if (norms != nullptr) {
    f = quant::FingerprintArray(norms->data(), norms->size() * sizeof(float),
                                f);
  }
  quant::CodeStore store(
      rotated.rows(), code_size, sidecars,
      quant::MakeCodeTag(method, code_size, sidecars, rotated.rows(), f));
  for (int64_t i = 0; i < rotated.rows(); ++i) {
    store.SetCode(i, reinterpret_cast<const uint8_t*>(rotated.Row(i)));
    if (norms != nullptr) store.SetSidecar(i, 0, (*norms)[i]);
  }
  return store;
}

TEST(CodeScanTest, FullRowStoresFallBackToGatherWithIdenticalAnswers) {
  // An index saved before the head layout carries full-row records. Their
  // tag names the old code size, so it matches no current computer:
  // Search and SearchBatchRange take the gather path and answer exactly
  // as an index without codes does.
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 16;
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);

  std::vector<float> norms(static_cast<std::size_t>(f.rotated.rows()));
  for (int64_t i = 0; i < f.rotated.rows(); ++i) {
    norms[static_cast<std::size_t>(i)] = simd::Norm2Sqr(
        f.rotated.Row(i), static_cast<std::size_t>(f.rotated.cols()));
  }
  const int64_t full_bytes =
      f.ds.dim() * static_cast<int64_t>(sizeof(float));
  for (auto& [name, factory] : f.Factories()) {
    if (name != "ddc-pca" && name != "ddc-res") continue;
    IvfIndex legacy = IvfIndex::Build(f.ds.base, options);
    legacy.AttachCodes(FullRowStore(name, f.rotated,
                                    name == "ddc-res" ? &norms : nullptr));
    ASSERT_EQ(legacy.codes().code_size(), full_bytes) << name;
    EXPECT_NE(legacy.codes().tag().find(
                  "/cs" + std::to_string(full_bytes) + "/"),
              std::string::npos)
        << name;

    auto reference = factory();
    auto computer = factory();
    ASSERT_NE(legacy.codes().tag(), computer->code_tag()) << name;
    for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
      auto want = plain.Search(*reference, f.ds.queries.Row(q), 10, 6);
      auto got = legacy.Search(*computer, f.ds.queries.Row(q), 10, 6);
      ASSERT_EQ(want.size(), got.size()) << name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << name << " q=" << q;
        EXPECT_EQ(want[i].distance, got[i].distance) << name << " q=" << q;
      }
    }
    auto batch_want = plain.SearchBatch(*reference, f.ds.queries, 10, 6);
    auto batch_got = legacy.SearchBatch(*computer, f.ds.queries, 10, 6);
    ASSERT_EQ(batch_want.size(), batch_got.size()) << name;
    for (std::size_t q = 0; q < batch_want.size(); ++q) {
      ASSERT_EQ(batch_want[q].size(), batch_got[q].size()) << name;
      for (std::size_t i = 0; i < batch_want[q].size(); ++i) {
        EXPECT_EQ(batch_want[q][i].id, batch_got[q][i].id) << name;
        EXPECT_EQ(batch_want[q][i].distance, batch_got[q][i].distance)
            << name;
      }
    }
    EXPECT_EQ(reference->stats().candidates, computer->stats().candidates)
        << name;
    EXPECT_EQ(reference->stats().pruned, computer->stats().pruned) << name;
    EXPECT_EQ(reference->stats().dims_scanned,
              computer->stats().dims_scanned)
        << name;
    EXPECT_EQ(reference->stats().exact_computations,
              computer->stats().exact_computations)
        << name;
  }
}

TEST(CodeScanTest, TagFingerprintsContentNotJustLayout) {
  // Same method, same shapes, byte-different artifacts (a retrained model)
  // must produce a different tag, so a stale attached/persisted store
  // falls back to the gather path instead of being streamed as current.
  CodeScanFixture& f = Fixture();
  core::SqEstimatorData modified = f.sq;
  modified.recon_errors[0] += 1.0f;
  core::SqAdcEstimator current(&f.sq);
  core::SqAdcEstimator retrained(&modified);
  EXPECT_NE(current.code_tag(), retrained.code_tag());
  // And stable across instances over the same data.
  core::SqAdcEstimator again(&f.sq);
  EXPECT_EQ(current.code_tag(), again.code_tag());
}

TEST(CodeScanTest, MismatchedTagFallsBackToGather) {
  CodeScanFixture& f = Fixture();
  IvfOptions options;
  options.num_clusters = 16;

  // Attach a ddc-pq store, then search with a ddc-sq computer: tags differ,
  // so the index must take the gather path (and still be correct).
  auto pq_computer = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::PqAdcEstimator>(&f.pq),
      &f.pq_corrector);
  IvfIndex ivf = IvfIndex::Build(f.ds.base, options);
  ASSERT_TRUE(ivf.AttachCodesFrom(*pq_computer));

  auto sq_computer = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::SqAdcEstimator>(&f.sq),
      &f.sq_corrector);
  auto sq_reference = std::make_unique<core::DdcAnyComputer>(
      &f.ds.base, std::make_unique<core::SqAdcEstimator>(&f.sq),
      &f.sq_corrector);
  IvfIndex plain = IvfIndex::Build(f.ds.base, options);

  ASSERT_NE(ivf.codes().tag(), sq_computer->code_tag());
  auto got = ivf.Search(*sq_computer, f.ds.queries.Row(0), 10, 4);
  auto want = plain.Search(*sq_reference, f.ds.queries.Row(0), 10, 4);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].distance, got[i].distance);
  }
}

TEST(CodeScanTest, DefaultEstimateBatchCodesIgnoresStreamAndGathers) {
  // Computers without code support (flat here, HNSW's exact path in
  // general) keep working through the base-class fallback.
  CodeScanFixture& f = Fixture();
  FlatDistanceComputer computer(f.ds.base.data(), f.ds.size(), f.ds.dim());
  EXPECT_TRUE(computer.code_tag().empty());
  EXPECT_TRUE(computer.MakeCodeStore().empty());

  computer.BeginQuery(f.ds.queries.Row(0));
  int64_t ids[3] = {4, 9, 2};
  EstimateResult out[3];
  computer.EstimateBatchCodes(/*codes=*/nullptr, ids, 3, kInfDistance, out);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(out[i].pruned);
    EXPECT_EQ(out[i].distance, computer.ExactDistance(ids[i]));
  }
}

}  // namespace
}  // namespace resinfer::index
