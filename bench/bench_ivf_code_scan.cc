// Code-resident IVF scan: contiguous record streams vs id-gathered codes
// (tracked in BENCH_ivf_code_scan.json).
//
// PR 2's CSR layout made the bucket *ids* contiguous, but every estimator
// still fetched its quantized codes with one random access per candidate.
// This bench quantifies what attaching a bucket-permuted quant::CodeStore
// buys on that hot loop, two ways:
//
//   1. bucket-scan micro: stream every bucket once per query through
//      EstimateBatch (id-gather) vs EstimateBatchCodes (contiguous
//      records) at tau = 0, i.e. pure estimate+prune with no exact
//      refinement — the part of the loop whose memory traffic the layout
//      changes. Reported as candidates/second.
//   2. end-to-end: IvfIndex::Search QPS with and without the attached
//      store (identical results by the EstimateBatchCodes contract; the
//      bench asserts it).
//
// Methods cover both estimator families: PQ/SQ (DdcAny), OPQ, and the
// projection-based DDCres whose records are first-stage heads of the
// rotated rows.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace resinfer::benchutil {
namespace {

struct MethodUnderTest {
  std::string name;
  index::ComputerFactory make;
};

// Streams every bucket of `ivf` once through the estimate/prune stage
// (tau = 0) for each query; returns candidates/second. `use_codes` picks
// the contiguous-record path (requires an attached, tag-matched store).
double BucketScanRate(const index::IvfIndex& ivf,
                      index::DistanceComputer& computer,
                      const linalg::Matrix& queries, bool use_codes,
                      int reps) {
  std::vector<index::EstimateResult> out;
  int64_t candidates = 0;
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (int64_t q = 0; q < queries.rows(); ++q) {
      computer.BeginQuery(queries.Row(q));
      for (int b = 0; b < ivf.num_clusters(); ++b) {
        const int64_t len = ivf.BucketSize(b);
        if (len == 0) continue;
        out.resize(static_cast<std::size_t>(len));
        if (use_codes) {
          computer.EstimateBatchCodes(ivf.BucketCodes(b), ivf.BucketIds(b),
                                      static_cast<int>(len), 0.0f,
                                      out.data());
        } else {
          computer.EstimateBatch(ivf.BucketIds(b), static_cast<int>(len),
                                 0.0f, out.data());
        }
        candidates += len;
      }
    }
  }
  return static_cast<double>(candidates) / timer.ElapsedSeconds();
}

double SearchQps(const index::IvfIndex& ivf,
                 index::DistanceComputer& computer,
                 const linalg::Matrix& queries, int k, int nprobe, int reps,
                 std::vector<std::vector<int64_t>>* result_ids) {
  result_ids->assign(static_cast<std::size_t>(queries.rows()), {});
  int64_t searches = 0;
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (int64_t q = 0; q < queries.rows(); ++q) {
      auto result = ivf.Search(computer, queries.Row(q), k, nprobe);
      ++searches;
      if (rep == 0) {
        auto& ids = (*result_ids)[static_cast<std::size_t>(q)];
        ids.reserve(result.size());
        for (const auto& nb : result) ids.push_back(nb.id);
      }
    }
  }
  return static_cast<double>(searches) / timer.ElapsedSeconds();
}

void Run(const Scale& scale) {
  data::Dataset ds = MakeProxy(resinfer::data::SiftProxySpec(), scale);
  std::printf("dataset %s (n=%lld d=%lld), %lld queries\n", ds.name.c_str(),
              static_cast<long long>(ds.size()),
              static_cast<long long>(ds.dim()),
              static_cast<long long>(ds.queries.rows()));

  index::IvfOptions ivf_options;
  ivf_options.num_clusters =
      static_cast<int>(std::max<int64_t>(16, ds.size() / 150));
  index::IvfIndex gather_ivf = index::IvfIndex::Build(ds.base, ivf_options);
  // The code-resident index shares gather_ivf's exact CSR parts (same
  // buckets by construction, not by k-means determinism); each method
  // re-attaches its own store below.
  linalg::Matrix centroids_copy(gather_ivf.centroids().rows(),
                                gather_ivf.centroids().cols());
  std::copy(gather_ivf.centroids().data(),
            gather_ivf.centroids().data() + gather_ivf.centroids().size(),
            centroids_copy.data());
  index::IvfIndex coded_ivf = index::IvfIndex::FromCsr(
      gather_ivf.size(), std::move(centroids_copy),
      gather_ivf.bucket_offsets(), gather_ivf.ids());

  // Shared trained artifacts.
  core::MethodFactory factory(&ds, ScaledFactoryOptions(scale));
  factory.EnsurePca();
  factory.EnsurePcaRotatedBase();
  factory.EnsureDdcOpqArtifacts();

  core::PqEstimatorData pq = core::BuildPqEstimatorData(ds.base);
  core::SqEstimatorData sq = core::BuildSqEstimatorData(ds.base);
  core::TrainingDataOptions training;
  training.max_queries = scale.CorrectorTrainQueries();
  core::LinearCorrector pq_corrector, sq_corrector;
  {
    core::PqAdcEstimator estimator(&pq);
    pq_corrector =
        core::TrainAnyCorrector(estimator, ds.base, ds.train_queries,
                                training);
  }
  {
    core::SqAdcEstimator estimator(&sq);
    sq_corrector =
        core::TrainAnyCorrector(estimator, ds.base, ds.train_queries,
                                training);
  }

  std::vector<MethodUnderTest> methods;
  methods.push_back({"ddc-pq", [&] {
                       return std::make_unique<core::DdcAnyComputer>(
                           &ds.base,
                           std::make_unique<core::PqAdcEstimator>(&pq),
                           &pq_corrector);
                     }});
  methods.push_back({"ddc-sq", [&] {
                       return std::make_unique<core::DdcAnyComputer>(
                           &ds.base,
                           std::make_unique<core::SqAdcEstimator>(&sq),
                           &sq_corrector);
                     }});
  methods.push_back(
      {"ddc-opq", [&] { return factory.Make(core::kMethodDdcOpq); }});
  methods.push_back(
      {"ddc-res", [&] { return factory.Make(core::kMethodDdcRes); }});

  const int k = 10;
  const int nprobe =
      std::max(4, static_cast<int>(ivf_options.num_clusters / 8));
  const int scan_reps = scale.paper ? 3 : 5;
  const int search_reps = scale.paper ? 3 : 5;

  std::printf("%-10s %16s %16s %8s %12s %12s %8s\n", "method",
              "gather-cand/s", "stream-cand/s", "speedup", "gather-qps",
              "stream-qps", "speedup");
  for (const auto& method : methods) {
    auto gather = method.make();
    auto streamed = method.make();

    if (!coded_ivf.AttachCodesFrom(*streamed)) {
      std::printf("%-10s has no code-resident form, skipped\n",
                  method.name.c_str());
      continue;
    }

    const double gather_rate = BucketScanRate(gather_ivf, *gather,
                                              ds.queries, false, scan_reps);
    const double stream_rate = BucketScanRate(coded_ivf, *streamed,
                                              ds.queries, true, scan_reps);

    std::vector<std::vector<int64_t>> gather_ids, stream_ids;
    const double gather_qps = SearchQps(gather_ivf, *gather, ds.queries, k,
                                        nprobe, search_reps, &gather_ids);
    const double stream_qps = SearchQps(coded_ivf, *streamed, ds.queries, k,
                                        nprobe, search_reps, &stream_ids);
    if (gather_ids != stream_ids) {
      std::printf("%-10s MISMATCH: code-resident search diverged!\n",
                  method.name.c_str());
      continue;
    }

    std::printf("%-10s %16.3e %16.3e %7.2fx %12.0f %12.0f %7.2fx\n",
                method.name.c_str(), gather_rate, stream_rate,
                stream_rate / gather_rate, gather_qps, stream_qps,
                stream_qps / gather_qps);
  }
  std::printf("(nprobe=%d, k=%d, %d clusters)\n", nprobe, k,
              ivf_options.num_clusters);
}

}  // namespace
}  // namespace resinfer::benchutil

int main(int argc, char** argv) {
  if (!resinfer::benchutil::ApplyFlags(argc, argv)) return 2;
  using namespace resinfer::benchutil;
  PrintBanner("ivf_code_scan",
              "code-resident bucket scan vs id-gather (CSR + CodeStore)");
  Run(GetScale());
  std::printf(
      "\nExpected shape: stream-cand/s meets or beats gather-cand/s for "
      "every method (the records are read sequentially instead of one "
      "random access per candidate), with the gap widening as the base "
      "outgrows the caches; end-to-end QPS improves by the scan share of "
      "total search time, and both paths return identical results.\n");
  return 0;
}
