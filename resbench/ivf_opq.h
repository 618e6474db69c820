// The IVF + DDCopq model shared by ivf-opq-batch and ivf-opq-serve, and
// the ivf-opq-batch workload.
#ifndef RESBENCH_IVF_OPQ_H_
#define RESBENCH_IVF_OPQ_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "persist/persist.h"

namespace resbench {

inline constexpr int kIvfOpqNprobe = 16;

// IVF over the raw base with a code-resident DDCopq store: m = 32
// sub-spaces of 4 bits, the packed fast-scan layout.
struct IvfOpq {
  ri::core::DdcOpqArtifacts artifacts;
  ri::index::IvfIndex ivf;
};

inline std::unique_ptr<IvfOpq> BuildIvfOpq(const ri::data::Dataset& ds,
                                           const Sizes& s, Tracer* tracer,
                                           SetupLayers* layers) {
  auto model = std::make_unique<IvfOpq>();
  ri::core::DdcOpqOptions options;
  options.opq.pq.num_subspaces = 32;
  options.opq.pq.nbits = 4;
  options.opq.num_iterations = 1;
  options.opq.pq.max_train_rows = 16384;
  options.opq.pq.kmeans.max_iterations = 10;
  options.training.max_queries = s.corrector_queries;
  double train_s = 0.0;
  TimeLayer(tracer, "core.train_ddc_opq", &train_s, [&] {
    model->artifacts = ri::core::TrainDdcOpq(ds.base, ds.train_queries,
                                             options);
  });
  // TrainDdcOpq reports its own split between OPQ (quant) and the
  // corrector (core).
  layers->quant += model->artifacts.opq_train_seconds;
  layers->core += model->artifacts.corrector_train_seconds;
  const ri::index::IvfOptions ivf_options = IvfBuildOptions(ds.size());
  TimeLayer(tracer, "index.build_ivf", &layers->index, [&] {
    model->ivf = ri::index::IvfIndex::Build(ds.base, ivf_options);
  });
  TimeLayer(tracer, "index.attach_codes", &layers->index, [&] {
    ri::core::DdcOpqComputer computer(&ds.base, &model->artifacts);
    model->ivf.AttachCodesFrom(computer);
  });
  return model;
}

inline ri::index::ComputerFactory IvfOpqFactory(const ri::data::Dataset& ds,
                                                const IvfOpq& model) {
  return [&ds, &model] {
    return std::make_unique<ri::core::DdcOpqComputer>(&ds.base,
                                                      &model.artifacts);
  };
}

inline Answers IvfOpqReference(const ri::data::Dataset& ds,
                               const IvfOpq& model) {
  return PerQueryReference(
      ds.queries, IvfOpqFactory(ds, model),
      [&model](ri::index::DistanceComputer& c, const float* q) {
        return model.ivf.Search(c, q, kTopK, kIvfOpqNprobe);
      });
}

// Save/load round trip of the model through persist, on the memory and
// the mmap backends; loaded answers must match the reference.
inline void PersistProbeIvfOpq(const Options& opt, const ri::data::Dataset& ds,
                               const IvfOpq& model, const Answers& reference,
                               Tracer* tracer, Outcome* o) {
  namespace persist = ri::persist;
  using ri::storage::StorageBackend;
  const ProbeDir dir(opt);
  const std::string ivf_path = dir.path + "/ivf.bin";
  const std::string opq_path = dir.path + "/opq.bin";
  const std::string base_path = dir.path + "/base.bin";
  ri::index::IvfIndex ivf;
  ri::core::DdcOpqArtifacts artifacts;
  persist::MappedMatrix base;
  const auto load_ivf = [&ivf_path](ri::index::IvfIndex* out,
                                    StorageBackend backend) {
    persist::IvfLoadOptions options;
    options.backend = backend;
    return persist::LoadIvf(ivf_path, out, options);
  };
  const std::vector<PersistedFile> files = {
      {ivf_path, [&] { return persist::SaveIvf(ivf_path, model.ivf); },
       [&] { return load_ivf(&ivf, StorageBackend::kMemory); },
       [&] {
         ri::index::IvfIndex mapped;
         return load_ivf(&mapped, StorageBackend::kMmap);
       }},
      {opq_path,
       [&] { return persist::SaveDdcOpqArtifacts(opq_path, model.artifacts); },
       [&] { return persist::LoadDdcOpqArtifacts(opq_path, &artifacts); },
       nullptr},
      {base_path, [&] { return persist::SaveMatrix(base_path, ds.base); },
       [&] {
         return persist::LoadMatrixMapped(base_path, &base,
                                          StorageBackend::kMemory);
       },
       [&] {
         persist::MappedMatrix mapped;
         return persist::LoadMatrixMapped(base_path, &mapped,
                                          StorageBackend::kMmap);
       }}};
  PersistRoundTrip(
      files,
      [&] {
        ri::core::DdcOpqComputer computer(&base.matrix, &artifacts);
        CheckFirstAnswers(
            ds.queries, reference,
            [&](const float* q) {
              return ivf.Search(computer, q, kTopK, kIvfOpqNprobe);
            },
            o);
      },
      tracer, o);
}

// ivf-opq-batch: closed-loop BatchSearchIvf passes, groups of 32 sorted by
// centroid, over the whole query pool.
inline Outcome RunIvfOpqBatch(const Options& opt, const Sizes& s) {
  Outcome o;
  const ri::data::Dataset ds = MakeData(opt.seed, s);
  const GroundTruth gt =
      ri::data::BruteForceKnn(ds.base, FirstRows(ds.queries, s.gt), kTopK);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(&ds.base, nullptr);

  std::unique_ptr<IvfOpq> model = SetupRepeated<IvfOpq>(
      s.setup_reps,
      [&] { return BuildIvfOpq(ds, s, tracer.get(), &o.setup_layers); },
      &o.setup_s, &o.setup_layers);
  const ri::index::ComputerFactory make = IvfOpqFactory(ds, *model);
  const Answers reference = IvfOpqReference(ds, *model);
  o.reference_checksum = Checksum(reference);

  ri::index::BatchOptions batch_options;
  batch_options.num_threads = kWorkers;
  batch_options.group_size = kGroupSize;
  const auto pass = [&](const ri::index::ComputerFactory& factory) {
    return ri::index::BatchSearchIvf(model->ivf, factory, ds.queries, kTopK,
                                     kIvfOpqNprobe, batch_options);
  };
  MeasureClosedLoop(opt, true, reference, gt, make, tracer.get(), pass, &o);

  if (opt.trace) {
    o.dim = ds.dim();
    const int64_t start = NowNs();
    std::vector<int32_t> probes(
        static_cast<std::size_t>(ds.queries.rows() * kIvfOpqNprobe));
    ri::quant::NearestCentroidsBatch(model->ivf.centroids(), ds.queries, 0,
                                     ds.queries.rows(), kIvfOpqNprobe,
                                     probes.data());
    o.rank_us = static_cast<double>(NowNs() - start) / 1e3 /
                static_cast<double>(ds.queries.rows());
    RunKernelProbes(opt, ds.base, ds.queries.Row(0), &o);
    PersistProbeIvfOpq(opt, ds, *model, reference, tracer.get(), &o);
    FinishTrace(opt, tracer.get(), &o);
  }
  return o;
}

}  // namespace resbench

#endif  // RESBENCH_IVF_OPQ_H_
