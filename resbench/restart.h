// ivf-pca-restart: a saved IVF + DDCpca bundle is loaded by a fresh
// process, then serves per-query searches.
//
// The preparing process builds the bundle and the reference answers of
// the in-memory build, writes them to a directory under --work-dir and
// re-executes itself with --child-dir. exec replaces the address space, so
// the child's VmHWM (peak_rss_mb) counts only what a restarted server
// holds.
#ifndef RESBENCH_RESTART_H_
#define RESBENCH_RESTART_H_

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "persist/persist.h"

namespace resbench {

// The smallest of nprobe 4, 6, 8, 12, 16, 24 that gave recall@10 >= 0.99
// when the benchmark was defined (0.998; nprobe 4 gave 0.986), fixed once.
inline constexpr int kRestartNprobe = 6;

struct RestartPaths {
  explicit RestartPaths(const std::string& d) : dir(d) {}
  std::string dir;
  std::string ivf() const { return dir + "/ivf.bin"; }
  std::string rotated() const { return dir + "/rotated.bin"; }
  std::string pca() const { return dir + "/pca.bin"; }
  std::string model() const { return dir + "/ddc_pca.bin"; }
  std::string queries() const { return dir + "/queries.fvecs"; }
  std::string gt() const { return dir + "/gt.ivecs"; }
  std::string ref_ids() const { return dir + "/ref_ids.ivecs"; }
  std::string ref_distances() const { return dir + "/ref_distances.fvecs"; }
};

inline ri::util::Status SaveAnswers(const RestartPaths& p,
                                    const Answers& answers) {
  std::vector<std::vector<int32_t>> ids;
  ri::linalg::Matrix distances(static_cast<int64_t>(answers.size()), kTopK);
  for (std::size_t q = 0; q < answers.size(); ++q) {
    if (answers[q].size() != static_cast<std::size_t>(kTopK)) {
      return ri::util::Status::Internal("reference answer is short");
    }
    std::vector<int32_t> row;
    for (int i = 0; i < kTopK; ++i) {
      row.push_back(static_cast<int32_t>(answers[q][static_cast<std::size_t>(i)].id));
      distances.At(static_cast<int64_t>(q), i) =
          answers[q][static_cast<std::size_t>(i)].distance;
    }
    ids.push_back(std::move(row));
  }
  ri::util::Status status = ri::data::WriteIvecs(p.ref_ids(), ids);
  if (!status.ok()) return status;
  return ri::data::WriteFvecs(p.ref_distances(), distances);
}

inline ri::util::Status LoadAnswers(const RestartPaths& p, Answers* out) {
  std::vector<std::vector<int32_t>> ids;
  ri::linalg::Matrix distances;
  ri::util::Status status = ri::data::ReadIvecs(p.ref_ids(), &ids);
  if (!status.ok()) return status;
  status = ri::data::ReadFvecs(p.ref_distances(), &distances);
  if (!status.ok()) return status;
  if (distances.rows() != static_cast<int64_t>(ids.size())) {
    return ri::util::Status::Internal("reference ids and distances disagree");
  }
  out->assign(ids.size(), {});
  for (std::size_t q = 0; q < ids.size(); ++q) {
    if (static_cast<int64_t>(ids[q].size()) != distances.cols()) {
      return ri::util::Status::Internal("reference row width mismatch");
    }
    for (std::size_t i = 0; i < ids[q].size(); ++i) {
      (*out)[q].push_back(
          {ids[q][i], distances.At(static_cast<int64_t>(q),
                                   static_cast<int64_t>(i))});
    }
  }
  return ri::util::Status::Ok();
}

// Builds and saves the bundle, then execs the measuring child. Returns
// only on failure.
inline int RunRestartPrep(const Options& opt, const Sizes& s,
                          const std::vector<std::string>& child_args) {
  namespace persist = ri::persist;
  const RestartPaths p(opt.work_dir + "/restart-" + std::to_string(::getpid()));
  std::filesystem::create_directories(p.dir);
  double save_s = 0.0;
  {
    const ri::data::Dataset ds = MakeData(opt.seed, s);
    const GroundTruth gt64 =
        ri::data::BruteForceKnn(ds.base, FirstRows(ds.queries, s.gt), kTopK);
    const ri::linalg::PcaModel pca =
        ri::linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
    const ri::linalg::Matrix rotated =
        pca.TransformBatch(ds.base.data(), ds.size());
    ri::core::DdcPcaOptions pca_options;
    pca_options.training.max_queries = s.corrector_queries;
    const ri::core::DdcPcaArtifacts artifacts = ri::core::TrainDdcPca(
        pca, rotated, ds.base, ds.train_queries, pca_options);
    ri::index::IvfIndex ivf =
        ri::index::IvfIndex::Build(ds.base, IvfBuildOptions(ds.size()));
    const ri::index::ComputerFactory make = [&] {
      return std::make_unique<ri::core::DdcPcaComputer>(&pca, &rotated,
                                                        &artifacts);
    };
    ivf.AttachCodesFrom(*make());
    const Answers reference = PerQueryReference(
        ds.queries, make, [&ivf](ri::index::DistanceComputer& c, const float* q) {
          return ivf.Search(c, q, kTopK, kRestartNprobe);
        });
    std::vector<std::vector<int32_t>> gt;
    for (const auto& row : gt64) gt.emplace_back(row.begin(), row.end());

    const int64_t start = NowNs();
    const ri::util::Status statuses[] = {
        persist::SaveIvf(p.ivf(), ivf),
        persist::SaveMatrix(p.rotated(), rotated),
        persist::SavePca(p.pca(), pca),
        persist::SaveDdcPcaArtifacts(p.model(), artifacts)};
    save_s = static_cast<double>(NowNs() - start) / 1e9;
    for (const ri::util::Status& status : statuses) {
      if (!status.ok()) {
        std::fprintf(stderr, "save bundle: %s\n", status.ToString().c_str());
        std::filesystem::remove_all(p.dir);
        return 1;
      }
    }
    const ri::util::Status extras[] = {
        ri::data::WriteFvecs(p.queries(), ds.queries),
        ri::data::WriteIvecs(p.gt(), gt), SaveAnswers(p, reference)};
    for (const ri::util::Status& status : extras) {
      if (!status.ok()) {
        std::fprintf(stderr, "save inputs: %s\n", status.ToString().c_str());
        std::filesystem::remove_all(p.dir);
        return 1;
      }
    }
  }
  std::vector<std::string> args = child_args;
  args.insert(args.end(), {"--child-dir", p.dir, "--prep-save-ms",
                           std::to_string(save_s * 1e3)});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  ::execv("/proc/self/exe", argv.data());
  std::perror("exec /proc/self/exe");
  std::filesystem::remove_all(p.dir);
  return 1;
}

// The loaded bundle.
struct PcaBundle {
  ri::index::IvfIndex ivf;
  ri::persist::MappedMatrix rotated;
  ri::linalg::PcaModel pca;
  ri::core::DdcPcaArtifacts artifacts;
};

inline Outcome RunRestartChild(const Options& opt, const Sizes& s) {
  namespace persist = ri::persist;
  Outcome o;
  const RestartPaths p(opt.child_dir);
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() { std::filesystem::remove_all(dir); }
  } remove_dir{p.dir};

  ri::linalg::Matrix queries;
  std::vector<std::vector<int32_t>> gt32;
  Answers reference;
  if (!Ok(ri::data::ReadFvecs(p.queries(), &queries), "read queries", &o) ||
      !Ok(ri::data::ReadIvecs(p.gt(), &gt32), "read gt", &o) ||
      !Ok(LoadAnswers(p, &reference), "read reference", &o)) {
    return o;
  }
  GroundTruth gt;
  for (const auto& row : gt32) gt.emplace_back(row.begin(), row.end());
  o.reference_checksum = Checksum(reference);

  // Each restart loads into a fresh bundle after the previous one is gone.
  std::unique_ptr<PcaBundle> bundle;
  SetupLayers& layers = o.setup_layers;
  double ivf_s = 0.0, base_s = 0.0, model_s = 0.0;
  for (int r = 0; r < s.restarts; ++r) {
    bundle.reset();
    const int64_t start = NowNs();
    auto b = std::make_unique<PcaBundle>();
    persist::IvfLoadOptions load_options;
    load_options.backend = ri::storage::StorageBackend::kMemory;
    bool ok = true;
    TimeLayer(nullptr, "persist.load_ivf", &ivf_s, [&] {
      ok = Ok(persist::LoadIvf(p.ivf(), &b->ivf, load_options), "load ivf", &o);
    });
    TimeLayer(nullptr, "persist.load_base", &base_s, [&] {
      ok = ok && Ok(persist::LoadMatrixMapped(
                        p.rotated(), &b->rotated,
                        ri::storage::StorageBackend::kMemory),
                    "load rotated base", &o);
    });
    TimeLayer(nullptr, "persist.load_model", &model_s, [&] {
      ok = ok && Ok(persist::LoadPca(p.pca(), &b->pca), "load pca", &o) &&
           Ok(persist::LoadDdcPcaArtifacts(p.model(), &b->artifacts),
              "load ddc-pca", &o);
    });
    if (!ok) return o;
    bundle = std::move(b);
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    o.setup_s.push_back(seconds);
    layers.wall += seconds;
  }
  layers.persist = ivf_s + base_s + model_s;
  std::printf("# restart loads (mean ms): ivf %.3f base %.3f model %.3f, "
              "rss after load %.1f MiB\n",
              ivf_s * 1e3 / s.restarts, base_s * 1e3 / s.restarts,
              model_s * 1e3 / s.restarts, ProcStatusMb("VmRSS"));

  const PcaBundle& m = *bundle;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(
        &m.rotated.matrix,
        [&m](const float* q, float* out) { m.pca.Transform(q, out); });
  }
  const ri::index::ComputerFactory make = [&m] {
    return std::make_unique<ri::core::DdcPcaComputer>(
        &m.pca, &m.rotated.matrix, &m.artifacts);
  };
  ri::index::BatchOptions batch_options;
  batch_options.num_threads = kWorkers;
  const auto pass = [&](const ri::index::ComputerFactory& factory) {
    return ri::index::BatchSearchIvf(m.ivf, factory, queries, kTopK,
                                     kRestartNprobe, batch_options);
  };
  MeasureClosedLoop(opt, false, reference, gt, make, tracer.get(), pass, &o);

  if (opt.trace) {
    o.dim = m.rotated.matrix.cols();
    o.rank_us = RankMicrosPerQuery(m.ivf, queries, kRestartNprobe);
    RunKernelProbes(opt, m.rotated.matrix, m.rotated.matrix.Row(0), &o);
    // The bundle was saved by the preparing process and loaded by the
    // restarts above; only the mmap loads are left to time.
    const std::vector<PersistedFile> files = {
        {p.ivf(), nullptr, nullptr,
         [&] {
           ri::index::IvfIndex mapped;
           persist::IvfLoadOptions options;
           options.backend = ri::storage::StorageBackend::kMmap;
           return persist::LoadIvf(p.ivf(), &mapped, options);
         }},
        {p.rotated(), nullptr, nullptr,
         [&] {
           persist::MappedMatrix mapped;
           return persist::LoadMatrixMapped(p.rotated(), &mapped,
                                            ri::storage::StorageBackend::kMmap);
         }},
        {p.pca(), nullptr, nullptr, nullptr},
        {p.model(), nullptr, nullptr, nullptr}};
    PersistRoundTrip(files, nullptr, tracer.get(), &o);
    o.save_ms = opt.prep_save_ms;
    o.load_ms = Median(o.setup_s) * 1e3;
    FinishTrace(opt, tracer.get(), &o);
  }
  return o;
}

}  // namespace resbench

#endif  // RESBENCH_RESTART_H_
