// resinfer_search — serves queries from artifacts persisted by
// resinfer_build and reports quality + performance.
//
// Loads the base vectors, the requested index, and the method's artifacts
// from --dir, runs the query file through the multi-threaded batch runner,
// and prints QPS, latency percentiles, pruning statistics and (when a
// ground-truth ivecs is supplied) recall@k.
//
//   resinfer_search --dir /tmp/sift/index --base /tmp/sift/base.fvecs \
//       --queries /tmp/sift/queries.fvecs --gt /tmp/sift/groundtruth.ivecs \
//       --index hnsw --method ddc-res --k 10 --ef 100
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ad_sampling.h"
#include "core/ddc_opq.h"
#include "core/ddc_pca.h"
#include "core/ddc_res.h"
#include "data/metrics.h"
#include "data/vec_io.h"
#include "index/batch.h"
#include "persist/persist.h"
#include "serve/admission.h"
#include "storage/storage.h"
#include "tool_flags.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using resinfer::index::BatchOptions;
using resinfer::index::BatchResult;
using resinfer::index::ComputerFactory;
using resinfer::linalg::Matrix;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: resinfer_search --dir DIR --base base.fvecs --queries Q.fvecs "
      "[options]\n"
      "  --method NAME   exact|adsampling|ddc-res|ddc-pca|ddc-opq "
      "(default ddc-res)\n"
      "  --index KIND    hnsw|ivf|flat (default hnsw)\n"
      "  --gt FILE       ground-truth ivecs for recall\n"
      "  --k N           neighbors (default 10)\n"
      "  --ef N          HNSW beam (default 100)\n"
      "  --nprobe N      IVF probes (default 10)\n"
      "  --threads N     worker threads (default: hardware)\n"
      "  --serve         route queries one at a time through the\n"
      "                  coalescing admission queue (IVF only) instead of\n"
      "                  the pre-materialized batch runner\n"
      "  --group N       serve mode: max queries per coalesced group\n"
      "                  (default 32, capped at the grouped-scan width)\n"
      "  --storage KIND  memory|mmap: how the IVF code section is served\n"
      "                  (default: RESINFER_STORAGE env, else memory;\n"
      "                  mmap needs a v6 ivf.bin)\n");
}

// Everything a method needs at serving time, loaded once and shared by all
// worker computers.
struct ServingArtifacts {
  Matrix base;
  std::optional<resinfer::linalg::PcaModel> pca;
  std::optional<Matrix> pca_base;
  std::optional<Matrix> ads_rotation;
  std::optional<Matrix> ads_base;
  std::optional<resinfer::core::DdcPcaArtifacts> ddc_pca;
  std::optional<resinfer::core::DdcOpqArtifacts> ddc_opq;
};

resinfer::util::Status LoadFor(const std::string& method,
                               const std::string& dir,
                               ServingArtifacts* artifacts) {
  namespace persist = resinfer::persist;
  using resinfer::util::Status;
  if (method == "exact") return Status::Ok();
  if (method == "adsampling") {
    artifacts->ads_rotation.emplace();
    artifacts->ads_base.emplace();
    RESINFER_RETURN_IF_ERROR(persist::LoadMatrix(
        dir + "/ads_rotation.bin", &*artifacts->ads_rotation));
    return persist::LoadMatrix(dir + "/ads_base.bin",
                               &*artifacts->ads_base);
  }
  if (method == "ddc-res" || method == "ddc-pca") {
    artifacts->pca.emplace();
    artifacts->pca_base.emplace();
    RESINFER_RETURN_IF_ERROR(
        persist::LoadPca(dir + "/pca.bin", &*artifacts->pca));
    RESINFER_RETURN_IF_ERROR(persist::LoadMatrix(dir + "/pca_base.bin",
                                                 &*artifacts->pca_base));
    if (method == "ddc-pca") {
      artifacts->ddc_pca.emplace();
      return persist::LoadDdcPcaArtifacts(dir + "/ddc_pca.bin",
                                          &*artifacts->ddc_pca);
    }
    return Status::Ok();
  }
  if (method == "ddc-opq") {
    artifacts->ddc_opq.emplace();
    return persist::LoadDdcOpqArtifacts(dir + "/ddc_opq.bin",
                                        &*artifacts->ddc_opq);
  }
  return Status::InvalidArgument("unknown method " + method);
}

ComputerFactory FactoryFor(const std::string& method,
                           const ServingArtifacts& artifacts) {
  namespace core = resinfer::core;
  if (method == "exact") {
    return [&artifacts] {
      return std::make_unique<resinfer::index::FlatDistanceComputer>(
          artifacts.base.data(), artifacts.base.rows(),
          artifacts.base.cols());
    };
  }
  if (method == "adsampling") {
    return [&artifacts] {
      return std::make_unique<core::AdSamplingComputer>(
          &*artifacts.ads_rotation, &*artifacts.ads_base);
    };
  }
  if (method == "ddc-res") {
    return [&artifacts] {
      return std::make_unique<core::DdcResComputer>(&*artifacts.pca,
                                                    &*artifacts.pca_base);
    };
  }
  if (method == "ddc-pca") {
    return [&artifacts] {
      return std::make_unique<core::DdcPcaComputer>(
          &*artifacts.pca, &*artifacts.pca_base, &*artifacts.ddc_pca);
    };
  }
  // ddc-opq (validated earlier).
  return [&artifacts] {
    return std::make_unique<core::DdcOpqComputer>(&artifacts.base,
                                                  &*artifacts.ddc_opq);
  };
}

}  // namespace

int main(int argc, char** argv) {
  resinfer::tools::ArgParser args(argc, argv);

  const std::string dir = args.GetString("dir");
  const std::string base_path = args.GetString("base");
  const std::string query_path = args.GetString("queries");
  const std::string gt_path = args.GetString("gt");
  const std::string method = args.GetString("method", "ddc-res");
  const std::string index_kind = args.GetString("index", "hnsw");
  const int k = static_cast<int>(args.GetInt("k", 10));
  const int ef = static_cast<int>(args.GetInt("ef", 100));
  const int nprobe = static_cast<int>(args.GetInt("nprobe", 10));
  BatchOptions batch_options;
  batch_options.num_threads = static_cast<int>(args.GetInt("threads", 0));
  const bool serve = args.GetBool("serve", false);
  const int serve_group = static_cast<int>(args.GetInt("group", 32));
  // --storage overrides the RESINFER_STORAGE env default. mmap serves the
  // v6 code section zero-copy from the index file; results are
  // bit-identical to the memory backend either way.
  const std::string storage_flag = args.GetString("storage", "");
  resinfer::persist::IvfLoadOptions load_options;
  if (!storage_flag.empty() &&
      !resinfer::storage::ParseStorageBackend(storage_flag,
                                              &load_options.backend)
           .ok()) {
    args.Fail("--storage must be 'memory' or 'mmap'");
  }

  if (dir.empty() && method != "exact") args.Fail("--dir is required");
  if (serve && index_kind != "ivf") args.Fail("--serve requires --index ivf");
  if (base_path.empty()) args.Fail("--base is required");
  if (query_path.empty()) args.Fail("--queries is required");
  if (index_kind != "hnsw" && index_kind != "ivf" && index_kind != "flat") {
    args.Fail("--index must be hnsw, ivf or flat");
  }
  if (!args.Validate()) {
    PrintUsage();
    return 1;
  }

  ServingArtifacts artifacts;
  if (resinfer::util::Status s =
          resinfer::data::ReadFvecs(base_path, &artifacts.base);
      !s.ok()) {
    std::fprintf(stderr, "error reading base vectors: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  Matrix queries;
  if (resinfer::util::Status s =
          resinfer::data::ReadFvecs(query_path, &queries);
      !s.ok()) {
    std::fprintf(stderr, "error reading queries: %s\n", s.ToString().c_str());
    return 1;
  }
  if (queries.cols() != artifacts.base.cols()) {
    std::fprintf(stderr, "error: query dim %lld != base dim %lld\n",
                 static_cast<long long>(queries.cols()),
                 static_cast<long long>(artifacts.base.cols()));
    return 1;
  }
  if (resinfer::util::Status s = LoadFor(method, dir, &artifacts); !s.ok()) {
    std::fprintf(stderr, "error loading artifacts: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  ComputerFactory factory = FactoryFor(method, artifacts);
  BatchResult batch;
  std::optional<resinfer::serve::ServingStats> serving_stats;
  if (index_kind == "flat") {
    resinfer::index::FlatIndex flat(artifacts.base);
    batch = BatchSearchFlat(flat, factory, queries, k, batch_options);
  } else if (index_kind == "ivf") {
    resinfer::index::IvfIndex ivf;
    if (resinfer::util::Status s =
            resinfer::persist::LoadIvf(dir + "/ivf.bin", &ivf, load_options);
        !s.ok()) {
      std::fprintf(stderr, "error loading ivf.bin: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (serve) {
      // The online path: one Submit per query, coalesced by traffic. The
      // answers are bit-identical to the batch runner's; only scheduling
      // differs (see src/serve/admission.h and docs/serving.md).
      resinfer::serve::AdmissionOptions serve_options;
      serve_options.num_threads = batch_options.num_threads;
      serve_options.max_group_size = serve_group;
      resinfer::serve::IvfServer server(&ivf, factory, serve_options);
      std::vector<std::future<std::vector<resinfer::index::Neighbor>>>
          futures;
      futures.reserve(static_cast<std::size_t>(queries.rows()));
      resinfer::WallTimer timer;
      for (int64_t q = 0; q < queries.rows(); ++q) {
        futures.push_back(server.Submit(queries.Row(q), k, nprobe));
      }
      batch.results.reserve(futures.size());
      for (auto& future : futures) batch.results.push_back(future.get());
      batch.wall_seconds = timer.ElapsedSeconds();
      server.Shutdown();
      serving_stats = server.stats();
      batch.stats = serving_stats->computer_stats;
      batch.latency_seconds = serving_stats->latency_seconds;
      batch.worker_busy_seconds = server.executor_stats().busy_seconds;
    } else {
      batch = BatchSearchIvf(ivf, factory, queries, k, nprobe, batch_options);
    }
  } else {
    resinfer::index::HnswIndex hnsw;
    if (resinfer::util::Status s =
            resinfer::persist::LoadHnsw(dir + "/hnsw.bin", &hnsw);
        !s.ok()) {
      std::fprintf(stderr, "error loading hnsw.bin: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    batch = BatchSearchHnsw(hnsw, factory, queries, k, ef, batch_options);
  }

  std::printf("method=%s index=%s k=%d queries=%lld\n", method.c_str(),
              index_kind.c_str(), k,
              static_cast<long long>(queries.rows()));
  std::printf("qps=%.1f wall=%.3fs util_avg=%.3f util_min=%.3f\n",
              batch.Qps(), batch.wall_seconds, batch.AvgUtilization(),
              batch.MinUtilization());
  std::printf("latency %s\n", batch.latency_seconds.Summary().c_str());
  if (serving_stats) {
    std::printf(
        "serve occupancy=%.2f groups=%lld flushes full/idle/drain="
        "%lld/%lld/%lld\n",
        serving_stats->MeanOccupancy(),
        static_cast<long long>(serving_stats->groups),
        static_cast<long long>(serving_stats->full_flushes),
        static_cast<long long>(serving_stats->linger_flushes),
        static_cast<long long>(serving_stats->drain_flushes));
  }
  std::printf("candidates=%lld pruned_rate=%.3f scan_rate=%.3f\n",
              static_cast<long long>(batch.stats.candidates),
              batch.stats.PrunedRate(),
              batch.stats.ScanRate(artifacts.base.cols()));

  if (!gt_path.empty()) {
    std::vector<std::vector<int32_t>> truth32;
    if (resinfer::util::Status s = resinfer::data::ReadIvecs(gt_path, &truth32);
        !s.ok()) {
      std::fprintf(stderr, "error reading ground truth: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (truth32.size() != static_cast<std::size_t>(queries.rows())) {
      std::fprintf(stderr, "error: ground truth has %zu rows, queries %lld\n",
                   truth32.size(), static_cast<long long>(queries.rows()));
      return 1;
    }
    std::vector<std::vector<int64_t>> truth;
    truth.reserve(truth32.size());
    for (const auto& row : truth32) truth.emplace_back(row.begin(), row.end());
    const double recall = resinfer::data::MeanRecallAtK(
        resinfer::index::ResultIds(batch), truth, k);
    std::printf("recall@%d=%.4f\n", k, recall);
  }
  return 0;
}
