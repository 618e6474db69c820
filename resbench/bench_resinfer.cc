// bench_resinfer: the repository benchmark.
//
// One invocation runs one workload on inputs generated from --seed,
// measures for --seconds, checks every answer against a per-query
// reference, prints each metric by name with its unit and sample count,
// and ends with one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// reruns the same workload with the outside-in layer trace (trace.h) and
// reports the per-layer metrics instead; half its measured time runs
// untraced so the trace's own overhead is measured too. README.md lists
// the workloads, the metrics and how they relate.
//
//   bench_resinfer --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--smoke] [--work-dir DIR] [--trace-file PATH]
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "ivf_opq.h"
#include "report.h"
#include "restart.h"
#include "serve.h"
#include "trace.h"

namespace resbench {
namespace {

// recall@10 about 0.99 at n = 20000 (ef 48 gives 0.998, ef 24 0.97).
constexpr int kHnswEf = 32;

// --- hnsw-res-query ---------------------------------------------------------

// HNSW over the raw base searched through DDCres, which reads the
// PCA-rotated rows by id.
struct HnswRes {
  ri::linalg::PcaModel pca;
  ri::linalg::Matrix rotated;
  ri::index::HnswIndex graph;
};

std::unique_ptr<HnswRes> BuildHnswRes(const ri::data::Dataset& ds,
                                      Tracer* tracer, SetupLayers* layers) {
  auto model = std::make_unique<HnswRes>();
  TimeLayer(tracer, "linalg.pca_fit", &layers->linalg, [&] {
    model->pca = ri::linalg::PcaModel::Fit(ds.base.data(), ds.size(), ds.dim());
  });
  TimeLayer(tracer, "linalg.pca_transform", &layers->linalg, [&] {
    model->rotated = model->pca.TransformBatch(ds.base.data(), ds.size());
  });
  ri::index::HnswOptions options;
  options.M = 16;
  options.ef_construction = 120;
  TimeLayer(tracer, "index.build_hnsw", &layers->index, [&] {
    model->graph = ri::index::HnswIndex::Build(ds.base, options);
  });
  return model;
}

void PersistProbeHnsw(const Options& opt, const ri::data::Dataset& ds,
                      const HnswRes& model, const Answers& reference,
                      Tracer* tracer, Outcome* o) {
  namespace persist = ri::persist;
  using ri::storage::StorageBackend;
  const ProbeDir dir(opt);
  const std::string graph_path = dir.path + "/hnsw.bin";
  const std::string pca_path = dir.path + "/pca.bin";
  const std::string rotated_path = dir.path + "/rotated.bin";
  ri::index::HnswIndex graph;
  ri::linalg::PcaModel pca;
  persist::MappedMatrix rotated;
  const std::vector<PersistedFile> files = {
      {graph_path, [&] { return persist::SaveHnsw(graph_path, model.graph); },
       [&] { return persist::LoadHnsw(graph_path, &graph); }, nullptr},
      {pca_path, [&] { return persist::SavePca(pca_path, model.pca); },
       [&] { return persist::LoadPca(pca_path, &pca); }, nullptr},
      {rotated_path,
       [&] { return persist::SaveMatrix(rotated_path, model.rotated); },
       [&] {
         return persist::LoadMatrixMapped(rotated_path, &rotated,
                                          StorageBackend::kMemory);
       },
       [&] {
         persist::MappedMatrix mapped;
         return persist::LoadMatrixMapped(rotated_path, &mapped,
                                          StorageBackend::kMmap);
       }}};
  PersistRoundTrip(
      files,
      [&] {
        ri::core::DdcResComputer computer(&pca, &rotated.matrix);
        CheckFirstAnswers(
            ds.queries, reference,
            [&](const float* q) {
              return graph.Search(computer, q, kTopK, kHnswEf);
            },
            o);
      },
      tracer, o);
}

// hnsw-res-query: closed-loop per-query BatchSearchHnsw passes.
Outcome RunHnswRes(const Options& opt, const Sizes& s) {
  Outcome o;
  const ri::data::Dataset ds = MakeData(opt.seed, s);
  const GroundTruth gt =
      ri::data::BruteForceKnn(ds.base, FirstRows(ds.queries, s.gt), kTopK);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(&ds.base, nullptr);

  std::unique_ptr<HnswRes> model = SetupRepeated<HnswRes>(
      s.setup_reps,
      [&] { return BuildHnswRes(ds, tracer.get(), &o.setup_layers); },
      &o.setup_s, &o.setup_layers);
  const HnswRes& m = *model;
  const ri::index::ComputerFactory make = [&m] {
    return std::make_unique<ri::core::DdcResComputer>(&m.pca, &m.rotated);
  };
  const Answers reference = PerQueryReference(
      ds.queries, make, [&m](ri::index::DistanceComputer& c, const float* q) {
        return m.graph.Search(c, q, kTopK, kHnswEf);
      });
  o.reference_checksum = Checksum(reference);

  ri::index::BatchOptions batch_options;
  batch_options.num_threads = kWorkers;
  const auto pass = [&](const ri::index::ComputerFactory& factory) {
    return ri::index::BatchSearchHnsw(m.graph, factory, ds.queries, kTopK,
                                      kHnswEf, batch_options);
  };
  MeasureClosedLoop(opt, false, reference, gt, make, tracer.get(), pass, &o);

  if (opt.trace) {
    o.dim = ds.dim();
    RunKernelProbes(opt, ds.base, ds.queries.Row(0), &o);
    PersistProbeHnsw(opt, ds, m, reference, tracer.get(), &o);
    FinishTrace(opt, tracer.get(), &o);
  }
  return o;
}

// --- metrics ------------------------------------------------------------------

void AddEndToEndMetrics(const Outcome& o, MetricSet* m) {
  m->Add("qps", Median(o.qps), "1/s", static_cast<int64_t>(o.qps.size()));
  m->Add("recall_at_10", o.recall, "ratio", o.recall_samples);
  m->Add("p50_ms", Median(o.latency.p50_ms), "ms", o.latency.samples);
  m->Add("p90_ms", Median(o.latency.p90_ms), "ms", o.latency.samples);
  m->Add("setup_s", Median(o.setup_s), "s",
         static_cast<int64_t>(o.setup_s.size()));
  m->Add("peak_rss_mb", ProcStatusMb("VmHWM"), "MiB", 1);
}

void AddLayerMetrics(const Outcome& o, MetricSet* m) {
  const double traced_qps = Median(o.qps);
  m->Add("trace.overhead_frac", 1.0 - Ratio(traced_qps, Median(o.untraced_qps)),
         "ratio", static_cast<int64_t>(o.qps.size() + o.untraced_qps.size()));

  ri::Histogram busy_us;
  double busy = 0, core = 0, setup = 0, estimate = 0;
  double members = 0, candidates = 0, pruned = 0, exact = 0, dims = 0;
  double audited = 0, false_prunes = 0;
  for (const GroupRecord& g : o.groups) {
    busy_us.Add(static_cast<double>(std::max<int64_t>(g.BusyNs(), 0)) / 1e3);
    busy += static_cast<double>(g.BusyNs());
    core += static_cast<double>(g.CoreNs());
    setup += static_cast<double>(g.setup_ns);
    estimate += static_cast<double>(g.estimate_ns);
    members += g.members;
    candidates += static_cast<double>(g.stats.candidates);
    pruned += static_cast<double>(g.stats.pruned);
    exact += static_cast<double>(g.stats.exact_computations);
    dims += static_cast<double>(g.stats.dims_scanned);
    audited += static_cast<double>(g.audited);
    false_prunes += static_cast<double>(g.false_prunes);
  }
  const auto groups = static_cast<int64_t>(o.groups.size());
  const auto queries = static_cast<int64_t>(members);
  const auto cands = static_cast<int64_t>(candidates);
  m->Add("index.group_p50_us", busy_us.Percentile(0.5), "us", groups);
  m->Add("index.group_p99_us", busy_us.Percentile(0.99), "us", groups);
  m->Add("index.group_occupancy", Ratio(members, groups), "count", groups);
  m->Add("index.self_frac", 1.0 - Ratio(core, busy), "ratio", groups);
  m->Add("index.candidates_per_query", Ratio(candidates, members), "count",
         queries);
  m->Add("core.query_setup_us", Ratio(setup, members) / 1e3, "us", queries);
  m->Add("core.estimate_frac", Ratio(estimate, busy), "ratio", groups);
  m->Add("core.ns_per_candidate", Ratio(estimate, candidates), "ns", cands);
  m->Add("core.pruned_rate", Ratio(pruned, candidates), "ratio", cands);
  m->Add("core.exact_per_query", Ratio(exact, members), "count", queries);
  m->Add("core.scan_rate",
         Ratio(dims, candidates * static_cast<double>(o.dim)), "ratio", cands);
  m->Add("core.false_prune_rate", Ratio(false_prunes, audited), "ratio",
         static_cast<int64_t>(audited));
  m->Add("core.false_prune_audited", audited, "count",
         static_cast<int64_t>(audited));
  m->Add("quant.rank_frac",
         Ratio(o.rank_us * 1e3 * members, busy), "ratio", queries);

  const SetupLayers& s = o.setup_layers;
  const auto reps = static_cast<int64_t>(o.setup_s.size());
  m->Add("linalg.setup_frac", Ratio(s.linalg, s.wall), "ratio", reps);
  m->Add("quant.setup_frac", Ratio(s.quant, s.wall), "ratio", reps);
  m->Add("core.setup_frac", Ratio(s.core, s.wall), "ratio", reps);
  m->Add("index.setup_frac", Ratio(s.index, s.wall), "ratio", reps);
  m->Add("persist.setup_frac", Ratio(s.persist, s.wall), "ratio", reps);

  m->Add("serve.submit_frac", o.submit_frac, "ratio", queries);
  m->Add("serve.wait_frac", o.wait_frac, "ratio", queries);
  m->Add("serve.handoff_frac", o.handoff_frac, "ratio", queries);
  m->Add("serve.linger_flush_frac", o.linger_flush_frac, "ratio", groups);
  m->Add("serve.worker_util", o.worker_util, "ratio", 1);
  m->Add("loadgen.late_frac", o.late_frac, "ratio", queries);

  m->Add("persist.save_ms", o.save_ms, "ms", 1);
  m->Add("persist.load_ms", o.load_ms, "ms", 1);
  m->Add("persist.file_mb", o.file_mb, "MiB", 1);
  m->Add("storage.mmap_load_ms", o.mmap_load_ms, "ms", 1);
  m->Add("simd.fastscan_codes_per_s", o.fastscan_codes_per_s, "1/s", 1);
  m->Add("simd.l2sqr_batch4_rows_per_s", o.l2sqr_rows_per_s, "1/s", 1);
}

// --- command line -------------------------------------------------------------

const char* const kWorkloads[] = {"ivf-opq-batch", "ivf-opq-serve",
                                  "hnsw-res-query", "ivf-pca-restart"};

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

Sizes SizesFor(const std::string& workload, bool smoke) {
  Sizes s;
  // Sized so that a run of --seconds 15, three set-ups included, ends
  // within about 25 s on a 4-core host.
  if (workload == "hnsw-res-query") {
    s.n = 20000;
  } else if (workload == "ivf-pca-restart") {
    s.n = 150000;
  } else {
    s.n = 50000;
  }
  if (smoke) {
    s.n = 5000;
    s.pool = 512;
    s.gt = 256;
    s.train_queries = 300;
    s.corrector_queries = 100;
    s.setup_reps = 2;
    s.bursts = 2;
    s.restarts = 3;
  }
  return s;
}

bool ParseArgs(int argc, char** argv, Options* opt,
               std::vector<std::string>* passthrough) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool has_inline = eq != std::string::npos;
    if (has_inline) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    if (arg == "--smoke") {
      opt->smoke = true;
      passthrough->push_back(arg);
      continue;
    }
    if (!has_inline) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--work-dir") {
      opt->work_dir = value;
    } else if (arg == "--trace-file") {
      opt->trace_file = value;
    } else if (arg == "--child-dir") {
      opt->child_dir = value;
      continue;  // set by the restart parent, not passed on
    } else if (arg == "--prep-save-ms") {
      opt->prep_save_ms = std::strtod(value.c_str(), nullptr);
      continue;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
    passthrough->push_back(arg);
    passthrough->push_back(value);
  }
  if (!KnownWorkload(opt->workload)) {
    std::fprintf(stderr, "unknown --workload '%s'\n", opt->workload.c_str());
    return false;
  }
  return true;
}

// Host fingerprint: enough to tell whether two results are comparable.
void PrintFingerprint(const Options& opt, int setup_threads) {
  namespace simd = ri::simd;
  const simd::SimdLevel active = simd::ActiveLevel();
  simd::SimdLevel requested = active;
  const char* env = std::getenv("RESINFER_SIMD_LEVEL");
  const bool clamped = env != nullptr &&
                       simd::ParseSimdLevelName(env, &requested) &&
                       requested != active;
  std::printf("# host cpu=\"%s\" nproc=%u simd=%s simd_best=%s "
              "simd_clamped=%d workers=%d worker_cpus=%s generator_cpu=%d "
              "setup_threads=%d seed=%llu storage=memory build=%s "
              "workload=%s smoke=%d trace=%d\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              simd::SimdLevelName(active),
              simd::SimdLevelName(simd::BestSupportedLevel()), clamped ? 1 : 0,
              kWorkers, CpuList(WorkerCpus()).c_str(), GeneratorCpu(),
              setup_threads,
              static_cast<unsigned long long>(opt.seed), RESBENCH_BUILD_TYPE,
              opt.workload.c_str(), opt.smoke ? 1 : 0, opt.trace ? 1 : 0);
}

int Main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> passthrough;
  if (!ParseArgs(argc, argv, &opt, &passthrough)) {
    std::fprintf(stderr,
                 "usage: bench_resinfer --workload <ivf-opq-batch|"
                 "ivf-opq-serve|hnsw-res-query|ivf-pca-restart> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--work-dir DIR] "
                 "[--trace-file PATH]\n");
    return 2;
  }
  if (opt.trace && opt.trace_file.empty()) {
    opt.trace_file = opt.work_dir + "/trace-" + opt.workload + "-" +
                     std::to_string(opt.seed) + ".json";
  }
  std::filesystem::create_directories(opt.work_dir);
  // A fixed mmap threshold: glibc's adaptive one makes large allocations
  // land on the heap or in their own mappings depending on what was freed
  // before, which moved VmHWM by 20% between otherwise identical runs.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const int setup_threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  ri::SetDefaultThreadCount(setup_threads);
  const Sizes sizes = SizesFor(opt.workload, opt.smoke);
  if (opt.child_dir.empty()) PrintFingerprint(opt, setup_threads);

  Outcome o;
  if (opt.workload == "ivf-opq-batch") {
    o = RunIvfOpqBatch(opt, sizes);
  } else if (opt.workload == "ivf-opq-serve") {
    o = RunIvfOpqServe(opt, sizes);
  } else if (opt.workload == "hnsw-res-query") {
    o = RunHnswRes(opt, sizes);
  } else if (opt.child_dir.empty()) {
    std::vector<std::string> args = {"bench_resinfer"};
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    return RunRestartPrep(opt, sizes, args);
  } else {
    o = RunRestartChild(opt, sizes);
  }

  MetricSet metrics;
  if (opt.trace) {
    AddLayerMetrics(o, &metrics);
  } else {
    AddEndToEndMetrics(o, &metrics);
  }
  // `correct` is about the answers only. An open loop whose generator fell
  // behind (valid=0) still answered correctly; its latency counts from the
  // due times, so the lateness can only make it look slower.
  const bool answers_match = o.checksum == o.reference_checksum;
  const bool correct = o.failed == 0 && answers_match &&
                       o.recall >= kRecallFloor && o.attempted > 0;
  metrics.PrintLines();
  if (!opt.trace) {
    std::printf("# p99_ms %.6g (n=%lld; printed, not a bounded metric)\n",
                Median(o.latency.p99_ms),
                static_cast<long long>(o.latency.samples));
  }
  std::printf("# valid=%d checksum=%016llx reference=%016llx%s\n",
              o.valid ? 1 : 0, static_cast<unsigned long long>(o.checksum),
              static_cast<unsigned long long>(o.reference_checksum),
              opt.trace ? " (traced answers)" : "");
  if (opt.trace) std::printf("# trace written to %s\n", opt.trace_file.c_str());
  metrics.PrintJson(correct, std::max<int64_t>(o.attempted, 1), o.failed);
  if (opt.trace && !answers_match) {
    std::fprintf(stderr,
                 "traced answers differ from the untraced reference: the "
                 "tracing wrapper changed a result\n");
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace resbench

int main(int argc, char** argv) {
  try {
    return resbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_resinfer: %s\n", e.what());
    return 1;
  }
}
