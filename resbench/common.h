// Shared pieces of bench_resinfer's workloads: sizes, inputs, answer
// checks, the closed-loop pass runner and the layer probes.
#ifndef RESBENCH_COMMON_H_
#define RESBENCH_COMMON_H_

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "resinfer/resinfer.h"
#include "trace.h"

namespace resbench {

namespace ri = resinfer;

inline constexpr int kTopK = 10;
// Search workers of every measured phase: on the two WorkerCpus in the
// closed loops, on every CPU but the generator's in ivf-opq-serve.
inline constexpr int kWorkers = 2;
inline constexpr int kGroupSize = ri::index::kMaxQueryGroup;
// A run whose recall falls below this is reported as incorrect.
inline constexpr double kRecallFloor = 0.9;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_file;
  // Set only in the re-executed ivf-pca-restart child.
  std::string child_dir;
  double prep_save_ms = 0.0;
};

// Input sizes of one workload. --smoke shrinks every size so all four
// workloads and their checks finish in seconds.
struct Sizes {
  int64_t n = 0;              // base rows
  int64_t pool = 4096;        // distinct queries the workload sends
  int64_t gt = 1024;          // queries with brute-force ground truth
  int64_t train_queries = 1000;
  int64_t corrector_queries = 300;
  int setup_reps = 3;         // setup_s is the median of these
  int bursts = 12;            // serve capacity bursts
  int restarts = 10;          // ivf-pca-restart loads
};

// sqrt(n) lists. Ten Lloyd rounds instead of the library's default 25
// keep three set-ups inside the run budget.
inline ri::index::IvfOptions IvfBuildOptions(int64_t n) {
  ri::index::IvfOptions options;
  options.num_clusters =
      static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
  options.kmeans.max_iterations = 10;
  return options;
}

// The corpus -- base vectors, corrector training queries and a population
// of 4x pool evaluation queries, sift-proxy at d = 128 -- comes from one
// fixed seed, like a fixed public dataset. The first `gt` pool queries,
// the ones recall is measured on, are the first `gt` of the population in
// every run; --seed draws the rest of the pool from the remaining
// population (and, downstream, arrival times and burst orders). A
// seed-drawn recall set moved recall@10 by 0.4% from seed to seed, twice
// the bound a recall loss must be caught at.
inline constexpr uint64_t kCorpusSeed = 42;

inline ri::data::Dataset MakeData(uint64_t seed, const Sizes& s) {
  ri::data::SyntheticSpec spec = ri::data::SiftProxySpec();
  spec.num_base = s.n;
  spec.num_queries = 4 * s.pool;
  spec.num_train_queries = s.train_queries;
  spec.seed = kCorpusSeed;
  ri::data::Dataset ds = ri::data::GenerateSynthetic(spec);
  ri::Rng rng(seed);
  const std::vector<int64_t> pick =
      rng.SampleWithoutReplacement(spec.num_queries - s.gt, s.pool - s.gt);
  ri::linalg::Matrix pool(s.pool, ds.dim());
  for (int64_t q = 0; q < s.pool; ++q) {
    const int64_t row =
        q < s.gt ? q : s.gt + pick[static_cast<std::size_t>(q - s.gt)];
    std::memcpy(pool.Row(q), ds.queries.Row(row),
                static_cast<std::size_t>(ds.dim()) * sizeof(float));
  }
  ds.queries = std::move(pool);
  return ds;
}

inline ri::linalg::Matrix FirstRows(const ri::linalg::Matrix& m,
                                    int64_t rows) {
  ri::linalg::Matrix out(rows, m.cols());
  std::memcpy(out.Row(0), m.Row(0),
              static_cast<std::size_t>(rows * m.cols()) * sizeof(float));
  return out;
}

using Answers = std::vector<std::vector<ri::index::Neighbor>>;
using GroundTruth = std::vector<std::vector<int64_t>>;

inline uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Bit-identical: same ids, same distance bits, same order.
inline bool SameAnswer(const std::vector<ri::index::Neighbor>& a,
                       const std::vector<ri::index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        FloatBits(a[i].distance) != FloatBits(b[i].distance)) {
      return false;
    }
  }
  return true;
}

// Order-sensitive digest of every (rank, id, distance bits) triple.
inline uint64_t Checksum(const Answers& answers) {
  uint64_t h = 0;
  for (const auto& row : answers) {
    for (std::size_t rank = 0; rank < row.size(); ++rank) {
      h ^= (static_cast<uint64_t>(rank + 1) * 0x9E3779B97F4A7C15ull) +
           static_cast<uint64_t>(row[rank].id + 1) * 0xC2B2AE3D27D4EB4Full +
           FloatBits(row[rank].distance);
      h *= 0xD6E8FEB86659FD93ull;
    }
    h = Mix64(h);
  }
  return h;
}

inline double Recall(const Answers& answers, const GroundTruth& gt) {
  GroundTruth ids(gt.size());
  for (std::size_t q = 0; q < gt.size(); ++q) {
    for (const auto& nb : answers[q]) ids[q].push_back(nb.id);
  }
  return ri::data::MeanRecallAtK(ids, gt, kTopK);
}

// Answers of one query at a time, one computer per shard: the reference
// every measured answer must equal bit for bit.
template <typename SearchOne>
Answers PerQueryReference(const ri::linalg::Matrix& queries,
                          const ri::index::ComputerFactory& make,
                          SearchOne&& search) {
  Answers out(static_cast<std::size_t>(queries.rows()));
  ri::ParallelFor(queries.rows(), [&](int64_t begin, int64_t end) {
    std::unique_ptr<ri::index::DistanceComputer> computer = make();
    for (int64_t q = begin; q < end; ++q) {
      out[static_cast<std::size_t>(q)] = search(*computer, queries.Row(q));
    }
  });
  return out;
}

inline ri::index::ComputerFactory Traced(ri::index::ComputerFactory make,
                                         Tracer* tracer) {
  if (tracer == nullptr) return make;
  return [make, tracer] {
    return std::make_unique<TracingComputer>(make(), tracer);
  };
}

// CPUs this process may run on, ascending, as they were at the first call:
// the calling thread's own mask narrows once it is pinned, and every CPU
// choice below must be made from the process's mask.
inline const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
#endif
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

// Restricts the calling thread, and every thread it creates afterwards, to
// `cpus`. Measured phases run restricted to the worker CPUs: unrestricted
// workers migrated between vCPUs and per-pass throughput alternated
// between two levels 40% apart on the 4-vCPU VM the benchmark was defined
// on.
inline void PinCurrentThread(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "could not pin to %zu cpus\n", cpus.size());
  }
#else
  (void)cpus;
#endif
}

// The search workers' CPUs: the first and the third allowed CPU (the
// first two with two, the only one with one). Numbering usually puts SMT
// siblings next to each other or half the CPUs apart, so these two are
// the least likely pair to share a core on a small host.
inline std::vector<int> WorkerCpus() {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() >= 3) return {cpus[0], cpus[2]};
  return cpus;
}

// The serve generator's CPU: the last allowed CPU that is not a worker's.
inline int GeneratorCpu() {
  const std::vector<int>& cpus = AllowedCpus();
  const std::vector<int> workers = WorkerCpus();
  for (auto it = cpus.rbegin(); it != cpus.rend(); ++it) {
    if (std::find(workers.begin(), workers.end(), *it) == workers.end()) {
      return *it;
    }
  }
  return cpus.back();
}

inline std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out;
}

// Seconds spent in each layer's calls during setup, summed over reps.
struct SetupLayers {
  double linalg = 0.0, quant = 0.0, core = 0.0, index = 0.0, persist = 0.0;
  double wall = 0.0;
};

// Builds the workload's model `reps` times and keeps the last one; each
// rep's wall time is one setup_s sample. The previous model is destroyed
// before the next is built, so peak memory holds one model.
template <typename Model, typename Build>
std::unique_ptr<Model> SetupRepeated(int reps, Build&& build,
                                     std::vector<double>* setup_s,
                                     SetupLayers* layers) {
  std::unique_ptr<Model> model;
  for (int r = 0; r < reps; ++r) {
    model.reset();
    const int64_t start = NowNs();
    model = build();
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    setup_s->push_back(seconds);
    layers->wall += seconds;
  }
  return model;
}

// Latency percentiles per window of consecutive samples. The reported
// p50/p90/p99 are medians over the windows, so a stall of the host moves
// one window's tail rather than the whole run's. p90 is the bounded tail
// metric; p99 is printed but not compared, because on a shared 4-vCPU VM
// the host deschedules a busy vCPU for 1-15 ms for 0.1-2.7% of the time,
// so p99 jumps between the program's tail and those stalls from run to
// run (ten-run spreads of 0.43-1.18 of the median).
struct LatencyWindows {
  std::vector<double> p50_ms, p90_ms, p99_ms;
  int64_t samples = 0;

  // `to_ms` converts the window's unit to milliseconds.
  void Add(const ri::Histogram& window, double to_ms) {
    p50_ms.push_back(window.Percentile(0.5) * to_ms);
    p90_ms.push_back(window.Percentile(0.9) * to_ms);
    p99_ms.push_back(window.Percentile(0.99) * to_ms);
    samples += window.count();
  }
  void Merge(const LatencyWindows& other) {
    p50_ms.insert(p50_ms.end(), other.p50_ms.begin(), other.p50_ms.end());
    p90_ms.insert(p90_ms.end(), other.p90_ms.begin(), other.p90_ms.end());
    p99_ms.insert(p99_ms.end(), other.p99_ms.begin(), other.p99_ms.end());
    samples += other.samples;
  }
};

// Closed-loop windows close after this many samples, so each window's
// 99th percentile has 10 samples beyond it.
inline constexpr int64_t kWindowSamples = 1000;

// Closed-loop passes over the query pool (BatchSearch* calls).
struct PassLoop {
  std::vector<double> qps;
  LatencyWindows latency;  // group walls (grouped) or query walls
  ri::Histogram window;    // the window being filled
  double busy_s = 0.0;      // worker time inside search calls
  double capacity_s = 0.0;  // pass wall x workers
  Answers last;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Repeats `run_pass` until `seconds` have elapsed (at least three passes),
// checking every answer against `reference`.
template <typename RunPass>
void MeasurePasses(double seconds, bool grouped, const Answers& reference,
                   RunPass&& run_pass, PassLoop* loop) {
  const auto close_window = [loop] {
    loop->latency.Add(loop->window, 1e3);
    loop->window.Reset();
  };
  const int64_t start = NowNs();
  int passes = 0;
  while (passes < 3 ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    ++passes;
    const int64_t pool = static_cast<int64_t>(reference.size());
    loop->attempted += pool;
    ri::index::BatchResult r;
    try {
      r = run_pass();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pass failed: %s\n", e.what());
      loop->failed += pool;
      continue;
    }
    loop->qps.push_back(r.Qps());
    loop->window.Merge(grouped ? r.group_latency_seconds : r.latency_seconds);
    if (loop->window.count() >= kWindowSamples) close_window();
    for (double b : r.worker_busy_seconds) loop->busy_s += b;
    loop->capacity_s +=
        r.wall_seconds * static_cast<double>(r.worker_busy_seconds.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
      if (!SameAnswer(r.results[q], reference[q])) ++loop->failed;
    }
    loop->last = std::move(r.results);
  }
  // Runs too short for one full window report their partial one.
  if (loop->latency.p50_ms.empty() && loop->window.count() > 0) {
    close_window();
  }
}

// Everything one workload measured; main() turns it into metrics.
struct Outcome {
  std::vector<double> qps;  // passes, or serve bursts
  LatencyWindows latency;
  std::vector<double> setup_s;
  double recall = 0.0;
  int64_t recall_samples = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool valid = true;
  uint64_t checksum = 0;            // measured answers to the pool
  uint64_t reference_checksum = 0;  // untraced per-query answers

  // Trace runs only.
  std::vector<double> untraced_qps;
  SetupLayers setup_layers;
  std::vector<GroupRecord> groups;
  int64_t dim = 0;
  double rank_us = 0.0;  // centroid ranking per query; 0 without IVF
  double late_frac = 0.0, submit_frac = 0.0, wait_frac = 0.0,
         handoff_frac = 0.0, linger_flush_frac = 0.0;
  double worker_util = 0.0;
  double save_ms = 0.0, load_ms = 0.0, file_mb = 0.0, mmap_load_ms = 0.0;
  double fastscan_codes_per_s = 0.0, l2sqr_rows_per_s = 0.0;

  void AddPasses(const PassLoop& loop) {
    qps.insert(qps.end(), loop.qps.begin(), loop.qps.end());
    latency.Merge(loop.latency);
    attempted += loop.attempted;
    failed += loop.failed;
  }
};

// The closed-loop measurement of ivf-opq-batch, hnsw-res-query and
// ivf-pca-restart: pin, warm up, then repeat `pass` for --seconds. A traced
// run spends the first half untraced (for trace.overhead_frac) and the
// second half through TracingComputer.
template <typename Pass>
void MeasureClosedLoop(const Options& opt, bool grouped,
                       const Answers& reference, const GroundTruth& gt,
                       const ri::index::ComputerFactory& make, Tracer* tracer,
                       Pass&& pass, Outcome* o) {
  PinCurrentThread(WorkerCpus());
  pass(make);  // warm-up: caches, page faults, lazy code tags
  PassLoop loop;
  if (tracer != nullptr) {
    PassLoop untraced;
    MeasurePasses(opt.seconds / 2, grouped, reference,
                  [&] { return pass(make); }, &untraced);
    o->untraced_qps = untraced.qps;
    o->attempted += untraced.attempted;
    o->failed += untraced.failed;
    const ri::index::ComputerFactory traced = Traced(make, tracer);
    MeasurePasses(opt.seconds / 2, grouped, reference,
                  [&] { return pass(traced); }, &loop);
  } else {
    MeasurePasses(opt.seconds, grouped, reference, [&] { return pass(make); },
                  &loop);
  }
  o->AddPasses(loop);
  o->recall = Recall(loop.last, gt);
  o->recall_samples = static_cast<int64_t>(gt.size());
  o->checksum = Checksum(loop.last);
  o->worker_util = Ratio(loop.busy_s, loop.capacity_s);
}

// Writes the Chrome trace (when a file is named), then hands the scan
// groups to the per-layer metrics.
inline void FinishTrace(const Options& opt, Tracer* tracer, Outcome* o) {
  constexpr std::size_t kMaxTraceEvents = 200000;
  if (!opt.trace_file.empty() &&
      !tracer->WriteChromeTrace(opt.trace_file, kMaxTraceEvents)) {
    std::fprintf(stderr, "could not write %s\n", opt.trace_file.c_str());
  }
  o->groups = tracer->TakeGroups();
}

// Fails the run (without aborting it) on a non-OK status.
inline bool Ok(const ri::util::Status& status, const char* what,
               Outcome* o) {
  if (status.ok()) return true;
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  ++o->attempted;
  ++o->failed;
  return false;
}

inline double FileMb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1 << 20);
}

// --- Persist probe (persist and storage layers), run in traced runs -------

// One file of a persisted model: how to write it and how to read it back
// through each storage backend. Empty steps are skipped.
struct PersistedFile {
  using Step = std::function<ri::util::Status()>;
  std::string path;
  Step save;
  Step load;       // memory backend, into the model `check` searches
  Step load_mmap;  // mmap backend, discarded after loading
};

// A scratch directory under --work-dir, removed with everything in it.
struct ProbeDir {
  explicit ProbeDir(const Options& opt)
      : path(opt.work_dir + "/persist-" + std::to_string(::getpid())) {
    std::filesystem::create_directories(path);
  }
  ~ProbeDir() { std::filesystem::remove_all(path); }
  ProbeDir(const ProbeDir&) = delete;
  ProbeDir& operator=(const ProbeDir&) = delete;
  std::string path;
};

// Saves every file, loads each back with the memory backend, runs `check`
// on the loaded model, then loads the files again through the mmap
// backend. Each phase is one span (persist.save, persist.load,
// storage.mmap_load); a failed step fails the run and ends the probe.
inline void PersistRoundTrip(const std::vector<PersistedFile>& files,
                             const std::function<void()>& check,
                             Tracer* tracer, Outcome* o) {
  const auto phase = [&](const char* name, double* seconds,
                         PersistedFile::Step PersistedFile::*step) {
    const auto has_step = [&](const PersistedFile& f) { return bool(f.*step); };
    if (std::none_of(files.begin(), files.end(), has_step)) return true;
    bool ok = true;
    TimeLayer(tracer, name, seconds, [&] {
      for (const PersistedFile& f : files) {
        if (ok && f.*step) ok = Ok((f.*step)(), f.path.c_str(), o);
      }
    });
    return ok;
  };
  double save_s = 0.0, load_s = 0.0, mmap_s = 0.0;
  if (phase("persist.save", &save_s, &PersistedFile::save) &&
      phase("persist.load", &load_s, &PersistedFile::load)) {
    if (check) check();
    phase("storage.mmap_load", &mmap_s, &PersistedFile::load_mmap);
  }
  o->save_ms = save_s * 1e3;
  o->load_ms = load_s * 1e3;
  o->mmap_load_ms = mmap_s * 1e3;
  o->file_mb = 0.0;
  for (const PersistedFile& f : files) o->file_mb += FileMb(f.path);
}

// Counts a failure for each of the first 64 pool queries whose answer
// from `search` is not bit-identical to the reference.
template <typename Search>
void CheckFirstAnswers(const ri::linalg::Matrix& queries,
                       const Answers& reference, Search&& search,
                       Outcome* o) {
  const int64_t checked = std::min<int64_t>(64, queries.rows());
  for (int64_t q = 0; q < checked; ++q) {
    ++o->attempted;
    if (!SameAnswer(search(queries.Row(q)),
                    reference[static_cast<std::size_t>(q)])) {
      ++o->failed;
    }
  }
}

// --- Kernel probes (simd layer), run in traced runs ------------------------

inline volatile uint32_t g_probe_sink = 0;
inline constexpr double kProbeSeconds = 0.2;

// Packed 4-bit fast-scan at m = 32 over 64k random codes (1 MiB, L2-sized).
inline double FastScanCodesPerSecond(uint64_t seed) {
  constexpr int kSubspaces = 32;
  constexpr int kCodes = 1 << 16;
  constexpr int kBlock = 32;
  ri::Rng rng(seed);
  std::vector<uint8_t> lut(kSubspaces * 16);
  std::vector<uint8_t> codes(static_cast<std::size_t>(kCodes) * kSubspaces / 2);
  for (auto& b : lut) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (auto& b : codes) b = static_cast<uint8_t>(rng.UniformInt(256));
  std::vector<const uint8_t*> rows(kCodes);
  for (int c = 0; c < kCodes; ++c) rows[c] = codes.data() + c * kSubspaces / 2;
  uint16_t out[kBlock];
  uint32_t sink = 0;
  int64_t scanned = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  while (elapsed < static_cast<int64_t>(kProbeSeconds * 1e9)) {
    for (int c = 0; c < kCodes; c += kBlock) {
      ri::simd::PqAdcFastScan(lut.data(), kSubspaces, rows.data() + c, kBlock,
                              out);
      sink += out[0];
    }
    scanned += kCodes;
    elapsed = NowNs() - start;
  }
  g_probe_sink = g_probe_sink + sink;
  return static_cast<double>(scanned) / (static_cast<double>(elapsed) / 1e9);
}

// L2SqrBatch4 over the first 4096 rows of `base` (2 MiB at d = 128).
inline double L2Batch4RowsPerSecond(const ri::linalg::Matrix& base,
                                    const float* query) {
  const int64_t rows = std::min<int64_t>(4096, base.rows()) / 4 * 4;
  const std::size_t d = static_cast<std::size_t>(base.cols());
  float out[4];
  float sink = 0.0f;
  int64_t scanned = 0;
  const int64_t start = NowNs();
  int64_t elapsed = 0;
  while (elapsed < static_cast<int64_t>(kProbeSeconds * 1e9)) {
    for (int64_t r = 0; r < rows; r += 4) {
      const float* ptrs[4] = {base.Row(r), base.Row(r + 1), base.Row(r + 2),
                              base.Row(r + 3)};
      ri::simd::L2SqrBatch4(query, ptrs, d, out);
      sink += out[0];
    }
    scanned += rows;
    elapsed = NowNs() - start;
  }
  g_probe_sink = g_probe_sink + static_cast<uint32_t>(sink > 0.0f);
  return static_cast<double>(scanned) / (static_cast<double>(elapsed) / 1e9);
}

inline void RunKernelProbes(const Options& opt, const ri::linalg::Matrix& base,
                            const float* query, Outcome* o) {
  o->fastscan_codes_per_s = FastScanCodesPerSecond(opt.seed);
  o->l2sqr_rows_per_s = L2Batch4RowsPerSecond(base, query);
}

// Per-query centroid ranking over the pool, as Submit and Search do it.
inline double RankMicrosPerQuery(const ri::index::IvfIndex& ivf,
                                 const ri::linalg::Matrix& queries,
                                 int nprobe) {
  const int64_t start = NowNs();
  uint32_t sink = 0;
  for (int64_t q = 0; q < queries.rows(); ++q) {
    sink += static_cast<uint32_t>(
        ri::quant::NearestCentroids(ivf.centroids(), queries.Row(q), nprobe)
            .front());
  }
  g_probe_sink = g_probe_sink + sink;
  return static_cast<double>(NowNs() - start) / 1e3 /
         static_cast<double>(queries.rows());
}

}  // namespace resbench

#endif  // RESBENCH_COMMON_H_
