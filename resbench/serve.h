// ivf-opq-serve: open-loop Poisson traffic into IvfServer, then capacity
// bursts.
#ifndef RESBENCH_SERVE_H_
#define RESBENCH_SERVE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "ivf_opq.h"

namespace resbench {

// Keeps the two workers 15-30% busy (serve.worker_util), so a host
// running at half speed still leaves them headroom: at 8000/s such a host
// pushed the open loop into backlog (p50 8-13 ms instead of 0.6 ms) and
// the generator's sends late. Fixed so that runs stay comparable.
inline constexpr double kServeRate = 4000.0;
// Requests whose stage spans go into the Chrome trace.
inline constexpr std::size_t kTracedRequests = 4000;

// One open-loop request, all times on the steady clock in ns.
struct Request {
  int64_t query = 0;
  int64_t due = 0;           // when the schedule says it is sent
  int64_t submit_start = 0;  // Submit entered
  int64_t submit_end = 0;    // Submit returned
  int64_t observed = 0;      // generator saw the future ready
};

using ServeFuture = std::future<std::vector<ri::index::Neighbor>>;

// Between polls the generator pauses, which leaves the core's execution
// units to a sibling hardware thread.
inline void CpuRelax() {
  for (int i = 0; i < 8; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
  }
}

struct OpenLoop {
  std::vector<Request> requests;
  ri::Histogram late_ms;  // submit_start - due
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t start_ns = 0, end_ns = 0;
};

// One generator thread sends Poisson arrivals for `seconds` and, between
// sends, polls the in-flight futures so each completion is timed when it
// happens rather than in submission order. Latency counts from the due
// time, so a stalled generator charges its lateness to the requests.
inline OpenLoop RunOpenLoop(ri::serve::IvfServer& server,
                            const ri::linalg::Matrix& queries,
                            const Answers& reference, double seconds,
                            uint64_t seed) {
  OpenLoop out;
  ri::Rng rng(seed ^ 0x5E4E5E4E5E4E5E4Eull);
  const auto gap_ns = [&rng] {
    return static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) / kServeRate *
                                1e9);
  };
  out.requests.reserve(static_cast<std::size_t>(kServeRate * seconds * 1.2));
  std::vector<ServeFuture> futures;
  futures.reserve(out.requests.capacity());
  std::vector<std::size_t> in_flight;

  out.start_ns = NowNs();
  const int64_t stop = out.start_ns + static_cast<int64_t>(seconds * 1e9);
  int64_t next_due = out.start_ns + gap_ns();
  while (true) {
    while (next_due < stop && next_due <= NowNs()) {
      Request r;
      r.query = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(queries.rows())));
      r.due = next_due;
      r.submit_start = NowNs();
      ++out.attempted;
      try {
        futures.push_back(server.Submit(queries.Row(r.query), kTopK,
                                        kIvfOpqNprobe));
        r.submit_end = NowNs();
        out.requests.push_back(r);
        in_flight.push_back(out.requests.size() - 1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "submit failed: %s\n", e.what());
        ++out.failed;
      }
      next_due += gap_ns();
    }
    for (std::size_t i = 0; i < in_flight.size();) {
      const std::size_t idx = in_flight[i];
      if (futures[idx].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      Request& r = out.requests[idx];
      r.observed = NowNs();
      try {
        if (!SameAnswer(futures[idx].get(),
                        reference[static_cast<std::size_t>(r.query)])) {
          ++out.failed;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request failed: %s\n", e.what());
        ++out.failed;
      }
      out.late_ms.Add(static_cast<double>(r.submit_start - r.due) / 1e6);
      in_flight[i] = in_flight.back();
      in_flight.pop_back();
    }
    if (next_due >= stop && in_flight.empty()) break;
    CpuRelax();
  }
  out.end_ns = NowNs();
  return out;
}

// Submits the whole pool back to back in shuffled order and waits for it:
// one capacity sample. `answers` receives the pool's answers.
inline double RunBurst(ri::serve::IvfServer& server,
                       const ri::linalg::Matrix& queries,
                       const Answers& reference, ri::Rng& rng,
                       Answers* answers, Outcome* o) {
  std::vector<int64_t> order(static_cast<std::size_t>(queries.rows()));
  std::iota(order.begin(), order.end(), int64_t{0});
  rng.Shuffle(order);
  std::vector<ServeFuture> futures(order.size());
  answers->assign(order.size(), {});
  const int64_t start = NowNs();
  for (int64_t q : order) {
    futures[static_cast<std::size_t>(q)] =
        server.Submit(queries.Row(q), kTopK, kIvfOpqNprobe);
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ++o->attempted;
    try {
      (*answers)[q] = futures[q].get();
      if (!SameAnswer((*answers)[q], reference[q])) ++o->failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request failed: %s\n", e.what());
      ++o->failed;
    }
  }
  const double wall = static_cast<double>(NowNs() - start) / 1e9;
  return static_cast<double>(queries.rows()) / wall;
}

// Splits each open-loop request's wall (observed - due) into lateness,
// submit, wait (submit return to group-scan start: linger and executor
// queueing), group scan and handoff, by matching requests to the scan
// groups that carried their query bytes (oldest unmatched request first).
// Stage shares are of the summed wall of matched requests, so they add
// up to 1.
inline void SplitServeStages(const OpenLoop& loop,
                             const std::vector<uint64_t>& pool_hashes,
                             std::vector<GroupRecord> groups, Tracer* tracer,
                             Outcome* o) {
  std::sort(groups.begin(), groups.end(),
            [](const GroupRecord& a, const GroupRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::unordered_map<uint64_t, std::deque<std::size_t>> pending;
  for (std::size_t i = 0; i < loop.requests.size(); ++i) {
    pending[pool_hashes[static_cast<std::size_t>(loop.requests[i].query)]]
        .push_back(i);
  }
  double late = 0, submit = 0, wait = 0, scan = 0, handoff = 0, wall = 0;
  int64_t matched = 0;
  for (const GroupRecord& g : groups) {
    for (uint64_t h : g.member_hashes) {
      auto it = pending.find(h);
      if (it == pending.end()) continue;
      // The oldest request with these bytes that was submitted before the
      // group started and seen done after it ended; with two workers an
      // older request can still be in a group that ends later.
      std::deque<std::size_t>& queue = it->second;
      const auto fits = std::find_if(
          queue.begin(), queue.end(), [&](std::size_t i) {
            return loop.requests[i].submit_end <= g.start_ns &&
                   loop.requests[i].observed >= g.end_ns;
          });
      if (fits == queue.end()) continue;
      const std::size_t idx = *fits;
      const Request& r = loop.requests[idx];
      queue.erase(fits);
      ++matched;
      late += static_cast<double>(r.submit_start - r.due);
      submit += static_cast<double>(r.submit_end - r.submit_start);
      wait += static_cast<double>(g.start_ns - r.submit_end);
      scan += static_cast<double>(g.end_ns - g.start_ns);
      handoff += static_cast<double>(r.observed - g.end_ns);
      wall += static_cast<double>(r.observed - r.due);
      if (idx < kTracedRequests) {
        const int64_t request = static_cast<int64_t>(idx);
        const int64_t parent =
            tracer->AddSpan("serve.request", r.due, r.observed, -1, request);
        tracer->AddSpan("loadgen.late", r.due, r.submit_start, parent,
                        request);
        tracer->AddSpan("serve.submit", r.submit_start, r.submit_end, parent,
                        request);
        tracer->AddSpan("serve.wait", r.submit_end, g.start_ns, parent,
                        request);
        tracer->AddSpan("index.group", g.start_ns, g.end_ns, parent, request,
                        g.tid);
        tracer->AddSpan("serve.handoff", g.end_ns, r.observed, parent,
                        request);
      }
    }
  }
  o->late_frac = Ratio(late, wall);
  o->submit_frac = Ratio(submit, wall);
  o->wait_frac = Ratio(wait, wall);
  o->handoff_frac = Ratio(handoff, wall);
  std::printf("# serve stages: matched %lld of %zu requests; mean us: "
              "late %.2f submit %.2f wait %.2f group %.2f handoff %.2f "
              "wall %.2f (sum/wall %.4f)\n",
              static_cast<long long>(matched), loop.requests.size(),
              Ratio(late, matched) / 1e3, Ratio(submit, matched) / 1e3,
              Ratio(wait, matched) / 1e3, Ratio(scan, matched) / 1e3,
              Ratio(handoff, matched) / 1e3, Ratio(wall, matched) / 1e3,
              Ratio(late + submit + wait + scan + handoff, wall));
}

inline Outcome RunIvfOpqServe(const Options& opt, const Sizes& s) {
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

  ri::serve::AdmissionOptions admission;  // linger 200us, groups of 32
  admission.num_threads = kWorkers;
  ri::Rng burst_rng(opt.seed ^ 0xB0257B0257ull);
  Answers answers;
  const auto warm_up = [&](ri::serve::IvfServer& server) {
    Outcome scratch;
    RunBurst(server, ds.queries, reference, burst_rng, &answers, &scratch);
  };

  // The server's threads (two workers, the linger flusher) inherit every
  // CPU but the generator's, which the generator then has to itself. With
  // the flusher confined to the two worker CPUs, p99 latency rose from 1.1
  // to 1.5-1.7 ms (at 8000/s) on the 4-vCPU VM the benchmark was defined
  // on.
  const auto pinned_server = [&](const ri::index::ComputerFactory& factory) {
    std::vector<int> server_cpus = AllowedCpus();
    if (server_cpus.size() > 1) {
      server_cpus.erase(std::find(server_cpus.begin(), server_cpus.end(),
                                  GeneratorCpu()));
    }
    PinCurrentThread(server_cpus);
    auto server = std::make_unique<ri::serve::IvfServer>(&model->ivf, factory,
                                                         admission);
    PinCurrentThread({GeneratorCpu()});
    return server;
  };

  if (opt.trace) {
    std::unique_ptr<ri::serve::IvfServer> server = pinned_server(make);
    warm_up(*server);
    for (int b = 0; b < s.bursts; ++b) {
      o.untraced_qps.push_back(
          RunBurst(*server, ds.queries, reference, burst_rng, &answers, &o));
    }
  }

  OpenLoop loop;
  double busy_s = 0.0;
  int64_t groups = 0, linger_flushes = 0;
  {
    std::unique_ptr<ri::serve::IvfServer> owned =
        pinned_server(Traced(make, tracer.get()));
    ri::serve::IvfServer& server = *owned;
    warm_up(server);
    const auto busy = [&server] {
      double sum = 0.0;
      for (double b : server.executor_stats().busy_seconds) sum += b;
      return sum;
    };
    const double busy_before = busy();
    const ri::serve::ServingStats before = server.stats();
    loop = RunOpenLoop(server, ds.queries, reference, opt.seconds, opt.seed);
    busy_s = busy() - busy_before;
    const ri::serve::ServingStats after = server.stats();
    groups = after.groups - before.groups;
    linger_flushes = after.linger_flushes - before.linger_flushes;
    for (int b = 0; b < s.bursts; ++b) {
      o.qps.push_back(
          RunBurst(server, ds.queries, reference, burst_rng, &answers, &o));
    }
  }  // the server's computers hand their scan groups to the tracer here

  // Latency (observed - due) per one-second window of due times.
  std::vector<ri::Histogram> windows;
  for (const Request& r : loop.requests) {
    const auto w = static_cast<std::size_t>((r.due - loop.start_ns) / 1000000000);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].Add(static_cast<double>(r.observed - r.due) / 1e6);
  }
  ri::Histogram all_ms;
  for (const ri::Histogram& w : windows) {
    if (w.count() == 0) continue;
    o.latency.Add(w, 1.0);
    all_ms.Merge(w);
  }
  o.attempted += loop.attempted;
  o.failed += loop.failed;
  o.recall = Recall(answers, gt);
  o.recall_samples = static_cast<int64_t>(gt.size());
  o.checksum = Checksum(answers);
  // The generator should keep to its schedule: a run whose sends were late
  // by more than the median request's whole wall measured the generator
  // (or the host stalling it) as much as the server, and prints valid=0.
  const double late_p99 = loop.late_ms.Percentile(0.99);
  const double p50 = all_ms.Percentile(0.5);
  o.valid = late_p99 <= p50;
  std::printf("# loadgen: %zu requests at %.0f/s, late p99 %.4f ms, "
              "late max %.4f ms, valid %d; whole-run latency p50 %.4f ms "
              "p99 %.4f ms\n",
              loop.requests.size(), kServeRate, late_p99, loop.late_ms.max(),
              o.valid ? 1 : 0, p50, all_ms.Percentile(0.99));

  if (opt.trace) {
    o.dim = ds.dim();
    const double open_wall = static_cast<double>(loop.end_ns - loop.start_ns) / 1e9;
    o.worker_util = Ratio(busy_s, open_wall * kWorkers);
    o.linger_flush_frac = Ratio(static_cast<double>(linger_flushes),
                                static_cast<double>(groups));
    o.rank_us = RankMicrosPerQuery(model->ivf, ds.queries, kIvfOpqNprobe);
    RunKernelProbes(opt, ds.base, ds.queries.Row(0), &o);
    PersistProbeIvfOpq(opt, ds, *model, reference, tracer.get(), &o);
    std::vector<uint64_t> pool_hashes(static_cast<std::size_t>(ds.queries.rows()));
    for (int64_t q = 0; q < ds.queries.rows(); ++q) {
      pool_hashes[static_cast<std::size_t>(q)] =
          HashQuery(ds.queries.Row(q), ds.dim());
    }
    std::vector<GroupRecord> all = tracer->TakeGroups();
    // Layer metrics describe the open-loop phase only; burst groups are
    // still in the Chrome trace.
    std::vector<GroupRecord> open_groups;
    for (const GroupRecord& g : all) {
      if (g.start_ns >= loop.start_ns && g.start_ns <= loop.end_ns) {
        open_groups.push_back(g);
      }
    }
    SplitServeStages(loop, pool_hashes, open_groups, tracer.get(), &o);
    tracer->AddGroups(std::move(all));
    FinishTrace(opt, tracer.get(), &o);
    o.groups = std::move(open_groups);
  }
  return o;
}

}  // namespace resbench

#endif  // RESBENCH_SERVE_H_
