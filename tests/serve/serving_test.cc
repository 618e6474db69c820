// Coalescing admission conformance. The load-bearing guarantee is
// bit-identity: every query submitted through IvfServer — in any arrival
// order, from any number of client threads, coalesced into whatever groups
// traffic produced — must resolve to exactly the neighbors a solo
// Search(query, k, nprobe) returns (ids and distances). On top of that,
// the dispatch triggers (idle worker, full group, drain), holding while
// every worker is busy, and the occupancy accounting are pinned. The CI
// TSan job runs this suite.
#include "serve/admission.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ddc_any.h"
#include "core/training_data.h"
#include "index/ivf_index.h"
#include "persist/persist.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/rng.h"

namespace resinfer::serve {
namespace {

using index::DistanceComputer;
using index::Neighbor;

// Until Open() (call it once), every waiter blocks. Tests hold workers
// inside their first group with it, so "every worker is busy" is a fact
// rather than a timing assumption.
class Gate {
 public:
  void Open() { open_.set_value(); }
  std::shared_future<void> opened() const { return opened_; }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
};

// The exact computer, blocking at the start of every query or query group
// until its gate opens.
class GatedComputer : public index::FlatDistanceComputer {
 public:
  GatedComputer(const data::Dataset& ds, std::shared_future<void> opened)
      : FlatDistanceComputer(ds.base.data(), ds.size(), ds.dim()),
        opened_(std::move(opened)) {}

  void BeginQuery(const float* query) override {
    opened_.wait();
    FlatDistanceComputer::BeginQuery(query);
  }
  void SetQueryBatch(const float* queries, int count,
                     int64_t stride) override {
    opened_.wait();
    FlatDistanceComputer::SetQueryBatch(queries, count, stride);
  }

 private:
  std::shared_future<void> opened_;
};

struct ServingFixture {
  data::Dataset ds = testing::SmallDataset(1500, 24, 1.0, 131, 40, 140);
  index::IvfIndex ivf;
  core::PqEstimatorData pq;
  core::LinearCorrector pq_corrector;

  ServingFixture() {
    index::IvfOptions options;
    options.num_clusters = 24;
    ivf = index::IvfIndex::Build(ds.base, options);

    quant::PqOptions pq_options;
    pq_options.num_subspaces = 8;
    pq_options.nbits = 6;
    pq = core::BuildPqEstimatorData(ds.base, pq_options);
    core::TrainingDataOptions training;
    training.max_queries = 60;
    core::PqAdcEstimator estimator(&pq);
    pq_corrector = core::TrainAnyCorrector(estimator, ds.base,
                                           ds.train_queries, training);
    // Code-resident scans for the estimator path, as a real server runs.
    ivf.AttachCodesFrom(*DdcPqFactory()());
  }

  index::ComputerFactory ExactFactory() {
    return [this] {
      return std::make_unique<index::FlatDistanceComputer>(
          ds.base.data(), ds.size(), ds.dim());
    };
  }
  index::ComputerFactory GatedFactory(const Gate& gate) {
    return [this, opened = gate.opened()] {
      return std::make_unique<GatedComputer>(ds, opened);
    };
  }
  index::ComputerFactory DdcPqFactory() {
    return [this] {
      return std::make_unique<core::DdcAnyComputer>(
          &ds.base, std::make_unique<core::PqAdcEstimator>(&pq),
          &pq_corrector);
    };
  }
};

ServingFixture& Fixture() {
  static ServingFixture* fixture = new ServingFixture();
  return *fixture;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& want,
                         const std::vector<Neighbor>& got,
                         const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << label << " rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << label << " rank " << i;
  }
}

// Solo answers computed through a fresh computer — the reference every
// serving-path result must match bit-for-bit.
std::vector<std::vector<Neighbor>> SoloAnswers(
    ServingFixture& f, const index::ComputerFactory& factory, int k,
    int nprobe) {
  auto computer = factory();
  std::vector<std::vector<Neighbor>> want;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    want.push_back(f.ivf.Search(*computer, f.ds.queries.Row(q), k, nprobe));
  }
  return want;
}

TEST(ServingTest, CoalescedAnswersBitIdenticalInAnyArrivalOrder) {
  ServingFixture& f = Fixture();
  const int k = 10, nprobe = 6;
  struct Case {
    const char* name;
    index::ComputerFactory factory;
  };
  std::vector<Case> cases = {{"exact", f.ExactFactory()},
                             {"ddc-pq", f.DdcPqFactory()}};
  for (auto& c : cases) {
    const auto want = SoloAnswers(f, c.factory, k, nprobe);
    // A shuffled arrival order: coalescing must reassemble co-probing
    // queries without ever mixing up whose answer is whose.
    std::vector<int64_t> order(static_cast<std::size_t>(f.ds.queries.rows()));
    std::iota(order.begin(), order.end(), int64_t{0});
    Rng rng(977);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.UniformInt(i))]);
    }
    AdmissionOptions options;
    options.num_threads = 2;
    options.max_group_size = 8;
    IvfServer server(&f.ivf, c.factory, options);
    std::vector<std::future<std::vector<Neighbor>>> futures(order.size());
    for (int64_t q : order) {
      futures[static_cast<std::size_t>(q)] =
          server.Submit(f.ds.queries.Row(q), k, nprobe);
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
      ExpectSameNeighbors(want[q], futures[q].get(),
                          std::string(c.name) + " q=" + std::to_string(q));
    }
    server.Shutdown();
    ServingStats stats = server.stats();
    EXPECT_EQ(stats.requests, f.ds.queries.rows());
    EXPECT_EQ(stats.group_occupancy.sum(),
              static_cast<double>(f.ds.queries.rows()));
    EXPECT_EQ(stats.latency_seconds.count(), f.ds.queries.rows());
  }
}

TEST(ServingTest, ConcurrentClientsGetTheirOwnAnswers) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  const int64_t n = f.ds.queries.rows();
  std::vector<std::future<std::vector<Neighbor>>> futures(
      static_cast<std::size_t>(n));
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t q = c; q < n; q += kClients) {
        futures[static_cast<std::size_t>(q)] =
            server.Submit(f.ds.queries.Row(q), k, nprobe);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int64_t q = 0; q < n; ++q) {
    ExpectSameNeighbors(want[static_cast<std::size_t>(q)],
                        futures[static_cast<std::size_t>(q)].get(),
                        "client-interleaved q=" + std::to_string(q));
  }
}

TEST(ServingTest, IdleWorkerDispatchesPartialGroupWithoutFlush) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 32;  // never fills with 3 requests
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < 3; ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), 5, 4));
  }
  // No Flush, no Shutdown: only a free worker can release these.
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_FALSE(future.get().empty());
  }
  ServingStats stats = server.stats();
  EXPECT_GE(stats.linger_flushes, 1);
  EXPECT_EQ(stats.full_flushes, 0);
  EXPECT_EQ(stats.group_occupancy.sum(), 3.0);
}

TEST(ServingTest, FullGroupDispatchesWhileEveryWorkerIsBusy) {
  ServingFixture& f = Fixture();
  Gate gate;
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 4;
  IvfServer server(&f.ivf, f.GatedFactory(gate), options);
  // The first request takes the only worker, and the gate holds it there.
  auto first = server.Submit(f.ds.queries.Row(1), 5, 4);
  // The same query four times shares one coalescing key by construction.
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.Submit(f.ds.queries.Row(0), 5, 4));
  }
  // The fourth member fills the group, which dispatches without a free
  // worker (EXPECT only until the gate opens: the server's destructor
  // would wait for the held worker forever).
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.full_flushes, 1);
  EXPECT_EQ(stats.groups, 2);
  EXPECT_DOUBLE_EQ(stats.group_occupancy.max(), 4.0);
  gate.Open();
  EXPECT_FALSE(first.get().empty());
  auto reference = futures[0].get();
  for (int i = 1; i < 4; ++i) {
    ExpectSameNeighbors(reference, futures[i].get(),
                        "duplicate " + std::to_string(i));
  }
}

TEST(ServingTest, HeldRequestsCoalesceWhileEveryWorkerIsBusy) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.ExactFactory(), k, nprobe);
  Gate gate;
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 32;
  IvfServer server(&f.ivf, f.GatedFactory(gate), options);
  // The first request takes the only worker, and the gate holds it there.
  auto first = server.Submit(f.ds.queries.Row(0), k, nprobe);
  // Same (k, nprobe), so the dispatch-time top-up may merge their keys.
  constexpr int kHeld = 6;
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int q = 1; q <= kHeld; ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  // EXPECT only until the gate opens (see above).
  EXPECT_EQ(server.stats().groups, 1);
  EXPECT_EQ(server.stats().requests, kHeld + 1);
  gate.Open();
  ExpectSameNeighbors(want[0], first.get(), "q=0");
  for (int q = 1; q <= kHeld; ++q) {
    ExpectSameNeighbors(want[static_cast<std::size_t>(q)],
                        futures[static_cast<std::size_t>(q - 1)].get(),
                        "held q=" + std::to_string(q));
  }
  // The worker that finished the first group took every held request as
  // one group.
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.groups, 2);
  EXPECT_DOUBLE_EQ(stats.group_occupancy.max(), kHeld);
  EXPECT_EQ(stats.linger_flushes, 2);
  EXPECT_EQ(stats.full_flushes, 0);
}

TEST(ServingTest, ShutdownDrainsInFlightWork) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.ExactFactory(), k, nprobe);
  Gate gate;
  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 16;
  IvfServer server(&f.ivf, f.GatedFactory(gate), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  // Both workers are held in their first group, so the rest is still
  // pending when Shutdown drains it; the gate opens once the drain has
  // dispatched (or after 10 s, so a failure reports instead of hanging).
  std::thread opener([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().drain_flushes == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    gate.Open();
  });
  server.Shutdown();  // must flush pending groups and wait for them
  opener.join();
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ASSERT_EQ(futures[q].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "q=" << q;
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "drain q=" + std::to_string(q));
  }
  ServingStats stats = server.stats();
  EXPECT_GE(stats.drain_flushes, 1);
  EXPECT_EQ(stats.latency_seconds.count(), f.ds.queries.rows());
}

TEST(ServingTest, NoRequestStrandsWhileAWorkerIsIdle) {
  // Regression for a Submit-vs-completion race: a request filed as pending
  // just as the last busy worker finishes must still be picked up, or it
  // waits beside an idle worker for a Flush that never comes. Every future
  // must resolve with no Flush or Shutdown.
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  const int64_t n = f.ds.queries.rows();
  constexpr int kClients = 4;
  std::vector<std::vector<std::future<std::vector<Neighbor>>>> futures(
      kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client sends the whole query set, from its own offset.
      for (int64_t i = 0; i < n; ++i) {
        const int64_t q = (i + c * n / kClients) % n;
        futures[static_cast<std::size_t>(c)].push_back(
            server.Submit(f.ds.queries.Row(q), k, nprobe));
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (int64_t i = 0; i < n; ++i) {
      const int64_t q = (i + c * n / kClients) % n;
      auto& future =
          futures[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)];
      ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "client " << c << " q=" << q;
      ExpectSameNeighbors(want[static_cast<std::size_t>(q)], future.get(),
                          "client " + std::to_string(c) + " q=" +
                              std::to_string(q));
    }
  }
  EXPECT_EQ(server.stats().drain_flushes, 0);
}

TEST(ServingTest, DifferentParametersNeverShareAGroup) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 32;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  // Same query, three parameter sets: the answers must match the solo
  // search for each (k, nprobe), which a mixed group could not produce.
  auto fa = server.Submit(f.ds.queries.Row(0), 3, 2);
  auto fb = server.Submit(f.ds.queries.Row(0), 7, 4);
  auto fc = server.Submit(f.ds.queries.Row(0), 7, 8);
  auto computer = f.ExactFactory()();
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 3, 2),
                      fa.get(), "k=3 nprobe=2");
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 7, 4),
                      fb.get(), "k=7 nprobe=4");
  ExpectSameNeighbors(f.ivf.Search(*computer, f.ds.queries.Row(0), 7, 8),
                      fc.get(), "k=7 nprobe=8");
  server.Shutdown();
  EXPECT_EQ(server.stats().groups, 3);
}

TEST(ServingTest, NonPositiveKResolvesEmptyImmediately) {
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 1;
  IvfServer server(&f.ivf, f.ExactFactory(), options);
  auto future = server.Submit(f.ds.queries.Row(0), 0, 4);
  EXPECT_TRUE(future.get().empty());
  EXPECT_EQ(server.stats().groups, 0);
  EXPECT_EQ(server.stats().requests, 1);
}

TEST(ServingTest, CoalescingOffServesEveryRequestSolo) {
  ServingFixture& f = Fixture();
  const int k = 5, nprobe = 4;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);
  AdmissionOptions options;
  options.num_threads = 2;
  options.coalesce = false;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "solo q=" + std::to_string(q));
  }
  server.Shutdown();
  ServingStats stats = server.stats();
  EXPECT_EQ(stats.groups, f.ds.queries.rows());
  EXPECT_DOUBLE_EQ(stats.MeanOccupancy(), 1.0);
}

TEST(ServingTest, BackloggedTrafficCoalesces) {
  // With one worker and a burst of co-probing traffic, groups must form
  // (occupancy > 1): this is the property the serving bench quantifies.
  // The gate keeps the worker in its first group until the burst is in,
  // so the backlog does not depend on how the threads are scheduled.
  ServingFixture& f = Fixture();
  Gate gate;
  AdmissionOptions options;
  options.num_threads = 1;
  options.max_group_size = 8;
  IvfServer server(&f.ivf, f.GatedFactory(gate), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  constexpr int kRepeats = 16;  // same query => same key, a full backlog
  for (int i = 0; i < kRepeats; ++i) {
    futures.push_back(server.Submit(f.ds.queries.Row(1), 5, 4));
  }
  gate.Open();
  for (auto& future : futures) future.get();
  server.Shutdown();
  EXPECT_GE(server.stats().MeanOccupancy(), 2.0);
}

TEST(ServingTest, MmapLoadedIndexServesBitIdenticalAnswers) {
  // End-to-end storage tier check: save the fixture index (persist v6),
  // reload it zero-copy through the mmap backend, and serve coalesced
  // traffic from the mapped records. Every answer must be bit-identical to
  // the in-memory index's solo search — the serving layer pins the storage
  // handle per dispatched group, so the mapping cannot be unmapped under an
  // in-flight scan. The CI matrix also runs this whole suite with
  // RESINFER_STORAGE=mmap, covering the env-default route.
  ServingFixture& f = Fixture();
  const int k = 10, nprobe = 6;
  const auto want = SoloAnswers(f, f.DdcPqFactory(), k, nprobe);

  // Unique per process, so concurrent ctest processes never share it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("resinfer_serving_mmap_test_" +
                    std::to_string(static_cast<long long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "ivf_v6.bin").string();
  util::Status saved = persist::SaveIvf(path, f.ivf);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  persist::IvfLoadOptions load_options;
  load_options.backend = storage::StorageBackend::kMmap;
  index::IvfIndex mapped;
  util::Status loaded = persist::LoadIvf(path, &mapped, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_TRUE(mapped.has_codes());
  ASSERT_EQ(mapped.codes().storage_backend(),
            storage::StorageBackend::kMmap);

  AdmissionOptions options;
  options.num_threads = 2;
  options.max_group_size = 8;
  IvfServer server(&mapped, f.DdcPqFactory(), options);
  std::vector<std::future<std::vector<Neighbor>>> futures;
  for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
    futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ExpectSameNeighbors(want[q], futures[q].get(),
                        "mmap q=" + std::to_string(q));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().requests, f.ds.queries.rows());
  std::filesystem::remove_all(dir);
}

TEST(ServingTest, StatsSnapshotsAreCoherentDuringTraffic) {
  // Regression for a lock-discipline hole the thread-safety annotations
  // surfaced: stats() used to sweep the live per-worker computers with no
  // lock, racing every in-flight scan (the old header even admitted the
  // result was "only coherent when no search is in flight"). Stats are now
  // folded per dispatched group under stats_mu_, so a reader hammering
  // stats() during traffic must see race-free (TSan-clean under the CI
  // TSan job, which runs this suite) and monotonically growing counters.
  ServingFixture& f = Fixture();
  AdmissionOptions options;
  options.num_threads = 4;
  options.max_group_size = 8;
  IvfServer server(&f.ivf, f.DdcPqFactory(), options);
  constexpr int k = 10;
  constexpr int nprobe = 6;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    index::ComputerStats last;
    while (!stop.load(std::memory_order_acquire)) {
      const ServingStats snapshot = server.stats();
      // Whole-group folding: every counter only ever grows, and the
      // internal relations hold at every instant — a torn read of a live
      // computer would violate both.
      EXPECT_GE(snapshot.computer_stats.candidates, last.candidates);
      EXPECT_GE(snapshot.computer_stats.pruned, last.pruned);
      EXPECT_GE(snapshot.computer_stats.dims_scanned, last.dims_scanned);
      EXPECT_GE(snapshot.computer_stats.candidates,
                snapshot.computer_stats.pruned);
      last = snapshot.computer_stats;
    }
  });

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<std::future<std::vector<Neighbor>>> futures;
      for (int64_t q = 0; q < f.ds.queries.rows(); ++q) {
        futures.push_back(server.Submit(f.ds.queries.Row(q), k, nprobe));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  server.Shutdown();

  const ServingStats final_stats = server.stats();
  EXPECT_EQ(final_stats.requests, kClients * f.ds.queries.rows());
  // Every request's scan work is folded in by shutdown.
  EXPECT_GE(final_stats.computer_stats.candidates, final_stats.requests);
}

}  // namespace
}  // namespace resinfer::serve
