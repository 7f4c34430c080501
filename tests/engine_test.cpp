// Tests for the batched experiment engine: the thread pool, the streaming
// accumulator, the deterministic cell-seed stream, and above all the engine
// contract that aggregates are identical for any thread count and match a
// hand-rolled loop of run_execution calls.
#include <gtest/gtest.h>

#include <cmath>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "counting/randomized.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/trivial.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "sim/sink.hpp"
#include "synthesis/known_tables.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace synccount;

// Polls `done` for at least ten seconds; false on timeout, so a test that
// would deadlock fails instead of hanging.
template <class Pred>
bool eventually(Pred done) {
  for (int tries = 0; tries < 10000; ++tries) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(20, [&](std::size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ThrowingIterationReachesCallerAfterEveryIndexRan) {
  for (const int threads : {1, 3}) {
    util::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(40);
    try {
      pool.parallel_for(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 5) throw std::runtime_error("iteration 5");
      });
      ADD_FAILURE() << "no exception on " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "iteration 5");
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
    // The pool stays usable after a failed loop.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPool, PoolOfOneRunsOnTheCaller) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::set<std::thread::id> ids;
  pool.parallel_for(8, [&](std::size_t) { ids.insert(std::this_thread::get_id()); });
  EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ThreadPool, RefusesACallFromInsideAnIteration) {
  for (const int threads : {1, 2}) {
    util::ThreadPool pool(threads);
    EXPECT_THROW(pool.parallel_for(2, [&](std::size_t) { pool.parallel_for(2, [](std::size_t) {}); }),
                 std::logic_error)
        << threads << " threads";
  }
}

TEST(ThreadPool, CallsFromTwoThreadsRunOneAfterAnother) {
  util::ThreadPool pool(2);
  std::atomic<int> open_loops{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> count{0};
  const auto loop = [&] {
    for (int rep = 0; rep < 20; ++rep) {
      std::atomic<int> running{0};
      pool.parallel_for(4, [&](std::size_t i) {
        if (i == 0 && open_loops.fetch_add(1) != 0) overlapped = true;
        running.fetch_add(1);
        count.fetch_add(1);
        if (i == 0) {
          eventually([&] { return running.load() == 4; });
          open_loops.fetch_sub(1);
        }
      });
    }
  };
  std::thread other(loop);
  loop();
  other.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(count.load(), 2 * 20 * 4);
}

TEST(ThreadPool, ParallelForStartsIndicesInOrder) {
  // Index 0 holds its worker until the other one has run 1, 2 and 3: they
  // can only have started in index order, one claim after the other.
  util::ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::size_t> ran;
  bool saw_rest = false;
  pool.parallel_for(4, [&](std::size_t i) {
    if (i == 0) {
      saw_rest = eventually([&] {
        const std::lock_guard<std::mutex> lock(mu);
        return ran.size() == 3;
      });
      return;
    }
    const std::lock_guard<std::mutex> lock(mu);
    ran.push_back(i);
  });
  EXPECT_TRUE(saw_rest);
  EXPECT_EQ(ran, (std::vector<std::size_t>{1, 2, 3}));
}

// --- StreamingStats ----------------------------------------------------------

TEST(StreamingStats, MatchesBatchSummary) {
  const std::vector<double> xs = {5, 1, 4, 1, 3, 9, 2, 6};
  util::StreamingStats acc;
  for (double x : xs) acc.add(x);
  const auto batch = util::summarize(xs);
  EXPECT_EQ(acc.count(), batch.count);
  EXPECT_DOUBLE_EQ(acc.mean(), batch.mean);
  EXPECT_NEAR(acc.stddev(), batch.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), batch.min);
  EXPECT_DOUBLE_EQ(acc.max(), batch.max);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), batch.median);
  EXPECT_DOUBLE_EQ(acc.quantile(0.9), batch.p90);
}

TEST(StreamingStats, MergeEqualsSequentialAdds) {
  util::StreamingStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i * 1.5);
    all.add(i * 1.5);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.stddev(), all.stddev());
  EXPECT_DOUBLE_EQ(a.quantile(0.95), all.quantile(0.95));
}

TEST(StreamingStats, EmptyQuantileIsNaN) {
  util::StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// --- Cell seeds --------------------------------------------------------------

TEST(Engine, CellSeedsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) seen.insert(sim::cell_seed(0x9000, i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_NE(sim::cell_seed(1, 0), sim::cell_seed(2, 0));
}

// --- Engine ------------------------------------------------------------------

sim::ExperimentSpec small_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = boosting::build_plan(boosting::plan_practical(1, 2));
  const int n = spec.algo->num_nodes();
  spec.placements = {{"spread", sim::faults_spread(n, 1)},
                     {"prefix", sim::faults_prefix(n, 1)}};
  spec.adversaries = {"split", "random"};
  spec.seeds = 3;
  spec.stop_after_stable = 60;
  spec.margin = 50;
  return spec;
}

void expect_same_aggregate(const sim::AggregateResult& a, const sim::AggregateResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.stabilised, b.stabilised);
  EXPECT_EQ(a.max_pulls, b.max_pulls);
  EXPECT_EQ(a.stabilisation.count(), b.stabilisation.count());
  // Bit-identical, not just close: the fold order is fixed.
  EXPECT_EQ(a.stabilisation.mean(), b.stabilisation.mean());
  EXPECT_EQ(a.stabilisation.stddev(), b.stabilisation.stddev());
  EXPECT_EQ(a.stabilisation.min(), b.stabilisation.min());
  EXPECT_EQ(a.stabilisation.max(), b.stabilisation.max());
  EXPECT_EQ(a.stabilisation.quantile(0.5), b.stabilisation.quantile(0.5));
  EXPECT_EQ(a.stabilisation.quantile(0.95), b.stabilisation.quantile(0.95));
  EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_EQ(a.avg_pulls.mean(), b.avg_pulls.mean());
}

TEST(Engine, ThreadCountDoesNotChangeAggregates) {
  const auto spec = small_grid_spec();
  const sim::Engine serial(1);
  const sim::Engine parallel4(4);
  EXPECT_EQ(serial.threads(), 1);
  EXPECT_EQ(parallel4.threads(), 4);

  const auto a = serial.run(spec);
  const auto b = parallel4.run(spec);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].seed, b.cells[i].seed);
    EXPECT_EQ(a.cells[i].result.stabilisation_round, b.cells[i].result.stabilisation_round);
    EXPECT_EQ(a.cells[i].result.rounds, b.cells[i].result.rounds);
  }
  expect_same_aggregate(a.total, b.total);
  for (std::size_t adv = 0; adv < spec.adversaries.size(); ++adv) {
    for (std::size_t pl = 0; pl < spec.placements.size(); ++pl) {
      expect_same_aggregate(a.aggregate(adv, pl), b.aggregate(adv, pl));
    }
  }
}

TEST(Engine, MatchesHandRolledRunExecutionLoop) {
  const auto spec = small_grid_spec();
  const sim::Engine engine(2);
  const auto result = engine.run(spec);

  // The reference loop: same grid, same cell-seed stream, plain run_execution.
  util::StreamingStats ref_stab;
  std::uint64_t ref_runs = 0, ref_stabilised = 0;
  std::size_t idx = 0;
  for (const auto& adv_name : spec.adversaries) {
    for (const auto& placement : spec.placements) {
      for (int s = 0; s < spec.seeds; ++s, ++idx) {
        sim::RunConfig cfg;
        cfg.algo = spec.algo;
        cfg.faulty = placement.faulty;
        cfg.max_rounds = *spec.algo->stabilisation_bound() + spec.extra_rounds;
        cfg.seed = sim::cell_seed(spec.base_seed, idx);
        cfg.stop_after_stable = spec.stop_after_stable;
        auto adv = sim::make_adversary(adv_name);
        const auto res = sim::run_execution(cfg, *adv, spec.margin);
        ++ref_runs;
        if (res.stabilised) {
          ++ref_stabilised;
          ref_stab.add(static_cast<double>(res.stabilisation_round));
        }
      }
    }
  }

  EXPECT_EQ(result.total.runs, ref_runs);
  EXPECT_EQ(result.total.stabilised, ref_stabilised);
  EXPECT_EQ(result.total.stabilisation.count(), ref_stab.count());
  EXPECT_EQ(result.total.stabilisation.mean(), ref_stab.mean());
  EXPECT_EQ(result.total.stabilisation.min(), ref_stab.min());
  EXPECT_EQ(result.total.stabilisation.max(), ref_stab.max());
  EXPECT_EQ(result.total.stabilisation.quantile(0.5), ref_stab.quantile(0.5));
  EXPECT_EQ(result.total.stabilisation.quantile(0.95), ref_stab.quantile(0.95));
}

TEST(Engine, BatchedAndScalarBackendsGiveIdenticalAggregates) {
  // A shared TableAlgorithm with batchable adversaries takes the bit-parallel
  // batched backend; forcing Backend::kScalar must not change any aggregate
  // bit (the full per-RunResult comparison lives in batch_runner_test.cpp).
  sim::ExperimentSpec spec;
  spec.algo =
      std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  spec.adversaries = {"silent", "split", "random"};
  spec.placements = {{"none", {}}, {"spread", sim::faults_spread(4, 1)}};
  spec.seeds = 70;  // crosses the 64-lane chunk boundary
  spec.stop_after_stable = 40;
  spec.margin = 30;

  const sim::Engine engine(2);
  const auto batched = engine.run(spec);
  EXPECT_EQ(batched.batched_cells, batched.cells.size());

  spec.backend = sim::Backend::kScalar;
  const auto scalar = engine.run(spec);
  EXPECT_EQ(scalar.batched_cells, 0u);

  ASSERT_EQ(batched.cells.size(), scalar.cells.size());
  for (std::size_t i = 0; i < batched.cells.size(); ++i) {
    EXPECT_EQ(batched.cells[i].seed, scalar.cells[i].seed);
    EXPECT_EQ(batched.cells[i].result.rounds, scalar.cells[i].result.rounds);
    EXPECT_EQ(batched.cells[i].result.stabilisation_round,
              scalar.cells[i].result.stabilisation_round);
  }
  expect_same_aggregate(batched.total, scalar.total);
  for (std::size_t adv = 0; adv < spec.adversaries.size(); ++adv) {
    for (std::size_t pl = 0; pl < spec.placements.size(); ++pl) {
      expect_same_aggregate(batched.aggregate(adv, pl), scalar.aggregate(adv, pl));
    }
  }
}

TEST(Engine, ProfilesRecordBackendAndWorkPerGroup) {
  // Groups landing on different backends in one run: silent batches on the
  // bit-sliced table backend, lookahead is not batchable and stays scalar.
  sim::ExperimentSpec spec;
  spec.algo =
      std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  spec.adversaries = {"silent", "lookahead"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 6;
  spec.stop_after_stable = 40;
  spec.margin = 30;

  const auto result = sim::Engine(2).run(spec);
  ASSERT_EQ(result.profiles.size(), sim::group_count(spec));
  for (std::size_t adv = 0; adv < spec.adversaries.size(); ++adv) {
    for (std::size_t pl = 0; pl < spec.placements.size(); ++pl) {
      const auto& p = result.profiles[adv * spec.placements.size() + pl];
      EXPECT_GT(p.node_rounds, 0u) << spec.adversaries[adv];
      EXPECT_EQ(p.backend,
                spec.adversaries[adv] == "silent" ? sim::GroupProfile::kBatched
                                                  : sim::GroupProfile::kScalar)
          << spec.adversaries[adv] << "/" << spec.placements[pl].name;
    }
  }
  // Some compute time was attributed somewhere (individual groups can be too
  // fast for the clock's resolution, but not the whole grid).
  std::uint64_t nanos = 0;
  for (const auto& p : result.profiles) nanos += p.nanos;
  EXPECT_GT(nanos, 0u);

  // The backend and node-rounds (unlike nanos) are a pure function of the
  // executions, so they are identical whatever the thread count.
  const auto serial = sim::Engine(1).run(spec);
  ASSERT_EQ(serial.profiles.size(), result.profiles.size());
  for (std::size_t lg = 0; lg < result.profiles.size(); ++lg) {
    EXPECT_EQ(serial.profiles[lg].backend, result.profiles[lg].backend) << lg;
    EXPECT_EQ(serial.profiles[lg].node_rounds, result.profiles[lg].node_rounds) << lg;
  }

  // The composed-tower backend tags its groups as such.
  const auto composed = sim::Engine(1).run(small_grid_spec());
  ASSERT_FALSE(composed.profiles.empty());
  EXPECT_EQ(composed.profiles[0].backend, sim::GroupProfile::kComposed);
}

TEST(Engine, SketchModeIsThreadCountInvariant) {
  sim::ExperimentSpec spec = small_grid_spec();
  spec.stats = util::StatsMode::kSketch;
  const auto a = sim::Engine(1).run(spec);
  const auto b = sim::Engine(4).run(spec);
  EXPECT_EQ(a.total.rounds.mode(), util::StatsMode::kSketch);
  // Byte-level equality of the serialised aggregates: identical sketch
  // levels/parities and moments, not just close quantiles.
  EXPECT_EQ(sim::aggregate_to_json(a.total).dump(), sim::aggregate_to_json(b.total).dump());
  for (std::size_t adv = 0; adv < spec.adversaries.size(); ++adv) {
    for (std::size_t pl = 0; pl < spec.placements.size(); ++pl) {
      EXPECT_EQ(sim::aggregate_to_json(a.aggregate(adv, pl)).dump(),
                sim::aggregate_to_json(b.aggregate(adv, pl)).dump());
    }
  }
}

TEST(Engine, DefaultPlacementIsFaultFree) {
  sim::ExperimentSpec spec;
  spec.algo = std::make_shared<counting::TrivialCounter>(4);
  spec.adversaries = {"silent"};
  spec.seeds = 2;
  spec.max_rounds = 40;
  spec.margin = 10;
  const sim::Engine engine(1);
  const auto result = engine.run(spec);
  EXPECT_EQ(result.total.runs, 2u);
  EXPECT_EQ(result.total.stabilised, 2u);
}

TEST(Engine, CustomAdversaryFactoryIsUsed) {
  sim::ExperimentSpec spec;
  spec.algo = boosting::build_plan(boosting::plan_practical(1, 2));
  spec.placements = {{"spread", sim::faults_spread(spec.algo->num_nodes(), 1)}};
  spec.adversaries = {"custom-silent"};
  spec.seeds = 2;
  spec.stop_after_stable = 60;
  spec.margin = 50;
  std::atomic<int> built{0};
  spec.adversary_factory = [&built](const std::string& name) {
    EXPECT_EQ(name, "custom-silent");
    ++built;
    return sim::make_adversary("silent");
  };
  const sim::Engine engine(2);
  const auto result = engine.run(spec);
  EXPECT_EQ(built.load(), 2);
  EXPECT_EQ(result.total.runs, 2u);
}

TEST(Engine, RecordStatesSingleCell) {
  sim::ExperimentSpec spec;
  spec.algo = std::make_shared<counting::TrivialCounter>(8);
  spec.adversaries = {"silent"};
  spec.seeds = 1;
  spec.max_rounds = 6;
  spec.margin = 2;
  sim::RecordSink record(/*outputs=*/false, /*states=*/true);
  const sim::Engine engine(1);
  const auto result = engine.run(spec, {&record});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells.front().result.states.size(), 6u);
}

TEST(Engine, ExplicitSeedsPinTheExecution) {
  sim::ExperimentSpec spec;
  spec.algo = std::make_shared<counting::TrivialCounter>(8);
  spec.adversaries = {"silent"};
  spec.seeds = 2;
  spec.explicit_seeds = {2, 77};
  spec.max_rounds = 20;
  spec.margin = 5;
  sim::RecordSink record(/*outputs=*/true);
  const sim::Engine engine(1);
  const auto result = engine.run(spec, {&record});
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].seed, 2u);
  EXPECT_EQ(result.cells[1].seed, 77u);

  // Cell 0 must be byte-identical to a direct run_execution with seed 2.
  sim::RunConfig cfg;
  cfg.algo = spec.algo;
  cfg.max_rounds = 20;
  cfg.seed = 2;
  cfg.record_outputs = true;
  auto adv = sim::make_adversary("silent");
  const auto direct = sim::run_execution(cfg, *adv, 5);
  EXPECT_EQ(result.cells[0].result.outputs, direct.outputs);

  // Size mismatch is rejected.
  spec.explicit_seeds = {1};
  EXPECT_THROW(engine.run(spec), std::invalid_argument);
}

TEST(Engine, RejectsEmptySpec) {
  const sim::Engine engine(1);
  sim::ExperimentSpec spec;
  EXPECT_THROW(engine.run(spec), std::invalid_argument);
  spec.algo = std::make_shared<counting::TrivialCounter>(4);
  spec.adversaries.clear();
  EXPECT_THROW(engine.run(spec), std::invalid_argument);
  spec.adversaries = {"silent"};
  spec.seeds = 0;
  EXPECT_THROW(engine.run(spec), std::invalid_argument);
}

sim::ExperimentSpec table1_spec(std::vector<std::string> adversaries, int seeds) {
  sim::ExperimentSpec spec;
  spec.algo =
      std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
  spec.adversaries = std::move(adversaries);
  spec.placements = {{"spread", sim::faults_spread(4, 1)}};
  spec.seeds = seeds;
  spec.stop_after_stable = 40;
  spec.margin = 30;
  return spec;
}

// Throws std::invalid_argument whose message contains `what`.
void expect_refused(const sim::ExperimentSpec& spec, const std::string& what) {
  try {
    (void)sim::Engine(1).run(spec);
    ADD_FAILURE() << "expected the spec to be refused: " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

// The margin cliff: a run counts as stabilised once its valid suffix spans
// `margin` rounds, so a horizon at or below it (or an early exit below it)
// would report a rate that only counts runs starting valid.
TEST(Engine, RefusesAHorizonOrEarlyExitBelowTheMargin) {
  sim::ExperimentSpec spec = table1_spec({"split"}, 2);  // margin 30
  EXPECT_NO_THROW((void)sim::Engine(1).run(spec));
  spec.max_rounds = 30;
  expect_refused(spec, "horizon 30 <= margin 30");
  spec.max_rounds = 31;
  EXPECT_NO_THROW((void)sim::Engine(1).run(spec));
  // The bound-derived horizon: certified T = 6 plus 20 extra rounds.
  spec.max_rounds = 0;
  spec.extra_rounds = 20;
  expect_refused(spec, "horizon 26 <= margin 30");
  spec.extra_rounds = 300;
  spec.stop_after_stable = 29;
  expect_refused(spec, "stop_after_stable 29 < margin 30");
  spec.stop_after_stable = 0;  // run to the horizon
  EXPECT_NO_THROW((void)sim::Engine(1).run(spec));

  // Every variant's horizon is checked, not just the shared algorithm's.
  counting::AlgorithmSpec table;
  table.kind = counting::AlgorithmSpec::Kind::kTable;
  table.table_name = "3states";
  spec.algo = nullptr;
  spec.variants = {table, table};
  spec.extra_rounds = 20;
  expect_refused(spec, "horizon 26 <= margin 30");
}

TEST(Engine, DeliveryDoesNotBlockWorkers) {
  // on_group(0) holds delivery until group 1's second cell has built its
  // adversary. The other worker only gets there if finishing group 1's
  // first cell does not wait for the deliverer.
  sim::ExperimentSpec spec = table1_spec({"silent", "split"}, 4);
  std::map<std::string, std::atomic<int>> built;
  for (const auto& name : spec.adversaries) built[name] = 0;
  spec.adversary_factory = [&built](const std::string& name) {
    built.at(name).fetch_add(1);
    return sim::make_adversary(name);
  };

  class WaitingSink final : public sim::Sink {
   public:
    explicit WaitingSink(const std::atomic<int>& split_built) : split_built_(split_built) {}
    void on_group(std::size_t group, const sim::AggregateResult&) override {
      if (group == 0) overlapped = eventually([this] { return split_built_.load() >= 2; });
    }
    bool overlapped = false;

   private:
    const std::atomic<int>& split_built_;
  };
  WaitingSink sink(built.at("split"));

  const auto result = sim::Engine(2).run(spec, {&sink});
  EXPECT_EQ(result.batched_cells, 0u);  // a custom factory keeps every cell scalar
  EXPECT_TRUE(sink.overlapped);
  EXPECT_EQ(built.at("silent").load(), 4);
  EXPECT_EQ(built.at("split").load(), 4);
}

TEST(Engine, SinkFailureStopsDelivery) {
  // A sink that throws once in on_group(1): the run fails, nothing is
  // delivered twice, and nothing after the failure is delivered at all.
  const sim::ExperimentSpec spec = table1_spec({"silent", "split", "random", "mirror"}, 4096);
  const std::size_t n_cells = 4 * 4096;

  class ThrowingSink final : public sim::Sink {
   public:
    explicit ThrowingSink(std::size_t cells) : cell_hits(cells, 0) {}
    void on_cell(const sim::CellOutcome& cell) override { ++cell_hits.at(cell.cell_index); }
    void on_group(std::size_t group, const sim::AggregateResult&) override {
      ++group_hits.at(group);
      if (group == 1 && !thrown) {
        thrown = true;
        throw std::runtime_error("sink failed");
      }
    }
    void on_done(const sim::ExperimentResult&) override { ++done; }

    std::vector<int> cell_hits;
    std::vector<int> group_hits = std::vector<int>(4, 0);
    bool thrown = false;
    int done = 0;
  };
  ThrowingSink sink(n_cells);

  EXPECT_THROW(sim::Engine(4).run(spec, {&sink}), std::runtime_error);
  EXPECT_EQ(sink.group_hits, (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(sink.done, 0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    // Groups 0 and 1 were delivered whole before on_group(1) threw.
    ASSERT_EQ(sink.cell_hits[i], i < 2 * 4096 ? 1 : 0) << "cell " << i;
  }
}

TEST(Engine, GroupsHoldEachGroupsFold) {
  // Table groups (bit-sliced), scalar lookahead groups and composed-tower
  // groups, in both stats modes, on one and four threads, for a full run and
  // for a shard that starts past group 0.
  sim::ExperimentSpec table = table1_spec({"split", "lookahead", "silent"}, 70);
  table.placements.push_back({"none", {}});
  for (sim::ExperimentSpec spec : {table, small_grid_spec()}) {
    for (const auto mode : {util::StatsMode::kExact, util::StatsMode::kSketch}) {
      spec.stats = mode;
      const std::size_t n_pl = spec.placements.size();
      for (const int threads : {1, 4}) {
        for (const auto& plan : {sim::plan_shards(spec, 1, 0), sim::plan_shards(spec, 2, 1)}) {
          const auto result = sim::Engine(threads).run(spec, plan);
          ASSERT_EQ(result.groups.size(), plan.groups());
          sim::AggregateResult merged(mode);
          for (std::size_t lg = 0; lg < result.groups.size(); ++lg) {
            const std::size_t g = plan.group_begin + lg;
            EXPECT_EQ(sim::aggregate_to_json(result.groups[lg]).dump(),
                      sim::aggregate_to_json(result.aggregate(g / n_pl, g % n_pl)).dump())
                << "group " << g << " threads " << threads;
            merged.merge(result.groups[lg]);
          }
          EXPECT_EQ(sim::aggregate_to_json(result.total).dump(),
                    sim::aggregate_to_json(merged).dump());
        }
      }
    }
  }
}

// --- Runner hot-path equivalence --------------------------------------------

// The receiver-oblivious fast path must produce byte-identical executions to
// the generic per-receiver path; run the same config under an adversary that
// IS oblivious but doesn't declare it, and one that declares it.
class UndeclaredSilent final : public sim::Adversary {
 public:
  sim::State message(std::uint64_t, counting::NodeId, counting::NodeId,
                     std::span<const sim::State>, const counting::CountingAlgorithm& algo,
                     util::Rng&) override {
    return algo.canonicalize(sim::State{});
  }
  std::string name() const override { return "undeclared-silent"; }
};

TEST(Runner, ObliviousFastPathMatchesGenericPath) {
  const auto algo = boosting::build_plan(boosting::plan_practical(1, 2));
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = sim::faults_spread(algo->num_nodes(), 1);
  cfg.max_rounds = 120;
  cfg.seed = 42;
  cfg.record_outputs = true;

  auto declared = sim::make_adversary("silent");
  ASSERT_TRUE(declared->receiver_oblivious());
  UndeclaredSilent undeclared;
  ASSERT_FALSE(undeclared.receiver_oblivious());

  const auto fast = sim::run_execution(cfg, *declared, 50);
  const auto slow = sim::run_execution(cfg, undeclared, 50);
  EXPECT_EQ(fast.outputs, slow.outputs);
  EXPECT_EQ(fast.stabilisation_round, slow.stabilisation_round);
  EXPECT_EQ(fast.rounds, slow.rounds);
}

TEST(Runner, AvgPullsIncludesZeroPullSamples) {
  // Broadcast algorithm: nothing is ever pulled, mean must be exactly 0.
  sim::RunConfig cfg;
  cfg.algo = std::make_shared<counting::TrivialCounter>(4);
  cfg.max_rounds = 10;
  auto adv = sim::make_adversary("silent");
  const auto res = sim::run_execution(cfg, *adv, 2);
  EXPECT_EQ(res.max_pulls_per_round, 0u);
  EXPECT_DOUBLE_EQ(res.avg_pulls_per_round, 0.0);
}

}  // namespace
