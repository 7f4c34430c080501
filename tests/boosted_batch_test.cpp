// Differential tests for the composed batched backend: every lane of
// run_batch on a boosted / pulling tower must be bit-identical to
// run_execution on the same seed -- across boosting plans, adversaries,
// fault placements, batch widths, early-exit patterns, sampling modes and
// recorded traces -- and the engine's composed dispatch must leave
// aggregates bit-identical to the forced-scalar backend for any thread
// count. Mirrors tests/batch_runner_test.cpp for the flat-table backend.
#include <gtest/gtest.h>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "counting/trivial.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/batch_runner.hpp"
#include "sim/composed_runner.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "synthesis/known_tables.hpp"
#include "towers.hpp"

namespace {

using namespace synccount;

using test::boosted_over_table;
using test::practical;

counting::AlgorithmPtr pulling_counter(int M, pulling::SamplingMode mode,
                                       std::uint64_t seed = 0x5eedULL) {
  auto base = std::make_shared<counting::TrivialCounter>(2304);
  pulling::PullParams p;
  p.k = 4;
  p.F = 1;
  p.C = 8;
  p.sample_size = M;
  p.mode = mode;
  p.seed = seed;
  return std::make_shared<pulling::PullingBoostedCounter>(base, p);
}

struct RunOpts {
  std::vector<bool> faulty;
  std::uint64_t max_rounds = 120;
  std::uint64_t margin = 30;
  std::uint64_t stop_after_stable = 0;
  bool record_outputs = false;
  bool record_states = false;
  std::vector<sim::State> initial;
};

sim::RunResult scalar_run(const counting::AlgorithmPtr& algo, const std::string& adversary,
                          std::uint64_t seed, const RunOpts& opt) {
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = opt.faulty;
  cfg.max_rounds = opt.max_rounds;
  cfg.seed = seed;
  cfg.stop_after_stable = opt.stop_after_stable;
  cfg.record_outputs = opt.record_outputs;
  cfg.record_states = opt.record_states;
  cfg.initial = opt.initial;
  auto adv = sim::make_adversary(adversary);
  return sim::run_execution(cfg, *adv, opt.margin);
}

std::vector<sim::RunResult> batch_run(const counting::AlgorithmPtr& algo,
                                      const std::string& adversary,
                                      const std::vector<std::uint64_t>& seeds,
                                      const RunOpts& opt) {
  sim::BatchConfig bc;
  bc.algo = algo;
  bc.faulty = opt.faulty;
  bc.max_rounds = opt.max_rounds;
  bc.margin = opt.margin;
  bc.stop_after_stable = opt.stop_after_stable;
  bc.record_outputs = opt.record_outputs;
  bc.record_states = opt.record_states;
  bc.initial = opt.initial;
  bc.adversary = [&adversary] { return sim::make_adversary(adversary); };
  bc.seeds = seeds;
  return sim::run_batch(bc);
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b,
                     const std::string& context) {
  EXPECT_EQ(a.rounds, b.rounds) << context;
  EXPECT_EQ(a.stabilisation_round, b.stabilisation_round) << context;
  EXPECT_EQ(a.suffix_length, b.suffix_length) << context;
  EXPECT_EQ(a.max_window, b.max_window) << context;
  EXPECT_EQ(a.stabilised, b.stabilised) << context;
  EXPECT_EQ(a.max_pulls_per_round, b.max_pulls_per_round) << context;
  EXPECT_EQ(a.avg_pulls_per_round, b.avg_pulls_per_round) << context;
  EXPECT_EQ(a.correct_ids, b.correct_ids) << context;
  EXPECT_EQ(a.outputs, b.outputs) << context;
  EXPECT_EQ(a.states, b.states) << context;
}

void expect_differential(const counting::AlgorithmPtr& algo, const std::string& adversary,
                         const std::vector<std::uint64_t>& seeds, const RunOpts& opt,
                         const std::string& context) {
  const auto batch = batch_run(algo, adversary, seeds, opt);
  ASSERT_EQ(batch.size(), seeds.size()) << context;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_same_run(batch[i], scalar_run(algo, adversary, seeds[i], opt),
                    context + "/seed=" + std::to_string(seeds[i]));
  }
}

TEST(ComposedCompile, RecognisesSupportedTowers) {
  EXPECT_NE(sim::ComposedCompiledTable::compile(practical(1)), nullptr);
  EXPECT_NE(sim::ComposedCompiledTable::compile(practical(3)), nullptr);
  EXPECT_NE(sim::ComposedCompiledTable::compile(
                pulling_counter(8, pulling::SamplingMode::kFresh)),
            nullptr);
  // Flat algorithms take the table path / scalar runner, not the composed one.
  EXPECT_EQ(sim::ComposedCompiledTable::compile(
                std::make_shared<counting::TrivialCounter>(16)),
            nullptr);
  EXPECT_EQ(sim::ComposedCompiledTable::compile(nullptr), nullptr);
  EXPECT_TRUE(sim::batch_supported(practical(2)));

  const auto cc = sim::ComposedCompiledTable::compile(practical(2));
  ASSERT_EQ(cc->levels.size(), 2u);
  EXPECT_EQ(cc->N, 12);
  EXPECT_EQ(cc->levels[0].k, 4);
  EXPECT_EQ(cc->levels[1].k, 3);
  EXPECT_EQ(cc->base.kind, sim::ComposedBase::Kind::kTrivial);
  EXPECT_EQ(cc->state_bits, cc->algo->state_bits());
}

TEST(ComposedBatch, MatchesScalarAcrossPlansAdversariesAndPlacements) {
  const std::vector<std::string> adversaries = {"silent", "echo",   "random",
                                                "split",  "mirror", "targeted-vote"};
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 0xDEAD};
  // f = 7 is the N = 36 tower with three boosted levels (level 1 runs three
  // copies of 4-node blocks).
  for (const int f : {1, 2, 3, 7}) {
    const auto algo = practical(f);
    const int n = algo->num_nodes();
    std::vector<std::pair<std::string, std::vector<bool>>> placements = {
        {"none", {}}, {"spread", sim::faults_spread(n, f)}};
    if (f >= 2) {
      placements.push_back({"blocks", sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f)});
    }
    for (const auto& adv : adversaries) {
      for (const auto& [pname, faulty] : placements) {
        RunOpts opt;
        opt.faulty = faulty;
        expect_differential(algo, adv, seeds, opt,
                            "practical(" + std::to_string(f) + ")/" + adv + "/" + pname);
      }
    }
  }
}

TEST(ComposedBatch, BoostedOverTableBaseMatchesScalar) {
  const auto algo = boosted_over_table();
  ASSERT_EQ(algo->num_nodes(), 6);
  const auto cc = sim::ComposedCompiledTable::compile(algo);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->base.kind, sim::ComposedBase::Kind::kTable);
  EXPECT_EQ(cc->base.n, 2);
  RunOpts opt;
  opt.faulty = sim::faults_spread(6, 1);
  for (const auto& adv : {"silent", "split", "targeted-vote"}) {
    expect_differential(algo, adv, {7, 8, 9}, opt, std::string("table-base/") + adv);
  }
}

TEST(ComposedBatch, BitSlicedBaseWidthsMatchScalar) {
  // Towers over a num_states <= 4 table base route the base level through
  // the bit-sliced planes; 70 lanes cross the 64-lane word boundary so the
  // cross-lane base transition handles both a full word and a partial tail.
  const auto algo = boosted_over_table();
  RunOpts opt;
  opt.faulty = sim::faults_spread(6, 1);
  opt.max_rounds = 60;
  std::vector<std::uint64_t> seeds(70);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xD000 + i * 19;
  for (const auto& adv : {"silent", "split", "random"}) {
    expect_differential(algo, adv, seeds, opt, std::string("bs-base-wide/") + adv);
  }
}

TEST(ComposedBatch, RejectsExplicitKernelSelection) {
  // The composed path has a single kernel; asking for kSoA / kBitSliced is a
  // caller error and must fail loudly instead of being silently ignored.
  const auto algo = practical(1);
  for (const auto kernel : {sim::BatchKernel::kSoA, sim::BatchKernel::kBitSliced}) {
    sim::BatchConfig bc;
    bc.algo = algo;
    bc.faulty = sim::faults_spread(4, 1);
    bc.max_rounds = 20;
    bc.adversary = [] { return sim::make_adversary("silent"); };
    bc.seeds = {1, 2};
    bc.kernel = kernel;
    EXPECT_THROW(sim::run_batch(bc), std::invalid_argument);
  }
}

TEST(ComposedBatch, WidthsAndEarlyExitDoNotChangeResults) {
  // Lanes stabilise (and early-exit) at different rounds within one batch;
  // widths 1, 7, 64 and 100 cover partial words and multi-block batches.
  const auto algo = practical(1);
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 3000;
  opt.stop_after_stable = 25;
  opt.margin = 20;
  std::vector<std::uint64_t> seeds(100);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xB000 + i * 17;

  std::vector<sim::RunResult> reference;
  for (const auto s : seeds) reference.push_back(scalar_run(algo, "random", s, opt));

  for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{100}}) {
    const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
    const auto batch = batch_run(algo, "random", sub, opt);
    ASSERT_EQ(batch.size(), width);
    std::uint64_t distinct_rounds = 0;
    for (std::size_t i = 0; i < width; ++i) {
      expect_same_run(batch[i], reference[i], "width=" + std::to_string(width) +
                                                  "/seed=" + std::to_string(sub[i]));
      if (i > 0 && batch[i].rounds != batch[0].rounds) ++distinct_rounds;
    }
    if (width >= 64) {
      EXPECT_GT(distinct_rounds, 0u) << "expected lanes to early-exit at different rounds";
    }
  }
}

TEST(ComposedBatch, RecordedTracesAndFixedInitialStatesMatchScalar) {
  const auto algo = practical(2);
  RunOpts opt;
  opt.faulty = sim::faults_prefix(12, 2);
  opt.max_rounds = 50;
  opt.record_outputs = true;
  opt.record_states = true;
  opt.initial.resize(12);
  for (int i = 0; i < 12; ++i) {
    opt.initial[static_cast<std::size_t>(i)].set_bits(0, 40, 0xA5F00Du * (i + 1));
  }
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  const auto batch = batch_run(algo, "split", seeds, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto scalar = scalar_run(algo, "split", seeds[i], opt);
    ASSERT_EQ(batch[i].outputs.size(), scalar.outputs.size());
    ASSERT_EQ(batch[i].states.size(), scalar.states.size());
    expect_same_run(batch[i], scalar, "traces/seed=" + std::to_string(seeds[i]));
  }
}

TEST(ComposedBatch, PullingFreshSamplingMatchesScalarIncludingPullCounts) {
  // kFresh draws sampling randomness from the lane Rng inside the
  // transition, interleaved with per-receiver forging -- the strictest
  // call-order test of the composed path.
  for (const int M : {4, 16}) {
    const auto algo = pulling_counter(M, pulling::SamplingMode::kFresh);
    for (const auto& adv : {"silent", "random", "split"}) {
      for (const bool with_fault : {false, true}) {
        RunOpts opt;
        if (with_fault) opt.faulty = sim::faults_prefix(4, 1);
        opt.max_rounds = 80;
        const auto batch = batch_run(algo, adv, {11, 12, 13}, opt);
        for (std::size_t i = 0; i < 3; ++i) {
          const auto scalar = scalar_run(algo, adv, 11 + i, opt);
          EXPECT_GT(scalar.max_pulls_per_round, 0u);
          expect_same_run(batch[i], scalar,
                          std::string("pulling-fresh/M=") + std::to_string(M) + "/" + adv +
                              (with_fault ? "/f1" : "/f0") + "/seed=" + std::to_string(11 + i));
        }
      }
    }
  }
}

TEST(ComposedBatch, PullingFixedSamplingMatchesScalar) {
  const auto algo = pulling_counter(16, pulling::SamplingMode::kFixed, 0xC0FFEE);
  RunOpts opt;
  opt.faulty = sim::faults_prefix(4, 1);
  opt.max_rounds = 100;
  for (const auto& adv : {"split", "mirror"}) {
    expect_differential(algo, adv, {21, 22, 23}, opt, std::string("pulling-fixed/") + adv);
  }
}

TEST(ComposedBatch, MixedPullingOverBoostedTowerMatchesScalar) {
  // Two pulling levels over the practical schedule: nested draws and nested
  // pull accounting across level copies.
  const auto algo =
      pulling::build_pulling_practical(2, 10, 6, pulling::SamplingMode::kFresh, 0x5eed, 2);
  RunOpts opt;
  opt.faulty = sim::faults_spread(algo->num_nodes(), 2);
  opt.max_rounds = 60;
  for (const auto& adv : {"silent", "random"}) {
    expect_differential(algo, adv, {31, 32}, opt, std::string("pulling-tower/") + adv);
  }

  // One fresh-sampling pulling level over boosted levels. `random` is
  // receiver-dependent and draws, so these towers run in interleaved mode,
  // where every receiver takes its own boosted votes; `split` runs the same
  // towers profiled.
  for (const int f : {3, 7}) {
    const auto top =
        pulling::build_pulling_practical(f, 10, 8, pulling::SamplingMode::kFresh, 0x5eed, 1);
    const int n = top->num_nodes();
    const std::vector<std::pair<std::string, std::vector<bool>>> placements = {
        {"spread", sim::faults_spread(n, f)},
        {"blocks", sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f)}};
    for (const auto& adv : {"random", "split"}) {
      for (const auto& [pname, faulty] : placements) {
        RunOpts popt;
        popt.faulty = faulty;
        popt.max_rounds = 60;
        popt.record_outputs = true;
        expect_differential(top, adv, {41, 42, 43}, popt,
                            "pulling-over-practical(" + std::to_string(f) + ")/" + adv + "/" +
                                pname);
      }
    }
  }
}

// --- Engine dispatch ---------------------------------------------------------

void expect_same_aggregate(const sim::AggregateResult& a, const sim::AggregateResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.stabilised, b.stabilised);
  EXPECT_EQ(a.max_pulls, b.max_pulls);
  EXPECT_EQ(a.stabilisation.count(), b.stabilisation.count());
  EXPECT_EQ(a.stabilisation.mean(), b.stabilisation.mean());
  EXPECT_EQ(a.stabilisation.min(), b.stabilisation.min());
  EXPECT_EQ(a.stabilisation.max(), b.stabilisation.max());
  EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_EQ(a.avg_pulls.mean(), b.avg_pulls.mean());
}

sim::ExperimentSpec boosted_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = practical(2);
  spec.adversaries = {"silent", "split", "lookahead"};
  spec.placements = {{"none", {}}, {"spread", sim::faults_spread(12, 2)}};
  spec.seeds = 70;  // crosses the 64-lane chunk boundary
  spec.max_rounds = 120;
  spec.margin = 30;
  return spec;
}

TEST(Engine, ComposedBackendIsBitIdenticalToScalarBackend) {
  auto spec = boosted_grid_spec();
  const sim::Engine engine(1);

  const auto batched = engine.run(spec);
  spec.backend = sim::Backend::kScalar;
  const auto scalar = engine.run(spec);

  // silent/split batch over both placements; lookahead stays scalar.
  EXPECT_EQ(batched.batched_cells, 2u * 2u * 70u);
  EXPECT_EQ(scalar.batched_cells, 0u);

  ASSERT_EQ(batched.cells.size(), scalar.cells.size());
  for (std::size_t i = 0; i < batched.cells.size(); ++i) {
    EXPECT_EQ(batched.cells[i].seed, scalar.cells[i].seed);
    expect_same_run(batched.cells[i].result, scalar.cells[i].result,
                    "cell=" + std::to_string(i));
  }
  expect_same_aggregate(batched.total, scalar.total);
  for (std::size_t a = 0; a < spec.adversaries.size(); ++a) {
    for (std::size_t p = 0; p < spec.placements.size(); ++p) {
      expect_same_aggregate(batched.aggregate(a, p), scalar.aggregate(a, p));
    }
  }
}

TEST(Engine, ComposedBackendIsThreadCountIndependent) {
  const auto spec = boosted_grid_spec();
  const sim::Engine serial(1);
  const sim::Engine parallel4(4);
  const auto a = serial.run(spec);
  const auto b = parallel4.run(spec);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].result.rounds, b.cells[i].result.rounds);
    EXPECT_EQ(a.cells[i].result.stabilisation_round, b.cells[i].result.stabilisation_round);
  }
  expect_same_aggregate(a.total, b.total);
}

TEST(Engine, PerSeedVariantAxisMatchesScalarRuns) {
  // The Corollary 5 pattern: the algorithm itself varies across the grid
  // (per-trial sampling seeds), now expressed as a declarative sweep axis --
  // one AlgorithmSpec variant per seed index; variant cells must stay on the
  // scalar path.
  sim::ExperimentSpec spec;
  spec.variants = counting::sweep_u64(
      *counting::describe(pulling_counter(8, pulling::SamplingMode::kFixed, 0)),
      "sampling_seed", {0x1000, 0x1001, 0x1002});
  spec.adversaries = {"split"};
  spec.placements = {{"", sim::faults_prefix(4, 1)}};
  spec.seeds = 3;
  spec.max_rounds = 40;
  spec.margin = 10;
  const sim::Engine engine(1);
  const auto res = engine.run(spec);
  EXPECT_EQ(res.batched_cells, 0u);
  ASSERT_EQ(res.cells.size(), 3u);
  // Differential: cell i must equal a direct scalar run with the same seeds.
  for (std::size_t i = 0; i < res.cells.size(); ++i) {
    RunOpts opt;
    opt.faulty = sim::faults_prefix(4, 1);
    opt.max_rounds = 40;
    opt.margin = 10;
    const auto ref = scalar_run(pulling_counter(8, pulling::SamplingMode::kFixed, 0x1000 + i),
                                "split", res.cells[i].seed, opt);
    expect_same_run(res.cells[i].result, ref, "variant-cell=" + std::to_string(i));
  }
}

}  // namespace
