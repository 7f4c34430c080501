// Tests for the bit-parallel batched execution backend: every lane of
// run_batch must be bit-identical to run_execution on the same seed -- across
// tables (cyclic / uniform / per-node / wide), kernels (bit-sliced / SoA),
// adversaries, fault placements, batch widths and early-exit patterns -- and
// the engine's batched dispatch must leave aggregates bit-identical to the
// forced-scalar backend for any thread count.
#include <gtest/gtest.h>

#include "counting/table_algorithm.hpp"
#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "synthesis/known_tables.hpp"
#include "towers.hpp"

namespace {

using namespace synccount;

using TablePtr = std::shared_ptr<const counting::TableAlgorithm>;

TablePtr table3() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
}

TablePtr table4() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_4states());
}

// A per-node table (the symmetry branch the known tables don't cover).
// Behaviour is arbitrary; the tests only compare backends against each other.
TablePtr per_node_table() {
  counting::TransitionTable t;
  t.n = 3;
  t.f = 0;
  t.num_states = 2;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kPerNode;
  t.g.resize(3 * 8);
  for (std::size_t i = 0; i < t.g.size(); ++i) t.g[i] = static_cast<std::uint8_t>((i * 5 + 1) % 2);
  t.h = {0, 1, 1, 0, 0, 1};
  t.label = "per-node-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// num_states > 4: exercises the SoA kernel under kAuto.
TablePtr wide_table() {
  counting::TransitionTable t;
  t.n = 3;
  t.f = 0;
  t.num_states = 5;
  t.modulus = 2;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(125);
  for (std::size_t i = 0; i < t.g.size(); ++i) t.g[i] = static_cast<std::uint8_t>((i * 7 + 3) % 5);
  t.h = {0, 1, 0, 1, 1};
  t.label = "wide-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

// Two faults (n = 5, f = 2): mirror then also echoes one faulty sender's
// nominal state through the other, so forging reads the state view's faulty
// rows. Behaviour is arbitrary, as above.
TablePtr two_fault_table() {
  counting::TransitionTable t;
  t.n = 5;
  t.f = 2;
  t.num_states = 3;
  t.modulus = 3;
  t.symmetry = counting::Symmetry::kUniform;
  t.g.resize(243);
  for (std::size_t i = 0; i < t.g.size(); ++i) t.g[i] = static_cast<std::uint8_t>((i * 11 + 4) % 3);
  t.h = {0, 1, 2};
  t.label = "two-fault-test";
  return std::make_shared<counting::TableAlgorithm>(std::move(t));
}

struct RunOpts {
  std::vector<bool> faulty;
  std::uint64_t max_rounds = 200;
  std::uint64_t margin = 30;
  std::uint64_t stop_after_stable = 0;
  bool record_outputs = false;
  bool record_states = false;
  std::vector<sim::State> initial;
};

sim::RunResult scalar_run(const TablePtr& algo, const std::string& adversary,
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

std::vector<sim::RunResult> batch_run(const TablePtr& algo, const std::string& adversary,
                                      const std::vector<std::uint64_t>& seeds,
                                      const RunOpts& opt,
                                      sim::BatchKernel kernel = sim::BatchKernel::kAuto,
                                      int words = 0) {
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
  bc.kernel = kernel;
  bc.words = words;
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

TEST(BatchRunner, MatchesScalarAcrossAdversariesPlacementsAndKernels) {
  const std::vector<std::pair<std::string, TablePtr>> tables = {{"3states", table3()},
                                                               {"4states", table4()}};
  // lookahead is the one built-in strategy that forges per lane through
  // forge_block every round: no lane-batched entry point, not a static
  // forger, and it reads states and draws.
  const std::vector<std::string> adversaries = {"silent", "echo",          "random",   "split",
                                                "mirror", "targeted-vote", "lookahead"};
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 12345, 0xDEAD};
  for (const auto& [tname, algo] : tables) {
    for (const auto kernel : {sim::BatchKernel::kBitSliced, sim::BatchKernel::kSoA}) {
      for (const auto& adv : adversaries) {
        for (const bool with_fault : {false, true}) {
          RunOpts opt;
          if (with_fault) opt.faulty = sim::faults_spread(4, 1);
          const auto batch = batch_run(algo, adv, seeds, opt, kernel);
          ASSERT_EQ(batch.size(), seeds.size());
          for (std::size_t i = 0; i < seeds.size(); ++i) {
            const auto scalar = scalar_run(algo, adv, seeds[i], opt);
            expect_same_run(batch[i], scalar,
                            tname + "/" + adv + (with_fault ? "/f1" : "/f0") + "/seed=" +
                                std::to_string(seeds[i]) +
                                (kernel == sim::BatchKernel::kSoA ? "/soa" : "/bitsliced"));
          }
        }
      }
    }
  }
}

TEST(BatchRunner, WidthsDoNotChangeResults) {
  // Lanes stabilise (and early-exit) at different rounds within one batch;
  // widths 1, 7, 64 and 100 cover partial words and multi-block batches.
  // The lane-batched forgers must then skip the lanes that stopped: random
  // draws, mirror and targeted-vote also read the state view.
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 400;
  opt.stop_after_stable = 35;
  std::vector<std::uint64_t> seeds(100);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xB000 + i * 17;

  for (const std::string adv : {"random", "mirror", "targeted-vote"}) {
    std::vector<sim::RunResult> reference;
    for (const auto s : seeds) reference.push_back(scalar_run(algo, adv, s, opt));

    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                    std::size_t{100}}) {
      const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
      const auto batch = batch_run(algo, adv, sub, opt);
      ASSERT_EQ(batch.size(), width);
      std::uint64_t distinct_rounds = 0;
      for (std::size_t i = 0; i < width; ++i) {
        expect_same_run(batch[i], reference[i], adv + "/width=" + std::to_string(width) +
                                                    "/seed=" + std::to_string(sub[i]));
        if (i > 0 && batch[i].rounds != batch[0].rounds) ++distinct_rounds;
      }
      if (width >= 64) {
        EXPECT_GT(distinct_rounds, 0u)
            << adv << ": expected lanes to early-exit at different rounds";
      }
    }
  }
}

TEST(BatchRunner, MultiWordWidthsMatchScalar) {
  // Lane counts past one 64-bit word (65, 128, 257, 511) at every plane
  // width (1/2/4/8 words plus auto) on both kernels: the multi-word kernel
  // and the lane-batched adversary forging -- draw-only (split, random) and
  // state-reading through the state view (mirror, targeted-vote) -- must
  // stay bit-identical to run_execution regardless of how many executions
  // share a table pass. 511 = 7 words + a 63-lane tail under words=8's block
  // size; 65 and 257 leave one lane in the last plane word.
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 48;
  std::vector<std::uint64_t> seeds(511);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xC000 + i * 13;

  for (const std::string adv : {"split", "random", "mirror", "targeted-vote"}) {
    std::vector<sim::RunResult> reference;
    reference.reserve(seeds.size());
    for (const auto s : seeds) reference.push_back(scalar_run(algo, adv, s, opt));
    for (const auto kernel : {sim::BatchKernel::kBitSliced, sim::BatchKernel::kSoA}) {
      const std::string kname = kernel == sim::BatchKernel::kSoA ? "/soa" : "/bitsliced";
      for (const std::size_t width : {std::size_t{65}, std::size_t{128}, std::size_t{257},
                                      std::size_t{511}}) {
        const std::vector<std::uint64_t> sub(seeds.begin(), seeds.begin() + width);
        for (const int words : {0, 1, 2, 4, 8}) {
          const auto batch = batch_run(algo, adv, sub, opt, kernel, words);
          ASSERT_EQ(batch.size(), width);
          for (std::size_t i = 0; i < width; ++i) {
            expect_same_run(batch[i], reference[i],
                            adv + kname + "/width=" + std::to_string(width) +
                                "/words=" + std::to_string(words) +
                                "/seed=" + std::to_string(sub[i]));
          }
        }
      }
    }
  }
}

TEST(BatchRunner, StateViewCarriesFaultyNominalStates) {
  // 70 lanes: one full plane word plus a 6-lane tail, on both kernels.
  const auto algo = two_fault_table();
  RunOpts opt;
  opt.faulty = sim::faults_spread(5, 2);
  opt.max_rounds = 60;
  std::vector<std::uint64_t> seeds(70);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xD000 + i * 7;
  for (const std::string adv : {"mirror", "targeted-vote"}) {
    for (const auto kernel : {sim::BatchKernel::kBitSliced, sim::BatchKernel::kSoA}) {
      const auto batch = batch_run(algo, adv, seeds, opt, kernel);
      ASSERT_EQ(batch.size(), seeds.size());
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        expect_same_run(batch[i], scalar_run(algo, adv, seeds[i], opt),
                        adv + (kernel == sim::BatchKernel::kSoA ? "/soa" : "/bitsliced") +
                            "/seed=" + std::to_string(seeds[i]));
      }
    }
  }
}

TEST(BatchRunner, StateReadingForgersDeclineWithoutStateView) {
  // mirror and targeted-vote read node states only through
  // ForgedRound::state_idx. Without it (empty, as for a caller that does not
  // provide one) the lane-batched entry point must decline and leave every
  // lane's rng untouched: the table backend then re-forges each lane through
  // the per-lane entry points from the same streams.
  const auto algo = table3();
  const std::vector<counting::NodeId> faulty_ids = {1};
  const std::vector<counting::NodeId> correct_ids = {0, 2, 3};
  constexpr std::size_t kLanes = 70;  // two active words, a partial second one
  const std::vector<std::uint64_t> active = {~0ULL, (1ULL << (kLanes - 64)) - 1};
  for (const std::string adv_name : {"mirror", "targeted-vote"}) {
    const auto adv = sim::make_adversary(adv_name);
    std::vector<util::Rng> rngs;
    for (std::size_t l = 0; l < kLanes; ++l) rngs.emplace_back(0xF00D + l);
    const std::vector<util::Rng> before = rngs;
    std::vector<std::uint8_t> out_idx(correct_ids.size() * faulty_ids.size() * kLanes, 0xAB);
    sim::ForgedRound fr;
    EXPECT_FALSE(adv->forge_lanes_idx(3, *algo, faulty_ids, correct_ids, rngs, active,
                                      out_idx.data(), fr))
        << adv_name;
    for (std::size_t l = 0; l < kLanes; ++l) {
      util::Rng untouched = before[l];
      EXPECT_EQ(rngs[l].next_u64(), untouched.next_u64()) << adv_name << "/lane=" << l;
    }
    EXPECT_EQ(out_idx, std::vector<std::uint8_t>(out_idx.size(), 0xAB)) << adv_name;
  }
}

// Forges correctly through the default forge_block, then breaks the
// ForgedRound contract on the receiver-to-profile map.
class MalformedMapAdversary final : public sim::Adversary {
 public:
  enum class Flaw { kOutOfRange, kShort, kRngDependent };
  explicit MalformedMapAdversary(Flaw flaw) : flaw_(flaw) {}

  sim::State message(std::uint64_t /*round*/, sim::NodeId /*sender*/, sim::NodeId /*receiver*/,
                     std::span<const sim::State> /*true_states*/,
                     const sim::CountingAlgorithm& /*algo*/, util::Rng& /*rng*/) override {
    return {};
  }

  void forge_block(std::uint64_t round, std::span<const sim::State> true_states,
                   const sim::CountingAlgorithm& algo, std::span<const sim::NodeId> faulty_ids,
                   std::span<const sim::NodeId> correct_ids, util::Rng& rng,
                   sim::ForgedRound& out) override {
    Adversary::forge_block(round, true_states, algo, faulty_ids, correct_ids, rng, out);
    switch (flaw_) {
      case Flaw::kOutOfRange:
        std::fill(out.profile_of.begin(), out.profile_of.end(),
                  static_cast<std::uint16_t>(out.num_profiles));
        break;
      case Flaw::kShort:
        out.profile_of.pop_back();
        break;
      case Flaw::kRngDependent:
        for (const sim::NodeId v : correct_ids) {
          out.profile_of[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(
              rng.next_below(static_cast<std::uint64_t>(out.num_profiles)));
        }
        break;
    }
  }

  std::string name() const override { return "malformed-map"; }

 private:
  Flaw flaw_;
};

TEST(BatchRunner, RejectsMalformedForgedProfileMaps) {
  // The map contract is checked in every build, not only by debug
  // assertions: on both table kernels and the composed backend, each flaw
  // must throw rather than read profile storage out of bounds.
  using Flaw = MalformedMapAdversary::Flaw;
  struct Case {
    std::string name;
    counting::AlgorithmPtr algo;
    sim::BatchKernel kernel;
  };
  const std::vector<Case> cases = {{"table1/bitsliced", table3(), sim::BatchKernel::kBitSliced},
                                   {"table1/soa", table3(), sim::BatchKernel::kSoA},
                                   {"practical(2)", test::practical(2), sim::BatchKernel::kAuto}};
  std::vector<std::uint64_t> seeds(64);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xBAD0 + i;
  for (const auto& c : cases) {
    for (const Flaw flaw : {Flaw::kOutOfRange, Flaw::kShort, Flaw::kRngDependent}) {
      sim::BatchConfig bc;
      bc.algo = c.algo;
      bc.faulty = sim::faults_spread(c.algo->num_nodes(), c.algo->resilience());
      bc.max_rounds = 20;
      bc.adversary = [flaw] { return std::make_unique<MalformedMapAdversary>(flaw); };
      bc.seeds = seeds;
      bc.kernel = c.kernel;
      EXPECT_THROW(sim::run_batch(bc), std::logic_error)
          << c.name << "/flaw=" << static_cast<int>(flaw);
    }
  }
}

TEST(BatchRunner, WordsValidationRejectsUnsupportedValues) {
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  for (const int words : {-1, 3, 5, 16}) {
    EXPECT_THROW(batch_run(algo, "silent", {1, 2}, opt, sim::BatchKernel::kAuto, words),
                 std::invalid_argument)
        << "words=" << words;
  }
}

TEST(BatchRunner, RecordedTracesMatchScalar) {
  const auto algo = table4();
  RunOpts opt;
  opt.faulty = sim::faults_prefix(4, 1);
  opt.max_rounds = 60;
  opt.record_outputs = true;
  opt.record_states = true;
  const std::vector<std::uint64_t> seeds = {5, 6, 7};
  const auto batch = batch_run(algo, "split", seeds, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const auto scalar = scalar_run(algo, "split", seeds[i], opt);
    ASSERT_EQ(batch[i].outputs.size(), scalar.outputs.size());
    ASSERT_EQ(batch[i].states.size(), scalar.states.size());
    expect_same_run(batch[i], scalar, "traces/seed=" + std::to_string(seeds[i]));
  }
}

TEST(BatchRunner, PerNodeSymmetryMatchesScalar) {
  const auto algo = per_node_table();
  RunOpts opt;
  opt.max_rounds = 80;
  const std::vector<std::uint64_t> seeds = {11, 22, 33, 44};
  for (const auto kernel : {sim::BatchKernel::kBitSliced, sim::BatchKernel::kSoA}) {
    const auto batch = batch_run(algo, "split", seeds, opt, kernel);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      expect_same_run(batch[i], scalar_run(algo, "split", seeds[i], opt),
                      "per-node/seed=" + std::to_string(seeds[i]));
    }
  }
}

TEST(BatchRunner, WideTableFallsBackToSoA) {
  const auto algo = wide_table();
  RunOpts opt;
  opt.max_rounds = 80;
  const std::vector<std::uint64_t> seeds = {9, 10, 11};
  const auto batch = batch_run(algo, "split", seeds, opt);  // kAuto -> SoA (5 states)
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_same_run(batch[i], scalar_run(algo, "split", seeds[i], opt),
                    "wide/seed=" + std::to_string(seeds[i]));
  }
  EXPECT_THROW(batch_run(algo, "split", seeds, opt, sim::BatchKernel::kBitSliced),
               std::invalid_argument);
}

TEST(BatchRunner, FixedInitialStatesMatchScalar) {
  const auto algo = table3();
  RunOpts opt;
  opt.faulty = sim::faults_spread(4, 1);
  opt.max_rounds = 50;
  opt.initial.resize(4);
  for (int i = 0; i < 4; ++i) opt.initial[static_cast<std::size_t>(i)].set_bits(0, 8, 0xA5u + i);
  const std::vector<std::uint64_t> seeds = {71, 72};
  const auto batch = batch_run(algo, "mirror", seeds, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_same_run(batch[i], scalar_run(algo, "mirror", seeds[i], opt),
                    "initial/seed=" + std::to_string(seeds[i]));
  }
}

// --- Engine dispatch ---------------------------------------------------------

void expect_same_aggregate(const sim::AggregateResult& a, const sim::AggregateResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.stabilised, b.stabilised);
  EXPECT_EQ(a.max_pulls, b.max_pulls);
  EXPECT_EQ(a.stabilisation.count(), b.stabilisation.count());
  EXPECT_EQ(a.stabilisation.mean(), b.stabilisation.mean());
  EXPECT_EQ(a.stabilisation.stddev(), b.stabilisation.stddev());
  EXPECT_EQ(a.stabilisation.min(), b.stabilisation.min());
  EXPECT_EQ(a.stabilisation.max(), b.stabilisation.max());
  EXPECT_EQ(a.stabilisation.quantile(0.5), b.stabilisation.quantile(0.5));
  EXPECT_EQ(a.stabilisation.quantile(0.95), b.stabilisation.quantile(0.95));
  EXPECT_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_EQ(a.avg_pulls.mean(), b.avg_pulls.mean());
}

sim::ExperimentSpec table_grid_spec() {
  sim::ExperimentSpec spec;
  spec.algo = table3();
  spec.adversaries = {"silent", "split", "random", "lookahead"};
  spec.placements = {{"none", {}}, {"spread", sim::faults_spread(4, 1)}};
  spec.seeds = 70;  // crosses the 64-lane chunk boundary
  spec.stop_after_stable = 40;
  spec.margin = 30;
  return spec;
}

TEST(Engine, BatchedBackendIsBitIdenticalToScalarBackend) {
  auto spec = table_grid_spec();
  const sim::Engine engine(1);

  const auto batched = engine.run(spec);
  spec.backend = sim::Backend::kScalar;
  const auto scalar = engine.run(spec);

  // silent/split/random batch over both placements; lookahead stays scalar.
  EXPECT_EQ(batched.batched_cells, 3u * 2u * 70u);
  EXPECT_EQ(scalar.batched_cells, 0u);

  ASSERT_EQ(batched.cells.size(), scalar.cells.size());
  for (std::size_t i = 0; i < batched.cells.size(); ++i) {
    EXPECT_EQ(batched.cells[i].seed, scalar.cells[i].seed);
    EXPECT_EQ(batched.cells[i].adversary, scalar.cells[i].adversary);
    EXPECT_EQ(batched.cells[i].placement, scalar.cells[i].placement);
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

TEST(Engine, BatchedBackendIsThreadCountIndependent) {
  const auto spec = table_grid_spec();
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

}  // namespace
