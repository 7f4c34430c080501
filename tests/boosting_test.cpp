// Tests for the Theorem 1 construction: parameter validation, the bit-exact
// state layout, the derived block counters and leader pointers (Lemmas 1-2),
// the majority votes (Lemma 3) and full end-to-end stabilisation under
// adversarial Byzantine behaviour, including the recursive instances of
// Section 4 / Figure 2.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "boosting/boosted_counter.hpp"
#include "boosting/leader_split_adversary.hpp"
#include "boosting/planner.hpp"
#include "counting/trivial.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/adversaries.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "util/math.hpp"

namespace {

using namespace synccount;
using boosting::BoostedCounter;
using boosting::BoostParams;
using counting::State;

std::shared_ptr<const BoostedCounter> make_4_1(std::uint64_t C = 8) {
  // k = 4 one-node blocks, F = 1: tau = 9, (2m)^k = 256, c0 = 2304.
  auto base = std::make_shared<counting::TrivialCounter>(2304);
  return std::make_shared<BoostedCounter>(base, BoostParams{4, 1, C});
}

// --- Construction checks -----------------------------------------------------

TEST(BoostedCounterCtor, ValidatesParameters) {
  auto base = std::make_shared<counting::TrivialCounter>(2304);
  EXPECT_THROW(BoostedCounter(base, BoostParams{2, 1, 8}), std::invalid_argument);  // k < 3
  EXPECT_THROW(BoostedCounter(base, BoostParams{4, 1, 1}), std::invalid_argument);  // C < 2
  EXPECT_THROW(BoostedCounter(base, BoostParams{4, 2, 8}), std::invalid_argument);  // F >= (f+1)m
  EXPECT_THROW(BoostedCounter(nullptr, BoostParams{4, 1, 8}), std::invalid_argument);
  // Modulus not a multiple of 3(F+2)(2m)^k:
  auto bad_base = std::make_shared<counting::TrivialCounter>(2303);
  EXPECT_THROW(BoostedCounter(bad_base, BoostParams{4, 1, 8}), std::invalid_argument);
}

TEST(BoostedCounterCtor, DerivedParameters) {
  const auto b = make_4_1();
  EXPECT_EQ(b->num_nodes(), 4);
  EXPECT_EQ(b->resilience(), 1);
  EXPECT_EQ(b->k(), 4);
  EXPECT_EQ(b->m(), 2);
  EXPECT_EQ(b->tau(), 9);
  EXPECT_EQ(b->level_time_cost(), 2304u);
  EXPECT_EQ(b->block_modulus(0), 36u);    // tau*(2m)^1
  EXPECT_EQ(b->block_modulus(3), 2304u);  // tau*(2m)^4
  EXPECT_THROW(b->block_modulus(4), std::invalid_argument);
}

TEST(BoostedCounterCtor, StateBitsMatchTheorem1) {
  // S(B) = S(A) + ceil(log(C+1)) + 1.
  const auto b = make_4_1(8);
  const int sa = counting::TrivialCounter(2304).state_bits();
  EXPECT_EQ(b->state_bits(), sa + 4 + 1);  // ceil(log2 9) = 4
  const auto b2 = make_4_1(100);
  EXPECT_EQ(b2->state_bits(), sa + 7 + 1);  // ceil(log2 101) = 7
}

TEST(BoostedCounterCtor, TimeBoundMatchesTheorem1) {
  const auto b = make_4_1();
  ASSERT_TRUE(b->stabilisation_bound().has_value());
  EXPECT_EQ(*b->stabilisation_bound(), 0u + 3 * (1 + 2) * 256);
}

// --- State layout / decoding --------------------------------------------------

TEST(BoostedCounterState, DecodeRoundTrip) {
  const auto b = make_4_1(8);
  util::Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const State s = counting::arbitrary_state(*b, rng);
    const auto dec = b->decode(s);
    // Rebuild and compare.
    State rebuilt = dec.inner;
    rebuilt.set_bits(b->inner().state_bits(), phaseking::a_bits(8),
                     phaseking::encode_a(dec.a, 8));
    rebuilt.set_bit(b->inner().state_bits() + phaseking::a_bits(8), dec.d);
    EXPECT_EQ(rebuilt, s);
  }
}

TEST(BoostedCounterState, CanonicalizeIsIdempotentAndTotal) {
  const auto b = make_4_1(8);
  util::Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    State raw;
    for (int off = 0; off < b->state_bits(); off += 64) {
      raw.set_bits(off, std::min(64, b->state_bits() - off), rng.next_u64());
    }
    const State c1 = b->canonicalize(raw);
    EXPECT_EQ(b->canonicalize(c1), c1);
    // Output of any canonical state is within range.
    EXPECT_LT(b->output(0, c1), 8u);
  }
}

TEST(BoostedCounterState, OutputReadsPhaseKingRegister) {
  const auto b = make_4_1(8);
  State s;
  s.set_bits(b->inner().state_bits(), phaseking::a_bits(8), 5);
  EXPECT_EQ(b->output(2, s), 5u);
  // Infinity maps to 0.
  s.set_bits(b->inner().state_bits(), phaseking::a_bits(8), 8);
  EXPECT_EQ(b->output(2, s), 0u);
}

// --- Derived block counters (Lemma 1 setup) ----------------------------------

TEST(BlockView, InterpretsInnerOutputAsRYB) {
  const auto b = make_4_1(8);  // tau = 9, 2m = 4
  // Inner = trivial(2304); block 1 has modulus tau*(2m)^2 = 144.
  counting::TrivialCounter inner(2304);
  // Inner output 2000: value = 2000 mod 144 = 128; r = 128 mod 9 = 2,
  // y = 14; b = floor(14 / 4) mod 2 = 3 mod 2 = 1.
  const State s = inner.state_from_index(2000);
  const auto bv = b->block_view(1, 0, s);
  EXPECT_EQ(bv.value, 128u);
  EXPECT_EQ(bv.r, 2u);
  EXPECT_EQ(bv.y, 14u);
  EXPECT_EQ(bv.b, 1u);
}

TEST(BlockView, LeaderPointerCyclesThroughLeaders) {
  const auto b = make_4_1(8);
  counting::TrivialCounter inner(2304);
  // Block 0: c_0 = 36, y in [4], b = y mod 2: leaders 0,1,0,1 over 36 rounds.
  std::set<std::uint64_t> leaders;
  for (std::uint64_t v = 0; v < 36; ++v) {
    leaders.insert(b->block_view(0, 0, inner.state_from_index(v)).b);
  }
  EXPECT_EQ(leaders.size(), 2u);
}

// --- Lemmas 1 and 2 on a live fault-free execution ----------------------------

TEST(BoostingLemmas, PointersAlignForEveryLeader) {
  const auto algo = make_4_1(8);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.max_rounds = 2304 + 64;
  cfg.seed = 31;
  cfg.record_states = true;
  auto adv = sim::make_adversary("silent");
  const auto res = sim::run_execution(cfg, *adv, 32);

  const int k = algo->k();
  const int tau = algo->tau();
  // b[i] timeline per block (blocks are single nodes here).
  std::vector<std::vector<std::uint64_t>> b_of(static_cast<std::size_t>(k));
  for (std::size_t r = 0; r < res.states.size(); ++r) {
    for (int i = 0; i < k; ++i) {
      b_of[static_cast<std::size_t>(i)].push_back(
          algo->block_view(i, 0, res.states[r][static_cast<std::size_t>(i)]).b);
    }
  }

  // Lemma 1: interior runs of block i's pointer have length c_{i-1}.
  for (int i = 0; i < k; ++i) {
    const std::uint64_t expected_run = static_cast<std::uint64_t>(tau) *
                                       util::ipow(4, static_cast<unsigned>(i));  // tau*(2m)^i
    const auto& tl = b_of[static_cast<std::size_t>(i)];
    std::vector<std::uint64_t> runs;
    std::uint64_t len = 1;
    for (std::size_t r = 1; r < tl.size(); ++r) {
      if (tl[r] == tl[r - 1]) {
        ++len;
      } else {
        runs.push_back(len);
        len = 1;
      }
    }
    ASSERT_GE(runs.size(), 2u) << "block " << i;
    for (std::size_t j = 1; j < runs.size(); ++j) {  // skip the truncated first run
      EXPECT_EQ(runs[j], expected_run) << "block " << i << " run " << j;
    }
  }

  // Lemma 2: within c_k = 2304 rounds, for every leader beta there is a
  // window of tau rounds where all blocks point at beta simultaneously.
  for (std::uint64_t beta = 0; beta < 2; ++beta) {
    bool found = false;
    for (std::size_t u = 0; u + tau < res.states.size() && u < 2304; ++u) {
      bool all = true;
      for (std::size_t q = u; q < u + static_cast<std::size_t>(tau) && all; ++q) {
        for (int i = 0; i < k; ++i) {
          if (b_of[static_cast<std::size_t>(i)][q] != beta) {
            all = false;
            break;
          }
        }
      }
      if (all) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no common window for leader " << beta;
  }
}

// --- Votes (Lemma 3 machinery) -------------------------------------------------

TEST(Votes, MajorityAndDefaults) {
  const auto algo = make_4_1(8);
  counting::TrivialCounter inner(2304);
  // Craft received states: all four blocks' inner counters at value v such
  // that every block points at leader 1 and block 1 has r = 4.
  // For block i, b = floor((v mod c_i)/tau / 4^i) mod 2.
  std::vector<State> received(4);
  // v = 36+9*4=..., simpler: choose per-block inner values independently.
  // Block 0: c0=36: v0 = 9*1=9 -> y=1 -> b=1, r=0.
  // Block 1: c1=144: v1 = 9*4 + 4 = 40 -> r=4, y=4, b = (4/4)%2 = 1.
  // Block 2: c2=576: v2 = 9*16 = 144 -> y=16, b = (16/16)%2 = 1.
  // Block 3: c3=2304: v3 = 9*64 = 576 -> y=64, b = (64/64)%2 = 1.
  const std::uint64_t vals[] = {9, 40, 144, 576};
  for (int i = 0; i < 4; ++i) {
    received[static_cast<std::size_t>(i)] = inner.state_from_index(vals[i]);
  }
  const auto vt = algo->votes(received);
  EXPECT_EQ(vt.block_leader, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(vt.B, 1u);
  EXPECT_EQ(vt.R, 4u);  // r of block 1
}

TEST(Votes, SplitBlockVotesFallBackToDefault) {
  // Two blocks pointing at 0, two at 1: no strict majority of the k=4 block
  // votes -> B defaults to 0.
  const auto algo = make_4_1(8);
  counting::TrivialCounter inner(2304);
  const std::uint64_t vals[] = {9, 40, 0, 0};  // blocks 0,1 -> b=1; blocks 2,3 -> b=0
  std::vector<State> received(4);
  for (int i = 0; i < 4; ++i) {
    received[static_cast<std::size_t>(i)] = inner.state_from_index(vals[i]);
  }
  const auto vt = algo->votes(received);
  EXPECT_EQ(vt.B, 0u);
}

// --- Theorem 1 end-to-end -------------------------------------------------------

struct EndToEndCase {
  std::string adversary;
  std::string placement;  // "prefix" or "spread"
  std::uint64_t seed;
};

class Theorem1EndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(Theorem1EndToEnd, FourNodeCounterStabilisesWithinBound) {
  const auto& pc = GetParam();
  const auto algo = make_4_1(8);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = pc.placement == "prefix" ? sim::faults_prefix(4, 1) : sim::faults_spread(4, 1);
  cfg.max_rounds = *algo->stabilisation_bound() + 200;
  cfg.seed = pc.seed;
  auto adv = sim::make_adversary(pc.adversary);
  const auto res = sim::run_execution(cfg, *adv, 100);
  EXPECT_TRUE(res.stabilised) << "suffix " << res.suffix_length;
  EXPECT_LE(res.stabilisation_round, *algo->stabilisation_bound());
}

INSTANTIATE_TEST_SUITE_P(
    AllAdversaries, Theorem1EndToEnd,
    ::testing::Values(EndToEndCase{"silent", "prefix", 1}, EndToEndCase{"silent", "spread", 2},
                      EndToEndCase{"random", "prefix", 3}, EndToEndCase{"random", "spread", 4},
                      EndToEndCase{"split", "prefix", 5}, EndToEndCase{"split", "spread", 6},
                      EndToEndCase{"mirror", "prefix", 7}, EndToEndCase{"mirror", "spread", 8},
                      EndToEndCase{"targeted-vote", "prefix", 9},
                      EndToEndCase{"targeted-vote", "spread", 10},
                      EndToEndCase{"lookahead", "prefix", 11},
                      EndToEndCase{"lookahead", "spread", 12}),
    [](const ::testing::TestParamInfo<EndToEndCase>& pinfo) {
      std::string n = pinfo.param.adversary + "_" + pinfo.param.placement;
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(Theorem1EndToEnd, FaultFreeStabilises) {
  const auto algo = make_4_1(8);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.max_rounds = *algo->stabilisation_bound() + 200;
  cfg.seed = 20;
  auto adv = sim::make_adversary("random");
  const auto res = sim::run_execution(cfg, *adv, 100);
  EXPECT_TRUE(res.stabilised);
}

TEST(Theorem1EndToEnd, EchoFaultIsHarmless) {
  // A "Byzantine" node that follows the protocol must never delay
  // stabilisation beyond the bound.
  const auto algo = make_4_1(8);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = sim::faults_prefix(4, 1);
  cfg.max_rounds = *algo->stabilisation_bound() + 200;
  cfg.seed = 21;
  auto adv = sim::make_adversary("echo");
  const auto res = sim::run_execution(cfg, *adv, 100);
  EXPECT_TRUE(res.stabilised);
}

TEST(Theorem1EndToEnd, LargerOutputModulus) {
  const auto algo = make_4_1(100);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = sim::faults_prefix(4, 1);
  cfg.max_rounds = *algo->stabilisation_bound() + 400;
  cfg.seed = 22;
  auto adv = sim::make_adversary("split");
  const auto res = sim::run_execution(cfg, *adv, 250);
  EXPECT_TRUE(res.stabilised);
}

TEST(Theorem1EndToEnd, ZeroResilienceLevelWorks) {
  // F = 0 is a degenerate but legal Theorem 1 instance (tau = 6).
  auto base = std::make_shared<counting::TrivialCounter>(6 * 64);  // 3(0+2)*4^3
  const auto algo = std::make_shared<BoostedCounter>(base, BoostParams{3, 0, 4});
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.max_rounds = *algo->stabilisation_bound() + 100;
  cfg.seed = 23;
  auto adv = sim::make_adversary("random");
  const auto res = sim::run_execution(cfg, *adv, 50);
  EXPECT_TRUE(res.stabilised);
}

// --- The construction-aware attack ------------------------------------------------

TEST(LeaderSplitAdversary, BoundHoldsUnderConstructionAwareAttack) {
  const auto algo = make_4_1(8);
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    boosting::LeaderSplitAdversary adv(algo);
    sim::RunConfig cfg;
    cfg.algo = algo;
    cfg.faulty = sim::faults_prefix(4, 1);
    cfg.max_rounds = *algo->stabilisation_bound() + 200;
    cfg.seed = seed;
    const auto res = sim::run_execution(cfg, adv, 100);
    EXPECT_TRUE(res.stabilised) << seed;
    EXPECT_LE(res.stabilisation_round, *algo->stabilisation_bound()) << seed;
  }
}

TEST(LeaderSplitAdversary, BoundHoldsOnRecursiveInstance) {
  const auto plan = boosting::plan_practical(3, 16);
  const auto algo = std::dynamic_pointer_cast<const BoostedCounter>(
      boosting::build_plan(plan));
  ASSERT_NE(algo, nullptr);
  boosting::LeaderSplitAdversary adv(algo);
  sim::RunConfig cfg;
  cfg.algo = algo;
  cfg.faulty = sim::faults_block_concentrated(3, 4, 1, 3);
  cfg.max_rounds = *algo->stabilisation_bound() + 300;
  cfg.seed = 44;
  const auto res = sim::run_execution(cfg, adv, 150);
  EXPECT_TRUE(res.stabilised);
  EXPECT_LE(res.stabilisation_round, *algo->stabilisation_bound());
}

TEST(StateWithOutput, BuildsStatesWithRequestedOutputs) {
  // A pulling level shares the boosting level's state layout, so it builds
  // the same states in O(1).
  pulling::PullParams p;
  p.k = 4;
  p.F = 1;
  p.C = 8;
  p.sample_size = 8;
  const std::vector<counting::AlgorithmPtr> levels = {
      make_4_1(8),
      std::make_shared<pulling::PullingBoostedCounter>(
          std::make_shared<counting::TrivialCounter>(2304), p)};
  for (const counting::AlgorithmPtr& algo : levels) {
    for (std::uint64_t target = 0; target < 8; ++target) {
      const State s = algo->state_with_output(0, target);
      EXPECT_EQ(algo->output(0, s), target) << algo->name();
      // The state is canonical (usable as a forged message).
      EXPECT_EQ(algo->canonicalize(s), s) << algo->name();
    }
    EXPECT_THROW(algo->state_with_output(0, 8), std::invalid_argument) << algo->name();
  }
}

TEST(StateWithOutput, DefaultScanWorksForTables) {
  counting::TrivialCounter t(6);
  for (std::uint64_t target = 0; target < 6; ++target) {
    EXPECT_EQ(t.output(0, t.state_with_output(0, target)), target);
  }
}

// --- Recursive instances (Section 4 / Figure 2) ---------------------------------

TEST(Recursion, TwelveNodesThreeFaults) {
  const auto algo = boosting::build_plan(boosting::plan_practical(3, 16));
  EXPECT_EQ(algo->num_nodes(), 12);
  EXPECT_EQ(algo->resilience(), 3);
  ASSERT_TRUE(algo->stabilisation_bound().has_value());
  EXPECT_EQ(*algo->stabilisation_bound(), 2304u + 960u);

  sim::RunConfig cfg;
  cfg.algo = algo;
  // Worst placement: fully corrupt one block (f_inner+1 = 2 faults) and
  // spread the rest.
  cfg.faulty = sim::faults_block_concentrated(3, 4, 1, 3);
  cfg.max_rounds = *algo->stabilisation_bound() + 300;
  cfg.seed = 41;
  auto adv = sim::make_adversary("split");
  const auto res = sim::run_execution(cfg, *adv, 150);
  EXPECT_TRUE(res.stabilised);
  EXPECT_LE(res.stabilisation_round, *algo->stabilisation_bound());
}

TEST(Recursion, Figure2ThirtySixNodesSevenFaults) {
  const auto algo = boosting::build_plan(boosting::plan_practical(7, 10));
  EXPECT_EQ(algo->num_nodes(), 36);
  EXPECT_EQ(algo->resilience(), 7);
  EXPECT_EQ(*algo->stabilisation_bound(), 2304u + 960u + 1728u);

  sim::RunConfig cfg;
  cfg.algo = algo;
  // Figure 2's drawing: one fully faulty 12-node block (4 faults) plus
  // faults sprinkled over the other blocks.
  cfg.faulty = sim::faults_block_concentrated(3, 12, 3, 7);
  cfg.max_rounds = *algo->stabilisation_bound() + 300;
  cfg.seed = 42;
  auto adv = sim::make_adversary("targeted-vote");
  const auto res = sim::run_execution(cfg, *adv, 150);
  EXPECT_TRUE(res.stabilised);
  EXPECT_LE(res.stabilisation_round, *algo->stabilisation_bound());
}

}  // namespace
