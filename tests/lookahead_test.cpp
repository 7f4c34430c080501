// The lookahead adversary and the one-round tower oracle it scores with.
//
//  * TowerOracle.* -- next_output equals one scalar round
//    (algo.output(v, algo.transition(v, received, ctx))) at every correct
//    receiver, for raw and canonical forged messages, and make() accepts
//    exactly the towers whose transitions draw nothing.
//  * Lookahead.GoldenTrajectories -- exact RunResult fields of
//    run_execution under lookahead, pinned per (algorithm, placement, seed).
//    The batched-vs-scalar suites cannot see a change in lookahead's search,
//    because lookahead runs on the scalar runner on both sides.
//  * Lookahead.FaultFreeRunMatchesSilent -- with nothing to forge, lookahead
//    must leave the execution exactly as any other strategy does.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "counting/trivial.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/adversaries.hpp"
#include "sim/composed_runner.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"
#include "synthesis/known_tables.hpp"
#include "towers.hpp"
#include "util/rng.hpp"

namespace {

using namespace synccount;
using test::boosted_over_table;
using test::practical;

// A boosted top level over a fixed-sampling pulling level: the one accepted
// tower shape with a pulling level in it. The pulling level's modulus is
// Theorem 1's granularity 3(F+2)(2m)^k = 768 for the top's k = 3, F = 2.
counting::AlgorithmPtr boosted_over_pulling(pulling::SamplingMode mode) {
  pulling::PullParams p;
  p.k = 4;
  p.F = 1;
  p.C = boosting::required_input_modulus(3, 2);
  p.sample_size = 3;
  p.mode = mode;
  auto inner = std::make_shared<pulling::PullingBoostedCounter>(
      std::make_shared<counting::TrivialCounter>(boosting::required_input_modulus(4, 1)), p);
  return std::make_shared<boosting::BoostedCounter>(inner, boosting::BoostParams{3, 2, 10});
}

counting::AlgorithmPtr table1() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
}

// Whole blocks corrupted first, as boosted_batch_test places them for a
// k = 3 top level.
std::vector<bool> blocks(int n, int f) {
  return sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f);
}

TEST(TowerOracle, EqualsOneScalarRound) {
  struct Input {
    std::string name;
    counting::AlgorithmPtr algo;
    int f;
  };
  const std::vector<Input> inputs = {
      {"practical(1)", practical(1), 1},
      {"practical(2)", practical(2), 2},
      {"practical(3)", practical(3), 3},
      {"practical(7)", practical(7), 7},
      {"table-base", boosted_over_table(), 1},
      {"over-fixed-pulling", boosted_over_pulling(pulling::SamplingMode::kFixed), 2},
  };
  std::size_t checks = 0;
  for (const Input& in : inputs) {
    const counting::CountingAlgorithm& algo = *in.algo;
    const int n = algo.num_nodes();
    auto oracle = sim::TowerOracle::make(algo);
    ASSERT_NE(oracle, nullptr) << in.name;
    std::vector<std::pair<std::string, std::vector<bool>>> placements = {
        {"spread", sim::faults_spread(n, in.f)}};
    if (n % 3 == 0) placements.push_back({"blocks", blocks(n, in.f)});
    for (const auto& [pname, faulty] : placements) {
      const std::string ctx_name = in.name + "/" + pname;
      const std::vector<counting::NodeId> faulty_ids = sim::fault_ids(faulty);
      // Round-start states from a real execution: early rounds are arbitrary,
      // later ones (nearly) agree, so the majorities the oracle reads off are
      // both absent and present.
      sim::RunConfig cfg;
      cfg.algo = in.algo;
      cfg.faulty = faulty;
      cfg.max_rounds = 48;
      cfg.seed = 0x0AC1E + static_cast<std::uint64_t>(n);
      cfg.record_states = true;
      auto split = sim::make_adversary("split");
      const sim::RunResult run = sim::run_execution(cfg, *split);
      ASSERT_EQ(run.states.size(), cfg.max_rounds) << ctx_name;

      util::Rng rng(0xF00D + static_cast<std::uint64_t>(n));
      util::Rng transition_rng(7);
      counting::TransitionContext ctx{&transition_rng};
      std::vector<sim::State> msgs(faulty_ids.size());
      for (std::size_t r = 0; r < run.states.size(); ++r) {
        const std::vector<sim::State>& states = run.states[r];
        oracle->begin_round(states, faulty_ids);
        std::vector<sim::State> received = states;
        for (counting::NodeId v = 0; v < n; ++v) {
          if (faulty[static_cast<std::size_t>(v)]) continue;
          for (int trial = 0; trial < 6; ++trial) {
            for (std::size_t k = 0; k < faulty_ids.size(); ++k) {
              // Raw bit patterns, canonical random states, and replays of
              // round-start states (plausible votes).
              switch (rng.next_below(3)) {
                case 0: {
                  sim::State raw;
                  for (int off = 0; off < algo.state_bits(); off += 64) {
                    raw.set_bits(off, std::min(64, algo.state_bits() - off), rng.next_u64());
                  }
                  msgs[k] = raw;
                  break;
                }
                case 1:
                  msgs[k] = counting::arbitrary_state(algo, rng);
                  break;
                default:
                  msgs[k] = states[rng.next_below(states.size())];
              }
              received[static_cast<std::size_t>(faulty_ids[k])] = algo.canonicalize(msgs[k]);
            }
            util::Rng unused = transition_rng;
            const std::uint64_t expected = algo.output(v, algo.transition(v, received, ctx));
            ASSERT_EQ(transition_rng.next_u64(), unused.next_u64())
                << ctx_name << ": an accepted tower's transition drew randomness";
            ASSERT_EQ(oracle->next_output(v, msgs), expected)
                << ctx_name << " round " << r << " receiver " << v << " trial " << trial;
            ++checks;
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 30000u);
}

TEST(TowerOracle, AcceptsOnlyDrawFreeBoostedTops) {
  EXPECT_NE(sim::TowerOracle::make(*practical(2)), nullptr);
  EXPECT_NE(sim::TowerOracle::make(*boosted_over_table()), nullptr);
  EXPECT_NE(sim::TowerOracle::make(*boosted_over_pulling(pulling::SamplingMode::kFixed)),
            nullptr);
  // Flat algorithms.
  EXPECT_EQ(sim::TowerOracle::make(*table1()), nullptr);
  EXPECT_EQ(sim::TowerOracle::make(counting::TrivialCounter(16)), nullptr);
  // Pulling top levels, fixed or fresh.
  for (const auto mode : {pulling::SamplingMode::kFixed, pulling::SamplingMode::kFresh}) {
    EXPECT_EQ(sim::TowerOracle::make(*pulling::build_pulling_practical(2, 10, 8, mode)), nullptr);
  }
  // A fresh-sampling level below a boosted top: its transitions draw.
  EXPECT_EQ(sim::TowerOracle::make(*boosted_over_pulling(pulling::SamplingMode::kFresh)),
            nullptr);
}

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Golden {
  std::uint64_t seed;
  std::uint64_t rounds;
  std::uint64_t stabilisation_round;
  std::uint64_t suffix_length;
  std::uint64_t max_window;
  bool stabilised;
  std::uint64_t max_pulls_per_round;
  double avg_pulls_per_round;
  std::uint64_t outputs_fnv;  // every recorded output, round-major
  std::uint64_t states_fnv;   // every recorded state, round-major
};

struct GoldenCase {
  std::string name;
  counting::AlgorithmPtr algo;
  std::vector<bool> faulty;
  std::uint64_t max_rounds;
  std::vector<Golden> runs;
};

// Recorded before lookahead scored through TowerOracle, with the search on
// algo.transition: the oracle must not change one candidate's score, so the
// chosen profiles, every message and every trajectory stay the same. Fields:
// seed, rounds, stabilisation_round, suffix_length, max_window, stabilised,
// max_pulls_per_round, avg_pulls_per_round, outputs_fnv, states_fnv.
std::vector<GoldenCase> golden_cases() {
  const auto fixed = pulling::SamplingMode::kFixed;
  const auto fresh = pulling::SamplingMode::kFresh;
  return {
      {"practical(2)/spread",
       practical(2),
       sim::faults_spread(12, 2),
       200,
       {
        {1, 200, 7, 193, 193, true, 0, 0, 0x5a97382efbc3414aULL, 0xc6e2bb319b3a09f6ULL},
        {2, 200, 4, 196, 196, true, 0, 0, 0x84ce5b0ff3917eedULL, 0x321eccf1eb5bbd57ULL},
        {3, 200, 8, 192, 192, true, 0, 0, 0xff2c562188482303ULL, 0xb537c251caa13a69ULL},
       }},
      {"practical(2)/blocks",
       practical(2),
       blocks(12, 2),
       200,
       {
        {1, 200, 7, 193, 193, true, 0, 0, 0x138a17cfe03d740fULL, 0x73a05f3021e45a38ULL},
        {2, 200, 4, 196, 196, true, 0, 0, 0x9ce010e193759d00ULL, 0x7d5450669a4de6f2ULL},
        {3, 200, 8, 192, 192, true, 0, 0, 0xaefb01e7ed73bce6ULL, 0x8625cba8696562f9ULL},
       }},
      {"practical(7)/spread",
       practical(7),
       sim::faults_spread(36, 7),
       120,
       {
        {1, 120, 12, 108, 108, true, 0, 0, 0xb81693591b75200cULL, 0xea48e44d5de420b3ULL},
        {2, 120, 6, 114, 114, true, 0, 0, 0xcd8da5818a0b240bULL, 0x38c2305b32054139ULL},
        {3, 120, 13, 107, 107, true, 0, 0, 0xbf49512f28d4d380ULL, 0xb0b60a7d7bbd4b80ULL},
       }},
      {"table-base/spread",
       boosted_over_table(),
       sim::faults_spread(6, 1),
       200,
       {
        {1, 200, 199, 1, 1, false, 0, 0, 0x8aa401de43e6f02cULL, 0xcd48fe2d5ade2e81ULL},
        {2, 200, 155, 45, 45, true, 0, 0, 0xd3a0e5ee7cfad1e3ULL, 0x849f39faf7a7af7dULL},
        {3, 200, 199, 1, 1, false, 0, 0, 0xee74cd095de8fd6bULL, 0x5259ae179bff5f35ULL},
       }},
      // Flat: scored through algo.transition.
      {"table1/spread",
       table1(),
       sim::faults_spread(4, 1),
       200,
       {
        {1, 200, 2, 198, 198, true, 0, 0, 0x849e285563613e45ULL, 0xd3e33b8f8b0eaa25ULL},
        {2, 200, 2, 198, 198, true, 0, 0, 0x434b8fa8c45c7644ULL, 0xe1e1ef56446cf9c7ULL},
        {3, 200, 2, 198, 198, true, 0, 0, 0x5ea4491739d4aac5ULL, 0x71c07db6bda5d6e4ULL},
       }},
      {"over-fixed-pulling/spread",
       boosted_over_pulling(fixed),
       sim::faults_spread(12, 2),
       200,
       {
        {1, 200, 9, 191, 191, true, 17, 17, 0x0229f8188a706c42ULL, 0x7c0fa93366668eabULL},
        {2, 200, 5, 195, 195, true, 17, 17, 0xa2e15541f6d85d6aULL, 0x44b5f424b39e87dbULL},
        {3, 200, 8, 192, 192, true, 17, 17, 0xff2c562188482303ULL, 0x2dffbc4f680e7a20ULL},
       }},
      // Pulling top level: scored through algo.transition.
      {"pulling-fixed/spread",
       pulling::build_pulling_practical(2, 10, 8, fixed),
       sim::faults_spread(12, 2),
       200,
       {
        {1, 200, 199, 1, 1, false, 37, 37, 0x0319a458125c8ca1ULL, 0xc0218927b1f8ce01ULL},
        {2, 200, 200, 0, 1, false, 37, 37, 0x155ffe9f678f0288ULL, 0xf855669e5d229c40ULL},
        {3, 200, 200, 0, 2, false, 37, 37, 0x6ee6cd2422532462ULL, 0x4031bb579d696be9ULL},
       }},
      // Fresh sampling, one and two pulling levels: recorded before the
      // pulling level shared boosting::BoostingLevel and voted through
      // boosting::strict_majority. The composed backend switched majorities
      // with it, so the backend-vs-backend suites alone cannot pin this path.
      {"pulling-fresh/spread",
       pulling::build_pulling_practical(2, 10, 8, fresh),
       sim::faults_spread(12, 2),
       200,
       {
        {1, 200, 199, 1, 9, false, 37, 37, 0x7b948ab3e1949141ULL, 0xe258923ead082a91ULL},
        {2, 200, 199, 1, 7, false, 37, 37, 0x426f2487d663d44aULL, 0x3d3ea32d4cb7a2a1ULL},
        {3, 200, 200, 0, 9, false, 37, 37, 0x38b0ba810bd8a988ULL, 0x7385df02c340a2aeULL},
       }},
      {"two-pulling-fresh/spread",
       pulling::build_pulling_practical(2, 10, 8, fresh, 0x5eedULL, 2),
       sim::faults_spread(12, 2),
       200,
       {
        {1, 200, 200, 0, 3, false, 79, 79, 0x01f860571dc68ac7ULL, 0xbc3379d3544506b5ULL},
        {2, 200, 200, 0, 5, false, 79, 79, 0xcf0ded226124f84bULL, 0x5b4e0f0d194dd004ULL},
        {3, 200, 199, 1, 3, false, 79, 79, 0x9fdc60dde3d7b7c8ULL, 0x4f7d7f0258d0fd7cULL},
       }},
  };
}

Golden run_lookahead(const GoldenCase& gc, std::uint64_t seed) {
  sim::RunConfig cfg;
  cfg.algo = gc.algo;
  cfg.faulty = gc.faulty;
  cfg.max_rounds = gc.max_rounds;
  cfg.seed = seed;
  cfg.record_outputs = true;
  cfg.record_states = true;
  sim::LookaheadAdversary adv;
  const sim::RunResult r = sim::run_execution(cfg, adv);
  Fnv outs;
  for (const auto& row : r.outputs) {
    for (const std::uint64_t o : row) outs.add(o);
  }
  Fnv states;
  const int bits = gc.algo->state_bits();
  for (const auto& row : r.states) {
    for (const sim::State& s : row) {
      for (int off = 0; off < bits; off += 64) states.add(s.get_bits(off, std::min(64, bits - off)));
    }
  }
  return {seed,
          r.rounds,
          r.stabilisation_round,
          r.suffix_length,
          r.max_window,
          r.stabilised,
          r.max_pulls_per_round,
          r.avg_pulls_per_round,
          outs.h,
          states.h};
}

TEST(Lookahead, GoldenTrajectories) {
  for (const GoldenCase& gc : golden_cases()) {
    for (const Golden& want : gc.runs) {
      const Golden got = run_lookahead(gc, want.seed);
      const std::string ctx = gc.name + "/seed=" + std::to_string(want.seed);
      EXPECT_EQ(got.rounds, want.rounds) << ctx;
      EXPECT_EQ(got.stabilisation_round, want.stabilisation_round) << ctx;
      EXPECT_EQ(got.suffix_length, want.suffix_length) << ctx;
      EXPECT_EQ(got.max_window, want.max_window) << ctx;
      EXPECT_EQ(got.stabilised, want.stabilised) << ctx;
      EXPECT_EQ(got.max_pulls_per_round, want.max_pulls_per_round) << ctx;
      EXPECT_EQ(got.avg_pulls_per_round, want.avg_pulls_per_round) << ctx;
      EXPECT_EQ(got.outputs_fnv, want.outputs_fnv) << ctx;
      EXPECT_EQ(got.states_fnv, want.states_fnv) << ctx;
    }
  }
}

TEST(Lookahead, FaultFreeRunMatchesSilent) {
  // On a fresh-sampling tower every transition draws, so scoring candidates
  // in a fault-free round would consume the execution's Rng. practical(2)
  // draws nothing and pins that the deterministic case stays equal too.
  const std::vector<std::pair<std::string, counting::AlgorithmPtr>> algos = {
      {"pulling-fresh", pulling::build_pulling_practical(2, 10, 8, pulling::SamplingMode::kFresh)},
      {"practical(2)", practical(2)},
  };
  for (const auto& [name, algo] : algos) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      sim::RunConfig cfg;
      cfg.algo = algo;
      cfg.max_rounds = 80;
      cfg.seed = seed;
      cfg.record_outputs = true;
      sim::LookaheadAdversary lookahead;
      sim::SilentAdversary silent;
      const sim::RunResult a = sim::run_execution(cfg, lookahead);
      const sim::RunResult b = sim::run_execution(cfg, silent);
      const std::string ctx = name + "/seed=" + std::to_string(seed);
      EXPECT_EQ(a.rounds, b.rounds) << ctx;
      EXPECT_EQ(a.stabilisation_round, b.stabilisation_round) << ctx;
      EXPECT_EQ(a.suffix_length, b.suffix_length) << ctx;
      EXPECT_EQ(a.max_window, b.max_window) << ctx;
      EXPECT_EQ(a.stabilised, b.stabilised) << ctx;
      EXPECT_EQ(a.max_pulls_per_round, b.max_pulls_per_round) << ctx;
      EXPECT_EQ(a.avg_pulls_per_round, b.avg_pulls_per_round) << ctx;
      EXPECT_EQ(a.correct_ids, b.correct_ids) << ctx;
      EXPECT_TRUE(a.outputs == b.outputs) << ctx << ": output traces differ";
    }
  }
}

}  // namespace
