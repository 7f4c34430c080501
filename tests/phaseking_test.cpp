// Tests for the phase-king instruction sets (Table 2) and the standalone
// consensus driver: exact step semantics, Lemma 4 (a non-faulty king's three
// instruction sets establish agreement) and Lemma 5 (agreement persists under
// every instruction set), under adversarial Byzantine behaviour.
#include <gtest/gtest.h>

#include "phaseking/consensus.hpp"
#include "phaseking/phase_king.hpp"
#include "util/rng.hpp"

namespace {

using namespace synccount::phaseking;

Params params(int N, int F, std::uint64_t C) { return Params{N, F, C}; }

// --- Params / encoding ------------------------------------------------------

TEST(PhaseKingParams, TauIsThreeFPlusTwo) {
  EXPECT_EQ(params(4, 1, 8).tau(), 9);
  EXPECT_EQ(params(7, 2, 8).tau(), 12);
  EXPECT_EQ(params(4, 0, 2).tau(), 6);
}

TEST(PhaseKingParams, Validation) {
  EXPECT_NO_THROW(params(4, 1, 8).validate());
  EXPECT_THROW(params(3, 1, 8).validate(), std::invalid_argument);   // N <= 3F
  EXPECT_THROW(params(4, 1, 1).validate(), std::invalid_argument);   // C < 2
  EXPECT_THROW(params(1, 0, 2).validate(), std::invalid_argument);   // N < F+2
}

TEST(PhaseKingEncoding, RoundTripAndClamp) {
  const std::uint64_t C = 10;
  EXPECT_EQ(a_bits(C), 4);
  for (std::uint64_t a = 0; a < C; ++a) {
    EXPECT_EQ(decode_a(encode_a(a, C), C), a);
  }
  EXPECT_EQ(decode_a(encode_a(kInfinity, C), C), kInfinity);
  // Arbitrary (Byzantine) patterns >= C decode to infinity.
  EXPECT_EQ(decode_a(12, C), kInfinity);
  EXPECT_EQ(decode_a(15, C), kInfinity);
}

// --- Single-step semantics ---------------------------------------------------

TEST(PhaseKingStep, I0ResetsWithoutQuorum) {
  // N=4, F=1: fewer than N-F = 3 copies of own value -> reset to infinity.
  const Params p = params(4, 1, 8);
  const std::uint64_t recv[] = {5, 6, 7, 3};
  const Registers out = step(p, 0, 0, Registers{5, true}, recv);
  EXPECT_EQ(out.a, kInfinity);
  EXPECT_TRUE(out.d);  // I_{3l} does not touch d
}

TEST(PhaseKingStep, I0KeepsAndIncrementsWithQuorum) {
  const Params p = params(4, 1, 8);
  const std::uint64_t recv[] = {5, 5, 5, 0};
  const Registers out = step(p, 0, 0, Registers{5, false}, recv);
  EXPECT_EQ(out.a, 6u);
}

TEST(PhaseKingStep, I0WrapsModC) {
  const Params p = params(4, 1, 8);
  const std::uint64_t recv[] = {7, 7, 7, 7};
  EXPECT_EQ(step(p, 0, 0, Registers{7, false}, recv).a, 0u);
}

TEST(PhaseKingStep, I1SetsDAndPicksSmallestFrequentValue) {
  const Params p = params(4, 1, 8);
  // z_5 = 3 >= N-F -> d=1; values with z_j > F=1: {5}; min = 5 -> a = 5+1.
  const std::uint64_t recv[] = {5, 5, 5, 2};
  const Registers out = step(p, 1, 0, Registers{5, false}, recv);
  EXPECT_TRUE(out.d);
  EXPECT_EQ(out.a, 6u);
}

TEST(PhaseKingStep, I1ClearsDWithoutQuorum) {
  const Params p = params(4, 1, 8);
  // z_5 = 2 < 3 -> d=0; frequent values: {5} (z=2 > F=1) -> a = 5+1.
  const std::uint64_t recv[] = {5, 5, 2, 3};
  const Registers out = step(p, 1, 0, Registers{5, true}, recv);
  EXPECT_FALSE(out.d);
  EXPECT_EQ(out.a, 6u);
}

TEST(PhaseKingStep, I1NoFrequentValueGivesInfinity) {
  const Params p = params(4, 1, 8);
  const std::uint64_t recv[] = {1, 2, 3, 4};  // all counts = 1 = F
  const Registers out = step(p, 1, 0, Registers{1, false}, recv);
  EXPECT_EQ(out.a, kInfinity);
}

TEST(PhaseKingStep, I1PrefersSmallestValue) {
  const Params p = params(7, 2, 8);
  // Values 6 and 2 both have z > F=2; min is 2 -> a = 3.
  const std::uint64_t recv[] = {6, 6, 6, 2, 2, 2, 0};
  EXPECT_EQ(step(p, 1, 0, Registers{0, false}, recv).a, 3u);
}

TEST(PhaseKingStep, I1InfinityMajorityCountsForD) {
  const Params p = params(4, 1, 8);
  // Own value infinity seen 3 times -> d=1, but min{j in [C]: z_j > F} has no
  // candidate -> a stays infinity.
  const std::uint64_t inf = kInfinity;
  const std::uint64_t recv[] = {inf, inf, inf, 1};
  const Registers out = step(p, 1, 0, Registers{inf, false}, recv);
  EXPECT_TRUE(out.d);
  EXPECT_EQ(out.a, kInfinity);
}

TEST(PhaseKingStep, I2AdoptsKingWhenUndecided) {
  const Params p = params(4, 1, 8);
  // Instruction set I_{3l+2} with l = 1 -> index 5; king is node 1.
  const std::uint64_t recv[] = {0, 4, 0, 0};
  const Registers out = step(p, 5, 0, Registers{2, false}, recv);  // d=0 -> adopt
  EXPECT_EQ(out.a, 5u);  // king's 4, incremented
  EXPECT_TRUE(out.d);
}

TEST(PhaseKingStep, I2KeepsOwnWhenConfident) {
  const Params p = params(4, 1, 8);
  const std::uint64_t recv[] = {0, 4, 0, 0};
  const Registers out = step(p, 5, 0, Registers{2, true}, recv);  // d=1 -> keep
  EXPECT_EQ(out.a, 3u);
  EXPECT_TRUE(out.d);
}

TEST(PhaseKingStep, I2InfiniteKingGivesDeterministicValue) {
  const Params p = params(4, 1, 8);
  const std::uint64_t inf = kInfinity;
  const std::uint64_t recv[] = {inf, inf, inf, inf};
  // min{C, infinity} = C = 8, increment -> (8+1) mod 8 = 1; identical at all
  // correct nodes, which is what Lemma 4 needs.
  const Registers out = step(p, 2, 0, Registers{inf, false}, recv);
  EXPECT_EQ(out.a, 1u);
  EXPECT_TRUE(out.d);
}

// --- Counting scratch follows N, not C ----------------------------------------

TEST(PhaseKingStep, I1CountsWithAHugeModulus) {
  // C = 2^62: a counter indexed by value would need 2^62 + 1 entries.
  const std::uint64_t C = std::uint64_t{1} << 62;
  const Params p = params(4, 1, C);
  const std::uint64_t inf = kInfinity;
  const std::uint64_t recv[] = {C - 1, C - 1, C - 1, inf};
  const Registers out = step(p, 1, 0, Registers{C - 1, false}, recv);
  EXPECT_TRUE(out.d);
  EXPECT_EQ(out.a, 0u);  // min{j : z_j > F} = C - 1, incremented mod C
  // ∞ and a value >= C share one bucket: together they pass N - F.
  const std::uint64_t recv2[] = {inf, C + 5, inf, 3};
  const Registers out2 = step(p, 1, 0, Registers{inf, false}, recv2);
  EXPECT_TRUE(out2.d);
  EXPECT_EQ(out2.a, kInfinity);
  const Registers out3 =
      step_sampled(p, 1, Registers{C - 1, false}, std::span<const std::uint64_t>(recv), inf);
  EXPECT_TRUE(out3.d);
  EXPECT_EQ(out3.a, 0u);
}

// Brute-force reference for step / step_sampled: phase 1 counts each bucket
// by a scan over every received value.
std::uint64_t bucket(std::uint64_t a, std::uint64_t C) { return a == kInfinity ? C : std::min(a, C); }

std::uint64_t bucket_count(std::span<const std::uint64_t> recv, std::uint64_t j, std::uint64_t C) {
  std::uint64_t z = 0;
  for (const std::uint64_t a : recv) z += bucket(a, C) == j ? 1 : 0;
  return z;
}

// The smallest real value whose count passes `passes`, or ∞.
template <class Passes>
std::uint64_t least_passing(std::span<const std::uint64_t> recv, std::uint64_t C, Passes passes) {
  std::uint64_t least = kInfinity;
  for (const std::uint64_t a : recv) {
    if (a < C && passes(bucket_count(recv, a, C))) least = std::min(least, a);
  }
  return least;
}

std::uint64_t inc(std::uint64_t a, std::uint64_t C) { return a == kInfinity ? a : (a + 1) % C; }

Registers brute_step(const Params& p, int index, const Registers& own,
                     std::span<const std::uint64_t> recv) {
  const auto NF = static_cast<std::uint64_t>(p.N - p.F);
  Registers out = own;
  if (index % 3 == 0) {
    std::uint64_t same = 0;
    for (const std::uint64_t a : recv) same += a == own.a ? 1 : 0;
    if (same < NF) out.a = kInfinity;
  } else if (index % 3 == 1) {
    out.d = bucket_count(recv, bucket(own.a, p.C), p.C) >= NF;
    out.a = least_passing(recv, p.C, [&](std::uint64_t z) { return z > static_cast<std::uint64_t>(p.F); });
  } else {
    if (own.a == kInfinity || !own.d) out.a = std::min(p.C, recv[static_cast<std::size_t>(index / 3)]);
    out.d = true;
  }
  out.a = inc(out.a, p.C);
  return out;
}

Registers brute_step_sampled(const Params& p, int index, const Registers& own,
                             std::span<const std::uint64_t> recv, std::uint64_t king_a) {
  const std::uint64_t M = recv.size();
  Registers out = own;
  if (index % 3 == 0) {
    std::uint64_t same = 0;
    for (const std::uint64_t a : recv) same += a == own.a ? 1 : 0;
    if (3 * same < 2 * M) out.a = kInfinity;
  } else if (index % 3 == 1) {
    out.d = 3 * bucket_count(recv, bucket(own.a, p.C), p.C) >= 2 * M;
    out.a = least_passing(recv, p.C, [&](std::uint64_t z) { return 3 * z > M; });
  } else {
    if (own.a == kInfinity || !own.d) out.a = std::min(p.C, king_a);
    out.d = true;
  }
  out.a = inc(out.a, p.C);
  return out;
}

TEST(PhaseKingStep, MatchesBruteForceCountsForEveryModulus) {
  synccount::util::Rng rng(0x5EED);
  const std::uint64_t moduli[] = {2, 10, 1728, 81788928, std::uint64_t{1} << 62};
  for (const std::uint64_t C : moduli) {
    for (int t = 0; t < 400; ++t) {
      const int F = static_cast<int>(rng.next_below(4));
      const int N = 3 * F + 1 + static_cast<int>(rng.next_below(6));
      const Params p = params(std::max(N, F + 2), F, C);
      // A small pool, so that values repeat: real values, ∞, and values
      // >= C that share ∞'s bucket in phase 1.
      const std::uint64_t pool[] = {rng.next_below(C), rng.next_below(C), C - 1, kInfinity, C,
                                    C + rng.next_below(1000)};
      std::vector<std::uint64_t> recv(static_cast<std::size_t>(p.N));
      for (auto& a : recv) a = pool[rng.next_below(rng.next_below(2) == 0 ? 3 : 6)];
      const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p.N)));
      const Registers own{recv[static_cast<std::size_t>(v)], rng.next_below(2) == 1};
      const std::string ctx = "C=" + std::to_string(C) + "/t=" + std::to_string(t);
      for (int index = 0; index < p.tau(); ++index) {
        ASSERT_EQ(step(p, index, v, own, recv), brute_step(p, index, own, recv)) << ctx;
        const std::uint64_t king_a = pool[rng.next_below(6)];
        ASSERT_EQ(step_sampled(p, index, own, recv, king_a),
                  brute_step_sampled(p, index, own, recv, king_a))
            << ctx;
      }
    }
  }
}

// --- Lemma 5: agreement persists under every instruction set ----------------

TEST(PhaseKingLemma5, AgreementPersistsThroughAllInstructions) {
  const Params p = params(7, 2, 12);
  const std::vector<bool> faulty = {false, false, true, false, true, false, false};
  synccount::util::Rng rng(21);

  for (int index = 0; index < p.tau(); ++index) {
    // All correct nodes agree on x with d=1; Byzantine nodes send junk.
    const std::uint64_t x = rng.next_below(12);
    std::vector<Registers> init(7, Registers{x, true});
    const auto byz = [&](int, NodeId, NodeId receiver) -> std::uint64_t {
      return (receiver * 5 + 3) % 14;  // per-receiver junk, sometimes >= C
    };
    const auto trace = run_phase_king(p, init, faulty, byz, index, 1);
    for (int v = 0; v < 7; ++v) {
      if (faulty[v]) continue;
      EXPECT_EQ(trace.regs[1][v].a, (x + 1) % 12) << "instruction " << index;
      EXPECT_TRUE(trace.regs[1][v].d) << "instruction " << index;
    }
  }
}

// --- Lemma 4: a correct king's phase establishes agreement ------------------

TEST(PhaseKingLemma4, HonestKingPhaseEstablishesAgreement) {
  const Params p = params(7, 2, 12);
  // Kings are nodes 0..F+1 = 0..3. Make nodes 1 and 3 Byzantine; king 2 is
  // correct. Run I_6, I_7, I_8 (l = 2) from adversarial initial registers.
  const std::vector<bool> faulty = {false, true, false, true, false, false, false};
  synccount::util::Rng rng(33);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Registers> init(7);
    for (auto& r : init) {
      r.a = rng.next_bool(0.2) ? kInfinity : rng.next_below(12);
      r.d = rng.next_bool();
    }
    const auto byz = [&rng](int, NodeId, NodeId) -> std::uint64_t {
      return rng.next_below(14);  // may exceed C -> decodes to infinity
    };
    const auto trace = run_phase_king(p, init, faulty, byz, 6, 3);
    EXPECT_TRUE(agreed(p, trace.regs[3], faulty)) << "trial " << trial;
  }
}

TEST(PhaseKingLemma4, WorksForEveryHonestKing) {
  const Params p = params(4, 1, 6);
  // One Byzantine node; try each choice, and for each correct king l run its
  // phase from a bad state.
  synccount::util::Rng rng(55);
  for (int byz_node = 0; byz_node < 4; ++byz_node) {
    std::vector<bool> faulty(4, false);
    faulty[byz_node] = true;
    for (int l = 0; l < p.F + 2; ++l) {
      if (faulty[l]) continue;
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<Registers> init(4);
        for (auto& r : init) {
          r.a = rng.next_bool(0.3) ? kInfinity : rng.next_below(6);
          r.d = rng.next_bool();
        }
        const auto byz = [&rng](int, NodeId, NodeId) -> std::uint64_t {
          return rng.next_below(8);
        };
        const auto trace = run_phase_king(p, init, faulty, byz, 3 * l, 3);
        EXPECT_TRUE(agreed(p, trace.regs[3], faulty))
            << "king " << l << " byz " << byz_node << " trial " << trial;
      }
    }
  }
}

// --- Classic value-consensus mode (StepMode::kValue) -------------------------

TEST(PhaseKingValueMode, UnanimityIsPreserved) {
  // All correct nodes hold x with d=1; in value mode nothing increments, so
  // x is held verbatim through every instruction set.
  const Params p = params(4, 1, 8);
  const std::vector<bool> faulty = {false, false, false, true};
  for (int index = 0; index < p.tau(); ++index) {
    std::vector<Registers> init(4, Registers{6, true});
    const auto byz = [](int, NodeId, NodeId receiver) -> std::uint64_t {
      return receiver % 2 == 0 ? 1 : 9;
    };
    const auto trace = run_phase_king(p, init, faulty, byz, index, 1,
                                      synccount::phaseking::StepMode::kValue);
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(trace.regs[1][v].a, 6u) << "instruction " << index;
    }
  }
}

TEST(PhaseKingValueMode, HonestKingDecidesAValue) {
  // Classic consensus: arbitrary inputs, one full honest-king phase yields
  // agreement on a *stable* value (no increments).
  const Params p = params(7, 2, 12);
  const std::vector<bool> faulty = {true, false, false, true, false, false, false};
  synccount::util::Rng rng(44);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Registers> init(7);
    for (auto& r : init) {
      r.a = rng.next_below(12);
      r.d = rng.next_bool();
    }
    const auto byz = [&rng](int, NodeId, NodeId) -> std::uint64_t {
      return rng.next_below(14);
    };
    // King 1 is correct: run I_3, I_4, I_5 and then one more arbitrary set.
    const auto trace = run_phase_king(p, init, faulty, byz, 3, 4,
                                      synccount::phaseking::StepMode::kValue);
    std::uint64_t value = kInfinity;
    for (int v = 0; v < 7; ++v) {
      if (faulty[v]) continue;
      ASSERT_NE(trace.regs[3][v].a, kInfinity) << "trial " << trial;
      if (value == kInfinity) value = trace.regs[3][v].a;
      EXPECT_EQ(trace.regs[3][v].a, value) << "trial " << trial;
    }
    // And the agreed value stays put one round later (no increment).
    for (int v = 0; v < 7; ++v) {
      if (faulty[v]) continue;
      EXPECT_EQ(trace.regs[4][v].a, value) << "trial " << trial;
    }
  }
}

// Lemma 4 + Lemma 5 composed: after the honest king's phase, counting
// continues forever (here: 3 full tau-cycles) regardless of the adversary.
TEST(PhaseKingComposed, CountingPersistsAfterAgreement) {
  const Params p = params(4, 1, 6);
  const std::vector<bool> faulty = {false, false, false, true};
  synccount::util::Rng rng(66);
  std::vector<Registers> init(4);
  for (auto& r : init) {
    r.a = rng.next_below(6);
    r.d = rng.next_bool();
  }
  const auto byz = [&rng](int, NodeId, NodeId) -> std::uint64_t {
    return rng.next_below(8);
  };
  // Start at I_0; king 0 may be influenced by the byz node's junk, but some
  // honest king's phase completes within the first tau rounds.
  const int total = 3 * p.tau();
  const auto trace = run_phase_king(p, init, faulty, byz, 0, total);
  // Find the first round where agreement holds, then require it persists
  // with increments.
  int agree_at = -1;
  for (int r = 0; r <= total; ++r) {
    if (agreed(p, trace.regs[r], faulty)) {
      agree_at = r;
      break;
    }
  }
  ASSERT_NE(agree_at, -1);
  ASSERT_LE(agree_at, p.tau());
  const std::uint64_t base = trace.regs[agree_at][0].a;
  for (int r = agree_at; r <= total; ++r) {
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(trace.regs[r][v].a, (base + static_cast<std::uint64_t>(r - agree_at)) % 6);
      EXPECT_TRUE(trace.regs[r][v].d);
    }
  }
}

}  // namespace
