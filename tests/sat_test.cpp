// Tests for the CDCL SAT solver: hand-crafted instances, pigeonhole
// principles (UNSAT), model validity, randomized cross-validation against a
// brute-force truth-table enumerator, the portfolio-facing surface
// (SolverConfig diversification, cooperative cancellation, stats), and the
// golden search trajectory that the determinism contract rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "synthesis/portfolio.hpp"
#include "util/rng.hpp"

namespace {

using namespace synccount::sat;

TEST(SatSolver, EmptyInstanceIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  s.add_unit(1);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(1));
}

TEST(SatSolver, ContradictoryUnits) {
  Solver s;
  s.add_unit(1);
  s.add_unit(-1);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  Solver s;
  s.add_clause({});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  Solver s;
  s.add_unit(1);
  for (int v = 1; v < 50; ++v) s.add_binary(-v, v + 1);
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int v = 1; v <= 50; ++v) EXPECT_TRUE(s.value(v)) << v;
}

TEST(SatSolver, TautologyIgnored) {
  Solver s;
  s.add_clause({1, -1});
  s.add_unit(-1);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.value(1));
}

TEST(SatSolver, DuplicateLiteralsDeduped) {
  Solver s;
  s.add_clause({2, 2, 2});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(2));
}

TEST(SatSolver, XorChainSat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, ... satisfiable (alternating).
  Solver s;
  const int n = 20;
  for (int v = 1; v < n; ++v) {
    s.add_binary(v, v + 1);
    s.add_binary(-v, -(v + 1));
  }
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int v = 1; v < n; ++v) EXPECT_NE(s.value(v), s.value(v + 1));
}

TEST(SatSolver, OddXorCycleUnsat) {
  // An odd cycle of inequalities is unsatisfiable.
  Solver s;
  const int n = 7;
  for (int v = 1; v <= n; ++v) {
    const int w = v % n + 1;
    s.add_binary(v, w);
    s.add_binary(-v, -w);
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

// Pigeonhole principle PHP(p, h): p pigeons into h holes, UNSAT when p > h.
void add_php(Solver& s, int pigeons, int holes) {
  auto var = [&](int p, int h) { return p * holes + h + 1; };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<ExtLit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_binary(-var(p1, h), -var(p2, h));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    add_php(s, holes + 1, holes);
    EXPECT_EQ(s.solve(), Result::kUnsat) << holes;
  }
}

TEST(SatSolver, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  add_php(s, 5, 5);
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver s;
  add_php(s, 9, 8);  // hard enough to exceed a tiny budget
  const Result r = s.solve(5);
  EXPECT_EQ(r, Result::kUnknown);
  // Resuming with a bigger budget still gets the right answer.
  EXPECT_EQ(s.solve(0), Result::kUnsat);
}

// --- Randomized cross-validation -------------------------------------------

// Whether the assignment (bit v-1 = value of variable v) satisfies every clause.
bool assignment_satisfies(std::uint32_t assign, const std::vector<std::vector<ExtLit>>& clauses) {
  for (const auto& c : clauses) {
    bool sat = false;
    for (ExtLit l : c) {
      const int v = std::abs(l) - 1;
      const bool val = (assign >> v) & 1U;
      if ((l > 0) == val) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

// Brute-force satisfiability over <= 20 variables.
bool brute_force_sat(int num_vars, const std::vector<std::vector<ExtLit>>& clauses) {
  for (std::uint32_t assign = 0; assign < (1U << num_vars); ++assign) {
    if (assignment_satisfies(assign, clauses)) return true;
  }
  return false;
}

bool model_satisfies(const Solver& s, const std::vector<std::vector<ExtLit>>& clauses) {
  for (const auto& c : clauses) {
    bool sat = false;
    for (ExtLit l : c) {
      if ((l > 0) == s.value(std::abs(l))) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

class RandomCnf : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
  synccount::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int instance = 0; instance < 60; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(9));      // 4..12
    const int num_clauses = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(num_vars * 5))) + 2;
    std::vector<std::vector<ExtLit>> clauses;
    for (int i = 0; i < num_clauses; ++i) {
      const int len = 1 + static_cast<int>(rng.next_below(3));  // 1..3
      std::vector<ExtLit> c;
      for (int j = 0; j < len; ++j) {
        const int v = 1 + static_cast<int>(rng.next_below(num_vars));
        c.push_back(rng.next_bool() ? v : -v);
      }
      clauses.push_back(std::move(c));
    }
    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    for (const auto& c : clauses) s.add_clause(c);
    const bool expected = brute_force_sat(num_vars, clauses);
    const Result got = s.solve();
    ASSERT_EQ(got == Result::kSat, expected) << "instance " << instance;
    if (got == Result::kSat) {
      EXPECT_TRUE(model_satisfies(s, clauses)) << "instance " << instance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SatSolver, BlockingEachModelEnumeratesThemAll) {
  // solve -> block the model -> solve on one solver: every round must find a
  // new model until the blocked instance is UNSAT, and the count must match
  // brute force. Blocking clauses are added right after a kSat result.
  synccount::util::Rng rng(17);
  for (int instance = 0; instance < 20; ++instance) {
    const int num_vars = 4 + static_cast<int>(rng.next_below(5));  // 4..8
    std::vector<std::vector<ExtLit>> clauses;
    for (int i = 0; i < num_vars; ++i) {
      std::vector<ExtLit> c;
      for (int j = 0; j < 3; ++j) {
        const int v = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_vars)));
        c.push_back(rng.next_bool() ? v : -v);
      }
      clauses.push_back(std::move(c));
    }
    int expected = 0;
    for (std::uint32_t assign = 0; assign < (1U << num_vars); ++assign) {
      if (assignment_satisfies(assign, clauses)) ++expected;
    }
    Solver s;
    for (int v = 0; v < num_vars; ++v) s.new_var();
    for (const auto& c : clauses) s.add_clause(c);
    std::set<std::vector<bool>> models;
    while (s.solve() == Result::kSat) {
      ASSERT_TRUE(model_satisfies(s, clauses)) << "instance " << instance;
      std::vector<bool> model;
      std::vector<ExtLit> block;
      for (int v = 1; v <= num_vars; ++v) {
        model.push_back(s.value(v));
        block.push_back(s.value(v) ? -v : v);
      }
      ASSERT_TRUE(models.insert(model).second) << "instance " << instance << ": model repeated";
      ASSERT_LE(static_cast<int>(models.size()), expected) << "instance " << instance;
      s.add_clause(block);
    }
    EXPECT_EQ(static_cast<int>(models.size()), expected) << "instance " << instance;
  }
}

// --- Assumptions -------------------------------------------------------------

TEST(SatSolver, AssumptionsRestrictModels) {
  Solver s;
  s.add_binary(1, 2);  // x1 or x2
  EXPECT_EQ(s.solve_assuming({-1}), Result::kSat);
  EXPECT_FALSE(s.value(1));
  EXPECT_TRUE(s.value(2));
  EXPECT_EQ(s.solve_assuming({-2}), Result::kSat);
  EXPECT_TRUE(s.value(1));
  EXPECT_EQ(s.solve_assuming({-1, -2}), Result::kUnsatAssumptions);
  // The instance itself is still satisfiable afterwards.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, AssumptionsDoNotPoisonLaterCalls) {
  Solver s;
  s.add_ternary(1, 2, 3);
  s.add_binary(-1, -2);
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(s.solve_assuming({-3}), Result::kSat);
    EXPECT_EQ(s.solve_assuming({-1, -2, -3}), Result::kUnsatAssumptions);
    EXPECT_EQ(s.solve_assuming({1, 2}), Result::kUnsatAssumptions);
    EXPECT_EQ(s.solve(), Result::kSat);
  }
}

TEST(SatSolver, GloballyUnsatBeatsAssumptions) {
  Solver s;
  s.add_unit(1);
  s.add_unit(-1);
  EXPECT_EQ(s.solve_assuming({2}), Result::kUnsat);
}

TEST(SatSolver, AssumptionSweepMatchesFreshSolvers) {
  // Pigeonhole with a selector: sel -> (pigeon 0 uses hole 0). Sweep the
  // selector both ways and cross-check against dedicated solvers.
  synccount::util::Rng rng(99);
  for (int instance = 0; instance < 30; ++instance) {
    const int num_vars = 5 + static_cast<int>(rng.next_below(6));
    std::vector<std::vector<ExtLit>> clauses;
    const int num_clauses = 3 + static_cast<int>(rng.next_below(25));
    for (int i = 0; i < num_clauses; ++i) {
      std::vector<ExtLit> c;
      const int len = 1 + static_cast<int>(rng.next_below(3));
      for (int j = 0; j < len; ++j) {
        const int v = 1 + static_cast<int>(rng.next_below(num_vars));
        c.push_back(rng.next_bool() ? v : -v);
      }
      clauses.push_back(c);
    }
    Solver incremental;
    for (const auto& c : clauses) incremental.add_clause(c);
    for (int assumed = 1; assumed <= 3; ++assumed) {
      const std::vector<ExtLit> assumption = {assumed};
      const Result inc = incremental.solve_assuming(assumption);
      Solver fresh;
      for (const auto& c : clauses) fresh.add_clause(c);
      fresh.add_clause(assumption);
      const Result ref = fresh.solve();
      if (ref == Result::kSat) {
        ASSERT_EQ(inc, Result::kSat) << "instance " << instance << " assumed " << assumed;
      } else {
        ASSERT_NE(inc, Result::kSat) << "instance " << instance << " assumed " << assumed;
      }
    }
  }
}

TEST(SatSolver, StatsArePopulated) {
  Solver s;
  add_php(s, 6, 5);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_FALSE(s.stats_string().empty());
}

TEST(SatSolver, StatsMonotoneAcrossCalls) {
  // Stats accumulate over an incremental solver's lifetime; callers compute
  // per-attempt deltas from snapshots, so no field may ever step backwards.
  Solver s;
  add_php(s, 6, 6);
  Solver::Stats prev = s.stats();
  for (const int assumed : {1, 2, 3, 1, 2, 3}) {
    ASSERT_NE(s.solve_assuming({assumed}), Result::kUnknown);
    const Solver::Stats cur = s.stats();
    EXPECT_GE(cur.conflicts, prev.conflicts);
    EXPECT_GE(cur.decisions, prev.decisions);
    EXPECT_GE(cur.propagations, prev.propagations);
    EXPECT_GE(cur.restarts, prev.restarts);
    EXPECT_GT(cur.decisions + cur.propagations, prev.decisions + prev.propagations);
    prev = cur;
  }
}

TEST(SatSolver, LearnedClausesPersistAcrossCalls) {
  // A selector-gated pigeonhole: sel forces an extra pigeon, making the
  // instance UNSAT under the assumption. The refutation is learned once;
  // repeating the same assumption must reuse it rather than re-derive it.
  Solver s;
  const int holes = 5;
  add_php(s, holes, holes);  // pigeons 0..4 placed normally
  const int sel = holes * holes + 1;
  const int extra_base = sel;  // vars extra(h) = sel + 1 + h
  std::vector<ExtLit> clause;
  for (int h = 0; h < holes; ++h) clause.push_back(extra_base + 1 + h);
  clause.push_back(-sel);  // sel -> extra pigeon in some hole
  s.add_clause(clause);
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < holes; ++p) {
      s.add_ternary(-sel, -(extra_base + 1 + h), -(p * holes + h + 1));
    }
  }
  ASSERT_EQ(s.solve_assuming({sel}), Result::kUnsatAssumptions);
  const std::uint64_t first = s.stats().conflicts;
  ASSERT_GT(first, 0u);
  ASSERT_EQ(s.solve_assuming({sel}), Result::kUnsatAssumptions);
  const std::uint64_t second = s.stats().conflicts - first;
  EXPECT_LT(second, first);
  // And the ungated instance is still satisfiable.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, UnitBinaryTernaryPropagation) {
  Solver s;
  s.add_unit(1);
  s.add_binary(-1, 2);
  s.add_ternary(-1, -2, 3);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(1));
  EXPECT_TRUE(s.value(2));
  EXPECT_TRUE(s.value(3));
  // Two false literals in a ternary clause force the third.
  Solver t;
  t.add_ternary(1, 2, 3);
  EXPECT_EQ(t.solve_assuming({-1, -2}), Result::kSat);
  EXPECT_TRUE(t.value(3));
  EXPECT_EQ(t.solve_assuming({-1, -2, -3}), Result::kUnsatAssumptions);
}

// --- SolverConfig (portfolio diversification) --------------------------------

TEST(SolverConfig, ValidatesParameters) {
  SolverConfig bad;
  bad.decay = 0.0;
  EXPECT_THROW(Solver{bad}, std::invalid_argument);
  bad = SolverConfig{};
  bad.decay = 1.5;
  EXPECT_THROW(Solver{bad}, std::invalid_argument);
  bad = SolverConfig{};
  bad.random_branch_freq = -0.1;
  EXPECT_THROW(Solver{bad}, std::invalid_argument);
  bad = SolverConfig{};
  bad.restart_scale = 0;
  EXPECT_THROW(Solver{bad}, std::invalid_argument);
}

TEST(SolverConfig, InitialPhaseTruePicksTrue) {
  SolverConfig cfg;
  cfg.initial_phase = SolverConfig::Phase::kTrue;
  Solver s(cfg);
  s.add_clause({1, 2});
  s.add_clause({3, 4});
  EXPECT_EQ(s.solve(), Result::kSat);
  // Every decision follows the phase policy; nothing forces a false.
  EXPECT_TRUE(s.value(1));
  EXPECT_TRUE(s.value(3));
}

TEST(SolverConfig, RandomPhaseIsSeedDeterministic) {
  const auto model_bits = [](std::uint64_t seed) {
    SolverConfig cfg;
    cfg.initial_phase = SolverConfig::Phase::kRandom;
    cfg.seed = seed;
    Solver s(cfg);
    for (int i = 0; i < 16; ++i) s.new_var();
    s.add_clause({1, 2});
    EXPECT_EQ(s.solve(), Result::kSat);
    std::uint32_t bits = 0;
    for (int v = 1; v <= 16; ++v) bits = bits << 1 | (s.value(v) ? 1u : 0u);
    return bits;
  };
  EXPECT_EQ(model_bits(7), model_bits(7));
  // Distinct seeds give distinct phase vectors (16 free vars: collision
  // would be a 1-in-65536 accident, and this is deterministic anyway).
  EXPECT_NE(model_bits(7), model_bits(8));
}

TEST(SolverConfig, ConfiguredRunsAreDeterministic) {
  const auto run = [] {
    SolverConfig cfg;
    cfg.seed = 42;
    cfg.random_branch_freq = 0.1;
    cfg.initial_phase = SolverConfig::Phase::kRandom;
    cfg.restart_scale = 32;
    cfg.decay = 0.9;
    Solver s(cfg);
    add_php(s, 8, 7);
    EXPECT_EQ(s.solve(), Result::kUnsat);
    return s.stats();
  };
  const Solver::Stats a = run();
  const Solver::Stats b = run();
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.restarts, b.restarts);
}

TEST(SolverConfig, DiversificationChangesTheSearch) {
  const auto run = [](const SolverConfig& cfg) {
    Solver s(cfg);
    add_php(s, 8, 7);
    EXPECT_EQ(s.solve(), Result::kUnsat);
    return s.stats();
  };
  const Solver::Stats base = run(SolverConfig{});
  SolverConfig diversified;
  diversified.seed = 3;
  diversified.random_branch_freq = 0.1;
  diversified.initial_phase = SolverConfig::Phase::kRandom;
  const Solver::Stats other = run(diversified);
  EXPECT_NE(base.decisions, other.decisions);
}

TEST(SolverConfig, ReconfigureOnlyAtTopLevel) {
  Solver s;
  s.add_binary(1, 2);
  SolverConfig cfg;
  cfg.initial_phase = SolverConfig::Phase::kTrue;
  s.configure(cfg);  // legal before/between solves
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.config().initial_phase, SolverConfig::Phase::kTrue);
  EXPECT_TRUE(s.value(1));
  EXPECT_TRUE(s.value(2));
  // Also right after kSat, which leaves the model readable: the new phase
  // policy reaches the variables the model had assigned.
  cfg.initial_phase = SolverConfig::Phase::kFalse;
  s.configure(cfg);
  EXPECT_EQ(s.config().initial_phase, SolverConfig::Phase::kFalse);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_NE(s.value(1), s.value(2));  // one false decision, one forced true
}

// --- Cooperative cancellation ------------------------------------------------

TEST(SatSolver, StopFlagCancelsImmediately) {
  Solver s;
  s.add_binary(1, 2);  // trivially SAT -- cancellation must still win
  std::atomic<bool> stop{true};
  s.set_stop_flag(&stop);
  EXPECT_EQ(s.solve(), Result::kCancelled);
  // Clearing the flag restores normal solving on the same instance.
  stop.store(false);
  EXPECT_EQ(s.solve(), Result::kSat);
  s.set_stop_flag(nullptr);
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatSolver, CancelledSolveKeepsSolverUsable) {
  Solver s;
  add_php(s, 7, 6);
  std::atomic<bool> stop{true};
  s.set_stop_flag(&stop);
  EXPECT_EQ(s.solve_assuming({1}), Result::kCancelled);
  stop.store(false);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

// --- Golden search trajectory -------------------------------------------------
//
// The search order -- watcher order in every list, literal order inside every
// clause and learned clause, reduce_db's order -- is part of the solver's
// determinism contract: the tables the synthesis drivers find depend on it.
// These cases pin the exact Stats and models, so a kernel change that alters
// a single conflict, decision or propagation fails here. php(8,7) runs
// reduce_db thousands of times and passes the variable-activity rescale
// (after about 4.5k conflicts under config 0).

struct Trajectory {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;
  std::uint64_t deleted = 0;
  bool operator==(const Trajectory&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Trajectory& t) {
  return os << "{" << t.conflicts << ", " << t.decisions << ", " << t.propagations << ", "
            << t.restarts << ", " << t.learned << ", " << t.deleted << "}";
}

Trajectory trajectory_of(const Solver& s) {
  const Solver::Stats& st = s.stats();
  return {st.conflicts, st.decisions, st.propagations, st.restarts, st.learned, st.deleted};
}

// FNV-1a over the model's bits, variables 1..num_vars() in order.
std::uint64_t model_hash(const Solver& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Var v = 1; v <= s.num_vars(); ++v) {
    h ^= s.value(v) ? 1U : 0U;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Uniform random 3-SAT: three distinct variables per clause.
std::vector<std::vector<ExtLit>> random_3sat(std::uint64_t seed, int vars, int clauses) {
  synccount::util::Rng rng(seed);
  std::vector<std::vector<ExtLit>> out;
  for (int i = 0; i < clauses; ++i) {
    std::vector<ExtLit> c;
    while (c.size() < 3) {
      const int v = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars)));
      bool dup = false;
      for (const ExtLit l : c) dup = dup || std::abs(l) == v;
      if (!dup) c.push_back(rng.next_bool() ? v : -v);
    }
    out.push_back(std::move(c));
  }
  return out;
}

TEST(GoldenTrajectory, PigeonholeUnderEachPortfolioConfig) {
  const std::vector<SolverConfig> configs = synccount::synthesis::portfolio_configs(4);
  const Trajectory expected[] = {
      {5153, 6307, 73108, 27, 5144, 3415},
      {3168, 3925, 37680, 26, 3162, 1033},
      {4854, 5704, 64790, 15, 4849, 3414},
      {4140, 5252, 56772, 21, 4136, 2170},
  };
  ASSERT_EQ(configs.size(), std::size(expected));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Solver s(configs[i]);
    add_php(s, 8, 7);
    EXPECT_EQ(s.solve(), Result::kUnsat) << "config " << i;
    EXPECT_EQ(trajectory_of(s), expected[i]) << "config " << i;
  }
}

TEST(GoldenTrajectory, RandomThreeSatModel) {
  // 150 variables at clause ratio 4.2: satisfiable, and long enough to run
  // reduce_db.
  Solver s;
  for (const auto& c : random_3sat(11, 150, 630)) s.add_clause(c);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(trajectory_of(s), (Trajectory{6041, 7294, 190197, 29, 6039, 3649}));
  EXPECT_EQ(model_hash(s), 0xc641ce5c0acc2dd1ULL);
}

TEST(GoldenTrajectory, IncrementalAssumptionSequence) {
  // One solver, successive assumption sets: learned clauses, saved phases
  // and activities carry over from call to call, so each call's trajectory
  // depends on every call before it. Stats are cumulative.
  struct Step {
    std::vector<ExtLit> assumptions;
    Result result;
    Trajectory after;
    std::uint64_t model;  // model_hash when kSat
  };
  const Step steps[] = {
      {{1, -2, 3}, Result::kSat, {750, 958, 26031, 5, 750, 0}, 0x09890f5cf2fbed02ULL},
      {{-1, 2}, Result::kUnsatAssumptions, {2056, 2488, 67567, 12, 2055, 0}, 0},
      {{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
       Result::kUnsatAssumptions, {2097, 2549, 68619, 12, 2095, 0}, 0},
      {{1, -2, 3}, Result::kSat, {2507, 3108, 82248, 15, 2505, 1102}, 0x4f83951c49b433aeULL},
      {{}, Result::kSat, {2507, 3144, 82398, 15, 2505, 1102}, 0x4f83951c49b433aeULL},
      {{-4, -5, -6, -7, -8, -9, -10, -11, -12, -13, -14, -15, -16, -17, -18, -19, -20},
       Result::kUnsatAssumptions, {2508, 3160, 82446, 15, 2505, 1102}, 0},
      {{-1, -2, -3, -4}, Result::kUnsatAssumptions, {3026, 3787, 99112, 19, 3022, 1102}, 0},
  };
  Solver s;
  for (const auto& c : random_3sat(8, 150, 630)) s.add_clause(c);
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    EXPECT_EQ(s.solve_assuming(step.assumptions), step.result) << "step " << i;
    EXPECT_EQ(trajectory_of(s), step.after) << "step " << i;
    if (step.result == Result::kSat) {
      EXPECT_EQ(model_hash(s), step.model) << "step " << i;
    }
  }
}

// --- DIMACS -----------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
  Cnf cnf;
  cnf.add({1, -2, 3});
  cnf.add({-1});
  cnf.add({2, 3});
  std::ostringstream out;
  write_dimacs(cnf, out);
  std::istringstream in(out.str());
  const Cnf back = parse_dimacs(in);
  EXPECT_EQ(back.num_vars, 3);
  ASSERT_EQ(back.clauses.size(), 3u);
  EXPECT_EQ(back.clauses[0], (std::vector<ExtLit>{1, -2, 3}));
}

TEST(Dimacs, ParsesCommentsAndMultilineClauses) {
  std::istringstream in("c a comment\np cnf 3 2\n1 -2\n3 0\n-1 2 0\n");
  const Cnf cnf = parse_dimacs(in);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0], (std::vector<ExtLit>{1, -2, 3}));
  EXPECT_EQ(cnf.clauses[1], (std::vector<ExtLit>{-1, 2}));
}

TEST(Dimacs, RejectsMalformedInput) {
  std::istringstream no_header("1 2 0\n");
  EXPECT_THROW(parse_dimacs(no_header), std::invalid_argument);
  std::istringstream unterminated("p cnf 2 1\n1 2\n");
  EXPECT_THROW(parse_dimacs(unterminated), std::invalid_argument);
}

TEST(Dimacs, LoadIntoSolver) {
  Cnf cnf;
  cnf.add({1, 2});
  cnf.add({-1, 2});
  cnf.add({-2, 3});
  Solver s;
  cnf.load_into(s);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(2));
  EXPECT_TRUE(s.value(3));
}

}  // namespace
