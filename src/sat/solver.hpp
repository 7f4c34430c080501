// A compact CDCL SAT solver: the substrate for the algorithm-synthesis
// pipeline (paper Section 1; the computer-designed counters of [4,5] were
// found with SAT solvers).
//
// Feature set: two-watched-literal propagation, first-UIP conflict analysis
// with recursive clause minimisation, VSIDS-style activity decision
// heuristic, phase saving, Luby restarts, and activity-based learned-clause
// deletion. External literals use the DIMACS convention: +v / -v, v >= 1.
//
// Clause storage: every clause lives in one flat word arena. A clause at
// word offset `cr` is [size << 2 | deleted << 1 | learned][lits...], and a
// learned clause carries its activity (a double) in two trailing words.
// A ClauseRef is that offset, so a watcher visit costs one load of the
// clause's header and literals instead of a record plus a separate literal
// array. Clauses are appended in creation order and never move: reduce_db
// marks deleted learned clauses in place, and the creation-order walks
// (reduce_db's collection and watch rebuild, the activity rescale) step
// from one clause to the next by its word count.
//
// Determinism contract: the search order -- watcher order in every list,
// literal order inside every clause and learned clause, and reduce_db's
// order -- is part of the contract. Two solvers fed the same clauses with
// the same config take the same conflicts, decisions and propagations and
// return the same model, and that is what makes every table the synthesis
// drivers find reproducible. tests/sat_test.cpp pins the exact trajectory
// (the GoldenTrajectory cases).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace synccount::sat {

using Var = int;        // 1-based
using ExtLit = int;     // DIMACS: +v or -v

enum class Result {
  kSat,
  kUnsat,             // unsatisfiable regardless of assumptions
  kUnsatAssumptions,  // unsatisfiable under the given assumptions only
  kUnknown,           // conflict budget exhausted
  kCancelled,         // external stop flag raised mid-search
};

// Deterministic diversification knobs for portfolio search. Two solvers fed
// the same clauses in the same order with the same config take bit-identical
// search paths; varying the config yields genuinely different paths without
// any nondeterminism.
struct SolverConfig {
  enum class Phase : std::uint8_t {
    kFalse,   // classic MiniSat default: branch negative first
    kTrue,    // branch positive first
    kRandom,  // per-variable pseudo-random initial phase (hashed from seed)
  };
  std::uint64_t seed = 0;           // xorshift stream for tie-breaks & phases
  double random_branch_freq = 0.0;  // P(decision is a random heap pick)
  Phase initial_phase = Phase::kFalse;
  std::uint64_t restart_scale = 100;  // Luby multiplier (conflicts per unit)
  double decay = 0.95;                // VSIDS variable-activity decay
};

class Solver {
 public:
  Solver();
  explicit Solver(const SolverConfig& config);

  // Installs a diversification config between solves: first returns the
  // solver to the top level (dropping the last model), then re-seeds the
  // tie-break stream and re-applies the initial-phase policy to every
  // unassigned variable.
  void configure(const SolverConfig& config);
  const SolverConfig& config() const noexcept { return config_; }

  // Cooperative cancellation: when `stop` is non-null and becomes true, the
  // search returns kCancelled at the next conflict/decision boundary. The
  // pointer must outlive the solve call; pass nullptr to detach.
  void set_stop_flag(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  // Creates a fresh variable and returns its index (1-based).
  Var new_var();
  int num_vars() const noexcept { return static_cast<int>(num_vars_); }

  // Adds a clause over external literals. Referencing a variable beyond
  // num_vars() implicitly creates the missing variables. Adding the empty
  // clause makes the instance trivially unsatisfiable. Legal after any
  // solve (e.g. to block the model just found): the solver first returns
  // to the top level, which drops the last model.
  void add_clause(const std::vector<ExtLit>& lits);
  void add_unit(ExtLit a) { add_clause({a}); }
  void add_binary(ExtLit a, ExtLit b) { add_clause({a, b}); }
  void add_ternary(ExtLit a, ExtLit b, ExtLit c) { add_clause({a, b, c}); }

  // Solves; `conflict_budget` bounds the search (kUnknown when exhausted;
  // 0 means unlimited).
  Result solve(std::uint64_t conflict_budget = 0);

  // Solves under assumptions (MiniSat-style): the literals are fixed for
  // this call only; learned clauses persist across calls, which makes
  // sweeping a family of related queries (e.g. increasing time bounds in
  // synthesis) much cheaper than re-encoding.
  Result solve_assuming(const std::vector<ExtLit>& assumptions,
                        std::uint64_t conflict_budget = 0);

  // Model access after kSat. The model stays readable only until the next
  // add_clause(), configure() or solve call.
  bool value(Var v) const;

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    std::uint64_t deleted = 0;
    std::size_t clauses = 0;  // problem clauses after top-level simplification
  };
  const Stats& stats() const noexcept { return stats_; }

  std::string stats_string() const;

 private:
  // Internal literal encoding: lit = 2*var + sign, var 0-based.
  using Lit = std::uint32_t;
  static constexpr Lit kLitUndef = ~Lit{0};
  static Lit mk_lit(std::uint32_t var, bool neg) { return 2 * var + (neg ? 1U : 0U); }
  static Lit neg(Lit l) { return l ^ 1U; }
  static std::uint32_t var_of(Lit l) { return l >> 1; }
  static bool sign_of(Lit l) { return (l & 1U) != 0; }

  enum class LBool : std::uint8_t { kTrue, kFalse, kUndef };
  LBool lit_value(Lit l) const { return vals_[l]; }

  // Word offset of a clause in arena_ (see the header comment for layout).
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kRefUndef = ~ClauseRef{0};
  static constexpr std::uint32_t kLearnedBit = 1;
  static constexpr std::uint32_t kDeletedBit = 2;
  static constexpr std::uint32_t kActivityWords = sizeof(double) / sizeof(std::uint32_t);

  std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr] >> 2; }
  bool clause_learned(ClauseRef cr) const { return (arena_[cr] & kLearnedBit) != 0; }
  bool clause_deleted(ClauseRef cr) const { return (arena_[cr] & kDeletedBit) != 0; }
  // Valid only until the next arena allocation (vector growth moves it).
  Lit* clause_lits(ClauseRef cr) { return &arena_[cr + 1]; }
  ClauseRef next_clause(ClauseRef cr) const {
    return cr + 1 + clause_size(cr) + (clause_learned(cr) ? kActivityWords : 0);
  }
  double clause_activity(ClauseRef cr) const;
  void set_clause_activity(ClauseRef cr, double a);
  ClauseRef alloc_clause(const std::vector<Lit>& lits, bool learned);

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  void ensure_var(std::uint32_t v0);
  bool initial_phase_of(std::uint32_t v0) const;
  std::uint64_t next_random();   // xorshift64 tie-break stream
  double next_random01();        // uniform in [0, 1)
  Lit to_internal(ExtLit e);
  void attach(ClauseRef cref);
  bool enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef confl, std::vector<Lit>& learnt, int& backtrack_level);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(std::uint32_t v0);
  void bump_clause(ClauseRef cr);
  void decay_activities();
  void reduce_db();
  static std::uint64_t luby(std::uint64_t i);

  int level_of(std::uint32_t v0) const { return level_[v0]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  // State ------------------------------------------------------------------
  std::uint32_t num_vars_ = 0;
  std::vector<std::uint32_t> arena_;           // every clause, creation order
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  std::vector<LBool> vals_;                    // indexed by literal
  std::vector<std::uint8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  // Binary-heap order on activity.
  std::vector<std::uint32_t> heap_;
  std::vector<int> heap_pos_;
  void heap_insert(std::uint32_t v0);
  void heap_percolate_up(int i);
  void heap_percolate_down(int i);
  std::uint32_t heap_pop();

  bool ok_ = true;  // false once an empty clause exists at level 0
  Stats stats_;

  SolverConfig config_;
  double var_decay_inc_ = 1.0 / 0.95;  // derived from config_.decay
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ULL;  // xorshift64 state (non-zero)
  const std::atomic<bool>* stop_ = nullptr;

  // Temporary buffers for analyze() and add_clause().
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  std::vector<Lit> add_scratch_;
};

}  // namespace synccount::sat
