#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace synccount::sat {

namespace {
constexpr double kClaDecay = 1.0 / 0.999;
constexpr double kRescaleLimit = 1e100;
}  // namespace

Solver::Solver() = default;

Solver::Solver(const SolverConfig& config) { configure(config); }

void Solver::configure(const SolverConfig& config) {
  backtrack(0);  // a kSat solve leaves the model's levels in place
  SC_REQUIRE(decision_level() == 0, "configure() only at the top level");
  SC_CHECK(config.decay > 0.0 && config.decay <= 1.0, "decay must be in (0, 1]");
  SC_CHECK(config.restart_scale >= 1, "restart_scale must be >= 1");
  SC_CHECK(config.random_branch_freq >= 0.0 && config.random_branch_freq <= 1.0,
           "random_branch_freq must be in [0, 1]");
  config_ = config;
  var_decay_inc_ = 1.0 / config.decay;
  std::uint64_t s = config.seed;
  rng_state_ = util::splitmix64(s) | 1;  // xorshift needs a non-zero state
  for (std::uint32_t v0 = 0; v0 < num_vars_; ++v0) {
    if (vals_[mk_lit(v0, false)] == LBool::kUndef) saved_phase_[v0] = initial_phase_of(v0);
  }
}

bool Solver::initial_phase_of(std::uint32_t v0) const {
  switch (config_.initial_phase) {
    case SolverConfig::Phase::kFalse: return false;
    case SolverConfig::Phase::kTrue: return true;
    case SolverConfig::Phase::kRandom: {
      // Hash (seed, var) so the phase is independent of creation order.
      std::uint64_t h = util::hash_combine(config_.seed, v0);
      return (util::splitmix64(h) & 1U) != 0;
    }
  }
  return false;
}

std::uint64_t Solver::next_random() {
  std::uint64_t x = rng_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_state_ = x;
  return x;
}

double Solver::next_random01() {
  return static_cast<double>(next_random() >> 11) * 0x1.0p-53;
}

Var Solver::new_var() {
  ensure_var(num_vars_);
  return static_cast<Var>(num_vars_);
}

void Solver::ensure_var(std::uint32_t v0) {
  while (num_vars_ <= v0) {
    vals_.push_back(LBool::kUndef);
    vals_.push_back(LBool::kUndef);
    saved_phase_.push_back(initial_phase_of(num_vars_) ? 1 : 0);
    level_.push_back(0);
    reason_.push_back(kRefUndef);
    activity_.push_back(0.0);
    seen_.push_back(0);
    heap_pos_.push_back(-1);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(num_vars_);
    ++num_vars_;
  }
}

Solver::Lit Solver::to_internal(ExtLit e) {
  SC_CHECK(e != 0, "literal 0 is not allowed");
  const auto v = static_cast<std::uint32_t>(e > 0 ? e : -e) - 1;
  ensure_var(v);
  return mk_lit(v, e < 0);
}

// --- Clause arena --------------------------------------------------------------

double Solver::clause_activity(ClauseRef cr) const {
  double a = 0.0;
  std::memcpy(&a, &arena_[cr + 1 + clause_size(cr)], sizeof a);
  return a;
}

void Solver::set_clause_activity(ClauseRef cr, double a) {
  std::memcpy(&arena_[cr + 1 + clause_size(cr)], &a, sizeof a);
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learned) {
  const std::size_t words = 1 + lits.size() + (learned ? kActivityWords : 0);
  // Offsets must stay below kRefUndef, and the size must fit the header.
  SC_REQUIRE(words < kRefUndef - arena_.size() && lits.size() <= (kRefUndef >> 2),
             "clause arena exceeds 2^32 words");
  const auto cr = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 2 | (learned ? kLearnedBit : 0));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  if (learned) {
    arena_.resize(arena_.size() + kActivityWords);
    set_clause_activity(cr, cla_inc_);
  }
  return cr;
}

void Solver::attach(ClauseRef cref) {
  SC_ASSERT(clause_size(cref) >= 2);
  const Lit* lits = clause_lits(cref);
  watches_[neg(lits[0])].push_back({cref, lits[1]});
  watches_[neg(lits[1])].push_back({cref, lits[0]});
}

void Solver::add_clause(const std::vector<ExtLit>& ext) {
  backtrack(0);  // a kSat solve leaves the model's levels in place
  SC_REQUIRE(decision_level() == 0, "clauses may only be added at the top level");
  if (!ok_) return;
  std::vector<Lit>& lits = add_scratch_;
  lits.clear();
  for (ExtLit e : ext) lits.push_back(to_internal(e));
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());

  // Simplify against the top-level assignment in place; detect tautologies.
  // Writes land at out <= i, so lits[i] and lits[i + 1] are still unread.
  std::size_t out = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == neg(lits[i])) return;  // tautology
    const LBool v = lit_value(lits[i]);
    if (v == LBool::kTrue) return;  // already satisfied
    if (v == LBool::kUndef) lits[out++] = lits[i];
  }
  lits.resize(out);
  if (lits.empty()) {
    ok_ = false;
    return;
  }
  if (lits.size() == 1) {
    if (!enqueue(lits[0], kRefUndef)) ok_ = false;
    return;
  }
  attach(alloc_clause(lits, false));
  ++stats_.clauses;
}

bool Solver::enqueue(Lit l, ClauseRef reason) {
  const LBool v = lit_value(l);
  if (v == LBool::kTrue) return true;
  if (v == LBool::kFalse) return false;
  const auto v0 = var_of(l);
  vals_[l] = LBool::kTrue;
  vals_[neg(l)] = LBool::kFalse;
  level_[v0] = decision_level();
  reason_[v0] = reason;
  trail_.push_back(l);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    // Clauses watching ~p (which just became false) live in watches_[p]
    // (attach() indexes watcher lists by the negation of the watched lit).
    // A watcher that moves goes to watches_[neg(new watch)], never to ws
    // (the new watch is not false, ~p is), so these pointers stay valid;
    // nothing here allocates in the arena.
    auto& ws = watches_[p];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    const Lit false_lit = neg(p);
    while (i != end) {
      const Watcher w = *i;
      if (lit_value(w.blocker) == LBool::kTrue) {
        *j++ = *i++;
        continue;
      }
      Lit* const lits = clause_lits(w.cref);
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      SC_ASSERT(lits[1] == false_lit);
      ++i;
      const Lit first = lits[0];
      if (lit_value(first) == LBool::kTrue) {
        *j++ = {w.cref, first};
        continue;
      }
      bool found = false;
      const std::uint32_t size = clause_size(w.cref);
      for (std::uint32_t k = 2; k < size; ++k) {
        if (lit_value(lits[k]) != LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[neg(lits[1])].push_back({w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // moved to another watch list
      // Clause is unit or conflicting under the current assignment.
      *j++ = {w.cref, first};
      if (lit_value(first) == LBool::kFalse) {
        confl = w.cref;
        qhead_ = trail_.size();
        while (i != end) *j++ = *i++;
      } else {
        enqueue(first, w.cref);
      }
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
    if (confl != kRefUndef) break;
  }
  return confl;
}

void Solver::bump_var(std::uint32_t v0) {
  activity_[v0] += var_inc_;
  if (activity_[v0] > kRescaleLimit) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v0] >= 0) heap_percolate_up(heap_pos_[v0]);
}

void Solver::bump_clause(ClauseRef cr) {
  const double a = clause_activity(cr) + cla_inc_;
  set_clause_activity(cr, a);
  if (a > kRescaleLimit) {
    for (ClauseRef c = 0; c < arena_.size(); c = next_clause(c)) {
      if (clause_learned(c)) set_clause_activity(c, clause_activity(c) * 1e-100);
    }
    cla_inc_ *= 1e-100;
  }
}

void Solver::decay_activities() {
  var_inc_ *= var_decay_inc_;
  cla_inc_ *= kClaDecay;
}

// --- Activity heap ----------------------------------------------------------

void Solver::heap_insert(std::uint32_t v0) {
  heap_pos_[v0] = static_cast<int>(heap_.size());
  heap_.push_back(v0);
  heap_percolate_up(heap_pos_[v0]);
}

void Solver::heap_percolate_up(int i) {
  const std::uint32_t v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[static_cast<std::size_t>(parent)]] >= activity_[v]) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

void Solver::heap_percolate_down(int i) {
  const std::uint32_t v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[heap_[static_cast<std::size_t>(child + 1)]] >
            activity_[heap_[static_cast<std::size_t>(child)]]) {
      ++child;
    }
    if (activity_[heap_[static_cast<std::size_t>(child)]] <= activity_[v]) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_pos_[heap_[static_cast<std::size_t>(i)]] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[v] = i;
}

std::uint32_t Solver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_percolate_down(0);
  }
  return top;
}

Solver::Lit Solver::pick_branch() {
  // Seeded random tie-break: occasionally branch on a uniform heap pick
  // instead of the activity maximum. Deterministic for a fixed config.
  if (config_.random_branch_freq > 0.0 && !heap_.empty() &&
      next_random01() < config_.random_branch_freq) {
    const std::uint32_t v0 =
        heap_[static_cast<std::size_t>(next_random() % heap_.size())];
    if (vals_[mk_lit(v0, false)] == LBool::kUndef) {
      return mk_lit(v0, saved_phase_[v0] == 0);
    }
  }
  while (!heap_.empty()) {
    const std::uint32_t v0 = heap_pop();
    if (vals_[mk_lit(v0, false)] == LBool::kUndef) {
      return mk_lit(v0, saved_phase_[v0] == 0);
    }
  }
  return kLitUndef;
}

// --- Conflict analysis ------------------------------------------------------

void Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt, int& backtrack_level) {
  learnt.clear();
  learnt.push_back(kLitUndef);  // slot for the asserting (UIP) literal
  int path_count = 0;
  Lit p = kLitUndef;
  std::size_t index = trail_.size();

  ClauseRef cr = confl;
  do {
    SC_ASSERT(cr != kRefUndef);
    if (clause_learned(cr)) bump_clause(cr);
    const Lit* lits = clause_lits(cr);
    const std::uint32_t size = clause_size(cr);
    for (std::uint32_t k = (p == kLitUndef ? 0 : 1); k < size; ++k) {
      const Lit q = lits[k];
      const auto v = var_of(q);
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        bump_var(v);
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          learnt.push_back(q);
        }
      }
    }
    while (seen_[var_of(trail_[--index])] == 0) {}
    p = trail_[index];
    cr = reason_[var_of(p)];
    seen_[var_of(p)] = 0;
    --path_count;
  } while (path_count > 0);
  learnt[0] = neg(p);

  // Conflict-clause minimisation: drop literals implied by the rest.
  analyze_clear_.assign(learnt.begin(), learnt.end());
  std::uint32_t abstract = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract |= 1U << (level_[var_of(learnt[i])] & 31);
  }
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[var_of(learnt[i])] == kRefUndef || !lit_redundant(learnt[i], abstract)) {
      learnt[out++] = learnt[i];
    }
  }
  learnt.resize(out);

  for (const Lit l : analyze_clear_) seen_[var_of(l)] = 0;
  analyze_clear_.clear();

  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[var_of(learnt[i])] > level_[var_of(learnt[max_i])]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[var_of(learnt[1])];
  }
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef cr = reason_[var_of(q)];
    SC_ASSERT(cr != kRefUndef);
    const Lit* lits = clause_lits(cr);
    const std::uint32_t size = clause_size(cr);
    for (std::uint32_t k = 1; k < size; ++k) {
      const Lit r = lits[k];
      const auto v = var_of(r);
      if (seen_[v] != 0 || level_[v] == 0) continue;
      if (reason_[v] != kRefUndef && ((1U << (level_[v] & 31)) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_stack_.push_back(r);
        analyze_clear_.push_back(r);
      } else {
        for (std::size_t j = top; j < analyze_clear_.size(); ++j) {
          seen_[var_of(analyze_clear_[j])] = 0;
        }
        analyze_clear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::backtrack(int level) {
  if (decision_level() <= level) return;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[static_cast<std::size_t>(level)];) {
    const Lit l = trail_[i];
    const auto v0 = var_of(l);
    saved_phase_[v0] = sign_of(l) ? 0 : 1;
    vals_[l] = LBool::kUndef;
    vals_[neg(l)] = LBool::kUndef;
    reason_[v0] = kRefUndef;
    if (heap_pos_[v0] < 0) heap_insert(v0);
  }
  trail_.resize(trail_lim_[static_cast<std::size_t>(level)]);
  trail_lim_.resize(static_cast<std::size_t>(level));
  qhead_ = trail_.size();
}

// --- Learned-clause reduction ------------------------------------------------

void Solver::reduce_db() {
  // Collected in creation order: std::sort is not stable, so the order it
  // sees is part of the search trajectory.
  std::vector<ClauseRef> learned;
  for (ClauseRef cr = 0; cr < arena_.size(); cr = next_clause(cr)) {
    if (!clause_learned(cr) || clause_deleted(cr) || clause_size(cr) <= 2) continue;
    // Locked clauses (currently a reason) must survive.
    const Lit first = clause_lits(cr)[0];
    if (lit_value(first) != LBool::kUndef && reason_[var_of(first)] == cr) continue;
    learned.push_back(cr);
  }
  std::sort(learned.begin(), learned.end(), [&](ClauseRef a, ClauseRef b) {
    return clause_activity(a) < clause_activity(b);
  });
  const std::size_t kill = learned.size() / 2;
  for (std::size_t i = 0; i < kill; ++i) {
    arena_[learned[i]] |= kDeletedBit;
    ++stats_.deleted;
  }
  // Rebuild the watch lists without the deleted clauses.
  for (auto& w : watches_) w.clear();
  for (ClauseRef cr = 0; cr < arena_.size(); cr = next_clause(cr)) {
    if (!clause_deleted(cr)) attach(cr);
  }
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // MiniSat's Luby sequence; i is 0-based.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

Result Solver::solve(std::uint64_t conflict_budget) {
  return solve_assuming({}, conflict_budget);
}

Result Solver::solve_assuming(const std::vector<ExtLit>& assumptions,
                              std::uint64_t conflict_budget) {
  if (!ok_) return Result::kUnsat;
  // A previous solve_assuming() may have returned kSat mid-tree so that the
  // model stayed readable; start this call from a clean level 0.
  backtrack(0);
  std::vector<Lit> assumps;
  assumps.reserve(assumptions.size());
  for (ExtLit e : assumptions) assumps.push_back(to_internal(e));

  if (propagate() != kRefUndef) {
    ok_ = false;
    return Result::kUnsat;
  }

  std::uint64_t max_learned = stats_.clauses / 3 + 2000;
  std::uint64_t restart_round = 0;
  std::vector<Lit> learnt;

  const auto finish = [this](Result r) {
    backtrack(0);
    return r;
  };

  for (;;) {
    const std::uint64_t restart_limit = config_.restart_scale * luby(restart_round++);
    std::uint64_t conflicts_here = 0;
    for (;;) {
      if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
        return finish(Result::kCancelled);
      }
      const ClauseRef confl = propagate();
      if (confl != kRefUndef) {
        ++stats_.conflicts;
        ++conflicts_here;
        if (decision_level() == 0) {
          ok_ = false;
          return Result::kUnsat;
        }
        if (decision_level() <= static_cast<int>(assumps.size())) {
          // The conflict depends on the assumptions only: unsatisfiable
          // under them (but possibly satisfiable without).
          return finish(Result::kUnsatAssumptions);
        }
        int bt = 0;
        analyze(confl, learnt, bt);
        // Never undo assumption levels; the decision loop re-checks them.
        backtrack(std::max(bt, 0));
        if (learnt.size() == 1) {
          const bool okq = enqueue(learnt[0], kRefUndef);
          SC_REQUIRE(okq, "asserting unit conflicts at level 0");
        } else {
          const ClauseRef cref = alloc_clause(learnt, true);
          attach(cref);
          ++stats_.learned;
          const bool okq = enqueue(learnt[0], cref);
          SC_REQUIRE(okq, "asserting literal not propagatable");
        }
        decay_activities();
        if (conflict_budget != 0 && stats_.conflicts >= conflict_budget) {
          return finish(Result::kUnknown);
        }
      } else {
        if (conflicts_here >= restart_limit) {
          backtrack(0);
          ++stats_.restarts;
          break;  // restart
        }
        if (stats_.learned - stats_.deleted > max_learned) {
          reduce_db();
          max_learned = max_learned + max_learned / 10;
        }
        // Re-assert pending assumptions as decisions (or dummy levels when
        // they are already implied).
        Lit next = kLitUndef;
        while (decision_level() < static_cast<int>(assumps.size())) {
          const Lit p = assumps[static_cast<std::size_t>(decision_level())];
          if (lit_value(p) == LBool::kTrue) {
            trail_lim_.push_back(trail_.size());  // dummy level
          } else if (lit_value(p) == LBool::kFalse) {
            return finish(Result::kUnsatAssumptions);
          } else {
            next = p;
            break;
          }
        }
        if (next == kLitUndef) next = pick_branch();
        if (next == kLitUndef) {
          // Full model found. Stay mid-tree so value() can read it; the
          // next add_clause(), configure() or solve returns to level 0.
          return Result::kSat;
        }
        ++stats_.decisions;
        trail_lim_.push_back(trail_.size());
        enqueue(next, kRefUndef);
      }
    }
  }
}

bool Solver::value(Var v) const {
  SC_CHECK(v >= 1 && static_cast<std::uint32_t>(v) <= num_vars_, "variable out of range");
  return vals_[mk_lit(static_cast<std::uint32_t>(v) - 1, false)] == LBool::kTrue;
}

std::string Solver::stats_string() const {
  std::ostringstream os;
  os << "vars=" << num_vars_ << " clauses=" << stats_.clauses
     << " conflicts=" << stats_.conflicts << " decisions=" << stats_.decisions
     << " propagations=" << stats_.propagations << " restarts=" << stats_.restarts
     << " learned=" << stats_.learned << " deleted=" << stats_.deleted;
  return os.str();
}

}  // namespace synccount::sat
