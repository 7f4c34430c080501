// Tests for the scalar tower transitions' per-thread scratch
// (boosting/tower_scratch.hpp): a warm transition allocates nothing, towers
// that share a thread's frames do not see each other's leftovers, and the
// scalar backend gives the same results on many threads as on one.
//
// This binary replaces the global operator new with a counting one, so the
// allocation checks count every heap allocation the transitions make.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "boosting/boosted_counter.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/trivial.hpp"
#include "phaseking/phase_king.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "synthesis/known_tables.hpp"
#include "towers.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Out of line: inlined, GCC pairs their malloc() and free() with the
// standard library's new and delete calls and warns of a mismatch. The array
// and nothrow forms forward to these.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n == 0 ? 1 : n) == 0) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace synccount;
using counting::State;
using test::practical;

counting::AlgorithmPtr pulling_tower(pulling::SamplingMode mode) {
  return pulling::build_pulling_practical(7, 10, 8, mode);
}

counting::AlgorithmPtr table1() {
  return std::make_shared<counting::TableAlgorithm>(synthesis::known_table_4_1_3states());
}

// A boosted level over a pulling level over the trivial base: the mixed
// nesting, pulling inside boosted (the pulling towers above nest the other
// way round).
counting::AlgorithmPtr boosted_over_pulling() {
  pulling::PullParams p;
  p.k = 4;
  p.F = 1;
  p.C = boosting::required_input_modulus(3, 2);
  p.sample_size = 3;
  p.mode = pulling::SamplingMode::kFresh;
  auto inner = std::make_shared<pulling::PullingBoostedCounter>(
      std::make_shared<counting::TrivialCounter>(boosting::required_input_modulus(4, 1)), p);
  return std::make_shared<boosting::BoostedCounter>(inner, boosting::BoostParams{3, 2, 10});
}

// A fault-free execution driven one transition at a time: the nodes in turn,
// every node reading the round-start states. Records the states at the start
// of every round.
class Execution {
 public:
  Execution(counting::AlgorithmPtr algo, std::uint64_t seed)
      : algo_(std::move(algo)), n_(algo_->num_nodes()), rng_(seed) {
    states_.resize(static_cast<std::size_t>(n_));
    for (auto& s : states_) s = counting::arbitrary_state(*algo_, rng_);
    next_.resize(states_.size());
    trace_.push_back(states_);
  }

  // One transition of the next node; the last node ends the round. Returns
  // the heap allocations the transition made.
  std::uint64_t step() {
    counting::TransitionContext ctx{&rng_};
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    next_[static_cast<std::size_t>(v_)] = algo_->transition(v_, states_, ctx);
    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
    if (++v_ == n_) {
      v_ = 0;
      states_.swap(next_);
      trace_.push_back(states_);
    }
    return allocs;
  }

  std::size_t rounds() const noexcept { return trace_.size() - 1; }
  const std::vector<std::vector<State>>& trace() const noexcept { return trace_; }

 private:
  counting::AlgorithmPtr algo_;
  int n_;
  util::Rng rng_;
  std::vector<State> states_, next_;
  std::vector<std::vector<State>> trace_;
  int v_ = 0;
};

TEST(TowerScratch, SteadyStateTransitionsAllocateNothing) {
  struct Case {
    std::string name;
    counting::AlgorithmPtr algo;
  };
  const std::vector<Case> cases = {
      {"practical(2, 10)", practical(2)},
      {"practical(7, 10)", practical(7)},
      {"pulling, fixed sampling", pulling_tower(pulling::SamplingMode::kFixed)},
      {"pulling, fresh sampling", pulling_tower(pulling::SamplingMode::kFresh)},
      {"Table 1", table1()},
  };
  for (const Case& c : cases) {
    Execution run(c.algo, 0x5CA7);
    run.step();  // the warm-up call: this thread's frames grow here
    // The phase king's own tally (phase_king.cpp) grows the first time
    // phase 1 runs at a size, which the warm-up call need not reach.
    const std::vector<std::uint64_t> a(static_cast<std::size_t>(c.algo->num_nodes()), 0);
    (void)phaseking::step(phaseking::Params{c.algo->num_nodes(), 0, 2}, 1, 0, {}, a);
    std::uint64_t allocs = 0;
    for (int t = 0; t < 1000; ++t) allocs += run.step();
    EXPECT_EQ(allocs, 0u) << c.name;
    EXPECT_GE(run.rounds(), 1000u / static_cast<unsigned>(c.algo->num_nodes())) << c.name;
  }
}

TEST(TowerScratch, InterleavedTowersEqualFreshRuns) {
  // Three towers of different shapes take turns, one transition each, on
  // this thread, so each level borrows frames the others just wrote. Each
  // must follow the trajectory it follows alone on a thread of its own,
  // whose frames start empty.
  const std::vector<counting::AlgorithmPtr> towers = {
      practical(7), boosted_over_pulling(),
      pulling::build_pulling_practical(2, 10, 6, pulling::SamplingMode::kFresh, 0x5eed, 2)};
  const std::size_t rounds = 40;
  std::vector<std::vector<std::vector<State>>> fresh(towers.size());
  for (std::size_t t = 0; t < towers.size(); ++t) {
    std::thread([&, t] {
      Execution run(towers[t], 0xF00D + t);
      while (run.rounds() < rounds) run.step();
      fresh[t] = run.trace();
    }).join();
  }

  std::vector<Execution> runs;
  for (std::size_t t = 0; t < towers.size(); ++t) runs.emplace_back(towers[t], 0xF00D + t);
  for (bool busy = true; busy;) {
    busy = false;
    for (Execution& run : runs) {
      if (run.rounds() < rounds) {
        run.step();
        busy = true;
      }
    }
  }
  for (std::size_t t = 0; t < towers.size(); ++t) {
    EXPECT_TRUE(runs[t].trace() == fresh[t]) << towers[t]->name();
  }
}

TEST(TowerScratch, ScalarBackendOnEightThreadsEqualsOneThread) {
  // Every engine thread runs its groups on frames of its own.
  for (const counting::AlgorithmPtr& algo :
       {practical(2), pulling::build_pulling_practical(2, 10, 6, pulling::SamplingMode::kFresh,
                                                        0x5eed, 2)}) {
    sim::ExperimentSpec spec;
    spec.algo = algo;
    const int n = algo->num_nodes();
    spec.placements = {{"spread", sim::faults_spread(n, 2)}, {"prefix", sim::faults_prefix(n, 2)}};
    spec.adversaries = {"split", "random", "lookahead"};
    spec.seeds = 8;
    spec.max_rounds = 200;
    spec.margin = 50;
    spec.backend = sim::Backend::kScalar;
    const auto one = sim::Engine(1).run(spec);
    const auto eight = sim::Engine(8).run(spec);
    ASSERT_EQ(one.cells.size(), eight.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      const sim::RunResult& a = one.cells[i].result;
      const sim::RunResult& b = eight.cells[i].result;
      const std::string where = algo->name() + " cell " + std::to_string(i);
      EXPECT_EQ(one.cells[i].seed, eight.cells[i].seed) << where;
      EXPECT_EQ(a.rounds, b.rounds) << where;
      EXPECT_EQ(a.stabilisation_round, b.stabilisation_round) << where;
      EXPECT_EQ(a.suffix_length, b.suffix_length) << where;
      EXPECT_EQ(a.max_window, b.max_window) << where;
      EXPECT_EQ(a.stabilised, b.stabilised) << where;
      EXPECT_EQ(a.max_pulls_per_round, b.max_pulls_per_round) << where;
      EXPECT_EQ(a.avg_pulls_per_round, b.avg_pulls_per_round) << where;
    }
  }
}

}  // namespace
