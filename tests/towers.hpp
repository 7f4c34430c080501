// Tower builders shared by the composed-backend suite
// (boosted_batch_test.cpp) and the lookahead suite (lookahead_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "boosting/boosted_counter.hpp"
#include "boosting/planner.hpp"
#include "counting/table_algorithm.hpp"

namespace synccount::test {

// The practical recursion schedule (Figure 2 shape) on the trivial base.
inline counting::AlgorithmPtr practical(int f, std::uint64_t C = 10) {
  return boosting::build_plan(boosting::plan_practical(f, C));
}

// One boosted level over a transition-table base: exercises the kTable base
// kernel (blocks of n_inner > 1 at the bottom). The base table's behaviour
// is arbitrary -- the differential test only compares backends against each
// other -- but its modulus satisfies Theorem 1's constraint
// c = 3(F+2)(2m)^k = 576 for k = 3, F = 1.
inline counting::AlgorithmPtr boosted_over_table() {
  counting::TransitionTable t;
  t.n = 2;
  t.f = 0;
  t.num_states = 4;
  t.modulus = boosting::required_input_modulus(3, 1);
  t.symmetry = counting::Symmetry::kCyclic;
  t.g.resize(16);
  for (std::size_t i = 0; i < t.g.size(); ++i) t.g[i] = static_cast<std::uint8_t>((i * 5 + 1) % 4);
  t.h = {3, 100, 200, 50};
  t.label = "table-base-test";
  auto base = std::make_shared<counting::TableAlgorithm>(std::move(t));
  return std::make_shared<boosting::BoostedCounter>(base, boosting::BoostParams{3, 1, 10});
}

}  // namespace synccount::test
