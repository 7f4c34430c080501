// Synchronous full-information execution runner (paper, Section 2).
//
// Each round: (1) every node broadcasts its state, (2) every node receives a
// vector of n states -- for faulty senders the adversary chooses a possibly
// different state per receiver -- and (3) every correct node applies the
// algorithm's transition. Initial states are arbitrary (random by default,
// or caller-provided). The runner feeds correct outputs to the
// StabilisationChecker and reports the observed stabilisation time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "counting/algorithm.hpp"
#include "sim/adversary.hpp"
#include "sim/checker.hpp"

namespace synccount::sim {

struct RunConfig {
  counting::AlgorithmPtr algo;
  std::vector<bool> faulty;      // size n; empty means no faults
  std::uint64_t max_rounds = 1000;
  std::uint64_t seed = 1;

  // If non-empty, used as the initial states (size n) instead of random ones.
  std::vector<State> initial;

  // Stop early once the valid suffix reaches this length (0 = run to
  // max_rounds). Useful when only the stabilisation round matters.
  std::uint64_t stop_after_stable = 0;

  // Record the full output / state traces (memory-heavy on long runs).
  bool record_outputs = false;
  bool record_states = false;
};

struct RunResult {
  std::uint64_t rounds = 0;               // rounds executed
  std::uint64_t stabilisation_round = 0;  // start of the final valid suffix
  std::uint64_t suffix_length = 0;        // its length
  std::uint64_t max_window = 0;           // longest valid window anywhere
  bool stabilised = false;                // suffix_length >= margin used

  // Pulling-model accounting (0 for pure broadcast algorithms):
  std::uint64_t max_pulls_per_round = 0;  // max over (node, round)
  double avg_pulls_per_round = 0.0;       // mean over (node, round)

  std::vector<counting::NodeId> correct_ids;
  // outputs[r][j] = output of correct node correct_ids[j] at round r.
  std::vector<std::vector<std::uint64_t>> outputs;
  // states[r][i] = state of node i at round r (all nodes).
  std::vector<std::vector<State>> states;
};

// The pieces of one execution that every runner shares (the scalar runner
// below and the batched backends of sim/batch_runner.hpp), so all of them
// validate, start and classify a run identically.

// A validated fault placement: the faulty and correct node ids in increasing
// order, and each node's position in faulty_ids (-1 for a correct node).
// Throws std::invalid_argument unless `faulty` is empty (no faults) or has
// one entry per node, marks at most algo.resilience() nodes, and leaves at
// least one node correct.
struct Placement {
  Placement(const counting::CountingAlgorithm& algo, const std::vector<bool>& faulty);

  std::vector<counting::NodeId> faulty_ids;
  std::vector<counting::NodeId> correct_ids;
  std::vector<int> faulty_index;
};

// Round-0 states: `initial` canonicalised when given (size n), else one
// arbitrary state per node drawn from `rng` in node order.
std::vector<State> initial_states(const counting::CountingAlgorithm& algo,
                                  const std::vector<State>& initial, util::Rng& rng);

// The margin actually used when the caller passes 0: min(2c + 16, what fits
// in the horizon).
std::uint64_t resolve_margin(std::uint64_t margin, std::uint64_t max_rounds,
                             std::uint64_t modulus) noexcept;

// Fills the checker-derived fields of a finished run and its mean pulls per
// (correct node, round) transition. The run counts as stabilised when its
// valid suffix is at least min(margin, rounds), `margin` already resolved.
void finish_run(RunResult& result, const StabilisationChecker& checker, std::uint64_t margin,
                std::uint64_t total_pulls, std::uint64_t pull_samples);

// Runs the execution; `margin` is the minimal suffix length for an execution
// to count as stabilised (default: see resolve_margin).
RunResult run_execution(const RunConfig& cfg, Adversary& adversary,
                        std::uint64_t margin = 0);

}  // namespace synccount::sim
