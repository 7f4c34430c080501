// Section 5: communication-efficient counting in the pulling model.
//
// The pulling counter is Theorem 1's boosting level (boosting::BoostingLevel:
// geometry, state layout, step 1, output, bound) with sampled votes. Instead
// of inspecting all N broadcast states, a node pulls:
//   * M uniformly sampled states (with repetition) from every block -- these
//     drive the sampled majority votes b^{i'}, B and R (Lemma 9),
//   * M uniformly sampled states from the whole network for the sampled
//     phase-king thresholds 2/3·M and 1/3·M (Lemma 8),
//   * the current king's state directly (one message).
// Total: O(k·M) = O(k log η) pulls per node per round (Theorem 4).
//
// A sampled majority is boosting::strict_majority over the samples with
// threshold size / 2: a value wins only with more than half of them, and
// the fallback is 0 like the broadcast construction's. The scalar transition
// and the composed batched backend (sim/composed_runner.hpp) both call it.
//
// Two sampling modes:
//   * kFresh  -- new random samples every round: the probabilistic counters
//     of Theorem 4 / Corollary 4 (each round fails with prob. η^{-κ}).
//   * kFixed  -- per-node samples drawn once from a seed and reused forever:
//     the pseudo-random counters of Corollary 5, which against an oblivious
//     adversary stabilise w.h.p. and then count correctly *deterministically*.
//
// transition() allocates nothing once warm: its block states, samples and
// sampled values live in the calling thread's frame for the level's nesting
// depth (boosting/tower_scratch.hpp), shared with BoostedCounter so that
// mixed towers nest.
#pragma once

#include "boosting/boosted_counter.hpp"
#include "counting/algorithm.hpp"

namespace synccount::pulling {

using counting::AlgorithmPtr;
using counting::NodeId;
using counting::State;

enum class SamplingMode {
  kFresh,  // Theorem 4: fresh randomness each round
  kFixed,  // Corollary 5: random bits fixed once (oblivious adversary)
};

struct PullParams {
  int k = 0;            // blocks
  int F = 0;            // resilience; Theorem 4 needs F < N/(3+gamma)
  std::uint64_t C = 0;  // output counter size
  int sample_size = 0;  // M = Theta(log eta)
  SamplingMode mode = SamplingMode::kFresh;
  std::uint64_t seed = 0x5eedULL;  // base seed for kFixed
  double gamma = 0.5;              // slack in the resilience constraint
};

class PullingBoostedCounter final : public boosting::BoostingLevel {
 public:
  PullingBoostedCounter(AlgorithmPtr inner, const PullParams& params);

  bool deterministic() const noexcept override { return false; }
  std::string name() const override;

  State transition(NodeId v, std::span<const State> received,
                   counting::TransitionContext& ctx) const override;

  // --- Introspection (tests, the composed batched backend) ----------------
  int sample_size() const noexcept { return sample_size_; }
  SamplingMode mode() const noexcept { return mode_; }
  std::uint64_t sampling_seed() const noexcept { return seed_; }
  double gamma() const noexcept { return gamma_; }

 private:
  int sample_size_;
  SamplingMode mode_;
  std::uint64_t seed_;
  double gamma_;
};

// Corollary 4 builder: stacks the practical recursion schedule with the top
// `pulling_levels` levels (default 1) in the pulling model; the remaining
// lower levels are exponentially smaller, so they pull from everyone,
// matching the paper's "if N <= threshold, perform the step
// deterministically" rule in Section 5.3.
counting::AlgorithmPtr build_pulling_practical(int f_target, std::uint64_t C, int sample_size,
                                               SamplingMode mode, std::uint64_t seed = 0x5eedULL,
                                               int pulling_levels = 1);

}  // namespace synccount::pulling
