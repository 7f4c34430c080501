// Section 5: communication-efficient counting in the pulling model.
//
// Instead of inspecting all N broadcast states, a node pulls:
//   * M uniformly sampled states (with repetition) from every block -- these
//     drive the sampled majority votes b^{i'}, B and R (Lemma 9),
//   * M uniformly sampled states from the whole network for the sampled
//     phase-king thresholds 2/3·M and 1/3·M (Lemma 8),
//   * the current king's state directly (one message).
// Total: O(k·M) = O(k log η) pulls per node per round (Theorem 4).
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

#include <vector>

#include "boosting/boosted_counter.hpp"
#include "counting/algorithm.hpp"
#include "phaseking/phase_king.hpp"

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

// Majority over small sampled values with a strict > half threshold; defaults
// to 0 like the broadcast construction. Shared by the scalar transition and
// the composed batched backend (sim/composed_runner.hpp).
std::uint64_t sampled_majority(std::span<const std::uint64_t> values, std::uint64_t bound,
                               std::vector<std::uint32_t>& scratch);

class PullingBoostedCounter final : public counting::CountingAlgorithm {
 public:
  PullingBoostedCounter(AlgorithmPtr inner, const PullParams& params);

  int num_nodes() const noexcept override { return N_; }
  int resilience() const noexcept override { return params_.F; }
  std::uint64_t modulus() const noexcept override { return params_.C; }
  int state_bits() const noexcept override { return total_bits_; }
  // The Theorem 4 bound: holds with high probability, not deterministically.
  std::optional<std::uint64_t> stabilisation_bound() const noexcept override;
  bool deterministic() const noexcept override { return false; }
  std::string name() const override;

  State transition(NodeId v, std::span<const State> received,
                   counting::TransitionContext& ctx) const override;
  std::uint64_t output(NodeId v, const State& s) const override;
  State canonicalize(const State& raw) const override;

  // --- Introspection (tests, the composed batched backend) ----------------
  int k() const noexcept { return params_.k; }
  int m() const noexcept { return m_; }
  int tau() const noexcept { return tau_; }
  int sample_size() const noexcept { return params_.sample_size; }
  SamplingMode mode() const noexcept { return params_.mode; }
  std::uint64_t sampling_seed() const noexcept { return params_.seed; }
  double gamma() const noexcept { return params_.gamma; }
  const CountingAlgorithm& inner() const noexcept { return *inner_; }

 private:
  AlgorithmPtr inner_;
  PullParams params_;
  int n_inner_;
  int N_;
  int m_;
  int tau_;
  std::uint64_t ck_;
  std::vector<std::uint64_t> pow2m_;
  int inner_bits_;
  int a_bits_;
  int total_bits_;
  phaseking::Params pk_;
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
