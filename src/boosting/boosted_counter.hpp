// Theorem 1: resilience boosting for synchronous counters.
//
// Given an inner counter A ∈ A(n, f, c) with c ≡ 0 (mod 3(F+2)(2m)^k), the
// boosted counter B ∈ A(N, F, C) runs on N = k·n nodes arranged in k blocks
// of n. Every node (i, j):
//
//   1. runs A inside its own block i (a copy A_i whose output is read
//      modulo c_i = τ(2m)^{i+1}, τ = 3(F+2), and interpreted as a pair
//      (r, y) with r ∈ [τ], y ∈ [(2m)^{i+1}]);
//   2. derives the leader-block pointer b[i,j] = ⌊y/(2m)^i⌋ mod m. Block i
//      cycles through candidate leaders (2m)× slower than block i−1, so all
//      stabilised blocks eventually point at the same leader for τ rounds
//      (Lemmas 1–2);
//   3. votes: b^{i'} = majority of block i''s pointers, B = majority of the
//      block votes, R = majority of leader block B's round counters r
//      (Lemma 3: eventually a consistent τ-counter for ≥ τ rounds);
//   4. executes instruction set I_R of the self-stabilising phase king
//      (Table 2), which establishes and then forever maintains agreement on
//      the output register a ∈ [C] (Lemmas 4–5).
//
// Costs exactly as in the paper: T(B) ≤ T(A) + 3(F+2)(2m)^k and
// S(B) = S(A) + ⌈log(C+1)⌉ + 1 bits (state layout: [inner | a | d]).
//
// Everything but the votes of steps 3 and 4 is BoostingLevel, which §5's
// pulling counter (pulling/pulling_counter.hpp) shares: the parameter
// checks, the geometry and (2m)^i table, the phase-king parameters, the
// state layout, block_view, step 1, the output and the bound. Each level
// class adds only how it votes: BoostedCounter over every broadcast state
// with phaseking::step, PullingBoostedCounter over samples with
// phaseking::step_sampled.
//
// transition() and votes() allocate nothing once warm: their per-node and
// per-block buffers are the calling thread's frame for the level's nesting
// depth (boosting/tower_scratch.hpp), which PullingBoostedCounter shares.
#pragma once

#include <span>
#include <vector>

#include "counting/algorithm.hpp"
#include "phaseking/phase_king.hpp"

namespace synccount::boosting {

using counting::AlgorithmPtr;
using counting::NodeId;
using counting::State;

// Strict majority over small unsigned values in [0, bound): returns the value
// occurring more than `threshold` times, or `fallback` if none does. The
// paper lets the majority function return an arbitrary value when no correct
// majority exists; like the paper we default to 0 (any fixed choice works).
// A pulling level's sampled majority is this with threshold size / 2. The
// composed batched backend (sim/composed_runner.hpp) reads the broadcast
// majorities off per-block counts instead; the differential suites
// (tests/boosted_batch_test.cpp) keep the two in step.
std::uint64_t strict_majority(std::span<const std::uint64_t> values, std::uint64_t bound,
                              std::size_t threshold, std::vector<std::uint32_t>& scratch,
                              std::uint64_t fallback = 0);

struct BoostParams {
  int k = 0;           // number of blocks (>= 3)
  int F = 0;           // boosted resilience, F < (f+1)·ceil(k/2)
  std::uint64_t C = 0; // output counter size (> 1)
};

struct TowerFrame;  // boosting/tower_scratch.hpp

// One boosting level over `inner`, apart from its votes: a level class
// derives from this and implements transition() (and name(),
// deterministic()).
class BoostingLevel : public counting::CountingAlgorithm {
 public:
  int num_nodes() const noexcept override { return N_; }
  int resilience() const noexcept override { return params_.F; }
  std::uint64_t modulus() const noexcept override { return params_.C; }
  int state_bits() const noexcept override { return total_bits_; }
  // T(A) + c_k. A pulling level's bound holds with high probability only.
  std::optional<std::uint64_t> stabilisation_bound() const noexcept override;
  std::uint64_t output(NodeId v, const State& s) const override;
  State canonicalize(const State& raw) const override;
  // O(1): zeroed inner state with the phase-king register set to `target`.
  State state_with_output(NodeId i, std::uint64_t target) const override;

  // --- Introspection (tests, benches, the composed batched backend) -------
  int k() const noexcept { return params_.k; }
  int m() const noexcept { return m_; }
  int tau() const noexcept { return tau_; }
  int block_size() const noexcept { return n_inner_; }
  int block_of(NodeId v) const noexcept { return v / n_inner_; }
  const CountingAlgorithm& inner() const noexcept { return *inner_; }

  // (2m)^i, i in [0, k].
  std::span<const std::uint64_t> pow2m() const noexcept { return pow2m_; }
  // c_i = τ(2m)^{i+1}: modulus of the derived counter of block i.
  std::uint64_t block_modulus(int block) const;
  // The additive stabilisation-time cost of this level, c_k = τ(2m)^k.
  std::uint64_t level_time_cost() const noexcept { return ck_; }
  // The phase king's (N, F, C).
  const phaseking::Params& phase_king() const noexcept { return pk_; }
  // The (a, d) registers sit above the inner state's bits.
  int a_offset() const noexcept { return inner_bits_; }
  int a_bits() const noexcept { return a_bits_; }

  struct Decoded {
    State inner;        // inner-state bits
    std::uint64_t a;    // phase-king output register ([C] or kInfinity)
    bool d;             // phase-king auxiliary flag
  };
  Decoded decode(const State& s) const;
  State encode(const Decoded& d) const;

  struct BlockView {
    std::uint64_t value;  // A_i output: (inner output) mod c_i
    std::uint64_t r;      // value mod τ
    std::uint64_t y;      // value / τ
    std::uint64_t b;      // leader pointer ⌊y/(2m)^i⌋ mod m
  };
  // Derived-counter view of node (block, j)'s state.
  BlockView block_view(int block, NodeId j, const State& s) const;

 protected:
  BoostingLevel(AlgorithmPtr inner, const BoostParams& params);

  // Step 1: node v's next inner state, A_i run on its own block's received
  // states (staged in frame.block_states).
  State inner_step(NodeId v, std::span<const State> received, TowerFrame& frame,
                   counting::TransitionContext& ctx) const;

  // The a register and d flag of a (canonical or raw) state.
  std::uint64_t a_of(const State& s) const {
    return phaseking::decode_a(s.get_bits(inner_bits_, a_bits_), params_.C);
  }
  bool d_of(const State& s) const { return s.get_bit(inner_bits_ + a_bits_); }

  // Writes the a register and d flag above the inner bits of `s`.
  void set_registers(State& s, std::uint64_t a, bool d) const {
    s.set_bits(inner_bits_, a_bits_, phaseking::encode_a(a, params_.C));
    s.set_bit(inner_bits_ + a_bits_, d);
  }
  // Serialises [inner | a | d].
  State pack(State inner, std::uint64_t a, bool d) const {
    inner.truncate(inner_bits_);
    set_registers(inner, a, d);
    return inner;
  }

  AlgorithmPtr inner_;
  BoostParams params_;
  int n_inner_;
  int N_;
  int m_;
  int tau_;
  std::uint64_t ck_;                   // τ(2m)^k
  std::vector<std::uint64_t> pow2m_;   // (2m)^i, i in [0, k]
  int inner_bits_;
  int a_bits_;
  int total_bits_;
  phaseking::Params pk_;
};

class BoostedCounter final : public BoostingLevel {
 public:
  BoostedCounter(AlgorithmPtr inner, const BoostParams& params);

  bool deterministic() const noexcept override { return inner_->deterministic(); }
  std::string name() const override;

  State transition(NodeId v, std::span<const State> received,
                   counting::TransitionContext& ctx) const override;

  struct Votes {
    std::vector<std::uint64_t> block_leader;  // b^{i'} per block
    std::uint64_t B;                          // voted leader block
    std::uint64_t R;                          // voted round counter
  };
  // The majority votes as computed from a received state vector (what step 3
  // of the construction evaluates at any node this round).
  Votes votes(std::span<const State> received) const;

 private:
  struct VotedRound {
    std::uint64_t B;
    std::uint64_t R;
  };
  // The votes, computed in `frame`: block_leader is left in
  // frame.leaders[0, k). votes() and transition() both run this.
  VotedRound vote(std::span<const State> received, TowerFrame& frame) const;
};

}  // namespace synccount::boosting
