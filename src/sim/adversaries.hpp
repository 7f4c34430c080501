// A library of Byzantine strategies used for failure injection in tests and
// for the adversary-ablation bench (experiment E10).
//
//  * SilentAdversary      -- always sends the all-zero state (crash-like).
//  * EchoAdversary        -- follows the protocol faithfully (benign fault;
//                            useful as a sanity baseline).
//  * RandomAdversary      -- fresh uniformly random state per (receiver, round).
//  * SplitAdversary       -- picks two random states per round and sends one to
//                            even receivers, the other to odd receivers
//                            (classic equivocation to split majorities).
//  * MirrorAdversary      -- echoes the state of a rotating *correct* node,
//                            maximising confusion with plausible states.
//  * TargetedVoteAdversary-- crafts states that vote for conflicting leader
//                            blocks / phase-king values per receiver half by
//                            permuting received correct states.
//  * LookaheadAdversary   -- 1-round lookahead: scores K candidate message
//                            profiles by the next outputs they cause and
//                            commits to the one minimising agreement among
//                            correct nodes.
#pragma once

#include <memory>
#include <vector>

#include "sim/adversary.hpp"

namespace synccount::sim {

class TowerOracle;  // sim/composed_runner.hpp

class SilentAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool receiver_oblivious() const noexcept override { return true; }
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  bool forgery_static() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "silent"; }
};

class EchoAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool receiver_oblivious() const noexcept override { return true; }
  // Reads only the (faulty) sender's own nominal state, which is fixed.
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  bool forgery_static() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "echo"; }
};

class RandomAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Draws the same bit chunks as message() but keeps the raw pattern: the
  // batched consumers reduce it identically to canonicalize, so the per-query
  // canonical decode drops off the hot path.
  void forge_block(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   std::span<const NodeId> correct_ids, util::Rng& rng,
                   ForgedRound& out) override;
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool state_oblivious() const noexcept override { return true; }
  bool begin_round_passive() const noexcept override { return true; }
  std::string name() const override { return "random"; }

 private:
  IdxGuard ig_;
};

class SplitAdversary final : public Adversary {
 public:
  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Two profiles (receiver parity), so the batched backends canonicalise and
  // vote twice per round instead of once per correct receiver.
  void forge_block(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   std::span<const NodeId> correct_ids, util::Rng& rng,
                   ForgedRound& out) override;
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool state_oblivious() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "split"; }

 private:
  State even_;
  State odd_;
  IdxGuard ig_;
};

class MirrorAdversary final : public Adversary {
 public:
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Reads the peers' states from the state view: one row copy per
  // (receiver, sender) slot, no draws.
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  bool begin_round_passive() const noexcept override { return true; }
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "mirror"; }
};

class TargetedVoteAdversary final : public Adversary {
 public:
  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  // Per lane: harvests the correct nodes' indices from the state view and
  // shuffles them with that lane's rng, drawing exactly as begin_round's
  // shuffle of the State pool does.
  bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                       std::span<const NodeId> faulty_ids,
                       std::span<const NodeId> correct_ids, std::span<util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       ForgedRound& out) override;
  // message()'s random fallback only fires when pool_ is empty, which cannot
  // happen in a run (there is always at least one correct node to harvest).
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "targeted-vote"; }

 private:
  std::vector<State> pool_;  // plausible states harvested from correct nodes
  // forge_lanes_idx scratch: one lane's index pool, and the pool slot each
  // correct receiver reads (lane-invariant).
  std::vector<std::uint8_t> lane_pool_;
  std::vector<std::size_t> slot_;
};

class LookaheadAdversary final : public Adversary {
 public:
  // candidates: number of random message profiles evaluated per round.
  // sample_receivers: how many correct receivers each candidate is scored
  // against. Scoring used to simulate every (candidate, correct receiver)
  // pair, which made this adversary dominate experiment wall time; bounding
  // the score to a fixed receiver sample and seeding the search with the
  // previous round's winning profile keeps the attack quality while making
  // the per-round cost O(candidates * sample) scores instead of
  // O(candidates * n).
  //
  // One score is the next output of one sampled receiver. On towers that
  // TowerOracle::make accepts (boosted top level, no fresh-sampling level)
  // it comes from the oracle: one majority read-off over tallies fixed for
  // the round plus one phase-king step, O(f + k*m + tau + N) without
  // allocation. Elsewhere it is algo.output(algo.transition(...)) on the
  // patched received view. Both give the same value and draw the same
  // randomness (none on the oracle's towers), so the search, and with it
  // every message(), is the same either way. Rounds without faulty nodes
  // skip the search: there is nothing to forge.
  explicit LookaheadAdversary(int candidates = 4, int sample_receivers = 4);
  ~LookaheadAdversary() override;

  void begin_round(std::uint64_t round, std::span<const State> true_states,
                   const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                   util::Rng& rng) override;
  State message(std::uint64_t round, NodeId sender, NodeId receiver,
                std::span<const State> true_states, const CountingAlgorithm& algo,
                util::Rng& rng) override;
  bool batchable() const noexcept override { return false; }
  // message() replays the profile chosen in begin_round(); its random
  // fallback only fires for non-faulty senders, which the runners never ask
  // about.
  bool message_draw_free() const noexcept override { return true; }
  std::string name() const override { return "lookahead"; }

 private:
  // The round's search: scores the incumbent and each drawn candidate with
  // next_output(v, row) -- v's output after this round when the faulty
  // senders send it `row` -- and leaves the winner in chosen_.
  template <class NextOutput>
  void search(std::span<const State> states, const CountingAlgorithm& algo, util::Rng& rng,
              NextOutput next_output);

  int candidates_;
  int sample_receivers_;
  std::vector<NodeId> faulty_;
  std::vector<NodeId> correct_;
  std::vector<NodeId> sampled_;  // receiver subset candidates are scored on
  // Profiles are receiver-major: profile[r * |faulty| + s] is the message of
  // faulty node faulty_[s] to receiver r, so receiver r's row is contiguous.
  // chosen_ is the current winner and, next round, the incumbent.
  std::vector<State> chosen_;
  std::vector<State> candidate_;
  std::vector<State> received_;  // received view of the transition fallback
  std::vector<std::uint64_t> outs_;
  // Scorer for the algorithm at oracle_algo_ (null: transition fallback).
  const CountingAlgorithm* oracle_algo_ = nullptr;
  std::unique_ptr<TowerOracle> oracle_;
};

// Factory covering all strategies, keyed by name (for CLI-driven benches).
std::unique_ptr<Adversary> make_adversary(const std::string& name);

// Names accepted by make_adversary.
std::vector<std::string> adversary_names();

}  // namespace synccount::sim
