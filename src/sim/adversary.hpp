// Byzantine adversary interface for the broadcast model (paper, Section 2).
//
// In every round, each faulty node may send a *different* state to every
// receiver ("including to send different messages to every node"). The
// simulator asks the adversary for the message of each (faulty sender,
// receiver) pair; whatever bit pattern it returns is canonicalised into a
// valid state before delivery, which exactly matches the model where
// Byzantine nodes send arbitrary elements of X.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "counting/algorithm.hpp"

namespace synccount::sim {

using counting::CountingAlgorithm;
using counting::NodeId;
using counting::State;

// One round's worth of forged messages, produced in bulk by
// Adversary::forge_block for the batched backends. Rather than one state per
// (sender, receiver) pair, the round is described as `num_profiles` distinct
// receiver views plus a map from receiver to profile: structured equivocators
// send very few distinct values per round (split: two), so the backends
// canonicalise, decompose and vote per *profile* instead of per receiver.
//
// Contract:
//  * states[p * num_faulty + k] is the (possibly raw, uncanonicalised) state
//    profile p receives from faulty sender faulty_ids[k]. Raw patterns are
//    allowed because every consumer reduces them exactly like canonicalize
//    (see decode_base in composed_runner.cpp).
//  * profile_of[receiver] names the profile each receiver observes; an empty
//    vector means every receiver sees profile 0. Only correct receivers'
//    entries are read.
//  * profile_of must be a pure function of (round, faulty_ids, n) -- never of
//    the rng or the states -- so that all lanes of a batch block share one
//    receiver-to-profile map per round. The batched runners assert this.
struct ForgedRound {
  int num_profiles = 0;
  std::vector<State> states;
  std::vector<std::uint16_t> profile_of;

  // Index fast path (see Adversary::forge_block_idx): canonical state
  // indices, same [p * num_faulty + k] layout as `states`. Exactly one of
  // `states` / `idx` is meaningful per call, depending on the entry point
  // that filled this ForgedRound.
  std::vector<std::uint8_t> idx;

  // Input to Adversary::forge_lanes_idx, set by the caller: every node's
  // round-start canonical state index, laid out [node * lanes + lane] like
  // that entry point's out_idx (lanes = rngs.size()). Correct rows hold the
  // lanes' current states; faulty rows hold each faulty node's fixed
  // nominal state. Entries of inactive lanes are stale. The table backend
  // provides the view only to adversaries that are not state_oblivious()
  // and leaves it empty otherwise; no other entry point reads it.
  std::span<const std::uint8_t> state_idx;
};

class Adversary {
 public:
  virtual ~Adversary() = default;
  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  // Called once per round before any message is queried. `true_states` holds
  // the round-start states of all nodes (faulty nodes carry a nominal state
  // that only the adversary observes/uses). Strategies that plan a whole
  // round at once (e.g. lookahead search) do their work here.
  virtual void begin_round(std::uint64_t round, std::span<const State> true_states,
                           const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                           util::Rng& rng);

  // The state that faulty node `sender` sends to `receiver` this round.
  virtual State message(std::uint64_t round, NodeId sender, NodeId receiver,
                        std::span<const State> true_states, const CountingAlgorithm& algo,
                        util::Rng& rng) = 0;

  // Batched entry point: performs this round's *entire* adversary work --
  // begin_round plus every message query -- and writes the forged messages
  // into `out` as receiver profiles (see ForgedRound). The default
  // implementation delegates to begin_round()/message() in exactly the scalar
  // runner's call order (one query per faulty sender when receiver_oblivious,
  // else the nested (correct receiver, faulty sender) loop), so any adversary
  // is batchable-correct out of the box; strategies with structure override
  // it to emit few profiles and skip the per-receiver virtual dispatch.
  // Overrides must draw from `rng` in exactly the order the scalar path
  // would, so lanes stay bit-identical to run_execution.
  virtual void forge_block(std::uint64_t round, std::span<const State> true_states,
                           const CountingAlgorithm& algo, std::span<const NodeId> faulty_ids,
                           std::span<const NodeId> correct_ids, util::Rng& rng,
                           ForgedRound& out);

  // Fast variant of forge_block for algorithms whose states are canonical
  // table indices (num_states <= 256, state_bits <= 64): fills
  // out.num_profiles / out.profile_of / out.idx -- drawing from `rng` in
  // exactly forge_block's order -- and returns true. The default returns
  // false (no index path); callers then fall back to forge_block and reduce
  // the BitVec states themselves. No built-in strategy overrides it: those
  // with an index path implement the lane-batched forge_lanes_idx instead,
  // which the table backend tries first.
  virtual bool forge_block_idx(std::uint64_t round, std::span<const State> true_states,
                               const CountingAlgorithm& algo,
                               std::span<const NodeId> faulty_ids,
                               std::span<const NodeId> correct_ids, util::Rng& rng,
                               ForgedRound& out);

  // Lane-batched index forging: one call forges the whole round for every
  // lane whose bit is set in `active` (word w bit b = lane 64w + b; lane
  // count = rngs.size()), amortising the virtual dispatch and keeping the
  // draw loop hot. For each active lane l it must draw from rngs[l] exactly
  // as forge_block would for that lane (lanes are independent rng streams,
  // so cross-lane order is free) and write the canonical indices slot-major:
  // out_idx[(p * |faulty_ids| + k) * rngs.size() + l]. The lane-invariant
  // profile geometry (num_profiles, profile_of) is written to `out`;
  // out.states / out.idx are not touched. correct_ids lists the correct
  // nodes in increasing node order, as every runner does.
  //
  // The call runs on one adversary instance for the whole block and never
  // sees true_states, so a strategy may implement it only if its forging
  // keeps no per-lane state across rounds and it reads node states (if at
  // all) only through the view out.state_idx -- which covers faulty
  // senders' nominal states too. A state-reading strategy must decline when
  // the view is absent (empty). Returns false when the strategy or algorithm
  // does not admit the path; a false return must leave every rng untouched
  // (the caller re-forges through the per-lane entry points). The default
  // returns false.
  virtual bool forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& algo,
                               std::span<const NodeId> faulty_ids,
                               std::span<const NodeId> correct_ids,
                               std::span<util::Rng> rngs,
                               std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                               ForgedRound& out);

  // Return true iff message() is independent of `receiver` AND draws nothing
  // from the rng, i.e. within one round every receiver gets the same state
  // from a given sender and querying once has no side effects. The runner
  // then asks each faulty sender once per round and fans the answer out,
  // hoisting the per-receiver forge-and-canonicalize work off the hot path
  // without changing the execution (bit-for-bit, including rng streams).
  virtual bool receiver_oblivious() const noexcept { return false; }

  // Return true iff begin_round()/message() never read the states of
  // *correct* nodes from `true_states` (reading faulty nodes' entries is
  // fine: their nominal states are fixed for the whole execution). The
  // batched backend (sim/batch_runner.hpp) keeps states in an index
  // representation and only materialises the BitVec state vector for
  // adversaries that actually look at it.
  virtual bool state_oblivious() const noexcept { return false; }

  // Return true iff begin_round() is a no-op (the base implementation):
  // neither draws randomness nor mutates adversary state. Skipping a no-op
  // call is unobservable, so the batched backend elides the per-lane virtual
  // dispatch. Strategies that override begin_round() with real work must
  // leave this false.
  virtual bool begin_round_passive() const noexcept { return false; }

  // Return true iff, within one execution, message() returns the same value
  // for a fixed faulty sender across all rounds and receivers and draws no
  // randomness (e.g. silent's constant zero state, echo's replay of the
  // sender's fixed nominal state). The batched backend then forges once per
  // (lane, sender) for the whole execution.
  virtual bool forgery_static() const noexcept { return false; }

  // Return true iff message() never draws from the rng (begin_round may).
  // Forging then contributes nothing to the lane's rng stream, so the
  // composed batch runner may hoist all of a round's forging ahead of the
  // transitions even when the tower itself draws randomness (fresh-sampling
  // pulling levels) without perturbing the draw order.
  virtual bool message_draw_free() const noexcept { return false; }

  // Return false to keep a strategy's groups on the scalar runner. Only
  // lookahead does. Its search no longer dominates the round cost (it scores
  // through TowerOracle, sim/composed_runner.hpp), and the composed backend
  // could supply the same oracle from its lane tallies. It stays scalar
  // because the repo benchmark's metric table (perfbench) measures the
  // scalar runner on the workload that runs it and has no composed-runner
  // entry for it; the benchmark has to change first.
  virtual bool batchable() const noexcept { return true; }

  virtual std::string name() const = 0;

 protected:
  Adversary() = default;

  // Cached admission check for drawing random canonical indices, keyed by
  // the algorithm instance so the per-round fast path costs one pointer
  // compare instead of two virtual queries. Overriders keep one of these per
  // adversary; the batched runners hold the algorithm alive for the whole
  // run, so the key cannot dangle mid-batch. A draw-order-compatible
  // uniform index is one next_u64() per state (exactly the chunk sequence
  // of a raw arbitrary-state draw for state_bits <= 64), reduced like the
  // table consumers reduce a raw pattern: low `bits` bits, then mod |X| --
  // bits = ceil_log2(|X|) keeps 2^bits <= 2|X|, so the mod is a single
  // conditional subtract. |X| = 1 (bits = 0) draws nothing.
  struct IdxGuard {
    const CountingAlgorithm* algo = nullptr;
    bool ok = false;           // index path admissible for this algorithm
    std::uint32_t ns = 0;      // |X|
    std::uint64_t mask = 0;    // (1 << state_bits) - 1
    int bits = 0;              // state_bits
  };

  // Refreshes `g` if `algo` changed; returns g.ok. Admissible iff the state
  // space is enumerable with |X| <= 256 and state_bits <= 64 (one raw draw
  // chunk, so the idx path's rng sequence matches raw_random_state's).
  static bool idx_guard(IdxGuard& g, const CountingAlgorithm& algo);
};

}  // namespace synccount::sim
