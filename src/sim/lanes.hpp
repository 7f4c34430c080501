// The lane driver shared by the batched backends (sim/batch_runner.cpp and
// sim/composed_runner.cpp), and the bit-sliced table step both of them run.
//
// A batch block advances up to 64 * NW executions ("lanes") of one
// (algorithm, placement, adversary class) group in round lockstep. Lanes<NW>
// owns everything a lane needs apart from the kernel's state:
//  * the scalar runner's preamble: one Rng, Adversary and
//    StabilisationChecker per lane, and round-0 states drawn exactly as
//    run_execution draws them (initial_states);
//  * the adversary-trait policy: a static forger forges once per run, and
//    a passive begin_round is skipped;
//  * the per-round observe, record and early exit, and the begin_round of a
//    round the adversary does not forge;
//  * per-lane forging and the forged-profile check (check_profiles);
//  * the final RunResults (finish_run).
// A kernel keeps the lanes' states in its own representation and gives the
// driver two members: refresh_states(l), which writes lane l's correct
// nodes' states into states(l), and lane_outputs(l), the correct nodes'
// outputs for a recorded trace.
//
// Every lane calls its Rng and Adversary in exactly the scalar runner's
// order, which is what keeps each lane's RunResult bit-identical to
// run_execution on the same seed.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "sim/adversary.hpp"
#include "sim/batch_runner.hpp"
#include "sim/checker.hpp"
#include "sim/runner.hpp"
#include "util/check.hpp"

namespace synccount::sim {

inline constexpr std::size_t kLanesPerWord = 64;

// One bit per lane: word w, bit b is lane 64w + b.
template <int NW>
using LaneMask = std::array<std::uint64_t, NW>;

template <int NW>
class Lanes {
 public:
  using Mask = LaneMask<NW>;

  Lanes(const BatchConfig& cfg, const Placement& placement, std::span<const std::uint64_t> seeds)
      : cfg_(cfg),
        algo_(*cfg.algo),
        placement_(placement),
        W_(seeds.size()),
        stop_(cfg.stop_after_stable),
        recording_(cfg.record_outputs || cfg.record_states) {
    SC_REQUIRE(W_ >= 1 && W_ <= kLanesPerWord * static_cast<std::size_t>(NW),
               "batch block overflow");
    rngs_.reserve(W_);
    advs_.reserve(W_);
    checkers_.reserve(W_);
    states_.resize(W_);
    results_.resize(W_);
    forged_.resize(W_);
    total_pulls_.assign(W_, 0);
    pull_samples_.assign(W_, 0);
    for (std::size_t l = 0; l < W_; ++l) {
      rngs_.emplace_back(seeds[l]);
      advs_.push_back(cfg.adversary());
      SC_CHECK(advs_.back() != nullptr, "batch adversary factory returned null");
      checkers_.emplace_back(algo_.modulus());
      results_[l].correct_ids = placement.correct_ids;
      states_[l] = initial_states(algo_, cfg.initial, rngs_[l]);
      active_[l / kLanesPerWord] |= std::uint64_t{1} << (l % kLanesPerWord);
    }
    const Adversary& probe = *advs_.front();
    faultless_ = placement.faulty_ids.empty();
    state_oblivious_ = probe.state_oblivious();
    passive_ = probe.begin_round_passive();
    static_forge_ = !faultless_ && probe.receiver_oblivious() && probe.forgery_static();
    idle_begin_ = faultless_ && !passive_;
  }

  std::uint64_t max_rounds() const noexcept { return cfg_.max_rounds; }
  const Mask& active() const noexcept { return active_; }
  bool any() const noexcept {
    std::uint64_t r = 0;
    for (int w = 0; w < NW; ++w) r |= active_[w];
    return r != 0;
  }

  // Lane 0's adversary, for the trait queries every lane answers alike.
  const Adversary& probe() const noexcept { return *advs_.front(); }
  bool faultless() const noexcept { return faultless_; }
  bool state_oblivious() const noexcept { return state_oblivious_; }

  Adversary& adversary(std::size_t l) noexcept { return *advs_[l]; }
  util::Rng& rng(std::size_t l) noexcept { return rngs_[l]; }
  std::span<util::Rng> rngs() noexcept { return rngs_; }
  // Lane l's materialised states: faulty entries keep their round-0 nominal
  // states, correct ones are as fresh as the kernel's last refresh_states(l).
  std::vector<State>& states(std::size_t l) noexcept { return states_[l]; }
  // Lane l's forgery scratch, reused across rounds.
  ForgedRound& forged(std::size_t l) noexcept { return forged_[l]; }

  // Calls f(l) for every active lane in lane order; f may retire lanes.
  template <class F>
  void for_each_active(F&& f) {
    for (int w = 0; w < NW; ++w) {
      for (std::uint64_t m = active_[w]; m != 0; m &= m - 1) {
        f(static_cast<std::size_t>(w) * kLanesPerWord +
          static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
  }

  // Round `round` of lane l: feeds the round-start summary (all correct
  // outputs agree; the first correct node's output) to the lane's checker,
  // records the round when the run records traces, and retires the lane once
  // its valid suffix reaches stop_after_stable. In a round the adversary
  // does not forge, a lane that plays on still runs the adversary's
  // begin_round (see begin_round). Returns whether the lane plays the round;
  // if forging(), the kernel then forges it.
  template <class Kernel>
  bool observe(Kernel& kernel, std::size_t l, std::uint64_t round, bool agreed,
               std::uint64_t value) {
    checkers_[l].observe_summary(agreed, value);
    if (recording_) [[unlikely]] record(kernel, l);
    if (stop_ != 0 && checkers_[l].suffix_length() >= stop_) [[unlikely]] {
      active_[l / kLanesPerWord] &= ~(std::uint64_t{1} << (l % kLanesPerWord));
      return false;
    }
    if (idle_begin_) [[unlikely]] {
      refresh(kernel, l);
      begin_round(l, round);
    }
    return true;
  }

  // Whether the adversary forges this round: under any fault, except that a
  // static forger (receiver-oblivious and forgery_static) forges once per
  // run. Re-forging an execution-constant message is unobservable.
  bool forging() const noexcept { return !faultless_ && !static_done_; }
  // Called after every forging round.
  void forged_round() noexcept {
    static_done_ = static_forge_;
    idle_begin_ = static_done_ && !passive_;
  }

  // Writes lane l's correct states into states(l) if the adversary reads them.
  template <class Kernel>
  void refresh(Kernel& kernel, std::size_t l) {
    if (!state_oblivious_) kernel.refresh_states(l);
  }

  // Lane l's begin_round on states(l), skipped when it is a no-op (passive).
  void begin_round(std::size_t l, std::uint64_t round) {
    if (!passive_) {
      advs_[l]->begin_round(round, states_[l], algo_, placement_.faulty_ids, rngs_[l]);
    }
  }

  // Lane l's whole adversary round through the per-lane entry points, into
  // forged(l): forge_block_idx first when `try_idx`, and forge_block when it
  // is not tried or declines. Both run begin_round plus every message query
  // in the scalar order. `first` is the round's first forged lane (null
  // before it); see check_profiles. Returns whether forged(l).idx holds the
  // messages (else forged(l).states does).
  template <class Kernel>
  bool forge_lane(Kernel& kernel, std::size_t l, std::uint64_t round, bool try_idx,
                  const ForgedRound*& first) {
    refresh(kernel, l);
    ForgedRound& fr = forged_[l];
    const auto& faulty = placement_.faulty_ids;
    const auto& correct = placement_.correct_ids;
    Adversary& adv = *advs_[l];
    const bool idx =
        try_idx && adv.forge_block_idx(round, states_[l], algo_, faulty, correct, rngs_[l], fr);
    if (!idx) adv.forge_block(round, states_[l], algo_, faulty, correct, rngs_[l], fr);
    check_profiles(fr, first);
    SC_REQUIRE((idx ? fr.idx.size() : fr.states.size()) >=
                   static_cast<std::size_t>(fr.num_profiles) * faulty.size(),
               "forged round holds fewer messages than its profiles");
    if (first == nullptr) first = &fr;
    return idx;
  }

  // The ForgedRound contract on the receiver-to-profile map, checked in
  // every build. The round's first forged lane (`first` null) needs at least
  // one profile and a map that is empty or covers all n nodes with every
  // correct receiver's profile in range. Every later lane must carry the
  // same profile count and map.
  void check_profiles(const ForgedRound& fr, const ForgedRound* first) const {
    if (first != nullptr) {
      SC_REQUIRE(fr.num_profiles == first->num_profiles && fr.profile_of == first->profile_of,
                 "forged profile map differs across lanes");
      return;
    }
    SC_REQUIRE(fr.num_profiles >= 1, "forged round has no profiles");
    if (fr.profile_of.empty()) return;
    SC_REQUIRE(fr.profile_of.size() == placement_.faulty_index.size(),
               "forged profile map has wrong size");
    for (const NodeId v : placement_.correct_ids) {
      SC_REQUIRE(fr.profile_of[static_cast<std::size_t>(v)] < fr.num_profiles,
                 "forged profile index out of range");
    }
  }

  // One correct-node transition of lane l that pulled `pulled` messages.
  void count_pulls(std::size_t l, std::uint64_t pulled) noexcept {
    total_pulls_[l] += pulled;
    ++pull_samples_[l];
    results_[l].max_pulls_per_round = std::max(results_[l].max_pulls_per_round, pulled);
  }

  // Appends every lane's finished RunResult to `out`, in lane order.
  void finish(std::vector<RunResult>& out) {
    const std::uint64_t margin = resolve_margin(cfg_.margin, cfg_.max_rounds, algo_.modulus());
    for (std::size_t l = 0; l < W_; ++l) {
      finish_run(results_[l], checkers_[l], margin, total_pulls_[l], pull_samples_[l]);
      out.push_back(std::move(results_[l]));
    }
  }

 private:
  template <class Kernel>
  [[gnu::noinline]] void record(Kernel& kernel, std::size_t l) {
    if (cfg_.record_outputs) results_[l].outputs.push_back(kernel.lane_outputs(l));
    if (cfg_.record_states) {
      kernel.refresh_states(l);
      results_[l].states.push_back(states_[l]);
    }
  }

  const BatchConfig& cfg_;
  const counting::CountingAlgorithm& algo_;
  const Placement& placement_;
  const std::size_t W_;
  const std::uint64_t stop_;  // cfg_ fields the per-lane observe reads, cached
  const bool recording_;
  bool faultless_ = true;
  bool state_oblivious_ = false;
  bool passive_ = false;
  bool static_forge_ = false;
  bool static_done_ = false;  // a static forger's one forging round has run
  bool idle_begin_ = false;   // rounds not forged still call begin_round
  Mask active_{};             // lanes still running

  // Per-lane state, parallel arrays indexed by lane.
  std::vector<util::Rng> rngs_;
  std::vector<std::unique_ptr<Adversary>> advs_;
  std::vector<StabilisationChecker> checkers_;
  std::vector<std::vector<State>> states_;
  std::vector<ForgedRound> forged_;
  std::vector<RunResult> results_;
  std::vector<std::uint64_t> total_pulls_, pull_samples_;
};

// Runs `seeds` in consecutive blocks of at most `block_lanes` lanes.
// run(block_seeds, results) appends one block's RunResults, so they come
// back in seed order.
template <class RunBlock>
std::vector<RunResult> run_blocks(std::span<const std::uint64_t> seeds, std::size_t block_lanes,
                                  RunBlock&& run) {
  std::vector<RunResult> results;
  results.reserve(seeds.size());
  for (std::size_t start = 0; start < seeds.size(); start += block_lanes) {
    run(seeds.subspan(start, std::min(block_lanes, seeds.size() - start)), results);
  }
  return results;
}

// --- Bit-sliced table step --------------------------------------------------
// A column of 2-bit state indices across the lanes, one bitplane per index
// bit, and the four equality planes derived from it.
template <int NW>
using Planes = std::array<LaneMask<NW>, 2>;
template <int NW>
using EqPlanes = std::array<LaneMask<NW>, 4>;  // [v] = lanes whose index is v

// Writes index v (< 4) into lane `lane` of a plane pair.
template <int NW>
void set_lane(Planes<NW>& p, std::size_t lane, std::uint8_t v) noexcept {
  const std::size_t w = lane / kLanesPerWord;
  const std::size_t bit = lane % kLanesPerWord;
  p[0][w] = (p[0][w] & ~(std::uint64_t{1} << bit)) | (static_cast<std::uint64_t>(v & 1) << bit);
  p[1][w] =
      (p[1][w] & ~(std::uint64_t{1} << bit)) | (static_cast<std::uint64_t>((v >> 1) & 1) << bit);
}

template <int NW>
EqPlanes<NW> eq_planes(const Planes<NW>& p) noexcept {
  EqPlanes<NW> e;
  for (int w = 0; w < NW; ++w) {
    e[0][w] = ~p[0][w] & ~p[1][w];
    e[1][w] = p[0][w] & ~p[1][w];
    e[2][w] = ~p[0][w] & p[1][w];
    e[3][w] = p[0][w] & p[1][w];
  }
  return e;
}

// The next state of node `node` of compiled table `t` (num_states <= 4) in
// every lane of `live` at once; lanes outside `live` read 0. eq[s] is
// sender s as this node receives it. A depth-first enumeration of the live
// part of the index space: a branch dies as soon as no lane matches its
// value prefix, so once the lanes agree a step costs O(n) plane words.
template <int NW>
Planes<NW> table_step(const counting::CompiledTable& t, int node, const EqPlanes<NW>* const* eq,
                      const LaneMask<NW>& live) {
  const auto n = static_cast<std::size_t>(t.n);
  const std::uint64_t* st = t.stride.data() + static_cast<std::size_t>(node) * n;
  Planes<NW> next{};
  const auto dfs = [&](auto&& self, std::size_t s, const LaneMask<NW>& mask,
                       std::uint64_t off) -> void {
    if (s == n) {
      const std::uint8_t x = t.g[off];
      if (x & 1) {
        for (int w = 0; w < NW; ++w) next[0][w] |= mask[w];
      }
      if (x & 2) {
        for (int w = 0; w < NW; ++w) next[1][w] |= mask[w];
      }
      return;
    }
    const auto& e = *eq[s];
    for (std::uint64_t v = 0; v < t.num_states; ++v) {
      LaneMask<NW> sub;
      std::uint64_t alive = 0;
      for (int w = 0; w < NW; ++w) {
        sub[w] = mask[w] & e[v][w];
        alive |= sub[w];
      }
      if (alive != 0) self(self, s + 1, sub, off + st[s] * v);
    }
  };
  dfs(dfs, 0, live, t.node_base[static_cast<std::size_t>(node)]);
  return next;
}

}  // namespace synccount::sim
