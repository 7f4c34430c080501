#include "sim/adversaries.hpp"

#include <algorithm>
#include <bit>

#include "sim/composed_runner.hpp"
#include "util/check.hpp"

namespace synccount::sim {

namespace {

State random_state(const CountingAlgorithm& algo, util::Rng& rng) {
  return counting::arbitrary_state(algo, rng);
}

// Overwrites `raw` with exactly the bit chunks counting::arbitrary_state
// draws for a `bits`-bit state, but skips the canonical decode. Every
// consumer reduces a raw pattern identically to canonicalize (the scalar
// runner canonicalises delivered messages itself; the batched runners
// reduce raw fields directly), so a strategy may hand out raw states as long
// as the rng draw sequence is unchanged -- which it is, canonicalize being
// draw-free.
void draw_raw_state(State& raw, int bits, util::Rng& rng) {
  raw = State{};
  for (int off = 0; off < bits; off += 64) {
    raw.set_bits(off, std::min(64, bits - off), rng.next_u64());
  }
}

// Profile geometry of a receiver-dependent strategy's forge_block and
// forge_lanes_idx: one profile per correct receiver, numbered in correct_ids
// order -- the geometry of the default forge_block's nested (receiver,
// sender) loop. The map only depends on the placement, and a batched runner
// keeps each ForgedRound for one placement (sim/lanes.hpp), so it is rebuilt
// only when the node count changes.
void per_receiver_profiles(std::span<const NodeId> correct_ids, std::size_t n, ForgedRound& out) {
  out.num_profiles = static_cast<int>(correct_ids.size());
  if (out.profile_of.size() == n) return;
  out.profile_of.assign(n, 0);
  for (std::size_t j = 0; j < correct_ids.size(); ++j) {
    out.profile_of[static_cast<std::size_t>(correct_ids[j])] = static_cast<std::uint16_t>(j);
  }
}

// The peer whose round-start state `sender` mirrors to `receiver`.
NodeId mirror_victim(std::uint64_t round, NodeId sender, NodeId receiver, NodeId n) {
  NodeId victim = static_cast<NodeId>((receiver + round) % static_cast<std::uint64_t>(n));
  if (victim == sender) victim = (victim + 1) % n;
  return victim;
}

// Slot of targeted-vote's shuffled pool (of `size` >= 1 harvested correct
// states) that `receiver` is sent: receiver halves read from opposite ends.
std::size_t targeted_slot(NodeId receiver, std::size_t size) {
  const std::size_t half = size / 2;
  const auto r = static_cast<std::size_t>(receiver);
  const std::size_t slot = (r % 2 == 0) ? (r / 2) % std::max<std::size_t>(half, 1)
                                        : half + (r / 2) % std::max<std::size_t>(size - half, 1);
  return std::min(slot, size - 1);
}

// Measures how "agreed" a set of outputs is: the count of the most common
// output value. Lower is worse for the system, so the lookahead adversary
// minimises this.
int agreement_score(std::span<const std::uint64_t> outs) {
  int best = 0;
  for (std::size_t a = 0; a < outs.size(); ++a) {
    int cnt = 0;
    for (std::size_t b = 0; b < outs.size(); ++b) {
      if (outs[b] == outs[a]) ++cnt;
    }
    best = std::max(best, cnt);
  }
  return best;
}

}  // namespace

State SilentAdversary::message(std::uint64_t, NodeId, NodeId, std::span<const State>,
                               const CountingAlgorithm& algo, util::Rng&) {
  return algo.canonicalize(State{});
}

State EchoAdversary::message(std::uint64_t, NodeId sender, NodeId, std::span<const State> states,
                             const CountingAlgorithm&, util::Rng&) {
  return states[static_cast<std::size_t>(sender)];
}

State RandomAdversary::message(std::uint64_t, NodeId, NodeId, std::span<const State>,
                               const CountingAlgorithm& algo, util::Rng& rng) {
  return random_state(algo, rng);
}

void SplitAdversary::begin_round(std::uint64_t, std::span<const State>,
                                 const CountingAlgorithm& algo, std::span<const NodeId>,
                                 util::Rng& rng) {
  const int bits = algo.state_bits();
  draw_raw_state(even_, bits, rng);
  draw_raw_state(odd_, bits, rng);
}

State SplitAdversary::message(std::uint64_t, NodeId, NodeId receiver, std::span<const State>,
                              const CountingAlgorithm&, util::Rng&) {
  return receiver % 2 == 0 ? even_ : odd_;
}

void SplitAdversary::forge_block(std::uint64_t round, std::span<const State> true_states,
                                 const CountingAlgorithm& algo,
                                 std::span<const NodeId> faulty_ids,
                                 std::span<const NodeId> /*correct_ids*/, util::Rng& rng,
                                 ForgedRound& out) {
  begin_round(round, true_states, algo, faulty_ids, rng);
  const std::size_t nf = faulty_ids.size();
  out.num_profiles = 2;
  out.states.resize(2 * nf);
  for (std::size_t k = 0; k < nf; ++k) {
    out.states[k] = even_;
    out.states[nf + k] = odd_;
  }
  // The parity map never changes, so fill it only when the size does.
  if (out.profile_of.size() != true_states.size()) {
    out.profile_of.resize(true_states.size());
    for (std::size_t r = 0; r < out.profile_of.size(); ++r) {
      out.profile_of[r] = static_cast<std::uint16_t>(r & 1);
    }
  }
}

void RandomAdversary::forge_block(std::uint64_t, std::span<const State> true_states,
                                  const CountingAlgorithm& algo,
                                  std::span<const NodeId> faulty_ids,
                                  std::span<const NodeId> correct_ids, util::Rng& rng,
                                  ForgedRound& out) {
  // begin_round is passive; the draws happen per (receiver, sender) in the
  // scalar runner's nested query order, which is slot order.
  per_receiver_profiles(correct_ids, true_states.size(), out);
  const std::size_t slots = correct_ids.size() * faulty_ids.size();
  out.states.resize(slots);
  const int bits = algo.state_bits();
  for (std::size_t s = 0; s < slots; ++s) draw_raw_state(out.states[s], bits, rng);
}

bool SplitAdversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& algo,
                                     std::span<const NodeId> faulty_ids,
                                     std::span<const NodeId> correct_ids,
                                     std::span<util::Rng> rngs,
                                     std::span<const std::uint64_t> active,
                                     std::uint8_t* out_idx, ForgedRound& out) {
  if (!idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t n = faulty_ids.size() + correct_ids.size();
  out.num_profiles = 2;
  if (out.profile_of.size() != n) {
    out.profile_of.resize(n);
    for (std::size_t r = 0; r < n; ++r) out.profile_of[r] = static_cast<std::uint16_t>(r & 1);
  }
  if (ig_.bits == 0) {
    std::fill(out_idx, out_idx + 2 * nf * L, std::uint8_t{0});
    return true;
  }
  const std::uint64_t mask = ig_.mask;
  const std::uint64_t ns = ig_.ns;
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t m = active[w]; m; m &= m - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      util::Rng& rng = rngs[l];
      // Same two draws as begin_round: even receivers' value, then odd's.
      // The reductions are branchless -- a data-dependent branch here
      // mispredicts on every non-power-of-two |X|.
      std::uint64_t even = rng.next_u64() & mask;
      even -= ns & -static_cast<std::uint64_t>(even >= ns);
      std::uint64_t odd = rng.next_u64() & mask;
      odd -= ns & -static_cast<std::uint64_t>(odd >= ns);
      for (std::size_t k = 0; k < nf; ++k) {
        out_idx[k * L + l] = static_cast<std::uint8_t>(even);
        out_idx[(nf + k) * L + l] = static_cast<std::uint8_t>(odd);
      }
    }
  }
  return true;
}

bool RandomAdversary::forge_lanes_idx(std::uint64_t /*round*/, const CountingAlgorithm& algo,
                                      std::span<const NodeId> faulty_ids,
                                      std::span<const NodeId> correct_ids,
                                      std::span<util::Rng> rngs,
                                      std::span<const std::uint64_t> active,
                                      std::uint8_t* out_idx, ForgedRound& out) {
  if (!idx_guard(ig_, algo)) return false;
  const std::size_t nf = faulty_ids.size();
  const std::size_t L = rngs.size();
  const std::size_t slots = correct_ids.size() * nf;
  per_receiver_profiles(correct_ids, nf + correct_ids.size(), out);
  if (ig_.bits == 0) {
    std::fill(out_idx, out_idx + slots * L, std::uint8_t{0});
    return true;
  }
  const std::uint64_t mask = ig_.mask;
  const std::uint64_t ns = ig_.ns;
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t m = active[w]; m; m &= m - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
      util::Rng& rng = rngs[l];
      // Scalar draw order: nested (correct receiver, faulty sender).
      // Branchless reduction -- a data-dependent branch mispredicts on every
      // non-power-of-two |X|.
      for (std::size_t s = 0; s < slots; ++s) {
        std::uint64_t v = rng.next_u64() & mask;
        v -= ns & -static_cast<std::uint64_t>(v >= ns);
        out_idx[s * L + l] = static_cast<std::uint8_t>(v);
      }
    }
  }
  return true;
}

State MirrorAdversary::message(std::uint64_t round, NodeId sender, NodeId receiver,
                               std::span<const State> states, const CountingAlgorithm&,
                               util::Rng&) {
  // Echo the round-start state of a rotating peer: a plausible, protocol-
  // consistent value that nevertheless differs per receiver.
  const auto n = static_cast<NodeId>(states.size());
  return states[static_cast<std::size_t>(mirror_victim(round, sender, receiver, n))];
}

bool MirrorAdversary::forge_lanes_idx(std::uint64_t round, const CountingAlgorithm& /*algo*/,
                                      std::span<const NodeId> faulty_ids,
                                      std::span<const NodeId> correct_ids,
                                      std::span<util::Rng> rngs,
                                      std::span<const std::uint64_t> /*active*/,
                                      std::uint8_t* out_idx, ForgedRound& out) {
  const std::size_t nf = faulty_ids.size();
  const std::size_t n = nf + correct_ids.size();
  const std::size_t L = rngs.size();
  if (out.state_idx.size() != n * L) return false;
  per_receiver_profiles(correct_ids, n, out);
  // The victim depends on the slot only, so each slot is the victim's whole
  // view row -- inactive lanes included, which no consumer reads.
  for (std::size_t j = 0; j < correct_ids.size(); ++j) {
    for (std::size_t k = 0; k < nf; ++k) {
      const NodeId victim =
          mirror_victim(round, faulty_ids[k], correct_ids[j], static_cast<NodeId>(n));
      std::copy_n(out.state_idx.data() + static_cast<std::size_t>(victim) * L, L,
                  out_idx + (j * nf + k) * L);
    }
  }
  return true;
}

void TargetedVoteAdversary::begin_round(std::uint64_t, std::span<const State> states,
                                        const CountingAlgorithm&,
                                        std::span<const NodeId> faulty_ids, util::Rng& rng) {
  // Harvest the correct nodes' states; they encode valid leader pointers and
  // phase-king registers, so replaying them to the "wrong" receivers attacks
  // the majority votes with plausible values.
  pool_.clear();
  for (NodeId i = 0; i < static_cast<NodeId>(states.size()); ++i) {
    if (std::find(faulty_ids.begin(), faulty_ids.end(), i) == faulty_ids.end()) {
      pool_.push_back(states[static_cast<std::size_t>(i)]);
    }
  }
  // Shuffle so different rounds pair receivers with different votes.
  std::shuffle(pool_.begin(), pool_.end(), rng);
}

State TargetedVoteAdversary::message(std::uint64_t, NodeId sender, NodeId receiver,
                                     std::span<const State>, const CountingAlgorithm& algo,
                                     util::Rng& rng) {
  if (pool_.empty()) return random_state(algo, rng);
  (void)sender;
  return pool_[targeted_slot(receiver, pool_.size())];
}

bool TargetedVoteAdversary::forge_lanes_idx(std::uint64_t /*round*/,
                                            const CountingAlgorithm& /*algo*/,
                                            std::span<const NodeId> faulty_ids,
                                            std::span<const NodeId> correct_ids,
                                            std::span<util::Rng> rngs,
                                            std::span<const std::uint64_t> active,
                                            std::uint8_t* out_idx, ForgedRound& out) {
  const std::size_t nf = faulty_ids.size();
  const std::size_t m = correct_ids.size();
  const std::size_t L = rngs.size();
  // An empty pool would take message()'s random fallback; decline instead.
  if (m == 0 || out.state_idx.size() != (nf + m) * L) return false;
  per_receiver_profiles(correct_ids, nf + m, out);
  slot_.resize(m);
  for (std::size_t j = 0; j < m; ++j) slot_[j] = targeted_slot(correct_ids[j], m);
  lane_pool_.resize(m);
  const std::uint8_t* view = out.state_idx.data();
  for (std::size_t w = 0; w < active.size(); ++w) {
    for (std::uint64_t bits = active[w]; bits; bits &= bits - 1) {
      const std::size_t l = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      // begin_round's harvest (correct nodes in node order) and shuffle.
      // std::shuffle's draws and swap positions depend only on the range
      // length and the generator, so the index pool is permuted exactly like
      // the State pool.
      for (std::size_t c = 0; c < m; ++c) {
        lane_pool_[c] = view[static_cast<std::size_t>(correct_ids[c]) * L + l];
      }
      std::shuffle(lane_pool_.begin(), lane_pool_.end(), rngs[l]);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint8_t v = lane_pool_[slot_[j]];
        for (std::size_t k = 0; k < nf; ++k) out_idx[(j * nf + k) * L + l] = v;
      }
    }
  }
  return true;
}

LookaheadAdversary::LookaheadAdversary(int candidates, int sample_receivers)
    : candidates_(candidates), sample_receivers_(sample_receivers) {
  SC_CHECK(candidates >= 1, "need at least one candidate profile");
  SC_CHECK(sample_receivers >= 1, "need at least one sampled receiver");
}

LookaheadAdversary::~LookaheadAdversary() = default;

void LookaheadAdversary::begin_round(std::uint64_t, std::span<const State> states,
                                     const CountingAlgorithm& algo,
                                     std::span<const NodeId> faulty_ids, util::Rng& rng) {
  faulty_.assign(faulty_ids.begin(), faulty_ids.end());
  // Nothing to forge, so no candidate can change an output. Scoring them
  // anyway would draw from `rng` wherever transitions sample, and a
  // fault-free run would then differ from the same seed under any other
  // strategy.
  if (faulty_.empty()) return;

  // The receiver sample candidates are scored against: an even stride over
  // the correct nodes (deterministic, so it costs no rng draws).
  correct_.clear();
  for (NodeId i = 0; i < static_cast<NodeId>(states.size()); ++i) {
    if (std::find(faulty_.begin(), faulty_.end(), i) == faulty_.end()) correct_.push_back(i);
  }
  const std::size_t m =
      std::min<std::size_t>(static_cast<std::size_t>(sample_receivers_), correct_.size());
  sampled_.clear();
  for (std::size_t j = 0; j < m; ++j) sampled_.push_back(correct_[j * correct_.size() / m]);
  outs_.resize(m);

  if (&algo != oracle_algo_) {
    oracle_algo_ = &algo;
    oracle_ = TowerOracle::make(algo);
  }
  if (oracle_ != nullptr) {
    oracle_->begin_round(states, faulty_);
    search(states, algo, rng, [this](NodeId v, std::span<const State> row) {
      return oracle_->next_output(v, row);
    });
    return;
  }
  received_.assign(states.begin(), states.end());
  counting::TransitionContext ctx{&rng};
  search(states, algo, rng, [&](NodeId v, std::span<const State> row) {
    for (std::size_t s = 0; s < faulty_.size(); ++s) {
      received_[static_cast<std::size_t>(faulty_[s])] = row[s];
    }
    return algo.output(v, algo.transition(v, received_, ctx));
  });
}

template <class NextOutput>
void LookaheadAdversary::search(std::span<const State> states, const CountingAlgorithm& algo,
                                util::Rng& rng, NextOutput next_output) {
  const std::size_t nf = faulty_.size();
  const std::size_t profile_size = nf * states.size();

  // Score = agreement among the sampled receivers after one round under the
  // profile; each candidate costs |sample| scores, not one per correct node.
  const auto score = [&](std::span<const State> profile) {
    for (std::size_t j = 0; j < sampled_.size(); ++j) {
      const NodeId v = sampled_[j];
      outs_[j] = next_output(v, profile.subspan(static_cast<std::size_t>(v) * nf, nf));
    }
    return agreement_score(outs_);
  };

  // Seed the search with the previous round's winner: a profile that split
  // the correct nodes last round usually keeps splitting them, so the random
  // candidates only have to beat a known-good incumbent. Without one, the
  // first candidate wins.
  int best_score = static_cast<int>(sampled_.size()) + 1;
  if (chosen_.size() == profile_size) best_score = score(chosen_);

  for (int cand = 0; cand < candidates_; ++cand) {
    // Draw a candidate profile: a mix of random states and replayed correct
    // states (replays are often more damaging than noise), sender by sender
    // and receivers in order within a sender.
    candidate_.resize(profile_size);
    for (std::size_t s = 0; s < nf; ++s) {
      for (std::size_t r = 0; r < states.size(); ++r) {
        State& e = candidate_[r * nf + s];
        if (rng.next_bool(0.5)) {
          e = random_state(algo, rng);
        } else {
          e = states[rng.next_below(states.size())];
        }
      }
    }
    const int sc = score(candidate_);
    if (sc < best_score) {
      best_score = sc;
      chosen_.swap(candidate_);
    }
  }
}

State LookaheadAdversary::message(std::uint64_t, NodeId sender, NodeId receiver,
                                  std::span<const State>, const CountingAlgorithm& algo,
                                  util::Rng& rng) {
  const auto it = std::find(faulty_.begin(), faulty_.end(), sender);
  if (it == faulty_.end() || chosen_.empty()) return random_state(algo, rng);
  const auto sidx = static_cast<std::size_t>(it - faulty_.begin());
  return chosen_[static_cast<std::size_t>(receiver) * faulty_.size() + sidx];
}

std::unique_ptr<Adversary> make_adversary(const std::string& name) {
  if (name == "silent") return std::make_unique<SilentAdversary>();
  if (name == "echo") return std::make_unique<EchoAdversary>();
  if (name == "random") return std::make_unique<RandomAdversary>();
  if (name == "split") return std::make_unique<SplitAdversary>();
  if (name == "mirror") return std::make_unique<MirrorAdversary>();
  if (name == "targeted-vote") return std::make_unique<TargetedVoteAdversary>();
  if (name == "lookahead") return std::make_unique<LookaheadAdversary>();
  SC_CHECK(false, "unknown adversary: " + name);
}

std::vector<std::string> adversary_names() {
  return {"silent", "echo", "random", "split", "mirror", "targeted-vote", "lookahead"};
}

}  // namespace synccount::sim
