#include "boosting/boosted_counter.hpp"

#include <algorithm>

#include "boosting/tower_scratch.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace synccount::boosting {

std::uint64_t strict_majority(std::span<const std::uint64_t> values, std::uint64_t bound,
                              std::size_t threshold, std::vector<std::uint32_t>& scratch,
                              std::uint64_t fallback) {
  if (scratch.size() < bound) scratch.resize(bound, 0);
  std::uint64_t winner = fallback;
  bool found = false;
  for (std::uint64_t v : values) {
    SC_ASSERT(v < bound);
    if (++scratch[static_cast<std::size_t>(v)] > threshold) {
      winner = v;
      found = true;
    }
  }
  for (std::uint64_t v : values) scratch[static_cast<std::size_t>(v)] = 0;
  return found ? winner : fallback;
}

// --- BoostingLevel ------------------------------------------------------------

BoostingLevel::BoostingLevel(AlgorithmPtr inner, const BoostParams& params)
    : inner_(std::move(inner)), params_(params) {
  SC_CHECK(inner_ != nullptr, "no inner algorithm");
  SC_CHECK(params_.k >= 3, "need at least 3 blocks (Theorem 1)");
  SC_CHECK(params_.C >= 2, "output counter size must be at least 2");
  SC_CHECK(params_.F >= 0, "resilience must be non-negative");

  n_inner_ = inner_->num_nodes();
  N_ = params_.k * n_inner_;
  m_ = (params_.k + 1) / 2;  // ceil(k/2)
  tau_ = 3 * (params_.F + 2);

  // F < (f+1)·m: a majority of blocks has at most f faults.
  const auto f_inner = static_cast<std::uint64_t>(inner_->resilience());
  SC_CHECK(static_cast<std::uint64_t>(params_.F) < (f_inner + 1) * static_cast<std::uint64_t>(m_),
           "resilience too large: need F < (f+1)·ceil(k/2)");

  // Precompute (2m)^i and the level cost c_k = τ(2m)^k with overflow checks.
  pow2m_.resize(static_cast<std::size_t>(params_.k) + 1);
  pow2m_[0] = 1;
  for (int i = 1; i <= params_.k; ++i) {
    auto p = util::checked_mul(pow2m_[static_cast<std::size_t>(i - 1)],
                               static_cast<std::uint64_t>(2 * m_));
    SC_CHECK(p.has_value(), "(2m)^k overflows uint64: choose smaller k");
    pow2m_[static_cast<std::size_t>(i)] = *p;
  }
  auto ck = util::checked_mul(static_cast<std::uint64_t>(tau_), pow2m_[static_cast<std::size_t>(params_.k)]);
  SC_CHECK(ck.has_value(), "tau*(2m)^k overflows uint64");
  ck_ = *ck;

  // The inner counter must count modulo a multiple of τ(2m)^k so that every
  // block modulus c_i divides it.
  SC_CHECK(inner_->modulus() % ck_ == 0,
           "inner modulus must be a multiple of 3(F+2)(2m)^k");

  // Phase king needs N > 3F (implied by F < (f+1)m and f < n/3 in the paper;
  // checked explicitly because the trivial base has f = 0 = n/3).
  pk_ = phaseking::Params{N_, params_.F, params_.C};
  pk_.validate();

  inner_bits_ = inner_->state_bits();
  a_bits_ = phaseking::a_bits(params_.C);
  total_bits_ = inner_bits_ + a_bits_ + 1;
  SC_CHECK(total_bits_ <= util::BitVec::kCapacityBits,
           "state too wide: increase BitVec capacity");
}

std::optional<std::uint64_t> BoostingLevel::stabilisation_bound() const noexcept {
  const auto inner_bound = inner_->stabilisation_bound();
  if (!inner_bound) return std::nullopt;
  return *inner_bound + ck_;  // T(B) <= T(A) + 3(F+2)(2m)^k
}

std::uint64_t BoostingLevel::block_modulus(int block) const {
  SC_CHECK(block >= 0 && block < params_.k, "block index out of range");
  return static_cast<std::uint64_t>(tau_) * pow2m_[static_cast<std::size_t>(block) + 1];
}

BoostingLevel::Decoded BoostingLevel::decode(const State& s) const {
  Decoded d;
  d.inner = s;
  d.inner.truncate(inner_bits_);
  d.a = a_of(s);
  d.d = d_of(s);
  return d;
}

State BoostingLevel::encode(const Decoded& d) const { return pack(d.inner, d.a, d.d); }

State BoostingLevel::state_with_output(NodeId /*i*/, std::uint64_t target) const {
  SC_CHECK(target < params_.C, "output target out of range");
  return pack(inner_->canonicalize(State{}), target, true);
}

BoostingLevel::BlockView BoostingLevel::block_view(int block, NodeId j, const State& s) const {
  State inner_state = s;
  inner_state.truncate(inner_bits_);
  const std::uint64_t out = inner_->output(j, inner_state);
  BlockView v;
  v.value = out % block_modulus(block);
  v.r = v.value % static_cast<std::uint64_t>(tau_);
  v.y = v.value / static_cast<std::uint64_t>(tau_);
  v.b = (v.y / pow2m_[static_cast<std::size_t>(block)]) % static_cast<std::uint64_t>(m_);
  return v;
}

State BoostingLevel::inner_step(NodeId v, std::span<const State> received, TowerFrame& frame,
                                counting::TransitionContext& ctx) const {
  const int i = v / n_inner_;  // own block
  const std::span<State> block_states =
      take(frame.block_states, static_cast<std::size_t>(n_inner_));
  for (int jj = 0; jj < n_inner_; ++jj) {
    block_states[static_cast<std::size_t>(jj)] =
        received[static_cast<std::size_t>(i * n_inner_ + jj)];
    block_states[static_cast<std::size_t>(jj)].truncate(inner_bits_);
  }
  return inner_->transition(v % n_inner_, block_states, ctx);
}

std::uint64_t BoostingLevel::output(NodeId /*v*/, const State& s) const {
  const std::uint64_t a = a_of(s);
  return a == phaseking::kInfinity ? 0 : a;
}

State BoostingLevel::canonicalize(const State& raw) const {
  State inner_raw = raw;
  inner_raw.truncate(inner_bits_);
  State s = inner_->canonicalize(inner_raw);
  SC_ASSERT([&] {
    State check = s;
    check.truncate(inner_bits_);
    return check == s;
  }());
  // a: any pattern >= C means ∞ and re-encodes as C; d passes through.
  set_registers(s, a_of(raw), d_of(raw));
  return s;
}

// --- BoostedCounter -----------------------------------------------------------

BoostedCounter::BoostedCounter(AlgorithmPtr inner, const BoostParams& params)
    : BoostingLevel(std::move(inner), params) {}

std::string BoostedCounter::name() const {
  return "boosted(k=" + std::to_string(params_.k) + ",F=" + std::to_string(params_.F) +
         ",C=" + std::to_string(params_.C) + ")<" + inner_->name() + ">";
}

BoostedCounter::Votes BoostedCounter::votes(std::span<const State> received) const {
  const FrameLease frame;
  const VotedRound vt = vote(received, *frame);
  Votes res;
  res.block_leader.assign(frame->leaders.begin(), frame->leaders.begin() + params_.k);
  res.B = vt.B;
  res.R = vt.R;
  return res;
}

BoostedCounter::VotedRound BoostedCounter::vote(std::span<const State> received,
                                                TowerFrame& frame) const {
  SC_ASSERT(static_cast<int>(received.size()) == N_);
  const auto n = static_cast<std::size_t>(n_inner_);

  // Per-node derived views. b and r are needed for all nodes (b for the block
  // votes, r for reading the elected block's round counter).
  const std::span<std::uint64_t> b_all = take(frame.b, static_cast<std::size_t>(N_));
  const std::span<std::uint64_t> r_all = take(frame.r, static_cast<std::size_t>(N_));
  for (int u = 0; u < N_; ++u) {
    const int blk = u / n_inner_;
    const BlockView bv = block_view(blk, u % n_inner_, received[static_cast<std::size_t>(u)]);
    b_all[static_cast<std::size_t>(u)] = bv.b;
    r_all[static_cast<std::size_t>(u)] = bv.r;
  }

  // b^{i'} = majority{ b[i',j] : j } over each block (> n/2 votes needed).
  const std::span<std::uint64_t> block_leader =
      take(frame.leaders, static_cast<std::size_t>(params_.k));
  for (int blk = 0; blk < params_.k; ++blk) {
    block_leader[static_cast<std::size_t>(blk)] =
        strict_majority(b_all.subspan(static_cast<std::size_t>(blk) * n, n),
                        static_cast<std::uint64_t>(m_), n / 2, frame.counts);
  }
  VotedRound res;
  // B = majority{ b^{i'} } (> k/2 votes needed).
  res.B = strict_majority(block_leader, static_cast<std::uint64_t>(m_),
                          static_cast<std::size_t>(params_.k) / 2, frame.counts);
  // R = majority{ r[B,j] : j } over the elected block.
  res.R = strict_majority(r_all.subspan(static_cast<std::size_t>(res.B) * n, n),
                          static_cast<std::uint64_t>(tau_), n / 2, frame.counts);
  return res;
}

State BoostedCounter::transition(NodeId v, std::span<const State> received,
                                 counting::TransitionContext& ctx) const {
  SC_ASSERT(static_cast<int>(received.size()) == N_);
  const FrameLease frame;

  // 1. Update the state of algorithm A_i on the own block's inner states.
  const State inner_next = inner_step(v, received, *frame, ctx);

  // 2. Compute the voted round counter R.
  const VotedRound vt = vote(received, *frame);

  // 3. Execute instruction set I_R of the phase king.
  const std::span<std::uint64_t> received_a = take(frame->a, static_cast<std::size_t>(N_));
  for (int u = 0; u < N_; ++u) {
    received_a[static_cast<std::size_t>(u)] = a_of(received[static_cast<std::size_t>(u)]);
  }
  const phaseking::Registers own{received_a[static_cast<std::size_t>(v)],
                                 d_of(received[static_cast<std::size_t>(v)])};
  const phaseking::Registers next =
      phaseking::step(pk_, static_cast<int>(vt.R), v, own, received_a);
  return pack(inner_next, next.a, next.d);
}

}  // namespace synccount::boosting
