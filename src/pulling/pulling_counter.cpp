#include "pulling/pulling_counter.hpp"

#include <algorithm>

#include "boosting/planner.hpp"
#include "boosting/tower_scratch.hpp"
#include "counting/trivial.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace synccount::pulling {

std::uint64_t sampled_majority(std::span<const std::uint64_t> values, std::uint64_t bound,
                               std::vector<std::uint32_t>& scratch) {
  if (scratch.size() < bound) scratch.resize(bound, 0);
  std::uint64_t winner = 0;
  bool found = false;
  const std::size_t threshold = values.size() / 2;
  for (std::uint64_t v : values) {
    SC_ASSERT(v < bound);
    if (++scratch[static_cast<std::size_t>(v)] > threshold) {
      winner = v;
      found = true;
    }
  }
  for (std::uint64_t v : values) scratch[static_cast<std::size_t>(v)] = 0;
  return found ? winner : 0;
}

PullingBoostedCounter::PullingBoostedCounter(AlgorithmPtr inner, const PullParams& params)
    : inner_(std::move(inner)), params_(params) {
  SC_CHECK(inner_ != nullptr, "no inner algorithm");
  SC_CHECK(params_.k >= 3, "need at least 3 blocks");
  SC_CHECK(params_.C >= 2, "output counter size must be at least 2");
  SC_CHECK(params_.F >= 0, "resilience must be non-negative");
  SC_CHECK(params_.sample_size >= 1, "need a positive sample size");
  SC_CHECK(params_.gamma > 0, "gamma must be positive");

  n_inner_ = inner_->num_nodes();
  N_ = params_.k * n_inner_;
  m_ = (params_.k + 1) / 2;
  tau_ = 3 * (params_.F + 2);

  const auto f_inner = static_cast<std::uint64_t>(inner_->resilience());
  SC_CHECK(static_cast<std::uint64_t>(params_.F) < (f_inner + 1) * static_cast<std::uint64_t>(m_),
           "resilience too large: need F < (f+1)·ceil(k/2)");
  // Theorem 4's strengthened constraint F < N/(3+gamma).
  SC_CHECK(static_cast<double>(params_.F) * (3.0 + params_.gamma) < static_cast<double>(N_),
           "Theorem 4 requires F < N/(3+gamma)");

  pow2m_.resize(static_cast<std::size_t>(params_.k) + 1);
  pow2m_[0] = 1;
  for (int i = 1; i <= params_.k; ++i) {
    auto p = util::checked_mul(pow2m_[static_cast<std::size_t>(i - 1)],
                               static_cast<std::uint64_t>(2 * m_));
    SC_CHECK(p.has_value(), "(2m)^k overflows uint64");
    pow2m_[static_cast<std::size_t>(i)] = *p;
  }
  auto ck = util::checked_mul(static_cast<std::uint64_t>(tau_),
                              pow2m_[static_cast<std::size_t>(params_.k)]);
  SC_CHECK(ck.has_value(), "tau*(2m)^k overflows uint64");
  ck_ = *ck;
  SC_CHECK(inner_->modulus() % ck_ == 0,
           "inner modulus must be a multiple of 3(F+2)(2m)^k");

  pk_ = phaseking::Params{N_, params_.F, params_.C};
  pk_.validate();

  inner_bits_ = inner_->state_bits();
  a_bits_ = phaseking::a_bits(params_.C);
  total_bits_ = inner_bits_ + a_bits_ + 1;
  SC_CHECK(total_bits_ <= util::BitVec::kCapacityBits, "state too wide");
}

std::optional<std::uint64_t> PullingBoostedCounter::stabilisation_bound() const noexcept {
  const auto inner_bound = inner_->stabilisation_bound();
  if (!inner_bound) return std::nullopt;
  return *inner_bound + ck_;  // Theorem 4: holds w.h.p.
}

std::string PullingBoostedCounter::name() const {
  return std::string("pulling(k=") + std::to_string(params_.k) + ",F=" + std::to_string(params_.F) +
         ",C=" + std::to_string(params_.C) + ",M=" + std::to_string(params_.sample_size) +
         (params_.mode == SamplingMode::kFixed ? ",fixed" : ",fresh") + ")<" + inner_->name() +
         ">";
}

State PullingBoostedCounter::transition(NodeId v, std::span<const State> received,
                                        counting::TransitionContext& ctx) const {
  SC_ASSERT(static_cast<int>(received.size()) == N_);
  const int i = v / n_inner_;
  const int j = v % n_inner_;
  const auto M = static_cast<std::size_t>(params_.sample_size);

  // Sampling source: fresh randomness (Theorem 4) or a per-node generator
  // reseeded identically every round, i.e. random bits fixed once (Cor. 5).
  util::Rng fixed_rng(util::hash_combine(params_.seed, static_cast<std::uint64_t>(v)));
  util::Rng& rng = params_.mode == SamplingMode::kFixed ? fixed_rng : ctx.rand();

  const boosting::FrameLease frame;

  // 1. Update A_i on the own block (the node pulls its whole block: deep
  // levels are small, cf. "perform the step deterministically" in §5.3).
  const std::span<State> block_states =
      boosting::take(frame->block_states, static_cast<std::size_t>(n_inner_));
  for (int jj = 0; jj < n_inner_; ++jj) {
    block_states[static_cast<std::size_t>(jj)] =
        received[static_cast<std::size_t>(i * n_inner_ + jj)];
    block_states[static_cast<std::size_t>(jj)].truncate(inner_bits_);
  }
  const State inner_next = inner_->transition(j, block_states, ctx);
  ctx.messages_pulled += static_cast<std::uint64_t>(n_inner_);

  // 2. Sampled majority votes (Lemma 9): M states per block, with repetition.
  std::vector<std::uint32_t>& scratch = frame->counts;
  const std::span<std::uint64_t> block_votes =
      boosting::take(frame->leaders, static_cast<std::size_t>(params_.k));
  const std::span<std::uint64_t> bvals = boosting::take(frame->b, M);
  const std::span<std::uint32_t> samples =
      boosting::take(frame->samples, static_cast<std::size_t>(params_.k) * M);
  for (int blk = 0; blk < params_.k; ++blk) {
    const std::span<std::uint32_t> sample = samples.subspan(static_cast<std::size_t>(blk) * M, M);
    for (std::size_t t = 0; t < M; ++t) {
      sample[t] = static_cast<std::uint32_t>(rng.next_below(static_cast<std::uint64_t>(n_inner_)));
    }
    ctx.messages_pulled += M;
    for (std::size_t t = 0; t < M; ++t) {
      const int u = blk * n_inner_ + static_cast<int>(sample[t]);
      // Derived leader pointer of the sampled node (see BoostedCounter).
      State inner_state = received[static_cast<std::size_t>(u)];
      inner_state.truncate(inner_bits_);
      const std::uint64_t out =
          inner_->output(static_cast<int>(sample[t]), inner_state) % (static_cast<std::uint64_t>(tau_) * pow2m_[static_cast<std::size_t>(blk) + 1]);
      const std::uint64_t y = out / static_cast<std::uint64_t>(tau_);
      bvals[t] = (y / pow2m_[static_cast<std::size_t>(blk)]) % static_cast<std::uint64_t>(m_);
    }
    block_votes[static_cast<std::size_t>(blk)] =
        sampled_majority(bvals, static_cast<std::uint64_t>(m_), scratch);
  }
  const std::uint64_t B =
      sampled_majority(block_votes, static_cast<std::uint64_t>(m_), scratch);

  // R: reuse block B's samples, reading the r component this time.
  const std::span<std::uint64_t> rvals = boosting::take(frame->r, M);
  {
    const std::span<const std::uint32_t> sample =
        samples.subspan(static_cast<std::size_t>(B) * M, M);
    for (std::size_t t = 0; t < M; ++t) {
      const int u = static_cast<int>(B) * n_inner_ + static_cast<int>(sample[t]);
      State inner_state = received[static_cast<std::size_t>(u)];
      inner_state.truncate(inner_bits_);
      const std::uint64_t out =
          inner_->output(static_cast<int>(sample[t]), inner_state) %
          (static_cast<std::uint64_t>(tau_) * pow2m_[static_cast<std::size_t>(B) + 1]);
      rvals[t] = out % static_cast<std::uint64_t>(tau_);
    }
  }
  const std::uint64_t R =
      sampled_majority(rvals, static_cast<std::uint64_t>(tau_), scratch);

  // 3. Sampled phase king (Lemma 8): M samples from the whole network plus a
  // direct pull of the king.
  const std::span<std::uint64_t> sampled_a = boosting::take(frame->a, M);
  for (std::size_t t = 0; t < M; ++t) {
    const auto u = rng.next_below(static_cast<std::uint64_t>(N_));
    sampled_a[t] = phaseking::decode_a(
        received[static_cast<std::size_t>(u)].get_bits(inner_bits_, a_bits_), params_.C);
  }
  ctx.messages_pulled += M;
  const int king = static_cast<int>(R) / 3;
  const std::uint64_t king_a = phaseking::decode_a(
      received[static_cast<std::size_t>(king)].get_bits(inner_bits_, a_bits_), params_.C);
  ctx.messages_pulled += 1;

  const phaseking::Registers own{
      phaseking::decode_a(received[static_cast<std::size_t>(v)].get_bits(inner_bits_, a_bits_),
                          params_.C),
      received[static_cast<std::size_t>(v)].get_bit(inner_bits_ + a_bits_)};
  const phaseking::Registers next =
      phaseking::step_sampled(pk_, static_cast<int>(R), own, sampled_a, king_a);

  State s = inner_next;
  s.truncate(inner_bits_);
  s.set_bits(inner_bits_, a_bits_, phaseking::encode_a(next.a, params_.C));
  s.set_bit(inner_bits_ + a_bits_, next.d);
  return s;
}

std::uint64_t PullingBoostedCounter::output(NodeId /*v*/, const State& s) const {
  const std::uint64_t a = phaseking::decode_a(s.get_bits(inner_bits_, a_bits_), params_.C);
  return a == phaseking::kInfinity ? 0 : a;
}

State PullingBoostedCounter::canonicalize(const State& raw) const {
  State inner_raw = raw;
  inner_raw.truncate(inner_bits_);
  State s = inner_->canonicalize(inner_raw);
  const std::uint64_t a_pat = raw.get_bits(inner_bits_, a_bits_);
  s.set_bits(inner_bits_, a_bits_,
             phaseking::encode_a(phaseking::decode_a(a_pat, params_.C), params_.C));
  s.set_bit(inner_bits_ + a_bits_, raw.get_bit(inner_bits_ + a_bits_));
  return s;
}

counting::AlgorithmPtr build_pulling_practical(int f_target, std::uint64_t C, int sample_size,
                                               SamplingMode mode, std::uint64_t seed,
                                               int pulling_levels) {
  const boosting::Plan plan = boosting::plan_practical(f_target, C);
  SC_CHECK(pulling_levels >= 1, "need at least one pulling level");
  const std::size_t num_pulling =
      std::min<std::size_t>(static_cast<std::size_t>(pulling_levels), plan.levels.size());
  const std::size_t first_pulling = plan.levels.size() - num_pulling;

  counting::AlgorithmPtr algo =
      std::make_shared<counting::TrivialCounter>(plan.base_modulus);
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const auto& lv = plan.levels[i];
    if (i < first_pulling) {
      algo = std::make_shared<boosting::BoostedCounter>(
          algo, boosting::BoostParams{lv.k, lv.F, lv.C});
    } else {
      PullParams pp;
      pp.k = lv.k;
      pp.F = lv.F;
      pp.C = lv.C;
      pp.sample_size = sample_size;
      pp.mode = mode;
      // Independent per-level seed streams for the fixed-sampling mode.
      pp.seed = util::hash_combine(seed, static_cast<std::uint64_t>(i) + 1);
      algo = std::make_shared<PullingBoostedCounter>(algo, pp);
    }
  }
  return algo;
}

}  // namespace synccount::pulling
