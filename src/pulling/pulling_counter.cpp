#include "pulling/pulling_counter.hpp"

#include <algorithm>

#include "boosting/planner.hpp"
#include "boosting/tower_scratch.hpp"
#include "counting/trivial.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace synccount::pulling {

PullingBoostedCounter::PullingBoostedCounter(AlgorithmPtr inner, const PullParams& params)
    : BoostingLevel(std::move(inner), boosting::BoostParams{params.k, params.F, params.C}),
      sample_size_(params.sample_size),
      mode_(params.mode),
      seed_(params.seed),
      gamma_(params.gamma) {
  SC_CHECK(sample_size_ >= 1, "need a positive sample size");
  SC_CHECK(gamma_ > 0, "gamma must be positive");
  // Theorem 4's strengthened constraint F < N/(3+gamma).
  SC_CHECK(static_cast<double>(params_.F) * (3.0 + gamma_) < static_cast<double>(N_),
           "Theorem 4 requires F < N/(3+gamma)");
}

std::string PullingBoostedCounter::name() const {
  return std::string("pulling(k=") + std::to_string(params_.k) + ",F=" + std::to_string(params_.F) +
         ",C=" + std::to_string(params_.C) + ",M=" + std::to_string(sample_size_) +
         (mode_ == SamplingMode::kFixed ? ",fixed" : ",fresh") + ")<" + inner_->name() + ">";
}

State PullingBoostedCounter::transition(NodeId v, std::span<const State> received,
                                        counting::TransitionContext& ctx) const {
  SC_ASSERT(static_cast<int>(received.size()) == N_);
  const auto M = static_cast<std::size_t>(sample_size_);

  // Sampling source: fresh randomness (Theorem 4) or a per-node generator
  // reseeded identically every round, i.e. random bits fixed once (Cor. 5).
  util::Rng fixed_rng(util::hash_combine(seed_, static_cast<std::uint64_t>(v)));
  util::Rng& rng = mode_ == SamplingMode::kFixed ? fixed_rng : ctx.rand();

  const boosting::FrameLease frame;

  // 1. Update A_i on the own block (the node pulls its whole block: deep
  // levels are small, cf. "perform the step deterministically" in §5.3).
  const State inner_next = inner_step(v, received, *frame, ctx);
  ctx.messages_pulled += static_cast<std::uint64_t>(n_inner_);

  // 2. Sampled majority votes (Lemma 9): M states per block, with repetition.
  // A sampled node's b and r are its block_view, as in the broadcast votes.
  std::vector<std::uint32_t>& scratch = frame->counts;
  const std::span<std::uint64_t> block_votes =
      boosting::take(frame->leaders, static_cast<std::size_t>(params_.k));
  const std::span<std::uint64_t> bvals = boosting::take(frame->b, M);
  const std::span<std::uint32_t> samples =
      boosting::take(frame->samples, static_cast<std::size_t>(params_.k) * M);
  const auto sampled_view = [&](int blk, std::uint32_t j) {
    return block_view(blk, static_cast<NodeId>(j),
                      received[static_cast<std::size_t>(blk * n_inner_) + j]);
  };
  for (int blk = 0; blk < params_.k; ++blk) {
    const std::span<std::uint32_t> sample = samples.subspan(static_cast<std::size_t>(blk) * M, M);
    for (std::size_t t = 0; t < M; ++t) {
      sample[t] = static_cast<std::uint32_t>(rng.next_below(static_cast<std::uint64_t>(n_inner_)));
    }
    ctx.messages_pulled += M;
    for (std::size_t t = 0; t < M; ++t) bvals[t] = sampled_view(blk, sample[t]).b;
    block_votes[static_cast<std::size_t>(blk)] =
        boosting::strict_majority(bvals, static_cast<std::uint64_t>(m_), M / 2, scratch);
  }
  const std::uint64_t B = boosting::strict_majority(
      block_votes, static_cast<std::uint64_t>(m_), block_votes.size() / 2, scratch);

  // R: reuse block B's samples, reading the r component this time.
  const std::span<std::uint64_t> rvals = boosting::take(frame->r, M);
  const std::span<const std::uint32_t> sample_B =
      samples.subspan(static_cast<std::size_t>(B) * M, M);
  for (std::size_t t = 0; t < M; ++t) rvals[t] = sampled_view(static_cast<int>(B), sample_B[t]).r;
  const std::uint64_t R =
      boosting::strict_majority(rvals, static_cast<std::uint64_t>(tau_), M / 2, scratch);

  // 3. Sampled phase king (Lemma 8): M samples from the whole network plus a
  // direct pull of the king.
  const std::span<std::uint64_t> sampled_a = boosting::take(frame->a, M);
  for (std::size_t t = 0; t < M; ++t) {
    const auto u = rng.next_below(static_cast<std::uint64_t>(N_));
    sampled_a[t] = a_of(received[static_cast<std::size_t>(u)]);
  }
  ctx.messages_pulled += M;
  const int king = static_cast<int>(R) / 3;
  const std::uint64_t king_a = a_of(received[static_cast<std::size_t>(king)]);
  ctx.messages_pulled += 1;

  const phaseking::Registers own{a_of(received[static_cast<std::size_t>(v)]),
                                 d_of(received[static_cast<std::size_t>(v)])};
  const phaseking::Registers next =
      phaseking::step_sampled(pk_, static_cast<int>(R), own, sampled_a, king_a);
  return pack(inner_next, next.a, next.d);
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
