#include "sim/composed_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>

#include "boosting/boosted_counter.hpp"
#include "counting/trivial.hpp"
#include "phaseking/phase_king.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/checker.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace synccount::sim {

namespace {

using counting::NodeId;
using phaseking::kInfinity;

constexpr std::size_t kLanesPerWord = 64;

ComposedLevel make_level(ComposedLevel::Kind kind, int n, int N, int k, int m, int tau,
                         std::uint64_t C, int F, const counting::CountingAlgorithm& inner) {
  ComposedLevel lv;
  lv.kind = kind;
  lv.n = n;
  lv.copies = N / n;
  lv.n_inner = inner.num_nodes();
  lv.k = k;
  lv.m = m;
  lv.tau = tau;
  lv.C = C;
  lv.pow2m.resize(static_cast<std::size_t>(k) + 1);
  lv.pow2m[0] = 1;
  for (int i = 1; i <= k; ++i) {
    lv.pow2m[static_cast<std::size_t>(i)] =
        lv.pow2m[static_cast<std::size_t>(i - 1)] * static_cast<std::uint64_t>(2 * m);
  }
  lv.pk = phaseking::Params{n, F, C};
  lv.a_offset = inner.state_bits();
  lv.a_bits = phaseking::a_bits(C);
  return lv;
}

}  // namespace

std::shared_ptr<const ComposedCompiledTable> ComposedCompiledTable::compile(
    const counting::AlgorithmPtr& algo) {
  if (algo == nullptr) return nullptr;
  auto cc = std::make_shared<ComposedCompiledTable>();
  cc->algo = algo;
  cc->N = algo->num_nodes();
  cc->state_bits = algo->state_bits();
  cc->modulus = algo->modulus();

  // Walk the tower top-down, collecting one ComposedLevel per wrapper.
  std::vector<ComposedLevel> top_down;
  const counting::CountingAlgorithm* cur = algo.get();
  for (;;) {
    if (const auto* b = dynamic_cast<const boosting::BoostedCounter*>(cur)) {
      top_down.push_back(make_level(ComposedLevel::Kind::kBoosted, b->num_nodes(), cc->N,
                                    b->k(), b->m(), b->tau(), b->modulus(), b->resilience(),
                                    b->inner()));
      cur = &b->inner();
    } else if (const auto* p = dynamic_cast<const pulling::PullingBoostedCounter*>(cur)) {
      ComposedLevel lv = make_level(ComposedLevel::Kind::kPulling, p->num_nodes(), cc->N,
                                    p->k(), p->m(), p->tau(), p->modulus(), p->resilience(),
                                    p->inner());
      lv.sample_size = p->sample_size();
      lv.fixed_sampling = p->mode() == pulling::SamplingMode::kFixed;
      lv.sampling_seed = p->sampling_seed();
      top_down.push_back(std::move(lv));
      cur = &p->inner();
    } else {
      break;
    }
  }
  if (top_down.empty()) return nullptr;  // flat algorithms go to the table path

  if (const auto* t = dynamic_cast<const counting::TrivialCounter*>(cur)) {
    cc->base.kind = ComposedBase::Kind::kTrivial;
    cc->base.n = 1;
    cc->base.num_states = t->modulus();
  } else if (const auto* t2 = dynamic_cast<const counting::TableAlgorithm*>(cur)) {
    cc->base.kind = ComposedBase::Kind::kTable;
    cc->base.n = t2->num_nodes();
    cc->base.num_states = t2->table().num_states;
    cc->base.table = &t2->compiled();
  } else {
    return nullptr;  // unknown base: stay on the scalar runner
  }
  // Wider table bases would overflow the fixed per-block index scratch; such
  // towers fall back to the scalar runner rather than failing at run time.
  if (cc->base.n > 256) return nullptr;
  cc->base.copies = cc->N / cc->base.n;
  cc->base.bits = cur->state_bits();

  cc->levels.assign(top_down.rbegin(), top_down.rend());

  // The field layout must tile the flat state exactly: base bits, then one
  // (a, d) register pair per level.
  int bits = cc->base.bits;
  for (const ComposedLevel& lv : cc->levels) {
    SC_CHECK(lv.a_offset == bits, "composed state layout mismatch");
    bits += lv.a_bits + 1;
  }
  SC_CHECK(bits == cc->state_bits, "composed state width mismatch");
  return cc;
}

namespace {

// One block of up to 64 lanes advanced in round lockstep. Master state lives
// decomposed: base_[lane*N + node] holds the base field and a_[lvl] / d_[lvl]
// the per-level phase-king registers; BitVec states are materialised only for
// adversaries that read them and for record_states. All scratch is allocated
// once here, so the round loop is allocation-free.
//
// Rounds run in one of two modes, picked once per block from the adversary's
// declared traits:
//
//  * Profiled (the default). Each forging lane calls Adversary::forge_block
//    once per round, yielding a handful of receiver profiles plus a
//    lane-invariant receiver-to-profile map. The round then splits into two
//    passes: pass 1 does the per-lane summary / adversary work and decomposes
//    the forged profiles, an optional cross-lane bit-sliced base transition
//    runs in between (table bases with num_states <= 4 keep a second,
//    bitplane copy of the base field, so one DFS over the compiled table
//    advances all 64 lanes), and pass 2 applies each receiver's profile to
//    the received view and runs the vote / phase-king glue, with votes cached
//    per (level copy, profile) -- copies without faulty senders collapse to
//    one profile-independent entry. Valid whenever hoisting every adversary
//    query before the transitions preserves the lane's rng draw sequence:
//    always for faultless lanes and receiver-oblivious adversaries (the
//    scalar runner hoists those itself), and otherwise when the adversary's
//    message() is draw-free or the tower has no fresh-sampling pulling level.
//  * Interleaved (the remaining case: a receiver-dependent, drawing adversary
//    under a fresh-sampling pulling tower). Forging and transitions alternate
//    per receiver exactly like the scalar loop, and every receiver takes its
//    own votes.
//
// Both modes read boosted votes off the lane-round's correct-sender tallies
// (tally_votes).
class ComposedBlock {
 public:
  ComposedBlock(const BatchConfig& cfg, const ComposedCompiledTable& cc,
                std::span<const std::uint64_t> seeds)
      : cfg_(cfg), cc_(cc), algo_(*cfg.algo), N_(cc.N), L_(cc.levels.size()), W_(seeds.size()) {
    const auto nn = static_cast<std::size_t>(N_);

    std::vector<bool> faulty = cfg.faulty;
    if (faulty.empty()) faulty.assign(nn, false);
    SC_CHECK(faulty.size() == nn, "fault vector size mismatch");
    SC_CHECK(fault_count(faulty) <= algo_.resilience(),
             "more faults than the algorithm's resilience");
    faulty_ids_ = fault_ids(faulty);
    for (int i = 0; i < N_; ++i) {
      if (!faulty[static_cast<std::size_t>(i)]) correct_.push_back(i);
    }
    SC_CHECK(!correct_.empty(), "all nodes faulty");

    margin_ = resolve_margin(cfg.margin, cfg.max_rounds, algo_.modulus());

    // Master fields and scratch.
    base_.assign(nn * W_, 0);
    a_.assign(L_, std::vector<std::uint64_t>(nn * W_, 0));
    d_.assign(L_, std::vector<std::uint8_t>(nn * W_, 0));
    rv_base_.assign(nn, 0);
    rv_a_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    rv_d_.assign(L_, std::vector<std::uint8_t>(nn, 0));
    rp_a_.assign(L_, nullptr);
    rp_d_.assign(L_, nullptr);
    nb_base_.assign(nn, 0);
    nb_a_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    nb_d_.assign(L_, std::vector<std::uint8_t>(nn, 0));
    int max_k = 0;
    int max_m = 0;
    int max_vote_m = 0;
    std::size_t tally_size = 0;
    total_copies_ = 0;
    tally_rows_.resize(L_);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      max_k = std::max(max_k, lv.k);
      max_m = std::max(max_m, lv.sample_size);
      max_vote_m = std::max(max_vote_m, lv.m);
      copy_base_.push_back(total_copies_);
      total_copies_ += static_cast<std::size_t>(lv.copies);
      // Faulty senders inside each copy of this level: the only received
      // fields the copy's votes see that can differ across receivers.
      for (int c = 0; c < lv.copies; ++c) {
        std::vector<NodeId> in_copy;
        for (const NodeId u : faulty_ids_) {
          if (u >= c * lv.n && u < (c + 1) * lv.n) in_copy.push_back(u);
        }
        copy_faulty_.push_back(std::move(in_copy));
      }
      // Every block of a boosted level owns one tally row: m leader-pointer
      // counts, then tau round-counter counts. Copy c's block blk is the
      // level's global block c * k + blk.
      if (lv.kind != ComposedLevel::Kind::kBoosted) continue;
      const auto stride = static_cast<std::size_t>(lv.m + lv.tau);
      tally_rows_[lvl].resize(nn);
      for (int u = 0; u < N_; ++u) {
        const int g = u / lv.n_inner;
        tally_rows_[lvl][static_cast<std::size_t>(u)] = {
            tally_size + static_cast<std::size_t>(g) * stride,
            static_cast<std::uint64_t>(lv.tau) * lv.pow2m[static_cast<std::size_t>(g % lv.k)]};
      }
      tally_size += static_cast<std::size_t>(lv.copies * lv.k) * stride;
    }
    vote_B_.assign(total_copies_, 0);
    vote_R_.assign(total_copies_, 0);
    vote_valid_.assign(total_copies_, 0);
    tally_.assign(tally_size, 0);
    patch_.assign(faulty_ids_.size(), {});
    lead_cnt_.assign(static_cast<std::size_t>(max_vote_m), 0);
    leader_.assign(static_cast<std::size_t>(max_k), 0);
    const auto mm = static_cast<std::size_t>(max_m);
    sample_.assign(static_cast<std::size_t>(max_k) * mm, 0);
    mvals_.assign(mm, 0);
    sampled_a_.assign(mm, 0);
    outs_.assign(correct_.size(), 0);

    // Lane setup mirrors the scalar runner's preamble draw for draw.
    rngs_.reserve(W_);
    advs_.reserve(W_);
    checkers_.reserve(W_);
    lanes_.resize(W_);
    for (std::size_t l = 0; l < W_; ++l) {
      rngs_.emplace_back(seeds[l]);
      advs_.push_back(cfg.adversary());
      SC_CHECK(advs_.back() != nullptr, "batch adversary factory returned null");
      checkers_.emplace_back(algo_.modulus());
      LaneCold& ln = lanes_[l];
      ln.result.correct_ids = correct_;
      ln.states.resize(nn);
      if (!cfg.initial.empty()) {
        SC_CHECK(cfg.initial.size() == nn, "initial state vector size mismatch");
        for (std::size_t i = 0; i < nn; ++i) ln.states[i] = algo_.canonicalize(cfg.initial[i]);
      } else {
        for (auto& s : ln.states) s = counting::arbitrary_state(algo_, rngs_[l]);
      }
      for (int i = 0; i < N_; ++i) {
        decompose(ln.states[static_cast<std::size_t>(i)], l * nn + static_cast<std::size_t>(i),
                  base_, a_, d_);
      }
      active_ |= 1ULL << l;
    }
    faultless_ = faulty_ids_.empty();
    bool tower_draws = false;
    for (const ComposedLevel& lv : cc_.levels) {
      if (lv.kind == ComposedLevel::Kind::kPulling && !lv.fixed_sampling) tower_draws = true;
    }
    const Adversary& probe = *advs_.front();
    state_oblivious_ = probe.state_oblivious();
    passive_rounds_ = probe.begin_round_passive();
    interleaved_ = !faultless_ && !probe.receiver_oblivious() && !probe.message_draw_free() &&
                   tower_draws;
    static_forge_ = !faultless_ && probe.receiver_oblivious() && probe.forgery_static();
    // Transitions draw iff the tower has a fresh-sampling pulling level, so
    // without one the profiled pass may group receivers by profile (one
    // received-view rebuild per profile instead of per receiver) without
    // disturbing any lane's draw sequence.
    reorder_ok_ = !tower_draws;
    bs_base_ = cc_.base.kind == ComposedBase::Kind::kTable && cc_.base.num_states <= 4 &&
               !interleaved_;

    // Profile state starts in the 1-profile shape shared by faultless lanes
    // and receiver-oblivious adversaries; set_profiles regrows on demand.
    prof_node_.assign(nn, 0);
    order_ = correct_;
    frs_.resize(W_);
    resize_profiles(1);
    if (bs_base_) {
      pb_.assign(nn, {});
      npb_.assign(nn, {});
      eqcb_.assign(nn, {});
      eqpb_.assign(static_cast<std::size_t>(cc_.base.n), nullptr);
      bsender_kind_.assign(nn, -1);
      for (std::size_t k = 0; k < faulty_ids_.size(); ++k) {
        bsender_kind_[static_cast<std::size_t>(faulty_ids_[k])] = static_cast<int>(k);
      }
      for (std::size_t l = 0; l < W_; ++l) {
        for (std::size_t i = 0; i < nn; ++i) {
          set_planes(pb_[i], l, static_cast<std::uint8_t>(base_[l * nn + i]));
        }
      }
    }
  }

  void run() {
    const bool recording = cfg_.record_outputs || cfg_.record_states;
    for (std::uint64_t round = 0; round < cfg_.max_rounds && active_ != 0; ++round) {
      const bool will_forge = !faultless_ && !(static_forge_ && static_forged_);
      if (interleaved_) {
        round_interleaved(round, recording);
      } else {
        round_profiled(round, recording, will_forge);
      }
      if (will_forge && static_forge_) static_forged_ = true;
    }

    for (std::size_t l = 0; l < W_; ++l) {
      RunResult& r = lanes_[l].result;
      const StabilisationChecker& ck = checkers_[l];
      r.rounds = ck.rounds();
      r.stabilisation_round = ck.suffix_start();
      r.suffix_length = ck.suffix_length();
      r.max_window = ck.max_window();
      r.stabilised = r.suffix_length >= std::min<std::uint64_t>(margin_, r.rounds);
      if (lanes_[l].pull_samples > 0) {
        r.avg_pulls_per_round = static_cast<double>(lanes_[l].total_pulls) /
                                static_cast<double>(lanes_[l].pull_samples);
      }
    }
  }

  std::vector<RunResult> take_results() {
    std::vector<RunResult> out;
    out.reserve(W_);
    for (auto& ln : lanes_) out.push_back(std::move(ln.result));
    return out;
  }

 private:
  struct LaneCold {
    RunResult result;
    // Materialised BitVec states for adversary queries and recording; faulty
    // entries are fixed for the whole run, correct entries are refreshed
    // from the field representation on demand.
    std::vector<State> states;
    std::uint64_t total_pulls = 0;
    std::uint64_t pull_samples = 0;
  };

  // --- Round summary: outputs + agreement (from the master fields) ----------
  // Returns false if the lane early-exited (stop_after_stable reached).
  bool observe_lane(std::size_t l, bool recording) {
    const std::vector<std::uint64_t>& top_a = a_[L_ - 1];
    const std::size_t lane_off = l * static_cast<std::size_t>(N_);
    bool agreed = true;
    std::uint64_t first = 0;
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      const std::uint64_t a = top_a[lane_off + static_cast<std::size_t>(correct_[j])];
      outs_[j] = a == kInfinity ? 0 : a;
      if (j == 0) {
        first = outs_[0];
      } else if (outs_[j] != first) {
        agreed = false;
      }
    }
    checkers_[l].observe_summary(agreed, first);
    if (recording) record_lane(l);
    if (cfg_.stop_after_stable > 0 && checkers_[l].suffix_length() >= cfg_.stop_after_stable) {
      active_ &= ~(1ULL << l);
      return false;
    }
    return true;
  }

  // --- Profiled rounds ------------------------------------------------------

  void round_profiled(std::uint64_t round, bool recording, bool will_forge) {
    // Pass 1: per-lane summary + adversary work. Lane-internal call order
    // matches the scalar runner exactly (forge_block runs begin_round before
    // its message queries).
    bool profiles_set = false;
    [[maybe_unused]] std::size_t first_lane = 0;
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      if (!observe_lane(l, recording)) continue;
      if (will_forge) {
        if (!state_oblivious_) refresh_states(l);
        ForgedRound& fr = frs_[l];
        advs_[l]->forge_block(round, lanes_[l].states, algo_, faulty_ids_, correct_, rngs_[l],
                              fr);
        if (!profiles_set) {
          set_profiles(fr);
          profiles_set = true;
          first_lane = l;
        } else {
          // The profile geometry must be a pure function of (round, faults,
          // n) -- lane-invariant by the forge_block contract.
          SC_ASSERT(fr.num_profiles == nprof_);
          SC_ASSERT(fr.profile_of == frs_[first_lane].profile_of);
        }
        decompose_lane_profiles(l);
      } else if (!passive_rounds_) {
        if (!state_oblivious_) refresh_states(l);
        advs_[l]->begin_round(round, lanes_[l].states, algo_, faulty_ids_, rngs_[l]);
      }
    }
    if (active_ == 0) return;

    // Cross-lane base transition: one DFS over the compiled base table per
    // correct node advances every lane's base field at once.
    if (bs_base_) base_transition_bit_sliced();

    // Pass 2: received views, votes, phase-king glue, commit.
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      load_received(l);
      tally_correct_senders();
      std::fill(vote_valid_.begin(), vote_valid_.end(), 0);
      if (faultless_) {
        for (const NodeId v : correct_) transition_node(l, v, 0, /*cached=*/true);
      } else {
        int cur = -1;
        for (const NodeId v : order_) {
          const int pv = nprof_ == 1 ? 0 : prof_node_[static_cast<std::size_t>(v)];
          if (pv != cur) {
            apply_profile(l, pv);
            cur = pv;
          }
          transition_node(l, v, pv, /*cached=*/true);
        }
      }
      commit(l);
    }
    if (bs_base_) commit_planes();
  }

  // --- Interleaved rounds (receiver-dependent drawing adversary over a
  // fresh-sampling pulling tower) ---------------------------------------------

  void round_interleaved(std::uint64_t round, bool recording) {
    for (std::uint64_t msk = active_; msk; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      if (!observe_lane(l, recording)) continue;
      if (!state_oblivious_) refresh_states(l);
      if (!passive_rounds_) {
        advs_[l]->begin_round(round, lanes_[l].states, algo_, faulty_ids_, rngs_[l]);
      }
      load_received(l);
      tally_correct_senders();
      for (const NodeId v : correct_) {
        for (std::size_t k = 0; k < faulty_ids_.size(); ++k) {
          forge_into(l, round, faulty_ids_[k], v, static_cast<std::size_t>(faulty_ids_[k]),
                     rv_base_, rv_a_, rv_d_);
        }
        transition_node(l, v, 0, /*cached=*/false);
      }
      commit(l);
    }
  }

  // --- Field <-> BitVec -----------------------------------------------------

  // Writes the decomposed fields of (canonical or raw) state `s` into slot
  // `idx` of the given field arrays. Decomposing a raw pattern directly
  // equals decomposing canonicalize(s): the base index reduces modulo the
  // state count and the a register decodes by clamping, exactly as the
  // scalar construction's canonicalize does.
  void decompose(const State& s, std::size_t idx, std::vector<std::uint64_t>& base,
                 std::vector<std::vector<std::uint64_t>>& a,
                 std::vector<std::vector<std::uint8_t>>& d) const {
    base[idx] = s.get_bits(0, cc_.base.bits) % cc_.base.num_states;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      a[lvl][idx] = phaseking::decode_a(s.get_bits(lv.a_offset, lv.a_bits), lv.C);
      d[lvl][idx] = s.get_bit(lv.a_offset + lv.a_bits) ? 1 : 0;
    }
  }

  State encode(std::size_t lane, NodeId node) const {
    const std::size_t idx = lane * static_cast<std::size_t>(N_) + static_cast<std::size_t>(node);
    State s;
    s.set_bits(0, cc_.base.bits, base_[idx]);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      s.set_bits(lv.a_offset, lv.a_bits, phaseking::encode_a(a_[lvl][idx], lv.C));
      s.set_bit(lv.a_offset + lv.a_bits, d_[lvl][idx] != 0);
    }
    return s;
  }

  void refresh_states(std::size_t lane) {
    LaneCold& ln = lanes_[lane];
    for (const NodeId i : correct_) ln.states[static_cast<std::size_t>(i)] = encode(lane, i);
  }

  void record_lane(std::size_t lane) {
    LaneCold& ln = lanes_[lane];
    if (cfg_.record_outputs) {
      ln.result.outputs.emplace_back(outs_.begin(), outs_.end());
    }
    if (cfg_.record_states) {
      refresh_states(lane);
      ln.result.states.push_back(ln.states);
    }
  }

  // --- Forged profiles ------------------------------------------------------

  // Grows the per-(profile, faulty sender) storage to `nprof` profiles. The
  // profile slot stride is S_ = nprof * |faulty|; per-lane decomposed fields
  // live at [lane * S_ + slot] so one lane's profiles stay contiguous.
  void resize_profiles(int nprof) {
    nprof_ = nprof;
    S_ = static_cast<std::size_t>(nprof_) * faulty_ids_.size();
    pf_base_.assign(S_ * W_, 0);
    pf_a_.assign(L_, std::vector<std::uint64_t>(S_ * W_, 0));
    pf_d_.assign(L_, std::vector<std::uint8_t>(S_ * W_, 0));
    vote_B_.assign(total_copies_ * static_cast<std::size_t>(nprof_), 0);
    vote_R_.assign(total_copies_ * static_cast<std::size_t>(nprof_), 0);
    vote_valid_.assign(total_copies_ * static_cast<std::size_t>(nprof_), 0);
    if (bs_base_) {
      fpb_.assign(S_, {});
      eqfb_.assign(S_, {});
    }
  }

  // Establishes this round's profile geometry from the first forging lane:
  // the profile count, the receiver-to-profile map, and (when reordering is
  // draw-safe) the profile-grouped receiver order.
  void set_profiles(const ForgedRound& fr) {
    SC_REQUIRE(fr.num_profiles >= 1, "forge_block produced no profiles");
    if (fr.num_profiles != nprof_) resize_profiles(fr.num_profiles);
    if (fr.profile_of.empty()) {
      std::fill(prof_node_.begin(), prof_node_.end(), std::uint16_t{0});
    } else {
      SC_REQUIRE(fr.profile_of.size() == prof_node_.size(),
                 "forge_block profile map has wrong size");
      std::copy(fr.profile_of.begin(), fr.profile_of.end(), prof_node_.begin());
    }
    if (reorder_ok_ && nprof_ > 1) {
      // Counting sort of the correct receivers by profile: transitions are
      // draw-free here, so grouping rebuilds the received view once per
      // profile without changing any per-node result.
      count_scratch_.assign(static_cast<std::size_t>(nprof_) + 1, 0);
      for (const NodeId v : correct_) {
        const std::uint16_t p = prof_node_[static_cast<std::size_t>(v)];
        SC_ASSERT(p < nprof_);
        ++count_scratch_[static_cast<std::size_t>(p) + 1];
      }
      for (std::size_t p = 1; p < count_scratch_.size(); ++p) {
        count_scratch_[p] += count_scratch_[p - 1];
      }
      for (const NodeId v : correct_) {
        order_[count_scratch_[prof_node_[static_cast<std::size_t>(v)]]++] = v;
      }
    } else {
      std::copy(correct_.begin(), correct_.end(), order_.begin());
    }
  }

  // Decomposes lane `lane`'s forged states into its profile field slots and,
  // on the bit-sliced base path, scatters the base indices into the forged
  // bitplanes. Persists across rounds, so static forgers pay this once.
  void decompose_lane_profiles(std::size_t lane) {
    const ForgedRound& fr = frs_[lane];
    SC_ASSERT(fr.states.size() == S_);
    for (std::size_t s = 0; s < S_; ++s) {
      const std::size_t idx = lane * S_ + s;
      decompose(fr.states[s], idx, pf_base_, pf_a_, pf_d_);
      if (bs_base_) {
        set_planes(fpb_[s], lane, static_cast<std::uint8_t>(pf_base_[idx]));
      }
    }
  }

  // Overwrites the received view's faulty entries with profile `pv`'s fields.
  void apply_profile(std::size_t lane, int pv) {
    const std::size_t off = lane * S_ + static_cast<std::size_t>(pv) * faulty_ids_.size();
    for (std::size_t k = 0; k < faulty_ids_.size(); ++k) {
      const auto dst = static_cast<std::size_t>(faulty_ids_[k]);
      rv_base_[dst] = pf_base_[off + k];
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        rv_a_[lvl][dst] = pf_a_[lvl][off + k];
        rv_d_[lvl][dst] = pf_d_[lvl][off + k];
      }
    }
  }

  // --- Adversary messages (interleaved mode) --------------------------------

  // Queries the adversary for (sender -> receiver) and decomposes the raw
  // answer into slot `idx` of the target field arrays.
  void forge_into(std::size_t lane, std::uint64_t round, NodeId sender, NodeId receiver,
                  std::size_t idx, std::vector<std::uint64_t>& base,
                  std::vector<std::vector<std::uint64_t>>& a,
                  std::vector<std::vector<std::uint8_t>>& d) {
    const State raw = advs_[lane]->message(round, sender, receiver, lanes_[lane].states,
                                           algo_, rngs_[lane]);
    decompose(raw, idx, base, a, d);
  }

  // Builds the received view of this lane: the master fields copied into the
  // rv buffers, with the faulty entries overwritten afterwards (apply_profile
  // in profiled mode, per-receiver forge_into in interleaved mode).
  // Fault-free lanes deliver the round-start states verbatim, so the read
  // pointers alias the master slice directly -- no copy, exactly like the
  // scalar runner's faultless shortcut (the transitions write only to the
  // nb_ buffers, so there is no aliasing hazard).
  void load_received(std::size_t lane) {
    const auto nn = static_cast<std::size_t>(N_);
    const std::size_t off = lane * nn;
    if (faultless_) {
      rp_base_ = base_.data() + off;
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        rp_a_[lvl] = a_[lvl].data() + off;
        rp_d_[lvl] = d_[lvl].data() + off;
      }
      return;
    }
    std::copy_n(base_.begin() + static_cast<std::ptrdiff_t>(off), nn, rv_base_.begin());
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      std::copy_n(a_[lvl].begin() + static_cast<std::ptrdiff_t>(off), nn, rv_a_[lvl].begin());
      std::copy_n(d_[lvl].begin() + static_cast<std::ptrdiff_t>(off), nn, rv_d_[lvl].begin());
    }
    rp_base_ = rv_base_.data();
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      rp_a_[lvl] = rv_a_[lvl].data();
      rp_d_[lvl] = rv_d_[lvl].data();
    }
  }

  // --- Bit-sliced base ------------------------------------------------------

  // Scatter a 2-bit state index into the lane's slot of a bitplane pair.
  static void set_planes(std::array<std::uint64_t, 2>& p, std::size_t lane,
                         std::uint8_t v) noexcept {
    p[0] = (p[0] & ~(1ULL << lane)) | (static_cast<std::uint64_t>(v & 1) << lane);
    p[1] = (p[1] & ~(1ULL << lane)) | (static_cast<std::uint64_t>((v >> 1) & 1) << lane);
  }

  // eq[c] = mask of lanes whose 2-bit plane value equals c.
  static std::array<std::uint64_t, 4> eq_masks(const std::array<std::uint64_t, 2>& p) noexcept {
    return {~p[0] & ~p[1], p[0] & ~p[1], ~p[0] & p[1], p[0] & p[1]};
  }

  // Advances every active lane's base field in one cross-lane pass: equality
  // bitplanes per sender (master planes for correct senders, forged planes
  // per (profile, sender) otherwise), then per correct node a depth-first
  // enumeration of the live part of its base copy's index space -- a branch
  // dies as soon as no active lane matches its value prefix, so after
  // stabilisation a pass costs O(base.n) words per node.
  void base_transition_bit_sliced() {
    const counting::CompiledTable& t = *cc_.base.table;
    const int n0 = cc_.base.n;
    const std::uint64_t ns = cc_.base.num_states;
    const std::size_t nf = faulty_ids_.size();
    for (std::size_t u = 0; u < static_cast<std::size_t>(N_); ++u) {
      eqcb_[u] = eq_masks(pb_[u]);
    }
    for (std::size_t s = 0; s < S_; ++s) eqfb_[s] = eq_masks(fpb_[s]);
    for (const NodeId v : correct_) {
      const int v_local = v % n0;
      const int first = (v / n0) * n0;
      const std::uint64_t* st = t.stride.data() + static_cast<std::size_t>(v_local) * n0;
      const std::size_t pbase =
          (nprof_ == 1 ? 0 : static_cast<std::size_t>(prof_node_[static_cast<std::size_t>(v)])) *
          nf;
      for (int s = 0; s < n0; ++s) {
        const int k = bsender_kind_[static_cast<std::size_t>(first + s)];
        eqpb_[static_cast<std::size_t>(s)] =
            k < 0 ? &eqcb_[static_cast<std::size_t>(first + s)]
                  : &eqfb_[pbase + static_cast<std::size_t>(k)];
      }
      std::uint64_t np0 = 0;
      std::uint64_t np1 = 0;
      const auto dfs = [&](auto&& self, int s, std::uint64_t mask, std::uint64_t off) -> void {
        if (s == n0) {
          const std::uint8_t nx = t.g[off];
          if (nx & 1) np0 |= mask;
          if (nx & 2) np1 |= mask;
          return;
        }
        const auto& e = *eqpb_[static_cast<std::size_t>(s)];
        for (std::uint64_t c = 0; c < ns; ++c) {
          const std::uint64_t sub = mask & e[c];
          if (sub != 0) self(self, s + 1, sub, off + st[s] * c);
        }
      };
      dfs(dfs, 0, active_, t.node_base[static_cast<std::size_t>(v_local)]);
      npb_[static_cast<std::size_t>(v)] = {np0, np1};
    }
  }

  void commit_planes() {
    for (const NodeId v : correct_) {
      const auto vv = static_cast<std::size_t>(v);
      pb_[vv][0] = (pb_[vv][0] & ~active_) | (npb_[vv][0] & active_);
      pb_[vv][1] = (pb_[vv][1] & ~active_) | (npb_[vv][1] & active_);
    }
  }

  // --- Level kernels --------------------------------------------------------

  // Output of the inner algorithm of level `lvl` at global node u, read from
  // the received view (exactly what block_view / the vote sampling read).
  std::uint64_t inner_out(std::size_t lvl, NodeId u) const {
    if (lvl == 0) {
      if (cc_.base.kind == ComposedBase::Kind::kTrivial) {
        return rp_base_[static_cast<std::size_t>(u)];
      }
      return cc_.base.table->out(u % cc_.base.n,
                                 static_cast<std::uint8_t>(rp_base_[static_cast<std::size_t>(u)]));
    }
    const std::uint64_t a = rp_a_[lvl - 1][static_cast<std::size_t>(u)];
    return a == kInfinity ? 0 : a;
  }

  // Tally indices of sender u's leader pointer b and round counter r at
  // boosted level `lvl` (block_view on the received view). block_view first
  // reduces the output modulo tau * (2m)^(blk+1); tau and m both divide that
  // modulus, so r = o mod tau and b = floor(o / (tau * (2m)^blk)) mod m.
  std::pair<std::size_t, std::size_t> tally_pos(std::size_t lvl, NodeId u) const {
    const ComposedLevel& lv = cc_.levels[lvl];
    const TallyRow& t = tally_rows_[lvl][static_cast<std::size_t>(u)];
    const auto m = static_cast<std::size_t>(lv.m);
    const std::uint64_t o = inner_out(lvl, u);
    return {t.row + o / t.div % m, t.row + m + o % static_cast<std::uint64_t>(lv.tau)};
  }

  // Per-block (b, r) counts of every boosted level copy over its correct
  // senders. Correct senders read the master fields in every view, so one
  // build right after load_received serves every receiver of the lane-round.
  void tally_correct_senders() {
    std::fill(tally_.begin(), tally_.end(), 0);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      if (cc_.levels[lvl].kind != ComposedLevel::Kind::kBoosted) continue;
      for (const NodeId u : correct_) {
        const auto [ib, ir] = tally_pos(lvl, u);
        ++tally_[ib];
        ++tally_[ir];
      }
    }
  }

  // The value in [0, bound) counted more than `threshold` times, or 0: the
  // strict majority of the counted values.
  static std::uint64_t counted_majority(const std::uint32_t* counts, std::uint64_t bound,
                                        std::size_t threshold) {
    for (std::uint64_t v = 0; v < bound; ++v) {
      if (counts[v] > threshold) return v;
    }
    return 0;
  }

  // Majority votes of one copy of a boosted level (paper step 3), equal to
  // BoostedCounter::votes on the received view: the copy's faulty senders as
  // this view sees them are added to its correct-sender tallies, the
  // majorities are read off the counts, and the faulty senders are taken out
  // again. Every majority is strict (more than half of the values), so at
  // most one value can pass and the counting order does not matter. `first`
  // is the copy's first node; its tally row is the copy's block 0.
  void tally_votes(std::size_t lvl, NodeId first, std::size_t slot, std::uint64_t& B,
                   std::uint64_t& R) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const std::vector<NodeId>& in_copy = copy_faulty_[slot];
    for (std::size_t i = 0; i < in_copy.size(); ++i) {
      patch_[i] = tally_pos(lvl, in_copy[i]);
      ++tally_[patch_[i].first];
      ++tally_[patch_[i].second];
    }
    const auto m = static_cast<std::uint64_t>(lv.m);
    const auto tau = static_cast<std::uint64_t>(lv.tau);
    const auto half = static_cast<std::size_t>(lv.n_inner) / 2;
    const std::uint32_t* rows =
        tally_.data() + tally_rows_[lvl][static_cast<std::size_t>(first)].row;
    for (int blk = 0; blk < lv.k; ++blk) {
      ++lead_cnt_[counted_majority(rows + static_cast<std::size_t>(blk) * (m + tau), m, half)];
    }
    B = counted_majority(lead_cnt_.data(), m, static_cast<std::size_t>(lv.k) / 2);
    std::fill_n(lead_cnt_.begin(), m, 0);
    R = counted_majority(rows + B * (m + tau) + m, tau, half);
    for (std::size_t i = 0; i < in_copy.size(); ++i) {
      --tally_[patch_[i].first];
      --tally_[patch_[i].second];
    }
  }

  // Profiled-mode vote lookup: direct-indexed per (level copy, profile).
  // Copies without faulty senders read the same fields under every profile,
  // so they collapse onto the profile-0 entry.
  void boosted_votes_profiled(std::size_t lvl, NodeId first, std::size_t slot, int pv,
                              std::uint64_t& B, std::uint64_t& R) {
    const int p_eff = copy_faulty_[slot].empty() ? 0 : pv;
    const std::size_t cidx =
        slot * static_cast<std::size_t>(nprof_) + static_cast<std::size_t>(p_eff);
    if (vote_valid_[cidx]) {
      B = vote_B_[cidx];
      R = vote_R_[cidx];
      return;
    }
    tally_votes(lvl, first, slot, B, R);
    vote_B_[cidx] = B;
    vote_R_[cidx] = R;
    vote_valid_[cidx] = 1;
  }

  // `cached`: look the votes up in the per-(copy, profile) cache (profiled
  // mode) instead of taking them for this receiver alone (interleaved mode).
  void boosted_step(std::size_t lvl, NodeId v, int pv, bool cached) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const int copy = v / lv.n;
    const int v_local = v % lv.n;
    const int first = copy * lv.n;
    const std::size_t slot = copy_base_[lvl] + static_cast<std::size_t>(copy);
    std::uint64_t B;
    std::uint64_t R;
    if (cached) {
      boosted_votes_profiled(lvl, first, slot, pv, B, R);
    } else {
      tally_votes(lvl, first, slot, B, R);
    }
    const std::span<const std::uint64_t> received_a(rp_a_[lvl] + first,
                                                    static_cast<std::size_t>(lv.n));
    const phaseking::Registers own{rp_a_[lvl][static_cast<std::size_t>(v)],
                                   rp_d_[lvl][static_cast<std::size_t>(v)] != 0};
    const phaseking::Registers next =
        phaseking::step(lv.pk, static_cast<int>(R), v_local, own, received_a);
    nb_a_[lvl][static_cast<std::size_t>(v)] = next.a;
    nb_d_[lvl][static_cast<std::size_t>(v)] = next.d ? 1 : 0;
  }

  // Sampled votes + sampled phase king of one pulling level (Section 5),
  // mirroring PullingBoostedCounter::transition field for field and draw for
  // draw (block samples in block order, then the network sample).
  void pulling_step(std::size_t lane, std::size_t lvl, NodeId v, std::uint64_t& pulled) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const int copy = v / lv.n;
    const int v_local = v % lv.n;
    const int first = copy * lv.n;
    const auto M = static_cast<std::size_t>(lv.sample_size);
    const auto tau = static_cast<std::uint64_t>(lv.tau);
    const auto m = static_cast<std::uint64_t>(lv.m);

    util::Rng fixed_rng(util::hash_combine(lv.sampling_seed, static_cast<std::uint64_t>(v_local)));
    util::Rng& rng = lv.fixed_sampling ? fixed_rng : rngs_[lane];

    pulled += static_cast<std::uint64_t>(lv.n_inner);  // the own-block pull (step 1)

    for (int blk = 0; blk < lv.k; ++blk) {
      std::uint32_t* sample = sample_.data() + static_cast<std::size_t>(blk) * M;
      for (std::size_t t = 0; t < M; ++t) {
        sample[t] =
            static_cast<std::uint32_t>(rng.next_below(static_cast<std::uint64_t>(lv.n_inner)));
      }
      pulled += M;
      const std::uint64_t cblk = tau * lv.pow2m[static_cast<std::size_t>(blk) + 1];
      for (std::size_t t = 0; t < M; ++t) {
        const int u = first + blk * lv.n_inner + static_cast<int>(sample[t]);
        const std::uint64_t out = inner_out(lvl, u) % cblk;
        const std::uint64_t y = out / tau;
        mvals_[t] = (y / lv.pow2m[static_cast<std::size_t>(blk)]) % m;
      }
      leader_[static_cast<std::size_t>(blk)] = pulling::sampled_majority(
          std::span<const std::uint64_t>(mvals_.data(), M), m, scratch_);
    }
    const std::uint64_t B = pulling::sampled_majority(
        std::span<const std::uint64_t>(leader_.data(), static_cast<std::size_t>(lv.k)), m,
        scratch_);

    // R: reuse block B's samples, reading the r component this time.
    {
      const std::uint32_t* sample = sample_.data() + static_cast<std::size_t>(B) * M;
      const std::uint64_t cblk = tau * lv.pow2m[static_cast<std::size_t>(B) + 1];
      for (std::size_t t = 0; t < M; ++t) {
        const int u = first + static_cast<int>(B) * lv.n_inner + static_cast<int>(sample[t]);
        mvals_[t] = inner_out(lvl, u) % cblk % tau;
      }
    }
    const std::uint64_t R = pulling::sampled_majority(
        std::span<const std::uint64_t>(mvals_.data(), M), tau, scratch_);

    for (std::size_t t = 0; t < M; ++t) {
      const auto u = rng.next_below(static_cast<std::uint64_t>(lv.n));
      sampled_a_[t] = rp_a_[lvl][static_cast<std::size_t>(first) + u];
    }
    pulled += M;
    const int king = static_cast<int>(R) / 3;
    const std::uint64_t king_a = rp_a_[lvl][static_cast<std::size_t>(first + king)];
    pulled += 1;

    const phaseking::Registers own{rp_a_[lvl][static_cast<std::size_t>(v)],
                                   rp_d_[lvl][static_cast<std::size_t>(v)] != 0};
    const phaseking::Registers next = phaseking::step_sampled(
        lv.pk, static_cast<int>(R), own,
        std::span<const std::uint64_t>(sampled_a_.data(), M), king_a);
    nb_a_[lvl][static_cast<std::size_t>(v)] = next.a;
    nb_d_[lvl][static_cast<std::size_t>(v)] = next.d ? 1 : 0;
  }

  void transition_node(std::size_t lane, NodeId v, int pv, bool cached) {
    // Base kernel (step 1 of the construction, recursed to the bottom). On
    // the bit-sliced path the cross-lane pass already produced every lane's
    // next base index; extract this lane's bit pair.
    const auto vv = static_cast<std::size_t>(v);
    if (bs_base_) {
      nb_base_[vv] = ((npb_[vv][0] >> lane) & 1) | (((npb_[vv][1] >> lane) & 1) << 1);
    } else if (cc_.base.kind == ComposedBase::Kind::kTrivial) {
      nb_base_[vv] = (rp_base_[vv] + 1) % cc_.base.num_states;
    } else {
      const int n0 = cc_.base.n;
      const int first = (v / n0) * n0;
      for (int s = 0; s < n0; ++s) {
        base_idx_[static_cast<std::size_t>(s)] =
            static_cast<std::uint8_t>(rp_base_[static_cast<std::size_t>(first + s)]);
      }
      nb_base_[vv] = cc_.base.table->next(v % n0, base_idx_.data());
    }
    // Boosting levels bottom-up: the level order matches the scalar call
    // chain (each wrapper runs its inner transition before its own votes and
    // phase-king step), which keeps the pulling levels' Rng draws in order.
    std::uint64_t pulled = 0;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      if (cc_.levels[lvl].kind == ComposedLevel::Kind::kBoosted) {
        boosted_step(lvl, v, pv, cached);
      } else {
        pulling_step(lane, lvl, v, pulled);
      }
    }
    LaneCold& ln = lanes_[lane];
    ln.total_pulls += pulled;
    ++ln.pull_samples;
    ln.result.max_pulls_per_round = std::max(ln.result.max_pulls_per_round, pulled);
  }

  void commit(std::size_t lane) {
    const std::size_t off = lane * static_cast<std::size_t>(N_);
    for (const NodeId v : correct_) {
      const auto vv = static_cast<std::size_t>(v);
      base_[off + vv] = nb_base_[vv];
      for (std::size_t lvl = 0; lvl < L_; ++lvl) {
        a_[lvl][off + vv] = nb_a_[lvl][vv];
        d_[lvl][off + vv] = nb_d_[lvl][vv];
      }
    }
  }

  const BatchConfig& cfg_;
  const ComposedCompiledTable& cc_;
  const counting::CountingAlgorithm& algo_;
  const int N_;
  const std::size_t L_;  // number of boosting levels
  const std::size_t W_;

  std::vector<NodeId> correct_;
  std::vector<NodeId> faulty_ids_;
  bool faultless_ = true;
  bool state_oblivious_ = false;
  bool passive_rounds_ = false;
  bool interleaved_ = false;
  bool reorder_ok_ = false;
  bool bs_base_ = false;
  bool static_forge_ = false;
  bool static_forged_ = false;
  std::uint64_t margin_ = 0;
  std::uint64_t active_ = 0;  // bitmask of lanes still running

  // Hot per-lane state, parallel arrays indexed by lane.
  std::vector<util::Rng> rngs_;
  std::vector<std::unique_ptr<Adversary>> advs_;
  std::vector<StabilisationChecker> checkers_;
  std::vector<LaneCold> lanes_;

  // Master field representation, [lane * N + node].
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<std::uint64_t>> a_;  // [level][lane * N + node]
  std::vector<std::vector<std::uint8_t>> d_;

  // Received view of the lane/receiver currently being advanced, [node]:
  // reads go through the rp_ pointers, which alias the master slice on
  // fault-free runs and the rv_ copy-with-forgeries buffers otherwise.
  std::vector<std::uint64_t> rv_base_;
  std::vector<std::vector<std::uint64_t>> rv_a_;
  std::vector<std::vector<std::uint8_t>> rv_d_;
  const std::uint64_t* rp_base_ = nullptr;
  std::vector<const std::uint64_t*> rp_a_;
  std::vector<const std::uint8_t*> rp_d_;

  // Next-state fields of the lane currently being advanced, [node].
  std::vector<std::uint64_t> nb_base_;
  std::vector<std::vector<std::uint64_t>> nb_a_;
  std::vector<std::vector<std::uint8_t>> nb_d_;

  // Forged profiles (profiled mode). frs_ is each lane's ForgedRound storage
  // (reused across rounds); pf_* are the decomposed per-lane profile fields,
  // [lane * S_ + profile * |faulty| + k]; prof_node_ maps receivers to
  // profiles and order_ is the (possibly profile-grouped) receiver order.
  int nprof_ = 1;
  std::size_t S_ = 0;  // profile slot stride: nprof_ * |faulty|
  std::vector<ForgedRound> frs_;
  std::vector<std::uint64_t> pf_base_;
  std::vector<std::vector<std::uint64_t>> pf_a_;
  std::vector<std::vector<std::uint8_t>> pf_d_;
  std::vector<std::uint16_t> prof_node_;
  std::vector<NodeId> order_;
  std::vector<std::size_t> count_scratch_;

  // Per-(level copy, profile) vote cache, valid within one profiled lane
  // round; [slot * nprof_ + p_eff].
  std::size_t total_copies_ = 0;
  std::vector<std::size_t> copy_base_;  // [level] -> first slot of its copies
  std::vector<std::uint64_t> vote_B_, vote_R_;
  std::vector<std::uint8_t> vote_valid_;

  // Correct-sender vote tallies of the lane-round, one row per block of a
  // boosted level: m leader-pointer counts, then tau round-counter counts.
  // tally_rows_[level][u] is sender u's block row and the divisor
  // tau * (2m)^blk of its leader pointer. patch_ holds the tally indices of
  // the faulty senders a vote adds, so it can take them out again.
  struct TallyRow {
    std::size_t row = 0;
    std::uint64_t div = 1;
  };
  std::vector<std::vector<NodeId>> copy_faulty_;  // [slot] -> faulty ids in the copy
  std::vector<std::vector<TallyRow>> tally_rows_;
  std::vector<std::uint32_t> tally_;
  std::vector<std::pair<std::size_t, std::size_t>> patch_;
  std::vector<std::uint32_t> lead_cnt_;  // block-leader counts for B, all zero between votes

  // Bit-sliced base planes (bs_base_ only): pb_ mirrors base_ as per-node
  // {bit0, bit1} lane bitplanes (committed in lockstep with the master),
  // npb_ the next-round planes, fpb_ the forged planes per profile slot, and
  // eqcb_/eqfb_/eqpb_ the per-round equality planes and per-sender view.
  std::vector<std::array<std::uint64_t, 2>> pb_, npb_, fpb_;
  std::vector<std::array<std::uint64_t, 4>> eqcb_, eqfb_;
  std::vector<const std::array<std::uint64_t, 4>*> eqpb_;
  std::vector<int> bsender_kind_;  // [node] -> -1 correct, else faulty index k

  // Vote / sampling scratch.
  std::vector<std::uint64_t> leader_, mvals_, sampled_a_, outs_;
  std::vector<std::uint32_t> sample_;
  std::vector<std::uint32_t> scratch_;
  std::array<std::uint8_t, 256> base_idx_{};
};

}  // namespace

std::vector<RunResult> run_composed_batch(const BatchConfig& cfg,
                                          const ComposedCompiledTable& cc) {
  SC_CHECK(cfg.kernel == BatchKernel::kAuto,
           "composed (boosted/pulling) algorithms run a single fixed kernel; "
           "BatchConfig::kernel must be kAuto");
  std::vector<RunResult> results;
  results.reserve(cfg.seeds.size());
  for (std::size_t start = 0; start < cfg.seeds.size(); start += kLanesPerWord) {
    const std::size_t count = std::min(kLanesPerWord, cfg.seeds.size() - start);
    ComposedBlock block(cfg, cc,
                        std::span<const std::uint64_t>(cfg.seeds).subspan(start, count));
    block.run();
    auto part = block.take_results();
    for (auto& r : part) results.push_back(std::move(r));
  }
  return results;
}

}  // namespace synccount::sim
