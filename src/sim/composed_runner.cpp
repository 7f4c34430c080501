#include "sim/composed_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>
#include <utility>

#include "boosting/boosted_counter.hpp"
#include "counting/trivial.hpp"
#include "phaseking/phase_king.hpp"
#include "pulling/pulling_counter.hpp"
#include "sim/lanes.hpp"
#include "util/check.hpp"

namespace synccount::sim {

namespace {

using counting::NodeId;
using phaseking::kInfinity;

// Level `lv` as the composed backend stores it; `N` is the tower's node count.
ComposedLevel make_level(const boosting::BoostingLevel& lv, int N) {
  ComposedLevel out;
  out.n = lv.num_nodes();
  out.copies = N / out.n;
  out.n_inner = lv.block_size();
  out.k = lv.k();
  out.m = lv.m();
  out.tau = lv.tau();
  out.C = lv.modulus();
  out.pow2m.assign(lv.pow2m().begin(), lv.pow2m().end());
  out.pk = lv.phase_king();
  out.a_offset = lv.a_offset();
  out.a_bits = lv.a_bits();
  if (const auto* p = dynamic_cast<const pulling::PullingBoostedCounter*>(&lv)) {
    out.kind = ComposedLevel::Kind::kPulling;
    out.sample_size = p->sample_size();
    out.fixed_sampling = p->mode() == pulling::SamplingMode::kFixed;
    out.sampling_seed = p->sampling_seed();
  }
  return out;
}

// The tower walk behind ComposedCompiledTable::compile and TowerOracle::make.
// Borrows `algo`: the result's base table and level parameters stay valid
// only while it lives (compile adds the keep-alive).
std::optional<ComposedCompiledTable> compile_tower(const counting::CountingAlgorithm& algo) {
  ComposedCompiledTable cc;
  cc.N = algo.num_nodes();
  cc.state_bits = algo.state_bits();
  cc.modulus = algo.modulus();

  // Walk the tower top-down, collecting one ComposedLevel per level.
  std::vector<ComposedLevel> top_down;
  const counting::CountingAlgorithm* cur = &algo;
  while (const auto* lv = dynamic_cast<const boosting::BoostingLevel*>(cur)) {
    top_down.push_back(make_level(*lv, cc.N));
    cur = &lv->inner();
  }
  if (top_down.empty()) return std::nullopt;  // flat algorithms go to the table path

  if (const auto* t = dynamic_cast<const counting::TrivialCounter*>(cur)) {
    cc.base.kind = ComposedBase::Kind::kTrivial;
    cc.base.n = 1;
    cc.base.num_states = t->modulus();
  } else if (const auto* t2 = dynamic_cast<const counting::TableAlgorithm*>(cur)) {
    cc.base.kind = ComposedBase::Kind::kTable;
    cc.base.n = t2->num_nodes();
    cc.base.num_states = t2->table().num_states;
    cc.base.table = &t2->compiled();
  } else {
    return std::nullopt;  // unknown base: stay on the scalar runner
  }
  // Wider table bases would overflow the fixed per-block index scratch; such
  // towers fall back to the scalar runner rather than failing at run time.
  if (cc.base.n > 256) return std::nullopt;
  cc.base.copies = cc.N / cc.base.n;
  cc.base.bits = cur->state_bits();

  cc.levels.assign(top_down.rbegin(), top_down.rend());

  // The field layout must tile the flat state exactly: base bits, then one
  // (a, d) register pair per level.
  int bits = cc.base.bits;
  for (const ComposedLevel& lv : cc.levels) {
    SC_CHECK(lv.a_offset == bits, "composed state layout mismatch");
    bits += lv.a_bits + 1;
  }
  SC_CHECK(bits == cc.state_bits, "composed state width mismatch");
  return cc;
}

// --- Field decode, shared by ComposedBlock and TowerOracle. It runs in the
// composed kernel's per-decode loops, so it is declared inline.

// Base state index of (canonical or raw) state `s`. Decoding a raw pattern
// directly equals decoding canonicalize(s): the base index reduces modulo the
// state count and the a register decodes by clamping (decode_a), exactly as
// the scalar construction's canonicalize does.
inline std::uint64_t decode_base(const ComposedBase& b, const State& s) {
  return s.get_bits(0, b.bits) % b.num_states;
}

// Level `lv`'s a register of (canonical or raw) state `s`.
inline std::uint64_t decode_a(const ComposedLevel& lv, const State& s) {
  return phaseking::decode_a(s.get_bits(lv.a_offset, lv.a_bits), lv.C);
}

// Output of a boosted or pulling level whose a register holds `a`.
inline std::uint64_t register_output(std::uint64_t a) { return a == kInfinity ? 0 : a; }

// Output of the base algorithm at global node u in base state index `idx`.
inline std::uint64_t base_output(const ComposedBase& b, NodeId u, std::uint64_t idx) {
  if (b.kind == ComposedBase::Kind::kTrivial) return idx;
  return b.table->out(u % b.n, static_cast<std::uint8_t>(idx));
}

// Output of the inner algorithm of level `lvl` at global node u in
// (canonical or raw) state `s`: what block_view and the vote sampling read.
inline std::uint64_t inner_output(const ComposedCompiledTable& cc, std::size_t lvl, NodeId u,
                                  const State& s) {
  return lvl == 0 ? base_output(cc.base, u, decode_base(cc.base, s))
                  : register_output(decode_a(cc.levels[lvl - 1], s));
}

}  // namespace

std::shared_ptr<const ComposedCompiledTable> ComposedCompiledTable::compile(
    const counting::AlgorithmPtr& algo) {
  if (algo == nullptr) return nullptr;
  std::optional<ComposedCompiledTable> cc = compile_tower(*algo);
  if (!cc) return nullptr;
  cc->algo = algo;
  return std::make_shared<const ComposedCompiledTable>(std::move(*cc));
}

CopyTally::CopyTally(const ComposedLevel& lv)
    : pk_(lv.pk),
      n_inner_(lv.n_inner),
      k_(lv.k),
      m_(static_cast<std::uint64_t>(lv.m)),
      row_(static_cast<std::size_t>(lv.m + lv.tau)),
      m_div_(m_),
      tau_div_(static_cast<std::uint64_t>(lv.tau)) {
  SC_REQUIRE(lv.kind == ComposedLevel::Kind::kBoosted, "copy tallies serve boosted levels");
  // block_view reduces the inner output modulo tau * (2m)^(blk+1) first;
  // tau and m both divide that modulus, so r = o mod tau and
  // b = floor(o / (tau * (2m)^blk)) mod m.
  for (int blk = 0; blk < k_; ++blk) {
    div_.emplace_back(static_cast<std::uint64_t>(lv.tau) * lv.pow2m[static_cast<std::size_t>(blk)]);
  }
  const auto kk = static_cast<std::size_t>(k_);
  cnt_.assign(kk * row_, 0);
  maj_b_.assign(kk, kNone);
  maj_r_.assign(kk, kNone);
  a_.assign(static_cast<std::size_t>(lv.n), 0);
  for (int u = 0; u < lv.n; ++u) block_of_.push_back(u / n_inner_);
  lead_.assign(kk, 0);
  lead_cnt_.assign(static_cast<std::size_t>(m_), 0);
  picked_.assign(static_cast<std::size_t>(lv.n), 0);
  clear();
}

void CopyTally::clear() {
  std::fill(cnt_.begin(), cnt_.end(), 0);
  std::fill(maj_b_.begin(), maj_b_.end(), kNone);
  std::fill(maj_r_.begin(), maj_r_.end(), kNone);
  a_cnt_.reset(a_.size());
  least_ = kInfinity;
}

void CopyTally::add(const Sender& s) {
  SC_ASSERT(s.a < pk_.C || s.a == kInfinity);
  const auto half = static_cast<std::uint32_t>(n_inner_ / 2);
  const auto blk = static_cast<std::size_t>(s.block);
  const std::uint64_t b = leader_of(s);
  const std::uint64_t r = round_of(s);
  std::uint32_t* counts = row(s.block);
  if (++counts[b] > half) maj_b_[blk] = b;
  if (++counts[m_ + r] > half) maj_r_[blk] = r;
  if (a_cnt_.add(s.a) > static_cast<std::uint32_t>(pk_.F) && s.a < pk_.C) {
    least_ = std::min(least_, s.a);
  }
  a_[static_cast<std::size_t>(s.node)] = s.a;
}

template <class Pick, class Found>
void CopyTally::patched_majorities(std::span<const Sender> faulty, std::size_t first, Pick pick,
                                   Found found) {
  const auto half = static_cast<std::uint32_t>(n_inner_ / 2);
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    picked_[i] = pick(faulty[i]);
    if (picked_[i] != kNone) ++row(faulty[i].block)[first + picked_[i]];
  }
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (picked_[i] != kNone && row(faulty[i].block)[first + picked_[i]] > half) {
      found(faulty[i], picked_[i]);
    }
  }
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    if (picked_[i] != kNone) --row(faulty[i].block)[first + picked_[i]];
  }
}

CopyTally::Read CopyTally::read(std::span<const Sender> faulty) {
  // b^{i'} per block: the correct senders' majority stands. In a block
  // without one only a leader pointer that a faulty sender carries can win,
  // so only those senders' pointers are computed.
  std::copy(maj_b_.begin(), maj_b_.end(), lead_.begin());
  patched_majorities(
      faulty, 0,
      [this](const Sender& s) {
        return maj_b_[static_cast<std::size_t>(s.block)] == kNone ? leader_of(s) : kNone;
      },
      [this](const Sender& s, std::uint64_t b) { lead_[static_cast<std::size_t>(s.block)] = b; });
  Read rd;
  for (std::uint64_t& lead : lead_) {
    if (lead == kNone) lead = 0;  // no majority: strict_majority's fallback
    if (++lead_cnt_[lead] > static_cast<std::uint32_t>(k_ / 2)) rd.B = lead;
  }
  std::fill(lead_cnt_.begin(), lead_cnt_.end(), 0);
  // R: the majority of block B's round counters, found the same way.
  rd.R = maj_r_[rd.B];
  if (rd.R == kNone) {
    rd.R = 0;
    patched_majorities(
        faulty, m_,
        [this, &rd](const Sender& s) {
          return static_cast<std::uint64_t>(s.block) == rd.B ? round_of(s) : kNone;
        },
        [&rd](const Sender&, std::uint64_t r) { rd.R = r; });
  }

  switch (rd.R % 3) {
    case 1: {  // min{ j < C : z_j > F } over the correct and faulty a's
      rd.shared = least_;
      for (const Sender& s : faulty) {
        if (a_cnt_.add(s.a) > static_cast<std::uint32_t>(pk_.F) && s.a < pk_.C) {
          rd.shared = std::min(rd.shared, s.a);
        }
      }
      for (auto it = faulty.rbegin(); it != faulty.rend(); ++it) a_cnt_.undo(it->a);
      break;
    }
    case 2: {  // the king's entry as this view receives it
      const auto king = static_cast<int>(rd.R / 3);
      rd.shared = a_[static_cast<std::size_t>(king)];
      for (const Sender& s : faulty) {
        if (s.node == king) rd.shared = s.a;
      }
      break;
    }
    default:
      break;
  }
  return rd;
}

phaseking::Registers CopyTally::step(const Read& rd, const phaseking::Registers& own,
                                     std::span<const Sender> faulty) const {
  // Phases 0 and 1 count own.a among the received entries; with every value
  // in [0, C) or ∞, its bucket holds exactly the entries equal to it.
  std::uint64_t z_own = 0;
  if (rd.R % 3 != 2) {
    z_own = a_cnt_.count(own.a);
    for (const Sender& s : faulty) z_own += s.a == own.a ? 1 : 0;
  }
  return phaseking::step_counted(pk_, static_cast<int>(rd.R), own, z_own, rd.shared, rd.shared);
}

namespace {

// One block of up to 64 lanes advanced in round lockstep. The lanes' Rngs,
// adversaries, checkers and results live in lanes_ (sim/lanes.hpp). Master
// state lives decomposed: base_[lane*N + node] holds the base field and
// a_[lvl] / d_[lvl] the per-level phase-king registers; BitVec states are
// materialised only for adversaries that read them and for record_states.
// All scratch is allocated once here, so the round loop is allocation-free.
//
// Rounds run in one of two modes, picked once per block from the adversary's
// declared traits:
//
//  * Profiled (the default). Each forging lane calls Adversary::forge_block
//    once per round, yielding a handful of receiver profiles plus a
//    lane-invariant receiver-to-profile map. The round then splits into two
//    passes: pass 1 does the per-lane summary / adversary work, an optional
//    cross-lane bit-sliced base transition runs in between (table bases
//    with num_states <= 4 keep a second, bitplane copy of the base field, so
//    one DFS over the compiled table advances all 64 lanes), and pass 2
//    runs each receiver's transition against its profile, with each boosted
//    level copy read once per (copy, profile) -- copies without faulty
//    senders collapse to one profile-independent read. Valid whenever
//    hoisting every adversary query before the transitions preserves the
//    lane's rng draw sequence: always for faultless lanes and
//    receiver-oblivious adversaries (the scalar runner hoists those itself),
//    and otherwise when the adversary's message() is draw-free or the tower
//    has no fresh-sampling pulling level.
//  * Interleaved (the remaining case: a receiver-dependent, drawing adversary
//    under a fresh-sampling pulling tower). Forging and transitions alternate
//    per receiver exactly like the scalar loop, and each receiver's messages
//    are its own profile.
//
// A receiver reads its correct senders straight from the master fields and
// its faulty senders from the forged states of its profile (fsrc_). Both
// modes read boosted levels off the lane-round's CopyTallies.
class ComposedBlock {
 public:
  ComposedBlock(const BatchConfig& cfg, const ComposedCompiledTable& cc, const Placement& placement,
                std::span<const std::uint64_t> seeds)
      : lanes_(cfg, placement, seeds),
        cc_(cc),
        algo_(*cfg.algo),
        N_(cc.N),
        L_(cc.levels.size()),
        W_(seeds.size()),
        correct_(placement.correct_ids),
        faulty_ids_(placement.faulty_ids),
        faulty_index_(placement.faulty_index) {
    const auto nn = static_cast<std::size_t>(N_);

    // Master fields and scratch.
    base_.assign(nn * W_, 0);
    a_.assign(L_, std::vector<std::uint64_t>(nn * W_, 0));
    d_.assign(L_, std::vector<std::uint8_t>(nn * W_, 0));
    nb_base_.assign(nn, 0);
    nb_a_.assign(L_, std::vector<std::uint64_t>(nn, 0));
    nb_d_.assign(L_, std::vector<std::uint8_t>(nn, 0));
    tallies_.resize(L_);
    senders_.resize(L_);
    int max_k = 0;
    int max_m = 0;
    total_copies_ = 0;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      max_k = std::max(max_k, lv.k);
      max_m = std::max(max_m, lv.sample_size);
      copy_base_.push_back(total_copies_);
      total_copies_ += static_cast<std::size_t>(lv.copies);
      copy_of_.emplace_back(nn);
      for (int u = 0; u < N_; ++u) copy_of_.back()[static_cast<std::size_t>(u)] = u / lv.n;
      // Faulty senders inside each copy of this level: the only received
      // fields the copy's reads see that can differ across receivers.
      // faulty_ids_ is sorted, so they form one range of it.
      for (int c = 0; c < lv.copies; ++c) {
        const auto lo = std::lower_bound(faulty_ids_.begin(), faulty_ids_.end(), c * lv.n);
        const auto hi = std::lower_bound(lo, faulty_ids_.end(), (c + 1) * lv.n);
        copy_faulty_.emplace_back(static_cast<std::size_t>(lo - faulty_ids_.begin()),
                                  static_cast<std::size_t>(hi - faulty_ids_.begin()));
        if (lv.kind == ComposedLevel::Kind::kBoosted) tallies_[lvl].emplace_back(lv);
      }
    }
    leader_.assign(static_cast<std::size_t>(max_k), 0);
    const auto mm = static_cast<std::size_t>(max_m);
    sample_.assign(static_cast<std::size_t>(max_k) * mm, 0);
    mvals_.assign(mm, 0);
    sampled_a_.assign(mm, 0);
    outs_.assign(correct_.size(), 0);

    for (std::size_t l = 0; l < W_; ++l) {
      const std::vector<State>& states = lanes_.states(l);
      for (std::size_t i = 0; i < nn; ++i) decompose(states[i], l * nn + i);
    }
    bool tower_draws = false;
    for (const ComposedLevel& lv : cc_.levels) {
      if (lv.kind == ComposedLevel::Kind::kPulling && !lv.fixed_sampling) tower_draws = true;
    }
    const Adversary& probe = lanes_.probe();
    interleaved_ = !lanes_.faultless() && !probe.receiver_oblivious() &&
                   !probe.message_draw_free() && tower_draws;
    bs_base_ = cc_.base.kind == ComposedBase::Kind::kTable && cc_.base.num_states <= 4 &&
               !interleaved_;
    if (interleaved_) iv_states_.resize(faulty_ids_.size());

    // Profile state starts in the 1-profile shape shared by faultless lanes,
    // receiver-oblivious adversaries and interleaved receivers; set_profiles
    // regrows on demand.
    prof_node_.assign(nn, 0);
    resize_profiles(1);
    if (bs_base_) {
      pb_.assign(nn, {});
      npb_.assign(nn, {});
      eqcb_.assign(nn, {});
      eqpb_.assign(static_cast<std::size_t>(cc_.base.n), nullptr);
      for (std::size_t l = 0; l < W_; ++l) {
        for (std::size_t i = 0; i < nn; ++i) {
          set_lane<1>(pb_[i], l, static_cast<std::uint8_t>(base_[l * nn + i]));
        }
      }
    }
  }

  void run(std::vector<RunResult>& results) {
    for (std::uint64_t round = 0; round < lanes_.max_rounds() && lanes_.any(); ++round) {
      if (interleaved_) {
        round_interleaved(round);
        continue;
      }
      const bool forging = lanes_.forging();
      round_profiled(round, forging);
      if (forging) lanes_.forged_round();
    }
    lanes_.finish(results);
  }

  // Kernel members the lane driver calls.
  void refresh_states(std::size_t lane) {
    std::vector<State>& states = lanes_.states(lane);
    for (const NodeId i : correct_) states[static_cast<std::size_t>(i)] = encode(lane, i);
  }

  std::vector<std::uint64_t> lane_outputs(std::size_t /*lane*/) const { return outs_; }

 private:
  // --- Round summary: outputs + agreement (from the master fields) ----------
  // Returns whether the lane plays the round (Lanes::observe).
  bool observe_lane(std::size_t l, std::uint64_t round) {
    const std::vector<std::uint64_t>& top_a = a_[L_ - 1];
    const std::size_t lane_off = l * static_cast<std::size_t>(N_);
    bool agreed = true;
    std::uint64_t first = 0;
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      outs_[j] = register_output(top_a[lane_off + static_cast<std::size_t>(correct_[j])]);
      if (j == 0) {
        first = outs_[0];
      } else if (outs_[j] != first) {
        agreed = false;
      }
    }
    return lanes_.observe(*this, l, round, agreed, first);
  }

  // --- Profiled rounds ------------------------------------------------------

  // Pass 1: per-lane summary + adversary work. Lane-internal call order
  // matches the scalar runner exactly (forge_block runs begin_round before
  // its message queries). Kept out of line on purpose: inlined into
  // round_profiled, it changes how GCC lays out the whole round, which
  // measured slower on practical(7, 10).
  [[gnu::noinline]] void adversary_pass(std::uint64_t round, bool forging) {
    const ForgedRound* first = nullptr;
    lanes_.for_each_active([&](std::size_t l) {
      if (!observe_lane(l, round) || !forging) return;
      lanes_.forge_lane(*this, l, round, /*try_idx=*/false, first);
      if (first == &lanes_.forged(l)) set_profiles(*first);
      if (bs_base_) forged_planes(l);
    });
  }

  void round_profiled(std::uint64_t round, bool forging) {
    adversary_pass(round, forging);
    if (!lanes_.any()) return;

    // Cross-lane base transition: one DFS over the compiled base table per
    // correct node advances every lane's base field at once.
    if (bs_base_) base_transition_bit_sliced();

    // Pass 2: tallies, reads, phase-king glue, commit. A plain loop rather
    // than Lanes::for_each_active: behind that lambda GCC keeps
    // transition_node out of line, and tower_sweep measured slower.
    const std::size_t nf = faulty_ids_.size();
    for (std::uint64_t msk = lanes_.active()[0]; msk != 0; msk &= msk - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(msk));
      tally_lane(l);
      const State* forged = lanes_.faultless() ? nullptr : lanes_.forged(l).states.data();
      for (const NodeId v : correct_) {
        const int pv = nprof_ == 1 ? 0 : prof_node_[static_cast<std::size_t>(v)];
        if (forged != nullptr) fsrc_ = forged + static_cast<std::size_t>(pv) * nf;
        transition_node(l, v, pv);
      }
      commit(l);
    }
    if (bs_base_) commit_planes();
  }

  // --- Interleaved rounds (receiver-dependent drawing adversary over a
  // fresh-sampling pulling tower) ---------------------------------------------

  void round_interleaved(std::uint64_t round) {
    lanes_.for_each_active([&](std::size_t l) {
      if (!observe_lane(l, round)) return;
      // message() reads the states too, so they are refreshed even when the
      // adversary's begin_round is a no-op.
      lanes_.refresh(*this, l);
      lanes_.begin_round(l, round);
      tally_lane(l);
      fsrc_ = iv_states_.data();
      for (const NodeId v : correct_) {
        for (std::size_t k = 0; k < faulty_ids_.size(); ++k) {
          iv_states_[k] = lanes_.adversary(l).message(round, faulty_ids_[k], v, lanes_.states(l),
                                                      algo_, lanes_.rng(l));
        }
        std::fill(read_valid_.begin(), read_valid_.end(), 0);
        transition_node(l, v, 0);
      }
      commit(l);
    });
  }

  // --- Field <-> BitVec -----------------------------------------------------

  // Writes the decomposed fields of state `s` into master slot `idx`.
  void decompose(const State& s, std::size_t idx) {
    base_[idx] = decode_base(cc_.base, s);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      const ComposedLevel& lv = cc_.levels[lvl];
      a_[lvl][idx] = decode_a(lv, s);
      d_[lvl][idx] = s.get_bit(lv.a_offset + lv.a_bits) ? 1 : 0;
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

  // --- Forged profiles ------------------------------------------------------

  // Grows the per-profile storage to `nprof` profiles. The profile slot
  // stride is S_ = nprof * |faulty|: a level's decoded senders and the
  // forged base planes live at [profile * |faulty| + k].
  void resize_profiles(int nprof) {
    nprof_ = nprof;
    S_ = static_cast<std::size_t>(nprof_) * faulty_ids_.size();
    for (std::vector<CopyTally::Sender>& s : senders_) s.assign(S_, {});
    reads_.assign(total_copies_ * static_cast<std::size_t>(nprof_), {});
    read_valid_.assign(total_copies_ * static_cast<std::size_t>(nprof_), 0);
    if (bs_base_) {
      fpb_.assign(S_, {});
      eqfb_.assign(S_, {});
    }
  }

  // Establishes this round's profile geometry from the first forging lane's
  // checked forged round: the profile count and the receiver-to-profile map.
  void set_profiles(const ForgedRound& fr) {
    if (fr.num_profiles != nprof_) resize_profiles(fr.num_profiles);
    if (fr.profile_of.empty()) {
      std::fill(prof_node_.begin(), prof_node_.end(), std::uint16_t{0});
    } else {
      std::copy(fr.profile_of.begin(), fr.profile_of.end(), prof_node_.begin());
    }
  }

  // Scatters lane `lane`'s forged base indices into the forged bitplanes
  // (bit-sliced base path). Persists across rounds, so static forgers pay
  // this once.
  void forged_planes(std::size_t lane) {
    const ForgedRound& fr = lanes_.forged(lane);
    for (std::size_t s = 0; s < S_; ++s) {
      set_lane<1>(fpb_[s], lane, static_cast<std::uint8_t>(decode_base(cc_.base, fr.states[s])));
    }
  }

  // --- Bit-sliced base ------------------------------------------------------

  // Advances every active lane's base field in one cross-lane pass: equality
  // bitplanes per sender (master planes for correct senders, forged planes
  // per (profile, sender) otherwise), then one table_step per correct node
  // over its base copy.
  void base_transition_bit_sliced() {
    const int n0 = cc_.base.n;
    const std::size_t nf = faulty_ids_.size();
    for (std::size_t u = 0; u < static_cast<std::size_t>(N_); ++u) {
      eqcb_[u] = eq_planes<1>(pb_[u]);
    }
    for (std::size_t s = 0; s < S_; ++s) eqfb_[s] = eq_planes<1>(fpb_[s]);
    for (const NodeId v : correct_) {
      const int first = (v / n0) * n0;
      const std::size_t pbase =
          (nprof_ == 1 ? 0 : static_cast<std::size_t>(prof_node_[static_cast<std::size_t>(v)])) *
          nf;
      for (int s = 0; s < n0; ++s) {
        const int k = faulty_index_[static_cast<std::size_t>(first + s)];
        eqpb_[static_cast<std::size_t>(s)] =
            k < 0 ? &eqcb_[static_cast<std::size_t>(first + s)]
                  : &eqfb_[pbase + static_cast<std::size_t>(k)];
      }
      npb_[static_cast<std::size_t>(v)] =
          table_step<1>(*cc_.base.table, v % n0, eqpb_.data(), lanes_.active());
    }
  }

  void commit_planes() {
    const std::uint64_t live = lanes_.active()[0];
    for (const NodeId v : correct_) {
      const auto vv = static_cast<std::size_t>(v);
      pb_[vv][0][0] = (pb_[vv][0][0] & ~live) | (npb_[vv][0][0] & live);
      pb_[vv][1][0] = (pb_[vv][1][0] & ~live) | (npb_[vv][1][0] & live);
    }
  }

  // --- Received fields ------------------------------------------------------
  // Sender u as the current receiver gets it: the master field of lane
  // `off / N` for a correct sender, the receiver's forged state otherwise.

  std::uint64_t recv_base(std::size_t off, NodeId u) const {
    const int k = faulty_index_[static_cast<std::size_t>(u)];
    return k < 0 ? base_[off + static_cast<std::size_t>(u)]
                 : decode_base(cc_.base, fsrc_[static_cast<std::size_t>(k)]);
  }

  std::uint64_t recv_a(std::size_t off, std::size_t lvl, NodeId u) const {
    const int k = faulty_index_[static_cast<std::size_t>(u)];
    return k < 0 ? a_[lvl][off + static_cast<std::size_t>(u)]
                 : decode_a(cc_.levels[lvl], fsrc_[static_cast<std::size_t>(k)]);
  }

  // Output of the inner algorithm of level `lvl` at sender u (what
  // block_view / the vote sampling read).
  std::uint64_t recv_out(std::size_t off, std::size_t lvl, NodeId u) const {
    return lvl == 0 ? base_output(cc_.base, u, recv_base(off, u))
                    : register_output(recv_a(off, lvl - 1, u));
  }

  // --- Level kernels --------------------------------------------------------

  // Counts every boosted level copy's correct senders of lane `lane`, read
  // from the master fields, and forgets the previous lane-round's reads.
  void tally_lane(std::size_t lane) {
    const std::size_t off = lane * static_cast<std::size_t>(N_);
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      std::vector<CopyTally>& tallies = tallies_[lvl];
      if (tallies.empty()) continue;  // pulling level
      for (CopyTally& t : tallies) t.clear();
      const int n = cc_.levels[lvl].n;
      for (const NodeId u : correct_) {
        const auto uu = static_cast<std::size_t>(u);
        const int copy = copy_of_[lvl][uu];
        CopyTally& t = tallies[static_cast<std::size_t>(copy)];
        const std::uint64_t out = lvl == 0 ? base_output(cc_.base, u, base_[off + uu])
                                           : register_output(a_[lvl - 1][off + uu]);
        t.add(t.sender(u - copy * n, out, a_[lvl][off + uu]));
      }
    }
    std::fill(read_valid_.begin(), read_valid_.end(), 0);
  }

  // Votes + phase-king step of one boosted level (paper steps 3 and 4) for
  // receiver v under profile pv. The copy's read is taken once per (copy,
  // profile) and lane-round: on first use it decodes the copy's faulty
  // senders from the profile's forged states and reads the tallies. Copies
  // without faulty senders read the same fields under every profile, so
  // they collapse onto the profile-0 entry.
  void boosted_step(std::size_t lane, std::size_t lvl, NodeId v, int pv) {
    const ComposedLevel& lv = cc_.levels[lvl];
    const int copy = copy_of_[lvl][static_cast<std::size_t>(v)];
    const int first = copy * lv.n;
    const std::size_t slot = copy_base_[lvl] + static_cast<std::size_t>(copy);
    const auto [kb, ke] = copy_faulty_[slot];
    const int p = kb == ke ? 0 : pv;
    CopyTally& tally = tallies_[lvl][static_cast<std::size_t>(copy)];
    CopyTally::Sender* faulty =
        senders_[lvl].data() + static_cast<std::size_t>(p) * faulty_ids_.size() + kb;
    const std::span<const CopyTally::Sender> view(faulty, ke - kb);
    const std::size_t ridx = slot * static_cast<std::size_t>(nprof_) + static_cast<std::size_t>(p);
    if (!read_valid_[ridx]) {
      for (std::size_t k = kb; k < ke; ++k) {
        const NodeId u = faulty_ids_[k];
        const State& s = fsrc_[k];
        faulty[k - kb] = tally.sender(u - first, inner_output(cc_, lvl, u, s), decode_a(lv, s));
      }
      reads_[ridx] = tally.read(view);
      read_valid_[ridx] = 1;
    }
    const auto vv = lane * static_cast<std::size_t>(N_) + static_cast<std::size_t>(v);
    const phaseking::Registers next =
        tally.step(reads_[ridx], {a_[lvl][vv], d_[lvl][vv] != 0}, view);
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
    const std::size_t off = lane * static_cast<std::size_t>(N_);

    util::Rng fixed_rng(util::hash_combine(lv.sampling_seed, static_cast<std::uint64_t>(v_local)));
    util::Rng& rng = lv.fixed_sampling ? fixed_rng : lanes_.rng(lane);

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
        const std::uint64_t out = recv_out(off, lvl, u) % cblk;
        const std::uint64_t y = out / tau;
        mvals_[t] = (y / lv.pow2m[static_cast<std::size_t>(blk)]) % m;
      }
      leader_[static_cast<std::size_t>(blk)] = boosting::strict_majority(
          std::span<const std::uint64_t>(mvals_.data(), M), m, M / 2, scratch_);
    }
    const auto k = static_cast<std::size_t>(lv.k);
    const std::uint64_t B = boosting::strict_majority(
        std::span<const std::uint64_t>(leader_.data(), k), m, k / 2, scratch_);

    // R: reuse block B's samples, reading the r component this time.
    {
      const std::uint32_t* sample = sample_.data() + static_cast<std::size_t>(B) * M;
      const std::uint64_t cblk = tau * lv.pow2m[static_cast<std::size_t>(B) + 1];
      for (std::size_t t = 0; t < M; ++t) {
        const int u = first + static_cast<int>(B) * lv.n_inner + static_cast<int>(sample[t]);
        mvals_[t] = recv_out(off, lvl, u) % cblk % tau;
      }
    }
    const std::uint64_t R = boosting::strict_majority(
        std::span<const std::uint64_t>(mvals_.data(), M), tau, M / 2, scratch_);

    for (std::size_t t = 0; t < M; ++t) {
      const auto u = rng.next_below(static_cast<std::uint64_t>(lv.n));
      sampled_a_[t] = recv_a(off, lvl, first + static_cast<int>(u));
    }
    pulled += M;
    const int king = static_cast<int>(R) / 3;
    const std::uint64_t king_a = recv_a(off, lvl, first + king);
    pulled += 1;

    const auto vv = off + static_cast<std::size_t>(v);
    const phaseking::Registers own{a_[lvl][vv], d_[lvl][vv] != 0};
    const phaseking::Registers next = phaseking::step_sampled(
        lv.pk, static_cast<int>(R), own,
        std::span<const std::uint64_t>(sampled_a_.data(), M), king_a);
    nb_a_[lvl][static_cast<std::size_t>(v)] = next.a;
    nb_d_[lvl][static_cast<std::size_t>(v)] = next.d ? 1 : 0;
  }

  void transition_node(std::size_t lane, NodeId v, int pv) {
    // Base kernel (step 1 of the construction, recursed to the bottom). On
    // the bit-sliced path the cross-lane pass already produced every lane's
    // next base index; extract this lane's bit pair.
    const auto vv = static_cast<std::size_t>(v);
    const std::size_t off = lane * static_cast<std::size_t>(N_);
    if (bs_base_) {
      nb_base_[vv] = ((npb_[vv][0][0] >> lane) & 1) | (((npb_[vv][1][0] >> lane) & 1) << 1);
    } else if (cc_.base.kind == ComposedBase::Kind::kTrivial) {
      const std::uint64_t next = base_[off + vv] + 1;  // base indices lie below num_states
      nb_base_[vv] = next == cc_.base.num_states ? 0 : next;
    } else {
      const int n0 = cc_.base.n;
      const int first = (v / n0) * n0;
      for (int s = 0; s < n0; ++s) {
        base_idx_[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(recv_base(off, first + s));
      }
      nb_base_[vv] = cc_.base.table->next(v % n0, base_idx_.data());
    }
    // Boosting levels bottom-up: the level order matches the scalar call
    // chain (each wrapper runs its inner transition before its own votes and
    // phase-king step), which keeps the pulling levels' Rng draws in order.
    std::uint64_t pulled = 0;
    for (std::size_t lvl = 0; lvl < L_; ++lvl) {
      if (cc_.levels[lvl].kind == ComposedLevel::Kind::kBoosted) {
        boosted_step(lane, lvl, v, pv);
      } else {
        pulling_step(lane, lvl, v, pulled);
      }
    }
    lanes_.count_pulls(lane, pulled);
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

  Lanes<1> lanes_;
  const ComposedCompiledTable& cc_;
  const counting::CountingAlgorithm& algo_;
  const int N_;
  const std::size_t L_;  // number of boosting levels
  const std::size_t W_;
  const std::vector<NodeId>& correct_;
  const std::vector<NodeId>& faulty_ids_;
  const std::vector<int>& faulty_index_;  // [node] -> -1 correct, else index into faulty_ids_
  bool interleaved_ = false;
  bool bs_base_ = false;

  // Master field representation, [lane * N + node].
  std::vector<std::uint64_t> base_;
  std::vector<std::vector<std::uint64_t>> a_;  // [level][lane * N + node]
  std::vector<std::vector<std::uint8_t>> d_;

  // Next-state fields of the lane currently being advanced, [node].
  std::vector<std::uint64_t> nb_base_;
  std::vector<std::vector<std::uint64_t>> nb_a_;
  std::vector<std::vector<std::uint8_t>> nb_d_;

  // Forged profiles. fsrc_ points at the current receiver's forged states,
  // [k] for faulty_ids_[k]: its profile's row of the lane's ForgedRound, or
  // iv_states_ in interleaved mode. prof_node_ maps receivers to profiles.
  int nprof_ = 1;
  std::size_t S_ = 0;  // profile slot stride: nprof_ * |faulty|
  const State* fsrc_ = nullptr;
  std::vector<State> iv_states_;
  std::vector<std::uint16_t> prof_node_;

  // Boosted level reads. A level copy is a slot: copy_base_[level] + copy.
  // tallies_[level][copy] counts the copy's correct senders for the current
  // lane-round (empty for pulling levels); copy_faulty_[slot] is the range
  // of faulty_ids_ inside the copy. senders_[level][profile * |faulty| + k]
  // holds faulty_ids_[k] as decoded for that profile, and reads_ the
  // copy's read, both valid where read_valid_[slot * nprof_ + profile] is
  // set in the current lane-round.
  std::size_t total_copies_ = 0;
  std::vector<std::size_t> copy_base_;
  std::vector<std::vector<int>> copy_of_;  // [level][node] its copy
  std::vector<std::pair<std::size_t, std::size_t>> copy_faulty_;
  std::vector<std::vector<CopyTally>> tallies_;
  std::vector<std::vector<CopyTally::Sender>> senders_;
  std::vector<CopyTally::Read> reads_;
  std::vector<std::uint8_t> read_valid_;

  // Bit-sliced base planes (bs_base_ only): pb_ mirrors base_ as per-node
  // {bit0, bit1} lane bitplanes (committed in lockstep with the master),
  // npb_ the next-round planes, fpb_ the forged planes per profile slot, and
  // eqcb_/eqfb_/eqpb_ the per-round equality planes and per-sender view.
  std::vector<Planes<1>> pb_, npb_, fpb_;
  std::vector<EqPlanes<1>> eqcb_, eqfb_;
  std::vector<const EqPlanes<1>*> eqpb_;

  // Sampling scratch (pulling levels).
  std::vector<std::uint64_t> leader_, mvals_, sampled_a_, outs_;
  std::vector<std::uint32_t> sample_;
  std::vector<std::uint32_t> scratch_;
  std::array<std::uint8_t, 256> base_idx_{};
};

}  // namespace

std::vector<RunResult> run_composed_batch(const BatchConfig& cfg, const ComposedCompiledTable& cc,
                                          const Placement& placement) {
  SC_CHECK(cfg.kernel == BatchKernel::kAuto,
           "composed (boosted/pulling) algorithms run a single fixed kernel; "
           "BatchConfig::kernel must be kAuto");
  return run_blocks(cfg.seeds, kLanesPerWord,
                    [&](std::span<const std::uint64_t> seeds, std::vector<RunResult>& results) {
                      ComposedBlock(cfg, cc, placement, seeds).run(results);
                    });
}

std::unique_ptr<TowerOracle> TowerOracle::make(const counting::CountingAlgorithm& algo) {
  std::optional<ComposedCompiledTable> cc = compile_tower(algo);
  if (!cc || cc->levels.back().kind != ComposedLevel::Kind::kBoosted) return nullptr;
  for (const ComposedLevel& lv : cc->levels) {
    if (lv.kind == ComposedLevel::Kind::kPulling && !lv.fixed_sampling) return nullptr;
  }
  return std::unique_ptr<TowerOracle>(new TowerOracle(std::move(*cc)));
}

TowerOracle::TowerOracle(ComposedCompiledTable cc)
    : cc_(std::move(cc)), tally_(cc_.levels.back()) {  // one top copy of N nodes
  a_.assign(static_cast<std::size_t>(cc_.N), 0);
  d_.assign(static_cast<std::size_t>(cc_.N), 0);
  is_faulty_.assign(static_cast<std::size_t>(cc_.N), 0);
}

CopyTally::Sender TowerOracle::sender(NodeId u, const State& s) const {
  const std::size_t top = cc_.levels.size() - 1;
  return tally_.sender(u, inner_output(cc_, top, u, s), decode_a(cc_.levels[top], s));
}

void TowerOracle::begin_round(std::span<const State> states, std::span<const NodeId> faulty) {
  SC_CHECK(states.size() == a_.size(), "oracle round needs every node's state");
  const ComposedLevel& top = cc_.levels.back();
  for (const NodeId u : faulty_) is_faulty_[static_cast<std::size_t>(u)] = 0;
  faulty_.assign(faulty.begin(), faulty.end());
  for (const NodeId u : faulty_) is_faulty_[static_cast<std::size_t>(u)] = 1;
  senders_.resize(faulty_.size());
  // Only correct senders are counted: each query patches in the faulty ones.
  tally_.clear();
  for (int u = 0; u < cc_.N; ++u) {
    const auto uu = static_cast<std::size_t>(u);
    a_[uu] = decode_a(top, states[uu]);
    d_[uu] = states[uu].get_bit(top.a_offset + top.a_bits) ? 1 : 0;
    if (is_faulty_[uu] == 0) tally_.add(sender(u, states[uu]));
  }
}

std::uint64_t TowerOracle::next_output(NodeId v, std::span<const State> msgs) {
  SC_ASSERT(msgs.size() == faulty_.size());
  for (std::size_t k = 0; k < faulty_.size(); ++k) senders_[k] = sender(faulty_[k], msgs[k]);
  const auto vv = static_cast<std::size_t>(v);
  return register_output(tally_.step(tally_.read(senders_), {a_[vv], d_[vv] != 0}, senders_).a);
}

}  // namespace synccount::sim
