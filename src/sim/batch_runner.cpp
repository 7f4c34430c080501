#include "sim/batch_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#include <span>

#include "sim/checker.hpp"
#include "sim/composed_runner.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"

namespace synccount::sim {

int default_batch_words() noexcept {
  static const int words = [] {
    // synccount-lint: allow(nondet) -- documented SYNCCOUNT_BATCH_WORDS pin,
    // read once; plane width changes throughput only, results stay bit-equal.
    if (const char* env = std::getenv("SYNCCOUNT_BATCH_WORDS")) {
      const int v = std::atoi(env);
      if (v == 1 || v == 2 || v == 4 || v == 8) return v;
    }
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f")) return 8;
    if (__builtin_cpu_supports("avx2")) return 4;
    return 2;
#else
    return 4;
#endif
  }();
  return words;
}

namespace {

using counting::CompiledTable;
using counting::NodeId;

constexpr std::size_t kLanesPerWord = 64;

#if defined(__x86_64__)
// Transposes 64 contiguous 2-bit state indices (one byte each) into a pair of
// bitplane words via byte-lane movemask: shifting bit b of each byte to the
// byte's MSB and taking VPMOVMSKB yields 32 plane bits per vector. Cross-byte
// spill from the 64-bit-lane shift never lands on an MSB, so the extraction
// is exact for byte values < 4.
__attribute__((target("avx2"))) inline void planes_from_bytes_avx2(const std::uint8_t* src,
                                                                   std::uint64_t& b0,
                                                                   std::uint64_t& b1) {
  // memcpy, not reinterpret_cast + loadu: same single vmovdqu instruction,
  // but without forming a pointer whose strict-aliasing status is debatable.
  __m256i lo;
  __m256i hi;
  std::memcpy(&lo, src, sizeof(lo));
  std::memcpy(&hi, src + 32, sizeof(hi));
  const auto l0 = static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(lo, 7)));
  const auto h0 = static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(hi, 7)));
  const auto l1 = static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(lo, 6)));
  const auto h1 = static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_slli_epi64(hi, 6)));
  b0 = static_cast<std::uint64_t>(l0) | (static_cast<std::uint64_t>(h0) << 32);
  b1 = static_cast<std::uint64_t>(l1) | (static_cast<std::uint64_t>(h1) << 32);
}
#endif

// Portable transpose of `count` (<= 64) state-index bytes into bitplanes.
inline void planes_from_bytes(const std::uint8_t* src, std::size_t count, std::uint64_t& b0,
                              std::uint64_t& b1) noexcept {
#if defined(__x86_64__)
  static const bool kHaveAvx2 = __builtin_cpu_supports("avx2");
  if (kHaveAvx2 && count == kLanesPerWord) {
    planes_from_bytes_avx2(src, b0, b1);
    return;
  }
#endif
  b0 = 0;
  b1 = 0;
  for (std::size_t b = 0; b < count; ++b) {
    const auto v = static_cast<std::uint64_t>(src[b]);
    b0 |= (v & 1) << b;
    b1 |= ((v >> 1) & 1) << b;
  }
}

// Inverse transpose: `count` (<= 64) state-index bytes from a bitplane pair.
inline void bytes_from_planes(std::uint64_t b0, std::uint64_t b1, std::size_t count,
                              std::uint8_t* dst) noexcept {
  for (std::size_t b = 0; b < count; ++b) {
    dst[b] = static_cast<std::uint8_t>(((b0 >> b) & 1) | (((b1 >> b) & 1) << 1));
  }
}

// One block of up to 64 * NW lanes advanced in lockstep. NW is the plane
// word count (1/2/4/8): every bitplane is an array of NW uint64_t, so the
// word-wise loops below auto-vectorise into 64*NW-bit operations. Hot
// per-lane state (rng, adversary, checker) lives in parallel arrays; the
// cold result/state vectors sit in LaneCold so the round loop touches as few
// lines as possible.
template <int NW>
class Block {
 public:
  using Mask = std::array<std::uint64_t, NW>;
  static constexpr std::size_t kLanes = kLanesPerWord * static_cast<std::size_t>(NW);

  Block(const BatchConfig& cfg, const counting::TableAlgorithm& algo,
        std::span<const std::uint64_t> seeds, bool bit_sliced)
      : cfg_(cfg),
        algo_(algo),
        ct_(algo.compiled()),
        n_(ct_.n),
        ns_(ct_.num_states),
        W_(seeds.size()),
        bit_sliced_(bit_sliced) {
    SC_REQUIRE(W_ <= kLanes, "batch block overflow");
    const auto nn = static_cast<std::size_t>(n_);

    std::vector<bool> faulty = cfg.faulty;
    if (faulty.empty()) faulty.assign(nn, false);
    SC_CHECK(faulty.size() == nn, "fault vector size mismatch");
    SC_CHECK(fault_count(faulty) <= algo_.resilience(),
             "more faults than the algorithm's resilience");
    faulty_ids_ = fault_ids(faulty);
    sender_kind_.assign(nn, -1);
    for (std::size_t k = 0; k < faulty_ids_.size(); ++k) {
      sender_kind_[static_cast<std::size_t>(faulty_ids_[k])] = static_cast<int>(k);
    }
    for (int i = 0; i < n_; ++i) {
      if (!faulty[static_cast<std::size_t>(i)]) correct_.push_back(i);
    }
    SC_CHECK(!correct_.empty(), "all nodes faulty");
    prof_.assign(correct_.size(), 0);

    margin_ = resolve_margin(cfg.margin, cfg.max_rounds, algo_.modulus());

    if (bit_sliced_) {
      p_.assign(nn, {});
      np_.assign(nn, {});
      eqc_.assign(nn, {});
      eqp_.assign(nn, nullptr);
      // Output planes: hv_[j][b] is the set of state values whose output has
      // bit b set for correct node j; ORing their equality masks yields the
      // node's output bitplane.
      std::uint64_t max_out = 0;
      for (const NodeId i : correct_) {
        for (std::uint64_t v = 0; v < ns_; ++v) {
          max_out = std::max<std::uint64_t>(max_out, ct_.out(i, static_cast<std::uint8_t>(v)));
        }
      }
      out_bits_ = static_cast<int>(std::bit_width(max_out));
      hv_.assign(correct_.size() * static_cast<std::size_t>(out_bits_), 0);
      ob_.assign(correct_.size() * static_cast<std::size_t>(out_bits_), Mask{});
      for (std::size_t j = 0; j < correct_.size(); ++j) {
        for (int b = 0; b < out_bits_; ++b) {
          std::uint8_t mask = 0;
          for (std::uint64_t v = 0; v < ns_; ++v) {
            if ((ct_.out(correct_[j], static_cast<std::uint8_t>(v)) >> b) & 1) {
              mask |= static_cast<std::uint8_t>(1u << v);
            }
          }
          hv_[j * static_cast<std::size_t>(out_bits_) + static_cast<std::size_t>(b)] = mask;
        }
      }
    } else {
      SC_CHECK(ct_.g.size() < (1ULL << 31), "table too large for the SoA kernel");
      cur_.assign(nn * W_, 0);
      nxt_.assign(nn * W_, 0);
      acc_.assign(W_, 0);
    }

    // Lane setup mirrors the scalar runner's preamble draw for draw.
    rngs_.reserve(W_);
    advs_.reserve(W_);
    checkers_.reserve(W_);
    lanes_.resize(W_);
    frs_.resize(W_);
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
      for (int i = 0; i < n_; ++i) {
        set_idx(i, l, static_cast<std::uint8_t>(algo_.state_to_index(
                          ln.states[static_cast<std::size_t>(i)])));
      }
      active_[l / kLanesPerWord] |= 1ULL << (l % kLanesPerWord);
    }
    faultless_ = faulty_ids_.empty();
    const Adversary& probe = *advs_.front();
    state_oblivious_ = probe.state_oblivious();
    // State-reading adversaries forge lane-batched from a view of every
    // node's state index (ForgedRound::state_idx). The SoA rows are that
    // view; the bit-sliced kernel keeps a byte copy whose faulty rows never
    // change and whose correct rows are transposed before each forge.
    if (!state_oblivious_) {
      if (bit_sliced_) {
        sidx_.assign(nn * W_, 0);
        for (const NodeId i : faulty_ids_) view_row_from_planes(i);
      }
      frs_.front().state_idx = bit_sliced_ ? sidx_ : cur_;
    }
    // Skipping a no-op begin_round or re-forging an execution-constant
    // message has no observable effect, so these stay bit-identical to the
    // scalar runner while eliding most per-lane virtual dispatch.
    passive_rounds_ = probe.begin_round_passive();
    static_forge_ = !faultless_ && probe.receiver_oblivious() && probe.forgery_static();
  }

  void run() {
    const bool recording = cfg_.record_outputs || cfg_.record_states;
    for (std::uint64_t round = 0; round < cfg_.max_rounds && mask_any(active_); ++round) {
      // --- Round summary: outputs + agreement --------------------------------
      // Bit-sliced kernel: one pass over the state bitplanes yields, for all
      // lanes at once, each correct node's output planes and the "all correct
      // outputs equal" mask; the per-lane work collapses to one
      // observe_summary call. The SoA kernel summarises per lane from the
      // byte rows.
      Mask agreed;
      agreed.fill(~0ULL);
      if (bit_sliced_) {
        for (const NodeId i : correct_) {
          eqc_[static_cast<std::size_t>(i)] = eq_masks(p_[static_cast<std::size_t>(i)]);
        }
        const auto ob = static_cast<std::size_t>(out_bits_);
        for (std::size_t j = 0; j < correct_.size(); ++j) {
          const auto& eq = eqc_[static_cast<std::size_t>(correct_[j])];
          for (std::size_t b = 0; b < ob; ++b) {
            const std::uint8_t states_with_bit = hv_[j * ob + b];
            Mask plane{};
            for (std::uint64_t v = 0; v < ns_; ++v) {
              if ((states_with_bit >> v) & 1) {
                for (int w = 0; w < NW; ++w) plane[w] |= eq[v][w];
              }
            }
            ob_[j * ob + b] = plane;
          }
        }
        for (std::size_t j = 1; j < correct_.size(); ++j) {
          for (std::size_t b = 0; b < ob; ++b) {
            for (int w = 0; w < NW; ++w) {
              agreed[w] &= ~(ob_[j * ob + b][w] ^ ob_[b][w]);
            }
          }
        }
      }

      const bool will_forge = !faultless_ && !(static_forge_ && static_forged_);

      // --- Per-lane pass: checker, recording, early exit, adversary ----------
      // Lane-internal order matches the scalar runner exactly: observe,
      // record, early-exit check, then the adversary's whole round through
      // forge_block (begin_round plus every message query, in the scalar
      // call order).
      for (int w = 0; w < NW; ++w) {
        for (std::uint64_t m = active_[w]; m; m &= m - 1) {
          const auto bit = static_cast<std::size_t>(std::countr_zero(m));
          const std::size_t l = static_cast<std::size_t>(w) * kLanesPerWord + bit;
          if (bit_sliced_) {
            std::uint64_t value = 0;
            for (int b = 0; b < out_bits_; ++b) {
              value |= ((ob_[static_cast<std::size_t>(b)][w] >> bit) & 1) << b;
            }
            checkers_[l].observe_summary(((agreed[w] >> bit) & 1) != 0, value);
          } else {
            bool lane_agreed = true;
            const std::uint64_t first = ct_.out(correct_.front(), idx_of(correct_.front(), l));
            for (std::size_t j = 1; j < correct_.size(); ++j) {
              if (ct_.out(correct_[j], idx_of(correct_[j], l)) != first) {
                lane_agreed = false;
                break;
              }
            }
            checkers_[l].observe_summary(lane_agreed, first);
          }
          if (recording) record_lane(l);
          if (cfg_.stop_after_stable > 0 &&
              checkers_[l].suffix_length() >= cfg_.stop_after_stable) {
            active_[w] &= ~(1ULL << bit);
            continue;
          }
          if (will_forge || passive_rounds_) continue;
          if (!state_oblivious_) refresh_states(l);
          advs_[l]->begin_round(round, lanes_[l].states, algo_, faulty_ids_, rngs_[l]);
        }
      }
      // Forging runs below the per-lane pass so that one lane-batched
      // adversary call can serve the whole block. The deferral is
      // unobservable: nothing between a lane's observe and its forging draws
      // from its rng, and lanes are independent streams.
      if (will_forge) forge_lanes(round);
      if (will_forge && static_forge_) static_forged_ = true;
      if (!mask_any(active_)) break;

      // --- Transition: all lanes in one pass ---------------------------------
      if (bit_sliced_) {
        transition_bit_sliced();
      } else {
        transition_soa();
      }
    }

    for (std::size_t l = 0; l < W_; ++l) {
      RunResult& r = lanes_[l].result;
      const StabilisationChecker& ck = checkers_[l];
      r.rounds = ck.rounds();
      r.stabilisation_round = ck.suffix_start();
      r.suffix_length = ck.suffix_length();
      r.max_window = ck.max_window();
      r.stabilised = r.suffix_length >= std::min<std::uint64_t>(margin_, r.rounds);
      // Table algorithms never pull; avg/max stay 0 exactly as in the scalar
      // runner's accounting.
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
    // from the index representation on demand.
    std::vector<State> states;
  };

  static bool mask_any(const Mask& m) noexcept {
    std::uint64_t r = 0;
    for (int w = 0; w < NW; ++w) r |= m[w];
    return r != 0;
  }

  std::uint8_t idx_of(int node, std::size_t lane) const noexcept {
    if (bit_sliced_) {
      const auto& p = p_[static_cast<std::size_t>(node)];
      const std::size_t w = lane / kLanesPerWord;
      const std::size_t bit = lane % kLanesPerWord;
      return static_cast<std::uint8_t>(((p[0][w] >> bit) & 1) | (((p[1][w] >> bit) & 1) << 1));
    }
    return cur_[static_cast<std::size_t>(node) * W_ + lane];
  }

  // Scatter a 2-bit state index into the lane's slot of a bitplane pair.
  static void set_planes(std::array<Mask, 2>& p, std::size_t lane, std::uint8_t v) noexcept {
    const std::size_t w = lane / kLanesPerWord;
    const std::size_t bit = lane % kLanesPerWord;
    p[0][w] = (p[0][w] & ~(1ULL << bit)) | (static_cast<std::uint64_t>(v & 1) << bit);
    p[1][w] = (p[1][w] & ~(1ULL << bit)) | (static_cast<std::uint64_t>((v >> 1) & 1) << bit);
  }

  void set_idx(int node, std::size_t lane, std::uint8_t v) noexcept {
    if (bit_sliced_) {
      set_planes(p_[static_cast<std::size_t>(node)], lane, v);
    } else {
      cur_[static_cast<std::size_t>(node) * W_ + lane] = v;
    }
  }

  // Establishes this round's profile geometry from the first forging lane:
  // the profile count, the correct-receiver-to-profile map, and the forged
  // plane / byte-row storage ((profile, sender) slots).
  void set_profiles(const ForgedRound& fr) {
    SC_REQUIRE(fr.num_profiles >= 1, "forge_block produced no profiles");
    nprof_ = fr.num_profiles;
    const std::size_t slots = static_cast<std::size_t>(nprof_) * faulty_ids_.size();
    if (bit_sliced_) {
      if (fpp_.size() < slots) {
        fpp_.resize(slots);
        eqf_.resize(slots);
      }
    } else if (fbp_.size() < slots * W_) {
      fbp_.resize(slots * W_);
    }
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      prof_[j] = fr.profile_of.empty()
                     ? 0
                     : fr.profile_of[static_cast<std::size_t>(correct_[j])];
      SC_ASSERT(prof_[j] < nprof_);
    }
  }

  // Forges the round for every lane still in active_. Tries the lane-batched
  // index entry point first -- one virtual call and one flat slot-major index
  // buffer for the whole block, plus the state view for state-reading
  // adversaries -- and falls back to the per-lane entry points (idx, then
  // full forge_block) the first time the adversary declines.
  void forge_lanes(std::uint64_t round) {
    const std::size_t nf = faulty_ids_.size();
    if (lanes_batched_) {
      if (fidx_.empty()) fidx_.assign(correct_.size() * nf * W_, 0);
      if (!sidx_.empty()) {
        for (const NodeId i : correct_) view_row_from_planes(i);
      }
      ForgedRound& fr = frs_.front();
      if (advs_.front()->forge_lanes_idx(round, algo_, faulty_ids_, correct_,
                                         std::span<util::Rng>(rngs_),
                                         std::span<const std::uint64_t>(active_.data(), NW),
                                         fidx_.data(), fr)) {
        set_profiles(fr);
        scatter_forged(static_cast<std::size_t>(nprof_) * nf);
        return;
      }
      // Declining is rng-neutral (see the contract), so the per-lane
      // fallback below re-forges from an untouched stream.
      lanes_batched_ = false;
    }
    const ForgedRound* first_fr = nullptr;
    for (int w = 0; w < NW; ++w) {
      for (std::uint64_t m = active_[w]; m; m &= m - 1) {
        const std::size_t l = static_cast<std::size_t>(w) * kLanesPerWord +
                              static_cast<std::size_t>(std::countr_zero(m));
        if (!state_oblivious_) refresh_states(l);
        ForgedRound& fr = frs_[l];
        // Per-lane index path first, for strategies that fill canonical
        // indices directly; otherwise forge_block's State profiles are
        // reduced below.
        const bool idx_path = advs_[l]->forge_block_idx(round, lanes_[l].states, algo_,
                                                        faulty_ids_, correct_, rngs_[l], fr);
        if (!idx_path) {
          advs_[l]->forge_block(round, lanes_[l].states, algo_, faulty_ids_, correct_,
                                rngs_[l], fr);
        }
        if (first_fr == nullptr) {
          first_fr = &fr;
          set_profiles(fr);
        } else {
          // The receiver-to-profile map must be lane-invariant (see the
          // ForgedRound contract); only the profile payloads may differ.
          SC_ASSERT(fr.num_profiles == nprof_ && fr.profile_of == first_fr->profile_of);
        }
        const std::size_t slots = static_cast<std::size_t>(nprof_) * nf;
        if (idx_path) {
          for (std::size_t s = 0; s < slots; ++s) store_forged(s, l, fr.idx[s]);
        } else {
          for (std::size_t s = 0; s < slots; ++s) {
            // bits = ceil_log2(ns) keeps the raw field below 2*ns, so the
            // canonical reduction is a conditional subtract, not a divide.
            std::uint64_t v = fr.states[s].get_bits(0, ct_.bits);
            if (v >= ns_) v -= ns_;
            store_forged(s, l, static_cast<std::uint8_t>(v));
          }
        }
      }
    }
  }

  // Moves the lane-batched index buffer (fidx_, slot-major: [slot * W + lane])
  // into the kernel's forged storage. The SoA rows ARE that layout, so the
  // buffer is copied row-wise. Bit-sliced planes are rebuilt one whole word
  // at a time from 64 contiguous bytes -- per-lane set_planes would
  // read-modify-write the same plane word 64 times in a serial dependency
  // chain. Inactive lanes contribute stale bits; that is fine, every plane
  // consumer masks with active_.
  void scatter_forged(std::size_t slots) {
    if (!bit_sliced_) {
      std::copy_n(fidx_.data(), slots * W_, fbp_.data());
      return;
    }
    for (std::size_t s = 0; s < slots; ++s) {
      const std::uint8_t* row = fidx_.data() + s * W_;
      for (int w = 0; w < NW; ++w) {
        const std::size_t base = static_cast<std::size_t>(w) * kLanesPerWord;
        if (base >= W_) break;
        const std::size_t count = std::min(kLanesPerWord, W_ - base);
        std::uint64_t b0 = 0;
        std::uint64_t b1 = 0;
        planes_from_bytes(row + base, count, b0, b1);
        fpp_[s][0][w] = b0;
        fpp_[s][1][w] = b1;
      }
    }
  }

  // Transposes node i's bitplanes into its row of the bit-sliced state view
  // (every lane; inactive lanes carry stale values nobody reads).
  void view_row_from_planes(NodeId i) noexcept {
    const auto& p = p_[static_cast<std::size_t>(i)];
    std::uint8_t* row = sidx_.data() + static_cast<std::size_t>(i) * W_;
    for (int w = 0; w < NW; ++w) {
      const std::size_t base = static_cast<std::size_t>(w) * kLanesPerWord;
      if (base >= W_) break;
      bytes_from_planes(p[0][w], p[1][w], std::min(kLanesPerWord, W_ - base), row + base);
    }
  }

  void store_forged(std::size_t slot, std::size_t lane, std::uint8_t v) noexcept {
    if (bit_sliced_) {
      set_planes(fpp_[slot], lane, v);
    } else {
      fbp_[slot * W_ + lane] = v;
    }
  }

  void refresh_states(std::size_t lane) {
    LaneCold& ln = lanes_[lane];
    for (const NodeId i : correct_) {
      State s;
      s.set_bits(0, ct_.bits, idx_of(i, lane));
      ln.states[static_cast<std::size_t>(i)] = s;
    }
  }

  void record_lane(std::size_t lane) {
    LaneCold& ln = lanes_[lane];
    if (cfg_.record_outputs) {
      std::vector<std::uint64_t> outs(correct_.size());
      for (std::size_t j = 0; j < correct_.size(); ++j) {
        outs[j] = ct_.out(correct_[j], idx_of(correct_[j], lane));
      }
      ln.result.outputs.push_back(std::move(outs));
    }
    if (cfg_.record_states) {
      refresh_states(lane);
      ln.result.states.push_back(ln.states);
    }
  }

  // eq[v] = mask of lanes whose 2-bit plane value equals v.
  static std::array<Mask, 4> eq_masks(const std::array<Mask, 2>& p) noexcept {
    std::array<Mask, 4> e;
    for (int w = 0; w < NW; ++w) {
      e[0][w] = ~p[0][w] & ~p[1][w];
      e[1][w] = p[0][w] & ~p[1][w];
      e[2][w] = ~p[0][w] & p[1][w];
      e[3][w] = p[0][w] & p[1][w];
    }
    return e;
  }

  void transition_bit_sliced() {
    const auto nn = static_cast<std::size_t>(n_);
    const std::size_t nf = faulty_ids_.size();
    // eqc_ (equality bitplanes of the true states, shared by every receiver
    // because correct senders broadcast) was computed by the round summary;
    // each (profile, sender) forgery gets its own planes, shared by all
    // receivers mapped to that profile.
    for (std::size_t s = 0; s < static_cast<std::size_t>(nprof_) * nf; ++s) {
      eqf_[s] = eq_masks(fpp_[s]);
    }
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      const NodeId i = correct_[j];
      const std::uint64_t* st = ct_.stride.data() + static_cast<std::size_t>(i) * nn;
      // Per-sender equality masks as seen by this receiver's profile.
      const std::size_t pbase = static_cast<std::size_t>(prof_[j]) * nf;
      for (std::size_t s = 0; s < nn; ++s) {
        const int k = sender_kind_[s];
        eqp_[s] = k < 0 ? &eqc_[s] : &eqf_[pbase + static_cast<std::size_t>(k)];
      }
      // Depth-first enumeration of the live part of the index space: a
      // branch dies as soon as no active lane matches its value prefix, so
      // after stabilisation (all lanes agreeing) a round costs O(n) words.
      Mask np0{};
      Mask np1{};
      const auto dfs = [&](auto&& self, std::size_t s, const Mask& mask,
                           std::uint64_t off) -> void {
        if (s == nn) {
          const std::uint8_t t = ct_.g[off];
          if (t & 1) {
            for (int w = 0; w < NW; ++w) np0[w] |= mask[w];
          }
          if (t & 2) {
            for (int w = 0; w < NW; ++w) np1[w] |= mask[w];
          }
          return;
        }
        const auto& e = *eqp_[s];
        for (std::uint64_t v = 0; v < ns_; ++v) {
          Mask sub;
          std::uint64_t alive = 0;
          for (int w = 0; w < NW; ++w) {
            sub[w] = mask[w] & e[v][w];
            alive |= sub[w];
          }
          if (alive != 0) self(self, s + 1, sub, off + st[s] * v);
        }
      };
      dfs(dfs, 0, active_, ct_.node_base[static_cast<std::size_t>(i)]);
      np_[static_cast<std::size_t>(i)] = {np0, np1};
    }
    for (const NodeId i : correct_) {
      p_[static_cast<std::size_t>(i)] = np_[static_cast<std::size_t>(i)];
    }
  }

  void transition_soa() {
    const auto nn = static_cast<std::size_t>(n_);
    const std::size_t nf = faulty_ids_.size();
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      const NodeId i = correct_[j];
      const std::uint64_t* st = ct_.stride.data() + static_cast<std::size_t>(i) * nn;
      const std::size_t pbase = static_cast<std::size_t>(prof_[j]) * nf;
      std::fill(acc_.begin(), acc_.end(),
                static_cast<std::uint32_t>(ct_.node_base[static_cast<std::size_t>(i)]));
      for (std::size_t s = 0; s < nn; ++s) {
        const int k = sender_kind_[s];
        const std::uint8_t* src =
            k < 0 ? cur_.data() + s * W_
                  : fbp_.data() + (pbase + static_cast<std::size_t>(k)) * W_;
        const auto sv = static_cast<std::uint32_t>(st[s]);
        for (std::size_t l = 0; l < W_; ++l) acc_[l] += sv * src[l];
      }
      std::uint8_t* dst = nxt_.data() + static_cast<std::size_t>(i) * W_;
      for (std::size_t l = 0; l < W_; ++l) dst[l] = ct_.g[acc_[l]];
    }
    for (const NodeId i : correct_) {
      std::copy_n(nxt_.data() + static_cast<std::size_t>(i) * W_, W_,
                  cur_.data() + static_cast<std::size_t>(i) * W_);
    }
  }

  const BatchConfig& cfg_;
  const counting::TableAlgorithm& algo_;
  const CompiledTable& ct_;
  const int n_;
  const std::uint64_t ns_;
  const std::size_t W_;
  const bool bit_sliced_;

  std::vector<NodeId> correct_;
  std::vector<NodeId> faulty_ids_;
  std::vector<int> sender_kind_;  // -1 = correct, else index into faulty_ids_
  bool faultless_ = true;
  bool state_oblivious_ = false;
  bool passive_rounds_ = false;
  bool static_forge_ = false;
  bool static_forged_ = false;  // the one-time static forging pass has run
  std::uint64_t margin_ = 0;
  Mask active_{};  // bitmask of lanes still running

  // Hot per-lane state, parallel arrays indexed by lane.
  std::vector<util::Rng> rngs_;
  std::vector<std::unique_ptr<Adversary>> advs_;
  std::vector<StabilisationChecker> checkers_;
  std::vector<LaneCold> lanes_;
  std::vector<ForgedRound> frs_;  // per-lane forgery scratch (persists across rounds)

  // Lane-batched forging: the slot-major [slot * W + lane] index buffer the
  // adversary fills, the bit-sliced kernel's [node * W + lane] state view
  // (empty unless the adversary reads states), and whether the lane-batched
  // entry point is still worth trying (cleared on its first decline).
  std::vector<std::uint8_t> fidx_;
  std::vector<std::uint8_t> sidx_;
  bool lanes_batched_ = true;

  // This round's profile geometry (persists across rounds for static
  // forgers): profile count, per-correct-receiver profile index, and the
  // forged (profile, sender) slots.
  int nprof_ = 1;
  std::vector<std::uint16_t> prof_;  // [correct j] -> profile index

  // Bit-sliced representation: [node] -> {bit0 plane, bit1 plane}.
  std::vector<std::array<Mask, 2>> p_, np_;
  std::vector<std::array<Mask, 2>> fpp_;         // [profile * |faulty| + k]
  std::vector<std::array<Mask, 4>> eqc_;         // [node] true-state equality planes
  std::vector<std::array<Mask, 4>> eqf_;         // [profile * |faulty| + k]
  std::vector<const std::array<Mask, 4>*> eqp_;  // [sender] view of the current receiver
  int out_bits_ = 0;              // planes per output value
  std::vector<std::uint8_t> hv_;  // [correct j * out_bits_ + b] state-value mask
  std::vector<Mask> ob_;          // [correct j * out_bits_ + b] output bitplane

  // SoA representation: [node * W + lane] canonical state indices; forged
  // rows are [(profile * |faulty| + k) * W + lane].
  std::vector<std::uint8_t> cur_, nxt_, fbp_;
  std::vector<std::uint32_t> acc_;
};

template <int NW>
void run_table_block(const BatchConfig& cfg, const counting::TableAlgorithm& table,
                     std::span<const std::uint64_t> seeds, bool bit_sliced,
                     std::vector<RunResult>& results) {
  Block<NW> block(cfg, table, seeds, bit_sliced);
  block.run();
  auto part = block.take_results();
  for (auto& r : part) results.push_back(std::move(r));
}

}  // namespace

bool batch_supported(const counting::AlgorithmPtr& algo) {
  if (algo == nullptr) return false;
  if (dynamic_cast<const counting::TableAlgorithm*>(algo.get()) != nullptr) return true;
  return ComposedCompiledTable::compile(algo) != nullptr;
}

std::vector<RunResult> run_batch(const BatchConfig& cfg) {
  SC_CHECK(cfg.algo != nullptr, "no algorithm given");
  SC_CHECK(cfg.adversary != nullptr, "no adversary factory given");
  SC_CHECK(cfg.words == 0 || cfg.words == 1 || cfg.words == 2 || cfg.words == 4 ||
               cfg.words == 8,
           "BatchConfig::words must be 0 (auto), 1, 2, 4 or 8");

  const auto table = std::dynamic_pointer_cast<const counting::TableAlgorithm>(cfg.algo);
  if (table == nullptr) {
    SC_CHECK(cfg.composed == nullptr || cfg.composed->algo.get() == cfg.algo.get(),
             "BatchConfig::composed was compiled from a different algorithm");
    const auto composed =
        cfg.composed != nullptr ? cfg.composed : ComposedCompiledTable::compile(cfg.algo);
    SC_CHECK(composed != nullptr,
             "run_batch: unsupported algorithm (need a TableAlgorithm or a "
             "boosted/pulling tower over a trivial or table base): " +
                 cfg.algo->name());
    return run_composed_batch(cfg, *composed);
  }

  const auto& ct = table->compiled();
  bool bit_sliced;
  switch (cfg.kernel) {
    case BatchKernel::kSoA:
      bit_sliced = false;
      break;
    case BatchKernel::kBitSliced:
      SC_CHECK(ct.num_states <= 4, "bit-sliced kernel needs num_states <= 4");
      bit_sliced = true;
      break;
    default:
      bit_sliced = ct.num_states <= 4;
      break;
  }

  const int words = cfg.words == 0 ? default_batch_words() : cfg.words;
  const std::size_t block_lanes = kLanesPerWord * static_cast<std::size_t>(words);
  std::vector<RunResult> results;
  results.reserve(cfg.seeds.size());
  for (std::size_t start = 0; start < cfg.seeds.size(); start += block_lanes) {
    const std::size_t count = std::min(block_lanes, cfg.seeds.size() - start);
    const auto seeds = std::span<const std::uint64_t>(cfg.seeds).subspan(start, count);
    // Tail blocks shrink to the smallest plane width covering the remaining
    // lanes; the width never changes per-lane results.
    int nw = 1;
    while (kLanesPerWord * static_cast<std::size_t>(nw) < count) nw *= 2;
    switch (nw) {
      case 1:
        run_table_block<1>(cfg, *table, seeds, bit_sliced, results);
        break;
      case 2:
        run_table_block<2>(cfg, *table, seeds, bit_sliced, results);
        break;
      case 4:
        run_table_block<4>(cfg, *table, seeds, bit_sliced, results);
        break;
      default:
        run_table_block<8>(cfg, *table, seeds, bit_sliced, results);
        break;
    }
  }
  return results;
}

}  // namespace synccount::sim
