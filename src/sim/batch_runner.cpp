#include "sim/batch_runner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#include <span>

#include "sim/composed_runner.hpp"
#include "sim/lanes.hpp"
#include "util/check.hpp"

namespace synccount::sim {

int default_batch_words() noexcept {
  static const int words = [] {
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

// One block of up to 64 * NW lanes advanced in lockstep on a compiled table.
// NW is the plane word count (1/2/4/8): every bitplane is an array of NW
// uint64_t, so the word-wise loops auto-vectorise into 64*NW-bit operations.
// The lanes' Rngs, adversaries, checkers and results live in lanes_
// (sim/lanes.hpp); this class holds the states as canonical indices.
template <int NW>
class Block {
 public:
  using Mask = LaneMask<NW>;

  Block(const BatchConfig& cfg, const counting::TableAlgorithm& algo, const Placement& placement,
        std::span<const std::uint64_t> seeds, bool bit_sliced)
      : lanes_(cfg, placement, seeds),
        algo_(algo),
        ct_(algo.compiled()),
        n_(ct_.n),
        ns_(ct_.num_states),
        W_(seeds.size()),
        bit_sliced_(bit_sliced),
        correct_(placement.correct_ids),
        faulty_ids_(placement.faulty_ids),
        faulty_index_(placement.faulty_index) {
    const auto nn = static_cast<std::size_t>(n_);
    prof_.assign(correct_.size(), 0);

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

    for (std::size_t l = 0; l < W_; ++l) {
      const std::vector<State>& states = lanes_.states(l);
      for (int i = 0; i < n_; ++i) {
        set_idx(i, l, static_cast<std::uint8_t>(
                          algo.state_to_index(states[static_cast<std::size_t>(i)])));
      }
    }
    // State-reading adversaries forge lane-batched from a view of every
    // node's state index (ForgedRound::state_idx). The SoA rows are that
    // view; the bit-sliced kernel keeps a byte copy whose faulty rows never
    // change and whose correct rows are transposed before each forge.
    if (!lanes_.state_oblivious()) {
      if (bit_sliced_) {
        sidx_.assign(nn * W_, 0);
        for (const NodeId i : faulty_ids_) view_row_from_planes(i);
      }
      lanes_.forged(0).state_idx = bit_sliced_ ? sidx_ : cur_;
    }
  }

  void run(std::vector<RunResult>& results) {
    for (std::uint64_t round = 0; round < lanes_.max_rounds() && lanes_.any(); ++round) {
      // --- Round summary: outputs + agreement --------------------------------
      // Bit-sliced kernel: one pass over the state bitplanes yields, for all
      // lanes at once, each correct node's output planes and the "all correct
      // outputs equal" mask. The SoA kernel summarises per lane from the
      // byte rows.
      Mask agreed;
      agreed.fill(~0ULL);
      if (bit_sliced_) {
        for (const NodeId i : correct_) {
          eqc_[static_cast<std::size_t>(i)] = eq_planes<NW>(p_[static_cast<std::size_t>(i)]);
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

      // --- Per-lane pass: checker, recording, early exit ---------------------
      lanes_.for_each_active([&](std::size_t l) {
        const std::size_t w = l / kLanesPerWord;
        const std::size_t bit = l % kLanesPerWord;
        bool lane_agreed = true;
        std::uint64_t value = 0;
        if (bit_sliced_) {
          for (int b = 0; b < out_bits_; ++b) {
            value |= ((ob_[static_cast<std::size_t>(b)][w] >> bit) & 1) << b;
          }
          lane_agreed = ((agreed[w] >> bit) & 1) != 0;
        } else {
          value = ct_.out(correct_.front(), idx_of(correct_.front(), l));
          for (std::size_t j = 1; j < correct_.size(); ++j) {
            if (ct_.out(correct_[j], idx_of(correct_[j], l)) != value) {
              lane_agreed = false;
              break;
            }
          }
        }
        lanes_.observe(*this, l, round, lane_agreed, value);
      });
      // Forging runs below the per-lane pass so that one lane-batched
      // adversary call can serve the whole block. The deferral is
      // unobservable: nothing between a lane's observe and its forging draws
      // from its rng, and lanes are independent streams.
      if (lanes_.forging()) {
        forge_lanes(round);
        lanes_.forged_round();
      }
      if (!lanes_.any()) break;

      // --- Transition: all lanes in one pass ---------------------------------
      if (bit_sliced_) {
        transition_bit_sliced();
      } else {
        transition_soa();
      }
    }
    lanes_.finish(results);
  }

  // Kernel members the lane driver calls.
  void refresh_states(std::size_t lane) {
    std::vector<State>& states = lanes_.states(lane);
    for (const NodeId i : correct_) {
      State s;
      s.set_bits(0, ct_.bits, idx_of(i, lane));
      states[static_cast<std::size_t>(i)] = s;
    }
  }

  std::vector<std::uint64_t> lane_outputs(std::size_t lane) const {
    std::vector<std::uint64_t> outs(correct_.size());
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      outs[j] = ct_.out(correct_[j], idx_of(correct_[j], lane));
    }
    return outs;
  }

 private:
  std::uint8_t idx_of(int node, std::size_t lane) const noexcept {
    if (bit_sliced_) {
      const auto& p = p_[static_cast<std::size_t>(node)];
      const std::size_t w = lane / kLanesPerWord;
      const std::size_t bit = lane % kLanesPerWord;
      return static_cast<std::uint8_t>(((p[0][w] >> bit) & 1) | (((p[1][w] >> bit) & 1) << 1));
    }
    return cur_[static_cast<std::size_t>(node) * W_ + lane];
  }

  void set_idx(int node, std::size_t lane, std::uint8_t v) noexcept {
    if (bit_sliced_) {
      set_lane<NW>(p_[static_cast<std::size_t>(node)], lane, v);
    } else {
      cur_[static_cast<std::size_t>(node) * W_ + lane] = v;
    }
  }

  // Establishes this round's profile geometry from a checked forged round:
  // the profile count, the correct-receiver-to-profile map, and the forged
  // plane / byte-row storage ((profile, sender) slots).
  void set_profiles(const ForgedRound& fr) {
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
      prof_[j] = fr.profile_of.empty() ? 0 : fr.profile_of[static_cast<std::size_t>(correct_[j])];
    }
  }

  // Forges the round for every active lane. Tries the lane-batched index
  // entry point first -- one virtual call and one flat slot-major index
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
      ForgedRound& fr = lanes_.forged(0);
      if (lanes_.adversary(0).forge_lanes_idx(
              round, algo_, faulty_ids_, correct_, lanes_.rngs(),
              std::span<const std::uint64_t>(lanes_.active().data(), NW), fidx_.data(), fr)) {
        lanes_.check_profiles(fr, nullptr);
        set_profiles(fr);
        scatter_forged(static_cast<std::size_t>(nprof_) * nf);
        return;
      }
      // Declining is rng-neutral (see the contract), so the per-lane
      // fallback below re-forges from an untouched stream.
      lanes_batched_ = false;
    }
    const ForgedRound* first = nullptr;
    lanes_.for_each_active([&](std::size_t l) {
      const bool idx_path = lanes_.forge_lane(*this, l, round, /*try_idx=*/true, first);
      const ForgedRound& fr = lanes_.forged(l);
      if (first == &fr) set_profiles(fr);
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
    });
  }

  // Moves the lane-batched index buffer (fidx_, slot-major: [slot * W + lane])
  // into the kernel's forged storage. The SoA rows ARE that layout, so the
  // buffer is copied row-wise. Bit-sliced planes are rebuilt one whole word
  // at a time from 64 contiguous bytes -- per-lane set_lane would
  // read-modify-write the same plane word 64 times in a serial dependency
  // chain. Inactive lanes contribute stale bits; that is fine, every plane
  // consumer masks with the active lanes.
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
      set_lane<NW>(fpp_[slot], lane, v);
    } else {
      fbp_[slot * W_ + lane] = v;
    }
  }

  void transition_bit_sliced() {
    const auto nn = static_cast<std::size_t>(n_);
    const std::size_t nf = faulty_ids_.size();
    // eqc_ (equality bitplanes of the true states, shared by every receiver
    // because correct senders broadcast) was computed by the round summary;
    // each (profile, sender) forgery gets its own planes, shared by all
    // receivers mapped to that profile.
    for (std::size_t s = 0; s < static_cast<std::size_t>(nprof_) * nf; ++s) {
      eqf_[s] = eq_planes<NW>(fpp_[s]);
    }
    for (std::size_t j = 0; j < correct_.size(); ++j) {
      const NodeId i = correct_[j];
      // Per-sender equality planes as seen by this receiver's profile.
      const std::size_t pbase = static_cast<std::size_t>(prof_[j]) * nf;
      for (std::size_t s = 0; s < nn; ++s) {
        const int k = faulty_index_[s];
        eqp_[s] = k < 0 ? &eqc_[s] : &eqf_[pbase + static_cast<std::size_t>(k)];
      }
      np_[static_cast<std::size_t>(i)] = table_step<NW>(ct_, i, eqp_.data(), lanes_.active());
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
        const int k = faulty_index_[s];
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

  Lanes<NW> lanes_;
  const counting::TableAlgorithm& algo_;
  const CompiledTable& ct_;
  const int n_;
  const std::uint64_t ns_;
  const std::size_t W_;
  const bool bit_sliced_;
  const std::vector<NodeId>& correct_;
  const std::vector<NodeId>& faulty_ids_;
  const std::vector<int>& faulty_index_;  // [node] -> -1 correct, else index into faulty_ids_

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
  std::vector<Planes<NW>> p_, np_;
  std::vector<Planes<NW>> fpp_;              // [profile * |faulty| + k]
  std::vector<EqPlanes<NW>> eqc_;            // [node] true-state equality planes
  std::vector<EqPlanes<NW>> eqf_;            // [profile * |faulty| + k]
  std::vector<const EqPlanes<NW>*> eqp_;     // [sender] view of the current receiver
  int out_bits_ = 0;              // planes per output value
  std::vector<std::uint8_t> hv_;  // [correct j * out_bits_ + b] state-value mask
  std::vector<Mask> ob_;          // [correct j * out_bits_ + b] output bitplane

  // SoA representation: [node * W + lane] canonical state indices; forged
  // rows are [(profile * |faulty| + k) * W + lane].
  std::vector<std::uint8_t> cur_, nxt_, fbp_;
  std::vector<std::uint32_t> acc_;
};

}  // namespace

std::vector<RunResult> run_batch(const BatchConfig& cfg) {
  SC_CHECK(cfg.algo != nullptr, "no algorithm given");
  SC_CHECK(cfg.adversary != nullptr, "no adversary factory given");
  SC_CHECK(cfg.words == 0 || cfg.words == 1 || cfg.words == 2 || cfg.words == 4 ||
               cfg.words == 8,
           "BatchConfig::words must be 0 (auto), 1, 2, 4 or 8");

  // One placement for the whole call, so a bad fault vector is rejected even
  // when there are no seeds.
  const Placement placement(*cfg.algo, cfg.faulty);
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
    return run_composed_batch(cfg, *composed, placement);
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
  return run_blocks(
      cfg.seeds, kLanesPerWord * static_cast<std::size_t>(words),
      [&](std::span<const std::uint64_t> seeds, std::vector<RunResult>& results) {
        // Tail blocks shrink to the smallest plane width covering the
        // remaining lanes; the width never changes per-lane results.
        if (seeds.size() <= kLanesPerWord) {
          Block<1>(cfg, *table, placement, seeds, bit_sliced).run(results);
        } else if (seeds.size() <= 2 * kLanesPerWord) {
          Block<2>(cfg, *table, placement, seeds, bit_sliced).run(results);
        } else if (seeds.size() <= 4 * kLanesPerWord) {
          Block<4>(cfg, *table, placement, seeds, bit_sliced).run(results);
        } else {
          Block<8>(cfg, *table, placement, seeds, bit_sliced).run(results);
        }
      });
}

}  // namespace synccount::sim
