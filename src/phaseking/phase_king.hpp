// The self-stabilising adaptation of the phase king protocol [1]
// (paper, Section 3.4 and Table 2).
//
// Registers per node v: a[v] in [C] ∪ {∞} (the counting output; ∞ is the
// reset state) and d[v] in {0,1}. For each king ℓ in [F+2] there are three
// instruction sets, executed when the voted round counter R equals 3ℓ,
// 3ℓ+1, 3ℓ+2 (τ = 3(F+2) instruction sets in total):
//
//   I_{3ℓ}:   1. if fewer than N−F nodes sent a[v], a[v] ← ∞
//             2. increment a[v]
//   I_{3ℓ+1}: 1. z_j = |{u : a[u] = j}|
//             2. d[v] ← (z_{a[v]} ≥ N−F)
//             3. a[v] ← min{ j : z_j > F }
//             4. increment a[v]
//   I_{3ℓ+2}: 1. if a[v] = ∞ or d[v] = 0, a[v] ← min{C, a[ℓ]}
//             2. d[v] ← 1; increment a[v]
//
// where `increment` is +1 mod C and a no-op on ∞. Edge semantics follow the
// paper literally (see DESIGN.md): min over an empty set is ∞, and
// min{C, ∞} = C, an out-of-range value whose increment (C+1) mod C is
// deterministic and identical at every correct node -- which is all that
// Lemma 4 requires.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace synccount::phaseking {

using NodeId = int;

// The reset value ∞.
inline constexpr std::uint64_t kInfinity = ~std::uint64_t{0};

struct Params {
  int N = 0;           // number of nodes
  int F = 0;           // resilience, F < N/3
  std::uint64_t C = 0; // counter size, C > 1

  // τ = 3(F+2): the number of instruction sets / length of the control
  // counter required by the protocol.
  int tau() const noexcept { return 3 * (F + 2); }

  void validate() const;
};

struct Registers {
  std::uint64_t a = 0;  // value in [C] or kInfinity (or transiently C, see above)
  bool d = false;

  friend bool operator==(const Registers&, const Registers&) = default;
};

// Whether `increment` advances a modulo C each round (the counting
// adaptation of Section 3.4) or is a no-op (classic value consensus [1]:
// agreement on a value in [C] instead of on a counter).
enum class StepMode { kCounting, kValue };

// Executes instruction set I_{index} (index in [0, τ)) for node v, given the
// a-registers received from all N nodes this round (entry u = a[u] as sent by
// node u; entry v must be the node's own round-start a). Returns the new
// registers. O(N) time and scratch, whatever C is.
Registers step(const Params& p, int index, NodeId v, const Registers& own,
               std::span<const std::uint64_t> received_a,
               StepMode mode = StepMode::kCounting);

// Instruction set I_{index} given only what it reads from the received
// a-registers:
//   * z_own: phase 0, the entries equal to own.a; phase 1, the entries in
//     own.a's bucket, where ∞ and every value >= C share one bucket;
//   * least: phase 1, min{ j < C : z_j > F }, or ∞ if there is none;
//   * king_a: phase 2, the king's entry.
// A phase ignores the inputs it does not read. step() derives them from the
// received vector; the composed batch runner (sim/composed_runner.hpp) reads
// them off per-copy tallies.
Registers step_counted(const Params& p, int index, const Registers& own, std::uint64_t z_own,
                       std::uint64_t least, std::uint64_t king_a,
                       StepMode mode = StepMode::kCounting);

// Occurrence counts of up to n distinct 64-bit keys in O(n) space: an
// open-addressing table with linear probing, at most half full. The phase
// king counts received a-registers in one, so a step's scratch follows N
// rather than C.
class ValueTally {
 public:
  // Empties the table and sizes it for up to `n` distinct keys.
  void reset(std::size_t n) {
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(2, 2 * n));
    if (keys_.size() < cap) {
      keys_.resize(cap);
      counts_.resize(cap);
    }
    std::fill_n(counts_.begin(), cap, 0);
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
  }

  // Counts one more `key`; returns its count.
  std::uint32_t add(std::uint64_t key) noexcept {
    const std::size_t i = find(key);
    keys_[i] = key;
    return ++counts_[i];
  }

  // Takes back one add(key). Takes that run in reverse order of the adds
  // they undo leave the table exactly as it was before those adds.
  void undo(std::uint64_t key) noexcept { --counts_[find(key)]; }

  std::uint32_t count(std::uint64_t key) const noexcept { return counts_[find(key)]; }

 private:
  // The slot holding `key`, or the empty slot (count 0) it would take.
  std::size_t find(std::uint64_t key) const noexcept {
    std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (counts_[i] != 0 && keys_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> counts_;  // 0 marks an empty slot
  std::size_t mask_ = 0;
  int shift_ = 63;
};

// Sampled variant for the pulling model (Section 5, Lemma 8): instead of all
// N values the node inspects M uniformly sampled a-registers (a multiset,
// sampled with repetition); the N−F threshold becomes "at least 2/3·M" and
// the F+1 threshold becomes "more than 1/3·M". The king's register is pulled
// directly (one extra message) and passed as `king_a`.
Registers step_sampled(const Params& p, int index, const Registers& own,
                       std::span<const std::uint64_t> sampled_a, std::uint64_t king_a);

// Encoding helpers: a-register <-> bit pattern of width a_bits(C).
// ∞ is encoded as the value C; arbitrary (Byzantine) bit patterns decode by
// clamping to [0, C], i.e. every pattern is a valid register value.
int a_bits(std::uint64_t C) noexcept;

inline std::uint64_t encode_a(std::uint64_t a, std::uint64_t C) noexcept {
  return a == kInfinity ? C : std::min(a, C);
}

inline std::uint64_t decode_a(std::uint64_t bits, std::uint64_t C) noexcept {
  return bits >= C ? kInfinity : bits;
}

}  // namespace synccount::phaseking
