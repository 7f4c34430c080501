#include "phaseking/phase_king.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace synccount::phaseking {

void Params::validate() const {
  SC_CHECK(N >= 1, "phase king needs at least one node");
  SC_CHECK(C >= 2, "phase king counter size must be at least 2");
  SC_CHECK(F >= 0, "resilience must be non-negative");
  SC_CHECK(N > 3 * F, "phase king requires N > 3F");
  SC_CHECK(N >= F + 2, "phase king requires at least F+2 nodes (kings)");
}

namespace {

// increment a[v]: +1 mod C; no action on ∞. Values equal to C (transient,
// from min{C, ∞}) wrap to (C+1) mod C deterministically.
inline std::uint64_t increment(std::uint64_t a, std::uint64_t C) noexcept {
  if (a == kInfinity) return a;
  return a + 1 < C ? a + 1 : (a + 1) % C;
}

// Phase 1's value buckets: a real value j < C is its own bucket; ∞ and every
// value >= C share bucket C.
inline std::uint64_t bucket_of(std::uint64_t a, std::uint64_t C) noexcept {
  return a == kInfinity ? C : std::min(a, C);
}

// Scratch for phase 1's counts z_j, sized to the received values.
thread_local ValueTally t_tally;

// Counts `received` into t_tally by bucket. Returns min{ j < C : 3 z_j >
// threshold3 }, or ∞: a value only passes once it has been received, so
// checking each value as it is counted finds them all.
std::uint64_t tally_buckets(std::span<const std::uint64_t> received, std::uint64_t C,
                            std::uint64_t threshold3) {
  t_tally.reset(received.size());
  std::uint64_t least = kInfinity;
  for (const std::uint64_t a : received) {
    const std::uint64_t j = bucket_of(a, C);
    if (3 * static_cast<std::uint64_t>(t_tally.add(j)) > threshold3 && j < C) {
      least = std::min(least, j);
    }
  }
  return least;
}

}  // namespace

Registers step_counted(const Params& p, int index, const Registers& own, std::uint64_t z_own,
                       std::uint64_t least, std::uint64_t king_a, StepMode mode) {
  SC_ASSERT(index >= 0 && index < p.tau());
  const auto N = static_cast<std::uint64_t>(p.N);
  const auto F = static_cast<std::uint64_t>(p.F);
  Registers out = own;
  switch (index % 3) {
    case 0:  // I_{3ℓ}
      if (z_own < N - F) out.a = kInfinity;
      break;
    case 1:  // I_{3ℓ+1}
      out.d = z_own >= N - F;
      out.a = least;
      break;
    default:  // I_{3ℓ+2}
      // min{C, a[ℓ]}; ∞ -> C
      if (own.a == kInfinity || !own.d) out.a = std::min<std::uint64_t>(p.C, king_a);
      out.d = true;
      break;
  }
  if (mode == StepMode::kCounting) return {increment(out.a, p.C), out.d};
  return {out.a == kInfinity ? out.a : out.a % p.C, out.d};
}

Registers step(const Params& p, int index, NodeId v, const Registers& own,
               std::span<const std::uint64_t> received_a, StepMode mode) {
  SC_ASSERT(index >= 0 && index < p.tau());
  SC_ASSERT(static_cast<int>(received_a.size()) == p.N);
  SC_ASSERT(v >= 0 && v < p.N);
  (void)v;

  std::uint64_t z_own = 0;
  std::uint64_t least = kInfinity;
  std::uint64_t king_a = 0;
  switch (index % 3) {
    case 0:
      for (const std::uint64_t a : received_a) z_own += a == own.a ? 1 : 0;
      break;
    case 1:
      least = tally_buckets(received_a, p.C, 3 * static_cast<std::uint64_t>(p.F));
      z_own = t_tally.count(bucket_of(own.a, p.C));
      break;
    default:
      king_a = received_a[static_cast<std::size_t>(index / 3)];
      break;
  }
  return step_counted(p, index, own, z_own, least, king_a, mode);
}

Registers step_sampled(const Params& p, int index, const Registers& own,
                       std::span<const std::uint64_t> sampled_a, std::uint64_t king_a) {
  SC_ASSERT(index >= 0 && index < p.tau());
  const auto M = static_cast<std::uint64_t>(sampled_a.size());
  SC_ASSERT(M > 0);
  const int phase = index % 3;
  Registers out = own;

  switch (phase) {
    case 0: {  // I_{3ℓ}, threshold N-F -> 2/3·M
      std::uint64_t same = 0;
      for (std::uint64_t a : sampled_a) {
        if (a == own.a) ++same;
      }
      if (3 * same < 2 * M) out.a = kInfinity;
      if (out.a != kInfinity) out.a = (out.a + 1) % p.C;
      break;
    }
    case 1: {  // I_{3ℓ+1}, thresholds N-F -> 2/3·M and F+1 -> >1/3·M
      out.a = tally_buckets(sampled_a, p.C, M);
      const std::uint64_t z_own = t_tally.count(bucket_of(own.a, p.C));
      out.d = 3 * z_own >= 2 * M;
      if (out.a != kInfinity) out.a = (out.a + 1) % p.C;
      break;
    }
    default: {  // I_{3ℓ+2}: the king is pulled directly, semantics unchanged
      if (own.a == kInfinity || !own.d) {
        out.a = std::min<std::uint64_t>(p.C, king_a);
      }
      out.d = true;
      out.a = out.a == kInfinity ? out.a : (out.a + 1) % p.C;
      break;
    }
  }
  return out;
}

int a_bits(std::uint64_t C) noexcept { return util::ceil_log2(C + 1); }

}  // namespace synccount::phaseking
