// Small integer-math helpers used throughout the planner and the
// constructions: ceilings of logarithms, checked powers, and modular
// arithmetic on unsigned 64-bit counters.
#pragma once

#include <cstdint>
#include <optional>

namespace synccount::util {

// Number of bits needed to store values of [0, n), i.e. ceil(log2(n)).
// ceil_log2(0) == ceil_log2(1) == 0.
int ceil_log2(std::uint64_t n) noexcept;

// floor(log2(n)) for n >= 1; returns -1 for n == 0.
int floor_log2(std::uint64_t n) noexcept;

// base^exp if it fits into uint64, std::nullopt on overflow.
std::optional<std::uint64_t> checked_pow(std::uint64_t base, unsigned exp) noexcept;

// base^exp; throws std::invalid_argument on overflow.
std::uint64_t ipow(std::uint64_t base, unsigned exp);

// a*b if it fits, nullopt on overflow.
std::optional<std::uint64_t> checked_mul(std::uint64_t a, std::uint64_t b) noexcept;

// a+b if it fits, nullopt on overflow.
std::optional<std::uint64_t> checked_add(std::uint64_t a, std::uint64_t b) noexcept;

// (a + b) mod m for m > 0.
std::uint64_t add_mod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept;

// Positive remainder of a mod m for m > 0 (a may be "negative" via wraparound
// semantics of signed input).
std::uint64_t mod_i64(std::int64_t a, std::uint64_t m) noexcept;

// Ceiling division for non-negative integers, b > 0.
std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept;

// Least common multiple with overflow check; throws on overflow.
std::uint64_t lcm_checked(std::uint64_t a, std::uint64_t b);

// Division by a divisor d > 0 fixed ahead of use. For a dividend and d below
// 2^32, one 64x64->128-bit multiply by a precomputed reciprocal gives the
// exact quotient (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019); other operands take the hardware divide.
class Divisor {
 public:
  explicit Divisor(std::uint64_t d) noexcept
      : d_(d), m_(d > 1 && d < (std::uint64_t{1} << 32) ? ~std::uint64_t{0} / d + 1 : 0) {}

  std::uint64_t quot(std::uint64_t n) const noexcept {
    if (m_ != 0 && n < (std::uint64_t{1} << 32)) {
      return static_cast<std::uint64_t>((static_cast<unsigned __int128>(m_) * n) >> 64);
    }
    return n / d_;
  }
  std::uint64_t rem(std::uint64_t n) const noexcept { return n - quot(n) * d_; }

 private:
  std::uint64_t d_;
  std::uint64_t m_;  // reciprocal, or 0 to take the hardware divide
};

}  // namespace synccount::util
