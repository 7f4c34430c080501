// Per-thread scratch for the scalar tower transitions.
//
// BoostedCounter::transition and PullingBoostedCounter::transition run once
// per node and round on the scalar runner, and a tower nests them: a level
// calls its inner level's transition while its own buffers are still live.
// Each call leases the calling thread's frame for its nesting depth, so a
// transition allocates only while a frame grows to the largest level that
// thread has run. phase_king.cpp's thread_local ValueTally is the same idea
// one level deep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitio.hpp"

namespace synccount::boosting {

// The buffers one level's transition borrows. A boosted level keeps per-node
// values in b, r and a; a pulling level keeps per-sample values there.
struct TowerFrame {
  std::vector<util::BitVec> block_states;  // the own block's inner states
  std::vector<std::uint64_t> b;            // leader pointers
  std::vector<std::uint64_t> r;            // round counters
  std::vector<std::uint64_t> leaders;      // block votes b^{i'}
  std::vector<std::uint64_t> a;            // phase-king a registers
  std::vector<std::uint32_t> samples;      // pulling: M node indices per block
  std::vector<std::uint32_t> counts;       // majority counts, all zero between uses
};

// The first n entries of `buf`, grown if it is shorter. Entries hold
// whatever an earlier lease wrote, so a caller writes all n before reading.
template <class T>
std::span<T> take(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return {buf.data(), n};
}

// The calling thread's frame for the current nesting depth, held for the
// lease's lifetime. A lease taken while another is live gets the next
// depth's frame.
class FrameLease {
 public:
  FrameLease();
  ~FrameLease();
  FrameLease(const FrameLease&) = delete;
  FrameLease& operator=(const FrameLease&) = delete;

  TowerFrame& operator*() const noexcept { return *frame_; }
  TowerFrame* operator->() const noexcept { return frame_; }

 private:
  TowerFrame* frame_;
};

}  // namespace synccount::boosting
