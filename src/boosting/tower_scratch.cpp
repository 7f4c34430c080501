#include "boosting/tower_scratch.hpp"

#include <deque>

namespace synccount::boosting {

namespace {

// Frames by nesting depth. A deque keeps a live frame where it is when a
// deeper level appends the next one.
thread_local std::deque<TowerFrame> t_frames;
thread_local std::size_t t_depth = 0;

}  // namespace

FrameLease::FrameLease() {
  if (t_depth == t_frames.size()) t_frames.emplace_back();
  frame_ = &t_frames[t_depth++];
}

FrameLease::~FrameLease() { --t_depth; }

}  // namespace synccount::boosting
