// Cheap always-on per-group profiling counters.
//
// The engine records, for every (adversary, placement) group it runs, which
// execution backend the group landed on and how much simulated work it did.
// The counters are the observation layer a future adaptive backend picker
// will read (ROADMAP): before the engine can *choose* between the scalar,
// bit-parallel and composed paths per group, it has to see what each group
// actually costs on the path the static eligibility rules pick today.
//
// The engine fixes a group's backend when it plans the group's tasks. Each
// task writes its node-rounds and wall time into a slot of its own, and the
// slots are summed per group after the pool joins, so the hot path takes no
// atomic and no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace synccount::sim {

// The one sanctioned wall-clock read in the simulation layer. Profiling
// counters and elapsed-time reporting route through here so synccount-lint's
// nondet rule can see, from a single allowlisted site, that clock values feed
// observability only -- never wire bytes or experiment results.
using ProfileClock = std::chrono::steady_clock;

inline ProfileClock::time_point profile_now() noexcept {
  return ProfileClock::now();
}

struct GroupProfile {
  // Backend values.
  static constexpr int kIdle = 0;      // group ran no cells
  static constexpr int kScalar = 1;    // per-cell scalar runner
  static constexpr int kBatched = 2;   // bit-parallel table backend
  static constexpr int kComposed = 3;  // composed-tower backend

  int backend = kIdle;
  // Work in node-rounds (executed rounds x correct nodes, summed over the
  // group's cells): the unit all backends share, so per-group costs compare
  // across backend choices.
  std::uint64_t node_rounds = 0;
  // Sum of task wall-times attributed to this group, in nanoseconds. Tasks
  // run concurrently, so this is aggregate compute time, not elapsed time.
  std::uint64_t nanos = 0;

  std::string backend_name() const {
    switch (backend) {
      case kScalar: return "scalar";
      case kBatched: return "batched";
      case kComposed: return "composed";
      default: return "idle";
    }
  }
};

}  // namespace synccount::sim
