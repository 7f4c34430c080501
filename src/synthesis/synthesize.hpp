// Synthesis driver: sweeps the admissible stabilisation-time bound R upward,
// encodes each instance, solves it with the CDCL solver, decodes the first
// model into a transition table and certifies it with the exact verifier
// (defence in depth: the verifier recomputes the worst-case time).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "synthesis/encoder.hpp"
#include "synthesis/verifier.hpp"

namespace synccount::synthesis {

struct SynthesisOptions {
  int min_time = 1;                     // first R to try
  int max_time = 16;                    // last R to try
  std::uint64_t conflict_budget = 0;    // per solve() call; 0 = unlimited
};

// Per-R solver effort: one entry per attempted time bound, with the solver
// stat deltas attributable to that attempt (not cumulative totals).
struct AttemptStats {
  int time_bound = 0;             // the R this attempt targeted
  std::string result;             // "sat" | "unsat" | "unsat-assumptions" |
                                  // "unknown" | "cancelled"
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
};

struct SynthesisOutcome {
  bool found = false;
  bool budget_exhausted = false;              // some solve() returned kUnknown
  counting::TransitionTable table;            // valid when found
  int time_bound_used = 0;                    // R of the successful encoding
  std::uint64_t exact_time = 0;               // verifier-certified T(A)
  std::vector<AttemptStats> attempts;         // one entry per R attempted
  std::uint64_t total_conflicts = 0;          // sum over attempts
  Encoder::SizeInfo last_size;                // of the last encoding tried
  std::string note;

  // One line per attempt plus a totals line; stable format for logs/tests.
  std::string stats_string() const;

  // Certifies a decoded model of the time-bound-R encoding with the exact
  // verifier and records it as the found table (found, table with its
  // verified_time, time_bound_used, exact_time). Throws std::logic_error
  // when the verifier rejects the model or finds it slower than R.
  void certify(counting::TransitionTable model, int time_bound);
};

// Synthesises a counter for the given spec (the spec's max_time is ignored;
// the options' sweep is used instead). Returns found = false with
// budget_exhausted = false when every R in the sweep is UNSAT -- a proof
// that no such algorithm exists within the state budget and time sweep.
SynthesisOutcome synthesize(SynthesisSpec spec, const SynthesisOptions& options);

// Same contract, but encodes once at max_time and sweeps the admissible
// stabilisation time via assumption literals (Encoder::rank_exceeds_var):
// learned clauses persist across the sweep, which typically beats the
// re-encoding loop by a wide margin on the UNSAT prefix of the sweep.
SynthesisOutcome synthesize_incremental(SynthesisSpec spec, const SynthesisOptions& options);

// The computer-designed building block of [5]: a 1-resilient 2-counter for
// n = 4 nodes with 3 states (cyclic symmetry) and exact worst-case
// stabilisation time 6. Discovered once by this pipeline (re-synthesis takes
// CPU-seconds; see bench_synthesis), embedded as source and re-certified by
// the exact verifier on first use.
counting::AlgorithmPtr computer_designed_4_1();

}  // namespace synccount::synthesis
