// The parallel synthesis engine: cube-and-conquer with one canonical scan
// per cube across a thread pool, plus an empirical 64-lane prefilter, with
// a hard determinism contract.
//
// Layering (synthesize_portfolio):
//   * The admissible-time sweep R = min_time..max_time stays sequential,
//     mirroring synthesize_incremental's semantics.
//   * Within one R the instance is split into 2^cube_depth cubes
//     (synthesis/cube.hpp), and each cube is one task on a util::ThreadPool,
//     started in index order. The task is the canonical scan solve_cube()
//     that serve workers also run: configs in priority order, each on a
//     fresh solver with the same deterministic conflict budget, until one
//     resolves the cube. A SAT cube raises the stop flags of every
//     higher-index cube (they can no longer win; sat::Solver polls the flag
//     and returns Result::kCancelled), and a global UNSAT raises them all.
//   * The reported outcome is timing-independent: the winner is the
//     LOWEST-index SAT cube (no flag ever stops a cube below it) and its
//     model is that cube's own scan result. Scans are deterministic, so the
//     whole outcome -- verdict, winning cube and config, decoded table, and
//     the attempt stats of a found table (cubes 0..winner) -- is
//     bit-identical across thread counts and across local-pool vs
//     serve-worker execution.
//   * Decoded candidates pass a cheap empirical screen (sim::run_batch,
//     64-lane backend, random + split adversaries over a fixed seed list)
//     before the exponential game-tree verifier; an empirically falsified
//     candidate is refuted back into the search as a blocking clause
//     (counterexample-guided refinement). The encoding is exact, so this is
//     defence in depth -- the refinement loop exists to catch encoder bugs
//     at batch-screen cost instead of letting them reach users.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synthesis/cube.hpp"
#include "synthesis/synthesize.hpp"

namespace synccount::synthesis {

// The deterministic config family, in priority order. Index 0 is the
// canonical default (MiniSat-style: false phases, no random branching);
// further entries diversify seed, phase policy, random-branch frequency,
// restart scaling and activity decay, and are tried only when every earlier
// config ran out of its conflict budget. portfolio_configs(k) is a prefix
// of portfolio_configs(k') for k <= k', so growing the portfolio never
// changes a cube that an earlier config resolves.
std::vector<sat::SolverConfig> portfolio_configs(int k);

enum class CubeVerdict { kSat, kUnsat, kUnknown };
const char* to_string(CubeVerdict v) noexcept;
CubeVerdict cube_verdict_from_string(const std::string& s);

struct CubeResult {
  CubeVerdict verdict = CubeVerdict::kUnknown;
  int config_index = -1;               // resolving config (priority order)
  bool globally_unsat = false;         // solver proved UNSAT sans assumptions
  std::uint64_t conflicts = 0;         // summed over the configs tried
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;      // in-process only (not in serve records)
  std::uint64_t restarts = 0;
  counting::TransitionTable table;     // decoded model when verdict == kSat
};

// The canonical per-cube scan, the one unit of synthesis work shared by
// serve workers and the local engine: configs tried strictly in priority
// order, each on a fresh solver with the same deterministic conflict
// budget; the first resolved verdict wins and (for SAT) its model is
// decoded.
CubeResult solve_cube(const Encoder& enc, const SynthJobSpec& job,
                      std::uint64_t cube_index);

// Convenience for serve workers: encode + solve one leased cube.
CubeResult solve_cube(const SynthJobSpec& job, std::uint64_t cube_index);

struct ParallelOptions {
  SynthesisOptions base;        // time sweep + per-config conflict budget
  int portfolio = 4;            // K configs each cube's scan may try
  int cube_depth = 3;           // 2^d cubes per R (0 = a single cube)
  int threads = 0;              // pool width; 0 = hardware concurrency
  bool prefilter = true;        // empirical screen before the exact verifier
  int prefilter_seeds = 128;    // lanes per (adversary, placement) screen
  int max_refinements = 8;      // CEGAR blocking-clause rounds per R
};

// Diagnostics of one synthesize_portfolio call. The four cube counters
// include moot cubes (above a winner, or after a global UNSAT), so they vary
// with timing; everything else does not.
struct ParallelOutcomeInfo {
  std::uint64_t cubes_sat = 0;
  std::uint64_t cubes_unsat = 0;
  std::uint64_t cubes_unknown = 0;
  std::uint64_t cubes_cancelled = 0;   // moot cubes skipped or interrupted
  std::uint64_t prefilter_runs = 0;    // candidate tables screened
  std::uint64_t prefilter_rejections = 0;  // empirically falsified candidates
  std::uint64_t winning_cube = 0;      // valid when found
  int winning_config = -1;             // valid when found
};

// Empirical candidate screen: runs the table under the random and split
// adversaries (spread + prefix placements, `seeds` fixed lanes each) on the
// batched backend and checks every lane stabilises within the claimed bound.
// Deterministic: fixed seed list, bit-identical backend. Returns true when
// the candidate survives.
bool prefilter_candidate(const counting::TransitionTable& table,
                         std::uint64_t claimed_time, int seeds);

// A clause forbidding exactly this table's (g, h) assignment, for
// counterexample-guided refinement.
std::vector<sat::ExtLit> blocking_clause_for(const Encoder& enc,
                                             const counting::TransitionTable& table);

// The parallel driver. Same contract as synthesize_incremental (found /
// budget_exhausted / UNSAT-proof semantics, per-R attempts in
// outcome.attempts), plus `info` diagnostics when non-null. A round's
// attempt stats sum the scans of cubes 0..winner when it found a model, and
// every finished scan otherwise. The returned table is bit-identical for
// fixed (spec, options ex. threads) across any thread count, and matches
// what serve workers produce for the same SynthJobSpec -- see the
// determinism notes above.
SynthesisOutcome synthesize_portfolio(SynthesisSpec spec,
                                      const ParallelOptions& options,
                                      ParallelOutcomeInfo* info = nullptr);

}  // namespace synccount::synthesis
