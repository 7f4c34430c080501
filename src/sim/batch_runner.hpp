// Batched execution backends.
//
// run_batch advances W independent executions of the same (algorithm, fault
// placement, adversary class) cell-group in lockstep, one round at a time,
// and dispatches on the algorithm's structure:
//
//  * TableAlgorithm -- the bit-parallel path. States live in a
//    canonical-index representation instead of BitVecs: a structure-of-arrays
//    byte layout in the general case, and for num_states <= 4 a bit-sliced
//    layout that packs one state-bitplane of 64 executions into each
//    uint64_t. Planes are multi-word (1/2/4/8 x uint64_t, i.e. up to
//    512-bit, auto-vectorised), so one enumeration pass over the compiled
//    table advances up to 512 executions; the width is picked once per
//    process from the host ISA (default_batch_words) unless pinned via
//    BatchConfig::words. The bit-sliced table step (sim/lanes.hpp) is the
//    one the composed path runs on num_states <= 4 table bases.
//  * BoostedCounter / PullingBoostedCounter towers -- the composed path
//    (sim/composed_runner.hpp). Each boosting level is compiled into field
//    stages (base kernel, per-copy votes, phase-king glue) evaluated on a
//    decomposed per-node field vector, with per-copy vote sharing for
//    receiver-oblivious adversaries.
//
// Forged messages are produced per lane-round through the adversary's bulk
// entry point (Adversary::forge_block): a handful of receiver *profiles*
// plus a lane-invariant receiver-to-profile map, so the kernels build
// equality planes / byte rows once per (profile, sender) instead of once per
// receiver.
//
// Both paths drive their lanes through one lane driver (sim/lanes.hpp): one
// Rng, Adversary and StabilisationChecker per lane, the scalar runner's
// round-0 draw, placement check and stabilised rule (sim/runner.hpp), and
// every adversary call in exactly the scalar runner's order. So every lane's
// RunResult is bit-identical to run_execution on the same seed, and the
// engine can mix backends freely without changing any aggregate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "sim/adversary.hpp"
#include "sim/runner.hpp"

namespace synccount::sim {

// Which transition kernel the TableAlgorithm path of run_batch uses. kAuto
// picks kBitSliced whenever the table allows it (num_states <= 4) and kSoA
// otherwise. Composed algorithms have a single kernel and accept only kAuto;
// run_batch / run_composed_batch throw std::invalid_argument on kSoA or
// kBitSliced rather than silently ignoring the request.
enum class BatchKernel { kAuto, kSoA, kBitSliced };

// Plane words per batch block on the TableAlgorithm path: the word count the
// process-wide auto width (BatchConfig::words == 0) resolves to. Picked once
// per process from the host ISA -- 8 (512-bit planes) with AVX-512F, 4
// (256-bit) with AVX2, else 2. The width never changes results, only how
// many executions one table pass advances.
int default_batch_words() noexcept;

struct ComposedCompiledTable;

struct BatchConfig {
  // A TableAlgorithm, or a BoostedCounter / PullingBoostedCounter tower over
  // a trivial or table base (one ComposedCompiledTable::compile accepts).
  counting::AlgorithmPtr algo;

  // Optional: the pre-compiled hierarchy of `algo` (must have been produced
  // by ComposedCompiledTable::compile(algo)). The engine compiles once per
  // experiment and shares it across all chunk tasks; when absent, run_batch
  // compiles on demand.
  std::shared_ptr<const ComposedCompiledTable> composed;
  std::vector<bool> faulty;          // size n; empty means no faults
  std::uint64_t max_rounds = 1000;
  std::uint64_t margin = 0;          // 0 = resolve_margin default
  std::uint64_t stop_after_stable = 0;
  bool record_outputs = false;
  bool record_states = false;
  std::vector<State> initial;        // non-empty: fixed initial states

  // Builds the adversary for one lane; called once per lane in lane order
  // (mirroring the scalar engine, which builds one adversary per cell).
  std::function<std::unique_ptr<Adversary>()> adversary;

  std::vector<std::uint64_t> seeds;  // one execution lane per seed
  BatchKernel kernel = BatchKernel::kAuto;

  // Plane words per block on the TableAlgorithm path: 0 = auto
  // (default_batch_words), else 1, 2, 4 or 8. Tail blocks shrink to the
  // smallest width covering the remaining seeds. The composed path ignores
  // this (its blocks are single-word); any other value throws.
  int words = 0;
};

// Runs seeds.size() executions (internally in blocks of up to 64 * words
// lanes) and returns their RunResults in seed order; result[i] is
// bit-identical to run_execution with seed seeds[i] and the same margin.
// Throws std::invalid_argument on a bad fault vector (see Placement), also
// when `seeds` is empty.
std::vector<RunResult> run_batch(const BatchConfig& cfg);

}  // namespace synccount::sim
