// Hierarchical batched execution of composed (boosted / pulling) counters.
//
// The paper's headline construction (Theorem 1) is not a flat transition
// table but a tower: per-block inner counters, derived leader pointers,
// majority votes and the phase-king instruction sets, stacked recursively on
// a trivial or computer-designed base. ComposedCompiledTable::compile walks
// such a tower (BoostedCounter / PullingBoostedCounter levels over a
// TrivialCounter or TableAlgorithm base) once and flattens every node state
// into a field vector -- the base state index plus one (a, d) phase-king
// register pair per level -- together with per-level stage metadata (block
// geometry, moduli, (2m)^i powers, phase-king parameters).
//
// run_composed_batch then advances up to 64 executions per block in round
// lockstep on that representation, in one of two modes:
//
//  * Profiled (the common case): the adversary's whole round is collected
//    up front through Adversary::forge_block as a few receiver profiles
//    plus a lane-invariant receiver-to-profile map, decomposed once per
//    (profile, sender) instead of re-decoding BitVecs at every level of
//    every receiver's transition. Each level's votes are computed once per
//    level copy (receiver-oblivious adversaries) or once per (profile,
//    copy), and the shared phaseking::step / step_sampled glue runs per
//    node -- zero per-round heap allocation. When the base is a
//    num_states <= 4 table, its kernel additionally runs on the flat
//    path's bit-sliced planes: one cross-lane DFS over the compiled base
//    table advances every lane's base field at once.
//
//  * Interleaved (fresh-sampling pulling towers under adversaries whose
//    message() draws randomness): forging stays interleaved with the
//    per-receiver transitions, preserving the scalar draw order exactly;
//    every receiver takes its own votes.
//
// In both modes a boosted level's votes are read from per-block tallies of
// each copy's leader pointers b and round counters r over its correct
// senders, built once per lane-round (correct senders look the same to every
// receiver). A vote adds the copy's faulty senders as its receiver sees
// them, reads the strict majorities off the counts and removes them again:
// O(faulty senders in the copy + k*m + tau) instead of decoding the copy.
//
// Per-lane Rng and Adversary instances are invoked in exactly the scalar
// runner's call order in both modes, so every lane's RunResult is
// bit-identical to run_execution on the same seed. The composed path has a
// single kernel: BatchConfig::kernel must be kAuto (kSoA / kBitSliced
// throw std::invalid_argument).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "counting/table_algorithm.hpp"
#include "phaseking/phase_king.hpp"
#include "sim/batch_runner.hpp"

namespace synccount::sim {

// One boosting level of the tower, bottom-up: level 0 sits directly on the
// base. A level with n nodes per copy runs N / n independent copies; copy c
// covers the contiguous global nodes [c*n, (c+1)*n).
struct ComposedLevel {
  enum class Kind { kBoosted, kPulling };
  Kind kind = Kind::kBoosted;

  int n = 0;        // nodes of one copy of this level
  int copies = 0;   // N / n
  int n_inner = 0;  // block size = nodes of one copy of the level below
  int k = 0;        // blocks per copy
  int m = 0;        // ceil(k/2)
  int tau = 0;      // 3(F+2)
  std::uint64_t C = 0;  // output modulus of this level
  std::vector<std::uint64_t> pow2m;  // (2m)^i, i in [0, k]
  phaseking::Params pk;

  // Bit layout of this level's registers in the flat node state.
  int a_offset = 0;  // == state_bits of the level below
  int a_bits = 0;

  // Pulling levels only (Section 5).
  int sample_size = 0;
  bool fixed_sampling = false;      // SamplingMode::kFixed
  std::uint64_t sampling_seed = 0;  // per-node stream base for kFixed
};

struct ComposedBase {
  enum class Kind { kTrivial, kTable };
  Kind kind = Kind::kTrivial;

  int n = 0;                     // nodes per base copy (1 for trivial)
  int copies = 0;
  std::uint64_t num_states = 0;  // canonical index bound: c or |X|
  int bits = 0;                  // base field width in the state layout
  // kTable: the shared flat kernel (owned by the algorithm, kept alive
  // through ComposedCompiledTable::algo).
  const counting::CompiledTable* table = nullptr;
};

// The compiled hierarchy. Immutable after compile; safe to share across
// threads and lanes.
struct ComposedCompiledTable {
  counting::AlgorithmPtr algo;        // keep-alive for base/table/inner refs
  ComposedBase base;
  std::vector<ComposedLevel> levels;  // bottom-up; back() is the top level
  int N = 0;                          // top-level node count
  int state_bits = 0;
  std::uint64_t modulus = 0;          // top-level C

  // nullptr when `algo` is not a supported composition (at least one
  // boosted/pulling level over a trivial or table base).
  static std::shared_ptr<const ComposedCompiledTable> compile(
      const counting::AlgorithmPtr& algo);
};

// Runs seeds.size() executions of the composed algorithm (internally in
// blocks of up to 64 lanes) and returns their RunResults in seed order;
// result[i] is bit-identical to run_execution with seed cfg.seeds[i] and the
// same margin. Called through run_batch, which owns the backend dispatch.
std::vector<RunResult> run_composed_batch(const BatchConfig& cfg,
                                          const ComposedCompiledTable& cc);

}  // namespace synccount::sim
