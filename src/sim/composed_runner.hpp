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
//    num_states <= 4 table, its kernel additionally runs on bit-sliced
//    planes: one cross-lane DFS over the compiled base table advances every
//    lane's base field at once.
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
// The lanes run on the shared lane driver (sim/lanes.hpp), which invokes
// each lane's Rng and Adversary in exactly the scalar runner's call order in
// both modes, so every lane's RunResult is bit-identical to run_execution on
// the same seed. A table base with num_states <= 4 runs the table backend's
// bit-sliced step (table_step). The composed path has a single kernel:
// BatchConfig::kernel must be kAuto (kSoA / kBitSliced throw
// std::invalid_argument).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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
                                      // (null in a TowerOracle's borrowed copy)
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

// One-round output oracle of a tower with a boosted top level. In Theorem
// 1's tower a node's next output is one phase-king step on majority votes,
// and both read only round-start fields, so the oracle answers "what does
// correct node v output after this round if faulty sender faulty[k] sends it
// msgs[k]?" without running the recursive transition. Once per round,
// begin_round decodes the round-start states and tallies the top level's
// correct senders. Each next_output patches the faulty senders into the
// tallies, reads the majorities off the counts and runs one phaseking::step:
// O(f + k*m + tau + N), no allocation. It shares the vote read-off and the
// field decode with the composed runner.
//
// Lifetime: make() borrows `algo` (the compiled base table stays owned by
// the algorithm), so an oracle must not outlive it. An owner keeps the
// oracle next to the address it was built for and rebuilds it when the
// address changes, like Adversary::IdxGuard; inside one adversary instance,
// which never outlives its run, the algorithm stays alive throughout.
class TowerOracle {
 public:
  // nullptr unless `algo` is a composed tower whose top level is boosted and
  // none of whose levels samples fresh randomness: then a transition draws
  // nothing from the execution's Rng, and skipping it changes no draw.
  // Flat algorithms and pulling top levels are rejected too.
  static std::unique_ptr<TowerOracle> make(const counting::CountingAlgorithm& algo);

  // Fixes the round: `states` are all nodes' round-start states (canonical),
  // `faulty` the faulty senders whose messages each query supplies.
  void begin_round(std::span<const State> states, std::span<const NodeId> faulty);

  // algo.output(v, algo.transition(v, received, ctx)) for correct node v,
  // where `received` is the round-start states with received[faulty[k]] =
  // msgs[k]. Messages may be raw patterns: they are decoded exactly like
  // canonicalize reduces them.
  std::uint64_t next_output(NodeId v, std::span<const State> msgs);

 private:
  explicit TowerOracle(ComposedCompiledTable cc);

  // Tally indices of node u's b and r at the top level in state s.
  std::pair<std::size_t, std::size_t> sender_pos(NodeId u, const State& s) const;

  ComposedCompiledTable cc_;  // borrowed compile: cc_.algo stays null
  std::vector<std::uint32_t> tally_;      // correct senders' (b, r) counts
  std::vector<std::uint32_t> lead_cnt_;   // block-leader counts, zero between queries
  std::vector<std::uint64_t> a_;          // [u] top a register; faulty entries per query
  std::vector<std::uint8_t> d_;           // [u] top d flag
  std::vector<NodeId> faulty_;
  std::vector<std::pair<std::size_t, std::size_t>> patch_;
};

// Runs seeds.size() executions of the composed algorithm (internally in
// blocks of up to 64 lanes) and returns their RunResults in seed order;
// result[i] is bit-identical to run_execution with seed cfg.seeds[i] and the
// same margin. Called through run_batch, which owns the backend dispatch and
// validates cfg.faulty into `placement`.
std::vector<RunResult> run_composed_batch(const BatchConfig& cfg, const ComposedCompiledTable& cc,
                                          const Placement& placement);

}  // namespace synccount::sim
