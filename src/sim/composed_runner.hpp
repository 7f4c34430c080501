// Hierarchical batched execution of composed (boosted / pulling) counters.
//
// The paper's headline construction (Theorem 1) is not a flat transition
// table but a tower: per-block inner counters, derived leader pointers,
// majority votes and the phase-king instruction sets, stacked recursively on
// a trivial or computer-designed base. ComposedCompiledTable::compile walks
// such a tower (boosting::BoostingLevel levels, broadcast or pulling, over a
// TrivialCounter or TableAlgorithm base) once and flattens every node state
// into a field vector -- the base state index plus one (a, d) phase-king
// register pair per level -- together with per-level stage metadata. Each
// level's geometry, (2m)^i table, phase-king parameters and register offset
// are copied from the level itself; only the kernels below are the composed
// backend's own.
//
// run_composed_batch then advances up to 64 executions per block in round
// lockstep on that representation, in one of two modes:
//
//  * Profiled (the common case): the adversary's whole round is collected
//    up front through Adversary::forge_block as a few receiver profiles
//    plus a lane-invariant receiver-to-profile map. When the base is a
//    num_states <= 4 table, its kernel runs on bit-sliced planes: one
//    cross-lane DFS over the compiled base table advances every lane's
//    base field at once.
//
//  * Interleaved (fresh-sampling pulling towers under adversaries whose
//    message() draws randomness): forging stays interleaved with the
//    per-receiver transitions, preserving the scalar draw order exactly;
//    each receiver's forged messages form a profile of their own.
//
// In both modes a boosted level is read off per-copy tallies of its correct
// senders (CopyTally), built once per lane-round: correct senders look the
// same to every receiver. A receiver's votes and phase-king step patch in
// only the faulty senders of its copy, as its profile forges them, so each
// read costs O(faulty senders in the copy + k) on top of that once-per-round
// work. A forged field is decoded only when a receiver reads it: the a
// register and inner output of each faulty sender in the receiver's copy of
// each level, once per (level copy, profile) and lane-round. Forged d
// registers are never decoded, since a node's phase-king step reads only its
// own d.
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
#include <vector>

#include "counting/table_algorithm.hpp"
#include "phaseking/phase_king.hpp"
#include "sim/batch_runner.hpp"
#include "util/math.hpp"

namespace synccount::sim {

// One boosting level of the tower (a copy of a boosting::BoostingLevel's
// parameters), bottom-up: level 0 sits directly on the base. A level with n
// nodes per copy runs N / n independent copies; copy c covers the contiguous
// global nodes [c*n, (c+1)*n).
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

// The correct senders of one copy of a boosted level, tallied once per round
// so that every receiver of the copy reads its votes and phase-king step
// (paper steps 3 and 4) in O(faulty senders in the copy + k):
//  * per block, the counts of the leader pointers b and round counters r,
//    and the value, if any, of which the correct senders alone hold a
//    strict majority;
//  * for the copy, the counts of the a registers, the least real value
//    counted more than F times, and each correct node's a.
// A read patches in the copy's faulty senders as one receiver sees them. A
// strict majority the correct senders do not hold can only be a value that
// some faulty sender carries, and so can a value that only the faulty
// senders push past F, so the read looks at those values alone; where the
// correct senders hold a block's majority, the faulty senders' b and r in
// that block are never computed. read().B / read().R equal
// BoostedCounter::votes, and step() equals phaseking::step, on the view the
// tallies count; tests/boosted_batch_test checks both. Every a register
// must lie in [0, C) or be ∞, as decode_a and the phase-king steps produce
// them.
class CopyTally {
 public:
  // A sender of the copy as some receiver sees it: its node index in the
  // copy, its block, its inner algorithm's output and its a register.
  struct Sender {
    int node = 0;
    int block = 0;
    std::uint64_t out = 0;
    std::uint64_t a = 0;
  };

  // What every receiver of the copy that sees the same faulty senders
  // reads alike: the voted leader block B, the round counter R (the
  // instruction set), and the phase's shared input: phase 1's least value
  // received more than F times, or phase 2's king entry.
  struct Read {
    std::uint64_t B = 0;
    std::uint64_t R = 0;
    std::uint64_t shared = 0;
  };

  explicit CopyTally(const ComposedLevel& lv);

  Sender sender(int node, std::uint64_t inner_out, std::uint64_t a) const {
    return {node, block_of_[static_cast<std::size_t>(node)], inner_out, a};
  }

  // Starts a round: no sender counted.
  void clear();
  // Counts correct sender `s`.
  void add(const Sender& s);
  // The votes and the phase's shared input with `faulty` patched in.
  Read read(std::span<const Sender> faulty);
  // The phase-king step of correct node `own` of the copy after `rd`.
  phaseking::Registers step(const Read& rd, const phaseking::Registers& own,
                            std::span<const Sender> faulty) const;

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  // BoostingLevel::block_view's leader pointer and round counter of `s`.
  // block_view reduces the inner output modulo tau * (2m)^(blk+1) first;
  // tau and m both divide that modulus, so r = o mod tau and
  // b = floor(o / (tau * (2m)^blk)) mod m.
  std::uint64_t leader_of(const Sender& s) const {
    return m_div_.rem(div_[static_cast<std::size_t>(s.block)].quot(s.out));
  }
  std::uint64_t round_of(const Sender& s) const { return tau_div_.rem(s.out); }

  std::uint32_t* row(int block) { return cnt_.data() + static_cast<std::size_t>(block) * row_; }

  // Counts pick(s) for every faulty sender s with pick(s) != kNone into
  // its block's counts from `first` on, calls found(s, v) for each picked
  // value v that then passes the strict-majority threshold, and takes the
  // counts back.
  template <class Pick, class Found>
  void patched_majorities(std::span<const Sender> faulty, std::size_t first, Pick pick,
                          Found found);

  phaseking::Params pk_;
  int n_inner_;
  int k_;
  std::uint64_t m_;                  // leader pointers b lie in [0, m)
  std::size_t row_;                  // m + tau counts per block
  util::Divisor m_div_, tau_div_;
  std::vector<util::Divisor> div_;   // [block] tau * (2m)^block
  std::vector<int> block_of_;        // [node] its block
  std::vector<std::uint32_t> cnt_;   // [block][m b counts, then tau r counts]
  std::vector<std::uint64_t> maj_b_, maj_r_;  // [block] correct majority or kNone
  phaseking::ValueTally a_cnt_;
  std::uint64_t least_ = phaseking::kInfinity;
  std::vector<std::uint64_t> a_;          // [node] correct senders' a
  std::vector<std::uint64_t> lead_;       // read scratch: [block] leader
  std::vector<std::uint32_t> lead_cnt_;   // read scratch: [b] count, zero between reads
  std::vector<std::uint64_t> picked_;     // read scratch: [faulty sender] picked value
};

// One-round output oracle of a tower with a boosted top level. In Theorem
// 1's tower a node's next output is one phase-king step on majority votes,
// and both read only round-start fields, so the oracle answers "what does
// correct node v output after this round if faulty sender faulty[k] sends it
// msgs[k]?" without running the recursive transition. Once per round,
// begin_round decodes the round-start states and tallies the top level's
// correct senders in a CopyTally. Each next_output decodes the faulty
// senders' messages and reads the votes and the phase-king step off the
// tallies: O(f + k), no allocation. It shares the read-off and the field
// decode with the composed runner.
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

  // Node u as a top-level sender in state s.
  CopyTally::Sender sender(NodeId u, const State& s) const;

  ComposedCompiledTable cc_;  // borrowed compile: cc_.algo stays null
  CopyTally tally_;           // the top level's correct senders
  std::vector<std::uint64_t> a_;  // [u] top a register
  std::vector<std::uint8_t> d_;   // [u] top d flag
  std::vector<NodeId> faulty_;
  std::vector<std::uint8_t> is_faulty_;          // [u]
  std::vector<CopyTally::Sender> senders_;       // per query: faulty_[k] as sent
};

// Runs seeds.size() executions of the composed algorithm (internally in
// blocks of up to 64 lanes) and returns their RunResults in seed order;
// result[i] is bit-identical to run_execution with seed cfg.seeds[i] and the
// same margin. Called through run_batch, which owns the backend dispatch and
// validates cfg.faulty into `placement`.
std::vector<RunResult> run_composed_batch(const BatchConfig& cfg, const ComposedCompiledTable& cc,
                                          const Placement& placement);

}  // namespace synccount::sim
