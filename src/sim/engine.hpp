// Batched, multi-threaded experiment engine.
//
// Every empirical claim in the paper is a statistic over many executions --
// seeds x fault placements x adversaries. The engine is the one place that
// owns that loop: an ExperimentSpec describes the grid, Engine::run fans the
// cells out over a thread pool, starting them in grid order, and the
// per-cell RunResults are folded into AggregateResults in a fixed cell order,
// one group at a time as groups complete, so the aggregate is bit-identical
// for any thread count.
//
// Layering: run_execution (runner.hpp) stays the single-run kernel; the
// engine composes it. Benches, tests and the CLI sit on the engine instead
// of hand-rolling seed loops.
//
// Execution backends: cells sharing (adversary, placement) form a group. A
// group whose algorithm is shared and batch-supported -- a TableAlgorithm
// (bit-parallel path) or a BoostedCounter / PullingBoostedCounter tower
// (composed path, sim/composed_runner.hpp) -- and whose adversary is
// batchable runs through run_batch in lockstep chunks of up to 64 seeds;
// every other cell (unknown compositions, per-cell factories, and lookahead,
// which stays scalar until the benchmark can measure it on the composed
// backend -- see Adversary::batchable) stays on the scalar runner. All
// backends produce bit-identical RunResults, so mixing them never changes an
// aggregate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "counting/algorithm_spec.hpp"
#include "sim/adversaries.hpp"
#include "sim/profile.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"

namespace synccount::util {
class ThreadPool;
}  // namespace synccount::util

namespace synccount::sim {

// A named fault placement (one axis of the experiment grid).
struct FaultPattern {
  std::string name;
  std::vector<bool> faulty;  // empty = fault-free
};

// Builds the adversary for a cell. The default factory is make_adversary;
// benches with construction-aware attacks (e.g. leader-split) install their
// own and fall back to make_adversary for library names. In-process only:
// specs carrying a custom factory are not serialisable.
using AdversaryFactory = std::function<std::unique_ptr<Adversary>(const std::string& name)>;

// Which execution backends the engine may use.
enum class Backend {
  kAuto,    // batched backend for eligible cell-groups, scalar otherwise
  kScalar,  // force the scalar runner for every cell
};

// Declarative description of one result sink (sim/sink.hpp). Sink configs
// travel inside spec files, so `synccount_cli sweep --spec=FILE` reproduces
// the exact observer setup of an in-process run; make_sinks() instantiates
// them. File-writing sinks of a sharded run (plan.shards > 1) write to
// `path + ".shard<i>"` so concurrent workers never share a file.
struct SinkConfig {
  enum class Kind {
    kTrace,       // stream one line per execution to `path` (jsonl or csv)
    kProgress,    // per-group progress lines on stderr
    kCheckpoint,  // append shard partials to `path` as groups complete
  };
  Kind kind = Kind::kTrace;
  std::string path;              // trace / checkpoint target file
  std::string format = "jsonl";  // trace: "jsonl" | "csv" | "bin" (columnar)
  bool outputs = false;          // trace: embed per-round outputs (jsonl only)
};

// The experiment grid, data-first: a serialized spec is the single source of
// truth for a run, so every field is either plain data or an explicitly
// in-process escape hatch that experiment_io rejects. Exactly one of
// `algorithm`, `variants`, `algo` must be set.
struct ExperimentSpec {
  // The algorithm, declaratively (counting::build runs once per Engine::run).
  std::optional<counting::AlgorithmSpec> algorithm;

  // Per-seed-index algorithm variants: a sweep axis expressed as data (see
  // counting::sweep_u64/sweep_double), e.g. the Corollary 5 per-trial
  // sampling seeds. Size must equal `seeds`; the cells at seed_index s run
  // variants[s] (each variant is built once and shared across groups).
  // Variant cells always run on the scalar backend.
  std::vector<counting::AlgorithmSpec> variants;

  // In-process escape hatch for algorithms outside the describable family
  // (services, randomized baselines). Specs carrying it serialise only if
  // counting::describe(algo) succeeds.
  counting::AlgorithmPtr algo;

  std::vector<std::string> adversaries = {"split"};
  AdversaryFactory adversary_factory;  // in-process only, not serialisable

  // Empty = one unnamed fault-free placement.
  std::vector<FaultPattern> placements;

  int seeds = 3;                       // executions per (adversary, placement)
  std::uint64_t base_seed = 0x9000;    // cell seed = hash_combine(base_seed, cell_index)

  // Non-empty: use these literal seeds (size must be `seeds`), indexed by
  // seed_index, identical for every (adversary, placement). For pinning a
  // specific execution (figure traces, regression repros) where the hashed
  // stream would change it.
  std::vector<std::uint64_t> explicit_seeds;

  // Horizon per cell: max_rounds if non-zero; otherwise the algorithm's
  // stabilisation bound + extra_rounds; otherwise horizon_override
  // (or 20000 when that is 0 too).
  std::uint64_t max_rounds = 0;
  std::uint64_t extra_rounds = 300;
  std::uint64_t horizon_override = 0;

  std::uint64_t margin = 100;          // suffix length for "stabilised"
  std::uint64_t stop_after_stable = 0; // early-exit (see RunConfig)

  std::vector<State> initial;          // non-empty: fixed initial states

  // kScalar disables the batched backend (the aggregates do not change --
  // the backends are bit-identical -- but benches and tests use it to
  // isolate the scalar path).
  Backend backend = Backend::kAuto;

  // How aggregates answer quantile queries (util/stats.hpp). kExact retains
  // every sample -- the default, and what the pre-sketch wire format (v3)
  // carries. kSketch bounds aggregate memory with a deterministic KLL sketch
  // (wire format v4); quantiles become approximate within the sketch's
  // tracked rank-error bound but aggregates remain thread-count- and
  // shard-independent.
  util::StatsMode stats = util::StatsMode::kExact;

  // Declarative result sinks. Engine::run does not instantiate these itself
  // (it delivers to whatever SinkList it is handed); front ends call
  // make_sinks(spec, plan) and pass the result in, so a spec file carries
  // its observer setup to workers.
  std::vector<SinkConfig> sinks;
};

// The shared algorithm a spec describes: `algo` if set, else the built
// `algorithm`, else the variant at seed index 0 (for grid headers and
// horizon probes; the engine builds every variant itself).
counting::AlgorithmPtr spec_algorithm(const ExperimentSpec& spec);

// A contiguous slice of the grid's (adversary, placement) cell-groups: the
// unit a distributed sweep assigns to one worker process. Partitioning on
// whole groups (never splitting a group's seed range) keeps the batched and
// composed backends intact inside a shard, and contiguity makes "fold the
// shard partials in shard order" equal the single-process fold in cell
// order -- which is what lets merged aggregates stay bit-identical.
struct ShardPlan {
  int shards = 1;             // total worker count K
  int shard = 0;              // this worker's index in [0, K)
  std::size_t group_begin = 0;  // first (adversary, placement) group, inclusive
  std::size_t group_end = 0;    // one past the last group

  std::size_t groups() const noexcept { return group_end - group_begin; }
  bool empty() const noexcept { return group_begin == group_end; }
};

// Number of (adversary, placement) cell-groups in the grid.
std::size_t group_count(const ExperimentSpec& spec);

// Balanced contiguous partition: shard i of K receives groups
// [i*G/K-ish ...) with the first G mod K shards one group larger; shards
// beyond the group count come out empty (valid, they just do no work).
ShardPlan plan_shards(const ExperimentSpec& spec, int shards, int shard);

// One cell of the grid = one execution.
struct CellOutcome {
  std::size_t cell_index = 0;    // (adversary * placements + placement) * seeds + seed_index
  std::size_t adversary = 0;     // index into spec.adversaries
  std::size_t placement = 0;     // index into spec.placements (0 if defaulted)
  int seed_index = 0;
  std::uint64_t seed = 0;        // derived cell seed actually used
  RunResult result;
};

// Order-independent fold of RunResults (the engine folds in cell order).
struct AggregateResult {
  AggregateResult() = default;  // exact-mode accumulators
  explicit AggregateResult(util::StatsMode mode)
      : stabilisation(mode), rounds(mode), avg_pulls(mode) {}

  std::uint64_t runs = 0;
  std::uint64_t stabilised = 0;
  util::StreamingStats stabilisation;  // stabilisation round, stabilised runs only
  util::StreamingStats rounds;         // executed rounds, all runs
  util::StreamingStats avg_pulls;      // per-run mean pulls per (node, round)
  std::uint64_t max_pulls = 0;         // max over all runs

  double stabilisation_rate() const noexcept {
    return runs == 0 ? 0.0 : static_cast<double>(stabilised) / static_cast<double>(runs);
  }
  void fold(const RunResult& r);

  // Folds a partial aggregate in, as if other's cells had been fold()ed here
  // directly in order (exact mode: StreamingStats::merge replays samples, so
  // merging shard partials in shard order is bit-identical to one sequential
  // fold; sketch mode: a deterministic left-fold over the same order).
  // Merging into a default-constructed (empty) aggregate adopts other's
  // stats mode.
  void merge(const AggregateResult& other);

  // "mean (max N)" -- the cell format the bench tables print.
  std::string fmt_rounds() const;
};

// Folds shard partials in the given (shard) order into one aggregate. In
// exact mode this is bit-identical to the single-process fold when the
// partials cover the grid in cell order (ShardPlan's contiguous group ranges
// guarantee that): merge replays samples, so association is irrelevant. In
// sketch mode each partial has already collapsed its groups into one moment
// set, so the refold agrees with the single-process total only up to
// floating-point rounding of mean/m2 -- the bit-identical sketch path is the
// per-group left fold (ShardPartial::total, merge_partials), which every
// wire-level consumer uses.
AggregateResult merge_aggregates(std::span<const AggregateResult> partials);

struct ExperimentResult {
  // Ordered by cell_index. For a sharded run this holds only the shard's
  // cells (coordinates and seeds stay global, so a cell computes identically
  // whichever shard runs it).
  std::vector<CellOutcome> cells;
  AggregateResult total;  // group-order merge of `groups` (a shard partial)
  double wall_seconds = 0.0;
  std::uint64_t batched_cells = 0;  // cells that ran on the batched backend
  util::StatsMode stats = util::StatsMode::kExact;  // spec.stats of the run

  // One entry per (adversary, placement) group of the shard, in group order:
  // which backend ran the group, its node-rounds, and its aggregate task
  // time (sim/profile.hpp). Always on -- the counters are a couple of atomic
  // RMWs per task.
  std::vector<GroupProfile> profiles;

  // One entry per (adversary, placement) group of the shard, in group order:
  // the fold of the group's cells in cell order, made once as the group is
  // delivered. Empty only in results assembled by hand.
  std::vector<AggregateResult> groups;

  // Re-fold a slice of the grid, e.g. one (adversary, placement) pair. For
  // a single group, `groups` already holds the same aggregate.
  AggregateResult aggregate(std::optional<std::size_t> adversary,
                            std::optional<std::size_t> placement = std::nullopt) const;
};

// The deterministic per-cell seed stream.
std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell_index) noexcept;

// Observer over a run's results (defined in sim/sink.hpp). Sinks receive
// cells in global cell order and groups in group order, whatever the thread
// count or backend mix -- groups are delivered as soon as every preceding
// group has finished, so streaming sinks (checkpoints, traces) see a
// deterministic, resumable prefix at every instant.
class Sink;
using SinkList = std::vector<Sink*>;

class Engine {
 public:
  // threads == 0 uses hardware concurrency; threads == 1 runs inline on the
  // calling thread (no pool is created).
  explicit Engine(int threads = 0);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int threads() const noexcept;

  ExperimentResult run(const ExperimentSpec& spec) const;
  ExperimentResult run(const ExperimentSpec& spec, const SinkList& sinks) const;

  // Runs only the shard's (adversary, placement) groups; every cell keeps
  // its global index/seed, so the per-cell results -- and therefore the
  // partial aggregate -- are bit-identical to the same cells of a full run.
  // merge_aggregates over all shards' totals reproduces run(spec).total
  // (bit-for-bit in exact mode; to fp rounding in sketch mode -- see the
  // merge_aggregates comment).
  //
  // Execution traces (outputs/states) are recorded per cell iff some sink
  // wants them, and are dropped from the returned cells after sink delivery
  // unless a sink retains them (RecordSink) -- streaming a huge grid to disk
  // never buffers every trace in memory.
  ExperimentResult run(const ExperimentSpec& spec, const ShardPlan& shard,
                       const SinkList& sinks = {}) const;

 private:
  std::unique_ptr<util::ThreadPool> pool_;  // null for threads == 1
};

}  // namespace synccount::sim
