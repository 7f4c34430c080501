// The traced run's stand-in for Engine::run: the same grid, executed with
// the engine's own chunking (64 * default_batch_words() lanes per table
// task, 64 per composed task, one task per scalar cell) and seeds
// (cell_seed(base_seed, cell_index)), but calling run_batch / run_execution
// directly so every lane's adversary can be wrapped in a TimedAdversary --
// Engine::run turns batching off when spec.adversary_factory is set, so the
// decorators cannot go in through the engine. Results are bit-identical to
// Engine::run by the backends' contract; the traced run checks it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/composed_runner.hpp"
#include "sim/engine.hpp"

namespace perfbench {

// Named fault placements, resolved like `synccount_cli sweep --placements`:
// spread | blocks | leaders | none (block placements assume 3 top blocks).
std::vector<sim::FaultPattern> placements_for(const std::vector<std::string>& names, int n,
                                              int f);

// The per-cell horizon Engine::run uses.
std::uint64_t horizon_of(const sim::ExperimentSpec& spec,
                         const synccount::counting::CountingAlgorithm& algo);

// Refuses a workload whose answer would be misleading: a horizon at or
// below the margin (the runner then counts only runs that started valid as
// "stabilised" -- the margin cliff), or an early stop shorter than the
// margin. Throws std::invalid_argument.
void validate_workload(const sim::ExperimentSpec& spec,
                       const synccount::counting::CountingAlgorithm& algo);

// The spans a replay records per runner call; the tag is the adversary.
inline constexpr const char* kSpanBatchTable = "sim.run_batch.table";
inline constexpr const char* kSpanBatchComposed = "sim.run_batch.composed";
inline constexpr const char* kSpanExecution = "sim.run_execution";

// Adversary entry-point calls made by decorated runs, summed over threads.
struct CallTotals {
  std::array<std::atomic<std::uint64_t>, kAdversaryEntries> calls{};
};

struct ReplayPlan {
  sim::ExperimentSpec spec;  // `algo` set to the built algorithm
  synccount::counting::AlgorithmPtr algo;
  std::shared_ptr<const sim::ComposedCompiledTable> composed;  // null unless a tower
  bool is_table = false;
  std::vector<sim::FaultPattern> placements;
  std::vector<bool> adv_batchable;  // per adversary: runs on a batched backend
  std::uint64_t horizon = 0;
  std::size_t chunk = 64;  // lanes per batched task

  std::size_t seeds() const { return static_cast<std::size_t>(spec.seeds); }
  std::size_t groups() const { return spec.adversaries.size() * placements.size(); }
};

// Builds the algorithm (span "counting.build") and, for towers, the
// composed hierarchy (span "composed_runner.compile") under `parent`.
ReplayPlan make_replay_plan(const sim::ExperimentSpec& declarative, Tracer& tracer,
                            std::uint64_t parent);

// Runs cells [group * seeds + s0, ... + count) -- one engine task -- and
// returns their results in cell order. Batched tasks record one span per
// run_batch call; scalar cells one span per run_execution. Span work is
// node-rounds (rounds x correct nodes), agg_child_ns the adversary time.
std::vector<sim::RunResult> replay_task(const ReplayPlan& plan, std::size_t group,
                                        std::size_t s0, std::size_t count, Tracer& tracer,
                                        std::uint64_t parent, CallTotals& calls);

// The engine's task list for groups [group_begin, group_end): (group, s0,
// count) triples in the order Engine::run submits them.
struct ReplayTask {
  std::size_t group = 0;
  std::size_t s0 = 0;
  std::size_t count = 0;
};
std::vector<ReplayTask> replay_tasks(const ReplayPlan& plan, std::size_t group_begin,
                                     std::size_t group_end);

// Per-layer figures derived from a replay's spans: the self time per
// node-round of each runner layer per adversary, forge shares, call counts.
void runner_layer_metrics(const Tracer& tracer, const std::vector<std::string>& adversaries,
                          const CallTotals& calls, std::map<std::string, double>& out);

// Node-rounds of a result (the engine's work unit).
std::uint64_t node_rounds(const sim::RunResult& r);

// Field-by-field equality of two executions' summaries (cross-checks).
bool same_run(const sim::RunResult& a, const sim::RunResult& b);

}  // namespace perfbench
