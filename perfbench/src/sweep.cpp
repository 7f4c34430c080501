// table_sweep and tower_sweep: one Engine::run over an adversaries x
// placements x seeds grid, as `synccount_cli sweep` runs it, with the
// report (the --emit partial file plus the per-group summary table)
// written and the result freed inside the clock.
#include <malloc.h>

#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "counting/table_algorithm.hpp"
#include "replay.hpp"
#include "sim/adversaries.hpp"
#include "sim/experiment_io.hpp"
#include "sim/runner.hpp"
#include "sim/sink.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace counting = synccount::counting;
namespace util = synccount::util;

struct SweepWorkload {
  counting::AlgorithmSpec algo_spec;
  std::vector<std::string> adversaries;
  std::vector<std::string> placements;
  int seeds = 0;
  util::StatsMode stats = util::StatsMode::kExact;
  bool file_sinks = false;  // bin trace + checkpoint
  int threads = 4;
  std::size_t crosscheck_stride = 1;  // every k-th cell re-run on run_execution
};

SweepWorkload describe_workload(const RunArgs& args) {
  SweepWorkload w;
  if (args.workload == "table_sweep") {
    // Table 1: the computer-designed n=4, f=1, |X|=3 counter (certified T=6).
    w.algo_spec.kind = counting::AlgorithmSpec::Kind::kTable;
    w.algo_spec.table_name = "3states";
    w.adversaries = {"silent", "split", "random", "mirror", "targeted-vote"};
    w.placements = {"spread"};
    w.seeds = args.self_check ? 1000 : 200000;  // 10^6 cells
    w.stats = util::StatsMode::kSketch;
    w.file_sinks = true;
    w.crosscheck_stride = args.self_check ? 97 : 1009;
  } else {
    // The practical(f=7, C=10) tower, N=36 (Theorem 1 bound).
    w.algo_spec = *counting::describe(
        synccount::boosting::build_plan(synccount::boosting::plan_practical(7, 10)));
    w.adversaries = {"silent", "split", "random", "targeted-vote"};
    w.placements = {"spread", "blocks"};
    w.seeds = args.self_check ? 8 : 256;  // 2048 cells
    w.crosscheck_stride = args.self_check ? 7 : 257;
  }
  return w;
}

sim::ExperimentSpec declarative_spec(const SweepWorkload& w, const RunArgs& args) {
  const auto algo = counting::build(w.algo_spec);
  sim::ExperimentSpec spec;
  spec.algorithm = w.algo_spec;
  spec.adversaries = w.adversaries;
  spec.placements = placements_for(w.placements, algo->num_nodes(), algo->resilience());
  spec.seeds = w.seeds;
  spec.base_seed = base_seed_for(args.seed);
  // The CLI sweep defaults: horizon = bound + 300, margin 100, stop 120
  // rounds into the valid suffix.
  spec.margin = 100;
  spec.stop_after_stable = 120;
  spec.stats = w.stats;
  if (w.file_sinks) {
    spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, args.work_dir + "/trace.bin", "bin",
                          false});
    spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint,
                          args.work_dir + "/checkpoint.jsonl", "jsonl", false});
  }
  validate_workload(spec, *algo);
  return spec;
}

// Sink kind names in make_sinks order (checkpoints last).
std::vector<std::string> sink_kinds(const sim::ExperimentSpec& spec) {
  std::vector<std::string> kinds;
  for (const auto& cfg : spec.sinks) {
    if (cfg.kind == sim::SinkConfig::Kind::kTrace) kinds.emplace_back("trace");
  }
  for (const auto& cfg : spec.sinks) {
    if (cfg.kind == sim::SinkConfig::Kind::kCheckpoint) kinds.emplace_back("checkpoint");
  }
  return kinds;
}

std::string sink_bytes(const sim::ExperimentSpec& spec) {
  std::string all;
  for (const auto& cfg : spec.sinks) all += read_file(cfg.path);
  return all;
}

std::uint64_t sink_published(const sim::ExperimentSpec& spec) {
  std::uint64_t sum = 0;
  for (const auto& cfg : spec.sinks) sum += file_size(cfg.path);
  return sum;
}

// What `sweep --emit` writes (the partial file) plus the printed per-group
// table: the user's report of a sweep.
std::string write_report(const sim::ExperimentSpec& spec, const sim::ExperimentResult& result,
                         std::string& partial_text) {
  const sim::ShardPartial partial = sim::make_partial(spec, sim::plan_shards(spec, 1, 0), result);
  std::ostringstream emit;
  sim::write_partial(emit, partial);
  partial_text = emit.str();
  std::ostringstream table;
  for (const auto& g : partial.groups) {
    const auto& st = g.aggregate.stabilisation;
    table << partial.adversaries[g.group / partial.placement_names.size()] << ' '
          << partial.placement_names[g.group % partial.placement_names.size()] << ' '
          << g.aggregate.stabilised << '/' << g.aggregate.runs << ' ' << st.mean() << ' '
          << st.quantile(0.5) << ' ' << st.quantile(0.95) << ' ' << st.max() << '\n';
  }
  return table.str();
}

std::uint64_t result_bytes(const sim::ExperimentResult& r) {
  std::uint64_t bytes = r.cells.capacity() * sizeof(sim::CellOutcome) +
                        r.profiles.capacity() * sizeof(sim::GroupProfile);
  for (const auto& c : r.cells) {
    bytes += c.result.correct_ids.capacity() * sizeof(counting::NodeId);
  }
  return bytes;
}

// Checks every cell against the proven bound and re-runs every k-th cell
// (offset rotating per iteration) on the scalar runner, which must
// reproduce it exactly. Each cell is one operation.
void check_cells(const sim::ExperimentSpec& spec, const counting::CountingAlgorithm& algo,
                 const sim::ExperimentResult& result, std::size_t stride, std::size_t offset,
                 Outcome& out) {
  const std::uint64_t bound = *algo.stabilisation_bound();
  const std::uint64_t horizon = horizon_of(spec, algo);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const sim::CellOutcome& cell = result.cells[i];
    bool ok = cell.result.stabilised && cell.result.stabilisation_round <= bound;
    if (i % stride == offset % stride) {
      sim::RunConfig cfg;
      cfg.algo = spec.algo;
      cfg.faulty = spec.placements[cell.placement].faulty;
      cfg.max_rounds = horizon;
      cfg.seed = cell.seed;
      cfg.stop_after_stable = spec.stop_after_stable;
      const auto adversary = sim::make_adversary(spec.adversaries[cell.adversary]);
      ok = ok && same_run(sim::run_execution(cfg, *adversary, spec.margin), cell.result);
    }
    out.op(ok, "cell " + std::to_string(cell.cell_index));
  }
}

// One untraced iteration, as a user runs a sweep.
struct Iteration {
  double setup_s = 0;
  double run_s = 0;     // Engine::run
  double report_s = 0;  // partial + table
  double free_s = 0;    // result + sinks released
  double time_to_result_s = 0;
  std::size_t cells = 0;
  std::string partial_text;
  std::string sink_bytes;
  std::uint64_t result_bytes = 0;
  std::uint64_t wchar = 0;
  std::uint64_t published = 0;
  double busy_s = 0;
  double idle_share = 0;
};

// Everything a sweep needs before its first execution: the built
// algorithm, the engine (thread pool started) and the sinks.
struct Prepared {
  sim::ExperimentSpec spec;
  std::unique_ptr<sim::Engine> engine;
  std::vector<std::unique_ptr<sim::Sink>> sinks;
};

Prepared prepare(const sim::ExperimentSpec& declarative, const SweepWorkload& w) {
  Prepared p;
  p.spec = declarative;
  p.spec.algo = counting::build(*declarative.algorithm);
  p.spec.algorithm.reset();
  validate_workload(p.spec, *p.spec.algo);
  p.engine = std::make_unique<sim::Engine>(w.threads);
  p.sinks = sim::make_sinks(p.spec, sim::plan_shards(p.spec, 1, 0));
  return p;
}

// Set-up time alone (prepared, then torn down), for extra setup_s samples.
double setup_once(const sim::ExperimentSpec& declarative, const SweepWorkload& w) {
  const std::int64_t t0 = now_ns();
  const Prepared p = prepare(declarative, w);
  return seconds_between(t0, now_ns());
}

// `keep_sink_bytes`: read the sink files back for the traced run's
// bit-identity check (a copy the size of the trace, so not otherwise).
Iteration run_iteration(const sim::ExperimentSpec& declarative, const SweepWorkload& w,
                        std::size_t index, bool keep_sink_bytes, Outcome& out) {
  Iteration it;
  const std::int64_t t0 = now_ns();
  Prepared prepared = prepare(declarative, w);
  const std::int64_t t1 = now_ns();
  const sim::ExperimentSpec& spec = prepared.spec;
  const sim::ShardPlan plan = sim::plan_shards(spec, 1, 0);
  auto& engine = prepared.engine;
  auto& sinks = prepared.sinks;

  const std::uint64_t w0 = io_wchar();
  sim::ExperimentResult result = engine->run(spec, plan, sim::sink_list(sinks));
  const std::int64_t t2 = now_ns();
  it.wchar = io_wchar() - w0;
  const std::string table = write_report(spec, result, it.partial_text);
  const std::int64_t t3 = now_ns();

  // Outside the clock: the oracle and the per-layer reads of the result.
  if (table.empty()) out.fail("empty sweep report");
  check_cells(spec, *spec.algo, result, w.crosscheck_stride, index, out);
  it.cells = result.cells.size();
  it.result_bytes = result_bytes(result);
  double busy = 0;
  for (const auto& p : result.profiles) busy += static_cast<double>(p.nanos) * 1e-9;
  it.busy_s = busy;
  it.idle_share = 1.0 - busy / (engine->threads() * result.wall_seconds);
  it.published = sink_published(spec);
  if (keep_sink_bytes) it.sink_bytes = sink_bytes(spec);

  const std::int64_t t4 = now_ns();
  result = sim::ExperimentResult{};
  sinks.clear();
  const std::int64_t t5 = now_ns();
  engine.reset();
  // Hand the arenas' freed pages back so the next iteration starts from the
  // same resident set (with the mmap threshold pinned in main): peak_rss_mb
  // is then one sweep's footprint, not a history of arena interleavings.
  ::malloc_trim(0);

  it.setup_s = seconds_between(t0, t1);
  it.run_s = seconds_between(t1, t2);
  it.report_s = seconds_between(t2, t3);
  it.free_s = seconds_between(t4, t5);
  it.time_to_result_s = it.run_s + it.report_s + it.free_s;
  return it;
}

// Group-order fold of the cells in `mode`, exactly as Engine::run folds.
sim::AggregateResult fold_groups(const std::vector<sim::CellOutcome>& cells, std::size_t seeds,
                                 util::StatsMode mode) {
  sim::AggregateResult total(mode);
  for (std::size_t first = 0; first < cells.size(); first += seeds) {
    sim::AggregateResult agg(mode);
    for (std::size_t k = 0; k < seeds; ++k) agg.fold(cells[first + k].result);
    total.merge(agg);
  }
  return total;
}

// The traced replay of one sweep; returns its wall time and fills `layer`.
double traced_replay(const sim::ExperimentSpec& declarative, const SweepWorkload& w,
                     const Iteration& untraced, Tracer& tracer,
                     std::map<std::string, double>& layer, Outcome& out) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = tracer.begin("replay.sweep", 0);
  const ReplayPlan plan = make_replay_plan(declarative, tracer, root);
  const sim::ExperimentSpec& spec = plan.spec;
  std::unique_ptr<util::ThreadPool> pool;
  {
    const SpanScope span(tracer, "engine.pool_start", root);
    pool = std::make_unique<util::ThreadPool>(w.threads);
  }
  const sim::ShardPlan shard = sim::plan_shards(spec, 1, 0);
  std::vector<std::unique_ptr<sim::Sink>> owned;
  {
    const SpanScope span(tracer, "sink.open", root);
    owned = sim::make_sinks(spec, shard);
  }
  const std::vector<std::string> kinds = sink_kinds(spec);
  std::vector<std::unique_ptr<TimedSink>> timed;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    timed.push_back(std::make_unique<TimedSink>(*owned[i], kinds.at(i), tracer, root));
  }
  for (auto& s : timed) s->on_start(spec, shard);

  const std::size_t seeds = plan.seeds();
  const std::size_t groups = plan.groups();
  sim::ExperimentResult result;
  result.stats = spec.stats;
  result.cells.resize(groups * seeds);
  std::mutex deliver_mu;
  std::vector<std::size_t> pending(groups, seeds);
  std::size_t next_group = 0;
  const auto deliver = [&](std::size_t group, std::size_t count) {
    if (timed.empty()) return;
    const std::lock_guard<std::mutex> lock(deliver_mu);
    pending[group] -= count;
    while (next_group < groups && pending[next_group] == 0) {
      const SpanScope span(tracer, "engine.deliver", root);
      sim::AggregateResult agg(spec.stats);
      for (std::size_t k = 0; k < seeds; ++k) {
        const sim::CellOutcome& cell = result.cells[next_group * seeds + k];
        for (auto& s : timed) s->on_cell(cell);
        agg.fold(cell.result);
      }
      for (auto& s : timed) s->on_group(next_group, agg);
      ++next_group;
    }
  };

  CallTotals calls;
  const std::vector<ReplayTask> tasks = replay_tasks(plan, 0, groups);
  // As in Engine::run: an exception must not escape into a pool worker.
  std::mutex failure_mu;
  std::exception_ptr failure;
  pool->parallel_for(tasks.size(), [&](std::size_t i) {
    try {
      const ReplayTask& t = tasks[i];
      std::vector<sim::RunResult> results =
          replay_task(plan, t.group, t.s0, t.count, tracer, root, calls);
      for (std::size_t k = 0; k < t.count; ++k) {
        const std::size_t idx = t.group * seeds + t.s0 + k;
        sim::CellOutcome& cell = result.cells[idx];
        cell.cell_index = idx;
        cell.seed_index = static_cast<int>(idx % seeds);
        cell.placement = (idx / seeds) % plan.placements.size();
        cell.adversary = idx / (seeds * plan.placements.size());
        cell.seed = sim::cell_seed(spec.base_seed, idx);
        cell.result = std::move(results[k]);
      }
      deliver(t.group, t.count);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  });
  if (failure) std::rethrow_exception(failure);
  {
    const SpanScope span(tracer, "engine.post_join_fold", root);
    result.total = fold_groups(result.cells, seeds, spec.stats);
  }
  for (auto& s : timed) s->on_done(result);
  for (const auto& s : timed) {
    if (s->cells() > 0) {
      layer["sink.on_cell_ns." + s->kind()] =
          static_cast<double>(s->cell_ns()) / static_cast<double>(s->cells());
    }
  }
  timed.clear();
  owned.clear();
  tracer.end(root);
  const double wall = seconds_between(t0, now_ns());

  // Bit-identity with the untraced Engine::run: the emitted partial and
  // every sink file.
  std::string partial_text;
  (void)write_report(spec, result, partial_text);
  if (partial_text != untraced.partial_text) {
    out.fail("traced replay partial differs from Engine::run");
  }
  if (sink_bytes(spec) != untraced.sink_bytes) {
    out.fail("traced replay sink files differ from Engine::run");
  }

  runner_layer_metrics(tracer, spec.adversaries, calls, layer);
  layer["counting.build_s"] = tracer.total_s("counting.build");
  layer["composed_runner.compile_s"] = tracer.total_s("composed_runner.compile");
  layer["engine.post_join_fold_s"] = tracer.total_s("engine.post_join_fold");
  const auto cells = static_cast<double>(result.cells.size());
  for (const auto mode : {util::StatsMode::kSketch, util::StatsMode::kExact}) {
    const std::int64_t f0 = now_ns();
    const sim::AggregateResult agg = fold_groups(result.cells, seeds, mode);
    const double fold_s = seconds_between(f0, now_ns());
    if (agg.runs != result.cells.size()) out.fail("fold lost cells");
    layer[mode == util::StatsMode::kSketch ? "stats.fold_ns_per_cell.sketch"
                                           : "stats.fold_ns_per_cell.exact"] =
        fold_s * 1e9 / cells;
  }
  return wall;
}

}  // namespace

Outcome run_sweep(const RunArgs& args) {
  Outcome out;
  const SweepWorkload w = describe_workload(args);
  const sim::ExperimentSpec spec = declarative_spec(w, args);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::string first_digest;
  const auto check_digest = [&](const std::string& partial_text) {
    const std::string d = digest(partial_text);
    if (first_digest.empty()) first_digest = d;
    if (d != first_digest) out.fail("sweep result differs between iterations");
  };

  if (!args.trace) {
    std::vector<double> setup, result;
    for (int r = 0; r < kSetupReps; ++r) setup.push_back(setup_once(spec, w));
    for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
      const Iteration it = run_iteration(spec, w, i, false, out);
      check_digest(it.partial_text);
      setup.push_back(it.setup_s);
      result.push_back(it.time_to_result_s);
      note_iteration(i, it.setup_s, it.time_to_result_s);
    }
    out.set("setup_s", median(setup));
    out.set("time_to_result_s", warm_median(result));
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    Samples samples;
    auto tracer = std::make_unique<Tracer>();
    for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
      const Iteration it = run_iteration(spec, w, i, true, out);
      check_digest(it.partial_text);
      tracer = std::make_unique<Tracer>();
      std::map<std::string, double> layer;
      const double traced_s = traced_replay(spec, w, it, *tracer, layer, out);
      layer["cells_per_s"] = static_cast<double>(it.cells) / it.time_to_result_s;
      layer["engine.busy_s"] = it.busy_s;
      layer["engine.idle_share"] = it.idle_share;
      layer["engine.result_bytes"] = static_cast<double>(it.result_bytes);
      layer["engine.result_free_s"] = it.free_s;
      layer["stats.summary_s"] = it.report_s;
      layer["trace.overhead_share"] = (traced_s - it.run_s) / it.run_s;
      if (w.file_sinks) {
        for (const char* kind : {"trace", "checkpoint"}) {
          layer[std::string("sink.on_group_s.") + kind] = tracer->total_s("sink.on_group", kind);
        }
        layer["sink.bytes_published"] = static_cast<double>(it.published);
        layer["sink.bytes_written"] = static_cast<double>(it.wchar);
        layer["sink.write_amplification"] =
            static_cast<double>(it.wchar) / static_cast<double>(it.published);
      }
      samples.add_all(layer);
    }
    samples.publish(out);
    tracer->write_jsonl(args.out_dir + "/spans-" + args.workload + ".jsonl");
  }
  out.digest = first_digest;
  return out;
}

}  // namespace perfbench
