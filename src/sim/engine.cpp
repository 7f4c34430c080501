#include "sim/engine.hpp"

#include <chrono>
#include <memory>
#include <mutex>

#include "counting/table_algorithm.hpp"
#include "sim/batch_runner.hpp"
#include "sim/composed_runner.hpp"
#include "sim/sink.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace synccount::sim {

std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t cell_index) noexcept {
  return util::hash_combine(base_seed, static_cast<std::uint64_t>(cell_index));
}

void AggregateResult::fold(const RunResult& r) {
  ++runs;
  rounds.add(static_cast<double>(r.rounds));
  avg_pulls.add(r.avg_pulls_per_round);
  max_pulls = std::max(max_pulls, r.max_pulls_per_round);
  if (r.stabilised) {
    ++stabilised;
    stabilisation.add(static_cast<double>(r.stabilisation_round));
  }
}

void AggregateResult::merge(const AggregateResult& other) {
  runs += other.runs;
  stabilised += other.stabilised;
  stabilisation.merge(other.stabilisation);
  rounds.merge(other.rounds);
  avg_pulls.merge(other.avg_pulls);
  max_pulls = std::max(max_pulls, other.max_pulls);
}

AggregateResult merge_aggregates(std::span<const AggregateResult> partials) {
  AggregateResult total;
  for (const AggregateResult& p : partials) total.merge(p);
  return total;
}

std::size_t group_count(const ExperimentSpec& spec) {
  // An empty placement list still runs one fault-free placement (see run()).
  return spec.adversaries.size() * std::max<std::size_t>(spec.placements.size(), 1);
}

counting::AlgorithmPtr spec_algorithm(const ExperimentSpec& spec) {
  if (spec.algo != nullptr) return spec.algo;
  if (spec.algorithm.has_value()) return counting::build(*spec.algorithm);
  SC_CHECK(!spec.variants.empty(),
           "ExperimentSpec needs one of algo/algorithm/variants");
  return counting::build(spec.variants.front());
}

namespace {

// The horizon of one cell (see ExperimentSpec::max_rounds).
std::uint64_t cell_horizon(const ExperimentSpec& spec, const counting::CountingAlgorithm& algo) {
  if (spec.max_rounds != 0) return spec.max_rounds;
  if (const auto bound = algo.stabilisation_bound()) return *bound + spec.extra_rounds;
  return spec.horizon_override != 0 ? spec.horizon_override : 20000;
}

}  // namespace

void check_margin(const ExperimentSpec& spec, const counting::CountingAlgorithm& algo) {
  const std::uint64_t horizon = cell_horizon(spec, algo);
  SC_CHECK(horizon > spec.margin,
           "horizon " + std::to_string(horizon) + " <= margin " +
               std::to_string(spec.margin) + " for " + algo.name() +
               ": only runs that start valid could count as stabilised");
  SC_CHECK(spec.stop_after_stable == 0 || spec.stop_after_stable >= spec.margin,
           "stop_after_stable " + std::to_string(spec.stop_after_stable) + " < margin " +
               std::to_string(spec.margin) + ": no run could count as stabilised");
}

ShardPlan plan_shards(const ExperimentSpec& spec, int shards, int shard) {
  SC_CHECK(shards >= 1, "need at least one shard");
  SC_CHECK(shard >= 0 && shard < shards, "shard index out of range");
  const std::size_t G = group_count(spec);
  const auto K = static_cast<std::size_t>(shards);
  const auto i = static_cast<std::size_t>(shard);
  const std::size_t base = G / K;
  const std::size_t extra = G % K;  // the first `extra` shards get one more
  ShardPlan plan;
  plan.shards = shards;
  plan.shard = shard;
  plan.group_begin = i * base + std::min(i, extra);
  plan.group_end = plan.group_begin + base + (i < extra ? 1 : 0);
  return plan;
}

std::string AggregateResult::fmt_rounds() const {
  if (stabilised == 0) return "-";
  return util::fmt_double(stabilisation.mean(), 0) + " (max " +
         util::fmt_double(stabilisation.max(), 0) + ")";
}

AggregateResult ExperimentResult::aggregate(std::optional<std::size_t> adversary,
                                            std::optional<std::size_t> placement) const {
  AggregateResult agg(stats);
  for (const auto& c : cells) {
    if (adversary && c.adversary != *adversary) continue;
    if (placement && c.placement != *placement) continue;
    agg.fold(c.result);
  }
  return agg;
}

Engine::Engine(int threads) : pool_(std::make_unique<util::ThreadPool>(threads)) {}

Engine::~Engine() = default;

int Engine::threads() const noexcept { return pool_->size(); }

ExperimentResult Engine::run(const ExperimentSpec& spec) const {
  return run(spec, plan_shards(spec, 1, 0), {});
}

ExperimentResult Engine::run(const ExperimentSpec& spec, const SinkList& sinks) const {
  return run(spec, plan_shards(spec, 1, 0), sinks);
}

ExperimentResult Engine::run(const ExperimentSpec& spec, const ShardPlan& shard,
                             const SinkList& sinks) const {
  const int algo_sources = static_cast<int>(spec.algo != nullptr) +
                           static_cast<int>(spec.algorithm.has_value()) +
                           static_cast<int>(!spec.variants.empty());
  SC_CHECK(algo_sources == 1,
           "ExperimentSpec needs exactly one of algo/algorithm/variants");
  SC_CHECK(!spec.adversaries.empty(), "ExperimentSpec needs at least one adversary");
  SC_CHECK(spec.seeds > 0, "ExperimentSpec needs seeds > 0");
  SC_CHECK(spec.explicit_seeds.empty() ||
               spec.explicit_seeds.size() == static_cast<std::size_t>(spec.seeds),
           "explicit_seeds must be empty or have exactly `seeds` entries");
  SC_CHECK(spec.variants.empty() ||
               spec.variants.size() == static_cast<std::size_t>(spec.seeds),
           "variants must be empty or have exactly `seeds` entries");
  SC_CHECK(shard.group_begin <= shard.group_end && shard.group_end <= group_count(spec),
           "shard plan does not fit the experiment grid");

  static const std::vector<FaultPattern> kFaultFree = {{"", {}}};
  const std::vector<FaultPattern>& placements =
      spec.placements.empty() ? kFaultFree : spec.placements;

  // Resolve the declarative algorithm sources once; cells share the result
  // (library algorithms are immutable after construction). A variant axis
  // builds one algorithm per seed index, shared across groups.
  const counting::AlgorithmPtr shared_algo =
      spec.algo != nullptr ? spec.algo
      : spec.algorithm.has_value() ? counting::build(*spec.algorithm)
                                   : nullptr;
  std::vector<counting::AlgorithmPtr> variant_algos;
  variant_algos.reserve(spec.variants.size());
  for (const counting::AlgorithmSpec& v : spec.variants) {
    variant_algos.push_back(counting::build(v));
    check_margin(spec, *variant_algos.back());
  }
  if (shared_algo != nullptr) check_margin(spec, *shared_algo);

  // What the runner must record, unioned over the sinks; recordings are
  // dropped again after delivery unless some sink retains them.
  bool rec_outputs = false, rec_states = false, retain = false;
  for (Sink* sink : sinks) {
    rec_outputs = rec_outputs || sink->wants_outputs();
    rec_states = rec_states || sink->wants_states();
    retain = retain || sink->retain_traces();
  }

  const std::size_t n_adv = spec.adversaries.size();
  const std::size_t n_pl = placements.size();
  const std::size_t n_seeds = static_cast<std::size_t>(spec.seeds);
  // The shard's slice: cells [cell_offset, cell_offset + n_cells) of the
  // global grid, whole (adversary, placement) groups only.
  const std::size_t cell_offset = shard.group_begin * n_seeds;
  const std::size_t n_cells = shard.groups() * n_seeds;

  ExperimentResult out;
  out.cells.resize(n_cells);
  out.stats = spec.stats;

  const auto seed_at = [&spec, n_seeds](std::size_t idx) {
    return spec.explicit_seeds.empty() ? cell_seed(spec.base_seed, idx)
                                       : spec.explicit_seeds[idx % n_seeds];
  };
  // `idx` is always the global cell index; the shard's outcomes occupy
  // out.cells[idx - cell_offset].
  const auto fill_cell_coords = [&](std::size_t idx) -> CellOutcome& {
    CellOutcome& cell = out.cells[idx - cell_offset];
    cell.cell_index = idx;
    cell.seed_index = static_cast<int>(idx % n_seeds);
    cell.placement = (idx / n_seeds) % n_pl;
    cell.adversary = idx / (n_seeds * n_pl);
    cell.seed = seed_at(idx);
    return cell;
  };

  const auto run_cell = [&](std::size_t idx) {
    CellOutcome& cell = fill_cell_coords(idx);

    RunConfig cfg;
    cfg.algo = variant_algos.empty()
                   ? shared_algo
                   : variant_algos[static_cast<std::size_t>(cell.seed_index)];
    cfg.faulty = placements[cell.placement].faulty;
    cfg.max_rounds = cell_horizon(spec, *cfg.algo);
    cfg.seed = cell.seed;
    cfg.stop_after_stable = spec.stop_after_stable;
    cfg.record_outputs = rec_outputs;
    cfg.record_states = rec_states;
    cfg.initial = spec.initial;

    const std::string& name = spec.adversaries[cell.adversary];
    auto adversary = spec.adversary_factory ? spec.adversary_factory(name)
                                            : make_adversary(name);
    SC_CHECK(adversary != nullptr, "adversary factory returned null for: " + name);
    cell.result = run_execution(cfg, *adversary, spec.margin);
  };

  const std::size_t n_groups = shard.groups();

  // Always-on per-group profiling (sim/profile.hpp). The planning loop
  // below sets each group's backend; every task writes its node-rounds and
  // wall time into its own slot, summed per group after the pool joins.
  struct TaskProfile {
    std::size_t group = 0;
    std::uint64_t node_rounds = 0;
    std::uint64_t nanos = 0;
  };
  std::vector<TaskProfile> task_profiles;
  const auto record_profile = [&](std::size_t task, std::uint64_t work,
                                  ProfileClock::time_point t0) {
    task_profiles[task].node_rounds = work;
    task_profiles[task].nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(profile_now() - t0).count());
  };
  // Work unit both backends share: executed rounds x correct nodes.
  const auto node_rounds_of = [](const RunResult& r) {
    return r.rounds * static_cast<std::uint64_t>(r.correct_ids.size());
  };

  // Ordered delivery, streamed during the run: a group is folded into
  // out.groups -- and handed to the sinks, its cells in cell order, then the
  // group aggregate -- once it and every group before it in the shard has
  // finished, so streaming sinks observe a deterministic prefix no matter
  // which threads finish first. A finishing task only updates the counts
  // under sink_mu; the first one to find the next group complete while
  // nobody is delivering becomes the deliverer and works outside the lock,
  // group after group, until the next group is incomplete. One thread
  // delivers at a time (sinks need not be thread-safe) while the others
  // keep computing. A sink exception leaves `delivering` set, so nothing is
  // delivered after it.
  out.groups.resize(n_groups);
  const auto deliver = [&](std::size_t local_group) {
    AggregateResult agg(spec.stats);
    const std::size_t first = local_group * n_seeds;
    for (std::size_t k = 0; k < n_seeds; ++k) {
      CellOutcome& cell = out.cells[first + k];
      for (Sink* sink : sinks) sink->on_cell(cell);
      agg.fold(cell.result);
      if ((rec_outputs || rec_states) && !retain) {
        cell.result.outputs = {};
        cell.result.states = {};
      }
    }
    for (Sink* sink : sinks) sink->on_group(shard.group_begin + local_group, agg);
    out.groups[local_group] = std::move(agg);
  };
  std::mutex sink_mu;  // guards the three below
  std::vector<std::size_t> cells_pending(n_groups, n_seeds);
  std::size_t next_delivery = 0;  // local group index
  bool delivering = false;
  const auto group_finished = [&](std::size_t local_group, std::size_t count) {
    std::unique_lock<std::mutex> lock(sink_mu);
    cells_pending[local_group] -= count;
    if (delivering) return;
    delivering = true;
    while (next_delivery < n_groups && cells_pending[next_delivery] == 0) {
      const std::size_t lg = next_delivery;
      lock.unlock();
      deliver(lg);
      lock.lock();
      ++next_delivery;
    }
    delivering = false;
  };

  // Batch eligibility: a shared batch-supported algorithm (TableAlgorithm or
  // a composed boosted/pulling tower), no per-seed variants, and a batchable
  // adversary (probed per name on a library instance). Eligible (adversary,
  // placement) groups run their seed range through the batched backend in
  // lockstep chunks; every other cell stays on the scalar runner. The
  // composed hierarchy is compiled once here and shared by every chunk task.
  const bool probe_batch = spec.backend == Backend::kAuto && shared_algo != nullptr &&
                           !spec.adversary_factory;
  const bool is_table =
      probe_batch &&
      std::dynamic_pointer_cast<const counting::TableAlgorithm>(shared_algo) != nullptr;
  const auto composed =
      probe_batch && !is_table ? ComposedCompiledTable::compile(shared_algo) : nullptr;
  const bool algo_batchable = is_table || composed != nullptr;
  std::vector<bool> adv_batchable(n_adv, false);
  if (algo_batchable) {
    for (std::size_t a = 0; a < n_adv; ++a) {
      adv_batchable[a] = make_adversary(spec.adversaries[a])->batchable();
    }
  }

  for (Sink* sink : sinks) sink->on_start(spec, shard);

  // Lanes per batch task: table groups fill one full-width multi-word block
  // (64 * default_batch_words() lanes per table pass); composed blocks are
  // single-word. Chunking at the block size keeps one task == one block, so
  // widening the planes does not shrink the per-task work below it.
  const std::size_t chunk =
      is_table ? 64 * static_cast<std::size_t>(default_batch_words()) : 64;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(n_cells);
  out.profiles.resize(n_groups);
  for (std::size_t g = shard.group_begin; g < shard.group_end; ++g) {
    const std::size_t a = g / n_pl;
    const std::size_t p = g % n_pl;
    const std::size_t group = g * n_seeds;
    const std::size_t local_group = g - shard.group_begin;
    if (algo_batchable && adv_batchable[a]) {
      out.batched_cells += n_seeds;
      out.profiles[local_group].backend = is_table ? GroupProfile::kBatched
                                                   : GroupProfile::kComposed;
      for (std::size_t s0 = 0; s0 < n_seeds; s0 += chunk) {
        const std::size_t count = std::min(chunk, n_seeds - s0);
        task_profiles.push_back({local_group});
        tasks.push_back([&, a, group, s0, count, p, local_group, task = tasks.size()] {
          const auto t0 = profile_now();
          BatchConfig bc;
          bc.algo = shared_algo;
          bc.composed = composed;
          bc.faulty = placements[p].faulty;
          bc.max_rounds = cell_horizon(spec, *shared_algo);
          bc.margin = spec.margin;
          bc.stop_after_stable = spec.stop_after_stable;
          bc.record_outputs = rec_outputs;
          bc.record_states = rec_states;
          bc.initial = spec.initial;
          const std::string& name = spec.adversaries[a];
          bc.adversary = [&name] { return make_adversary(name); };
          bc.seeds.resize(count);
          for (std::size_t k = 0; k < count; ++k) bc.seeds[k] = seed_at(group + s0 + k);
          auto results = run_batch(bc);
          std::uint64_t work = 0;
          for (std::size_t k = 0; k < count; ++k) {
            work += node_rounds_of(results[k]);
            fill_cell_coords(group + s0 + k).result = std::move(results[k]);
          }
          record_profile(task, work, t0);
          group_finished(local_group, count);
        });
      }
    } else {
      out.profiles[local_group].backend = GroupProfile::kScalar;
      for (std::size_t s = 0; s < n_seeds; ++s) {
        task_profiles.push_back({local_group});
        tasks.push_back([&, local_group, idx = group + s, task = tasks.size()] {
          const auto t0 = profile_now();
          run_cell(idx);
          record_profile(task, node_rounds_of(out.cells[idx - cell_offset].result), t0);
          group_finished(local_group, 1);
        });
      }
    }
  }

  const auto t0 = profile_now();
  // A failing task (a sink hitting ENOSPC, a bad adversary name) does not
  // stop the others; the pool rethrows the first failure here.
  pool_->parallel_for(tasks.size(), [&](std::size_t i) { tasks[i](); });
  out.wall_seconds =
      std::chrono::duration<double>(profile_now() - t0).count();

  for (const TaskProfile& tp : task_profiles) {
    out.profiles[tp.group].node_rounds += tp.node_rounds;
    out.profiles[tp.group].nanos += tp.nanos;
  }

  // The total is the group-order merge of the delivered group aggregates,
  // independent of which thread ran what. For exact mode this is
  // bit-identical to the flat cell-order fold (merge replays samples); for
  // sketch mode it IS the defined fold order -- the same left-fold over
  // group aggregates the wire-level sharded paths use (ShardPartial::total,
  // merge_partials), which is what makes a merged sharded sweep byte-compare
  // equal to a single-process run.
  out.total = AggregateResult(spec.stats);
  for (const AggregateResult& agg : out.groups) out.total.merge(agg);
  for (Sink* sink : sinks) sink->on_done(out);
  return out;
}

}  // namespace synccount::sim
