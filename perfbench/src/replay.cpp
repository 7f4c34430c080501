#include "replay.hpp"

#include <cstring>
#include <stdexcept>

#include "counting/table_algorithm.hpp"
#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/faults.hpp"
#include "sim/runner.hpp"

namespace perfbench {

namespace counting = synccount::counting;

std::vector<sim::FaultPattern> placements_for(const std::vector<std::string>& names, int n,
                                              int f) {
  std::vector<sim::FaultPattern> out;
  for (const std::string& name : names) {
    if (name == "spread") {
      out.push_back({name, sim::faults_spread(n, f)});
    } else if (name == "blocks") {
      out.push_back({name, sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f)});
    } else if (name == "leaders") {
      out.push_back({name, sim::faults_leader_blocks(3, n / 3, (f - 1) / 2, f)});
    } else if (name == "none") {
      out.push_back({name, {}});
    } else {
      throw std::invalid_argument("unknown placement: " + name);
    }
  }
  return out;
}

std::uint64_t horizon_of(const sim::ExperimentSpec& spec,
                         const counting::CountingAlgorithm& algo) {
  if (spec.max_rounds != 0) return spec.max_rounds;
  if (const auto bound = algo.stabilisation_bound()) return *bound + spec.extra_rounds;
  return spec.horizon_override != 0 ? spec.horizon_override : 20000;
}

void validate_workload(const sim::ExperimentSpec& spec,
                       const counting::CountingAlgorithm& algo) {
  const std::uint64_t horizon = horizon_of(spec, algo);
  if (horizon <= spec.margin) {
    throw std::invalid_argument("workload refused: horizon " + std::to_string(horizon) +
                                " <= margin " + std::to_string(spec.margin) +
                                " (only runs that start valid could count as stabilised)");
  }
  if (spec.stop_after_stable != 0 && spec.stop_after_stable < spec.margin) {
    throw std::invalid_argument("workload refused: stop_after_stable " +
                                std::to_string(spec.stop_after_stable) + " < margin " +
                                std::to_string(spec.margin));
  }
  if (!algo.stabilisation_bound().has_value()) {
    throw std::invalid_argument("workload refused: " + algo.name() +
                                " has no proven stabilisation bound to check");
  }
}

ReplayPlan make_replay_plan(const sim::ExperimentSpec& declarative, Tracer& tracer,
                            std::uint64_t parent) {
  ReplayPlan p;
  p.spec = declarative;
  {
    const SpanScope span(tracer, "counting.build", parent);
    p.algo = counting::build(*declarative.algorithm);
  }
  p.spec.algo = p.algo;
  p.spec.algorithm.reset();
  p.is_table = std::dynamic_pointer_cast<const counting::TableAlgorithm>(p.algo) != nullptr;
  if (!p.is_table) {
    const SpanScope span(tracer, "composed_runner.compile", parent);
    p.composed = sim::ComposedCompiledTable::compile(p.algo);
  }
  p.placements = declarative.placements;
  if (p.placements.empty()) p.placements = {{"", {}}};
  for (const std::string& name : p.spec.adversaries) {
    p.adv_batchable.push_back((p.is_table || p.composed != nullptr) &&
                              sim::make_adversary(name)->batchable());
  }
  p.horizon = horizon_of(p.spec, *p.algo);
  p.chunk = p.is_table ? 64 * static_cast<std::size_t>(sim::default_batch_words()) : 64;
  return p;
}

std::uint64_t node_rounds(const sim::RunResult& r) {
  return r.rounds * static_cast<std::uint64_t>(r.correct_ids.size());
}

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  return a.rounds == b.rounds && a.stabilisation_round == b.stabilisation_round &&
         a.suffix_length == b.suffix_length && a.max_window == b.max_window &&
         a.stabilised == b.stabilised && a.max_pulls_per_round == b.max_pulls_per_round &&
         std::memcmp(&a.avg_pulls_per_round, &b.avg_pulls_per_round, sizeof(double)) == 0 &&
         a.correct_ids == b.correct_ids;
}

std::vector<sim::RunResult> replay_task(const ReplayPlan& p, std::size_t group, std::size_t s0,
                                        std::size_t count, Tracer& tracer, std::uint64_t parent,
                                        CallTotals& calls) {
  const std::size_t a = group / p.placements.size();
  const std::size_t pl = group % p.placements.size();
  const std::string& name = p.spec.adversaries[a];
  const std::size_t first = group * p.seeds() + s0;
  const AdversaryCounters before = thread_adversary_counters();

  std::vector<sim::RunResult> results;
  if (p.adv_batchable[a]) {
    SpanScope span(tracer, p.is_table ? kSpanBatchTable : kSpanBatchComposed, parent, name);
    sim::BatchConfig bc;
    bc.algo = p.algo;
    bc.composed = p.composed;
    bc.faulty = p.placements[pl].faulty;
    bc.max_rounds = p.horizon;
    bc.margin = p.spec.margin;
    bc.stop_after_stable = p.spec.stop_after_stable;
    bc.initial = p.spec.initial;
    bc.adversary = [&name]() -> std::unique_ptr<sim::Adversary> {
      return std::make_unique<TimedAdversary>(sim::make_adversary(name));
    };
    bc.seeds.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      bc.seeds[k] = sim::cell_seed(p.spec.base_seed, first + k);
    }
    results = sim::run_batch(bc);
    std::uint64_t work = 0;
    for (const sim::RunResult& r : results) work += node_rounds(r);
    span.set_work(work);
    span.set_agg_child_ns(thread_adversary_counters().ns - before.ns);
  } else {
    results.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      SpanScope span(tracer, kSpanExecution, parent, name);
      const std::int64_t adv_before = thread_adversary_counters().ns;
      sim::RunConfig cfg;
      cfg.algo = p.algo;
      cfg.faulty = p.placements[pl].faulty;
      cfg.max_rounds = p.horizon;
      cfg.seed = sim::cell_seed(p.spec.base_seed, first + k);
      cfg.stop_after_stable = p.spec.stop_after_stable;
      cfg.initial = p.spec.initial;
      TimedAdversary adversary(sim::make_adversary(name));
      results.push_back(sim::run_execution(cfg, adversary, p.spec.margin));
      span.set_work(node_rounds(results.back()));
      span.set_agg_child_ns(thread_adversary_counters().ns - adv_before);
    }
  }
  const AdversaryCounters& after = thread_adversary_counters();
  for (std::size_t e = 0; e < kAdversaryEntries; ++e) {
    calls.calls[e].fetch_add(after.calls[e] - before.calls[e], std::memory_order_relaxed);
  }
  return results;
}

std::vector<ReplayTask> replay_tasks(const ReplayPlan& p, std::size_t group_begin,
                                     std::size_t group_end) {
  std::vector<ReplayTask> tasks;
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const std::size_t a = g / p.placements.size();
    const std::size_t step = p.adv_batchable[a] ? p.chunk : 1;
    for (std::size_t s0 = 0; s0 < p.seeds(); s0 += step) {
      tasks.push_back({g, s0, std::min(step, p.seeds() - s0)});
    }
  }
  return tasks;
}

void runner_layer_metrics(const Tracer& tracer, const std::vector<std::string>& adversaries,
                          const CallTotals& calls, std::map<std::string, double>& out) {
  for (const std::string& adv : adversaries) {
    double runner_s = 0, forge_s = 0;
    for (const char* span : {kSpanBatchTable, kSpanBatchComposed, kSpanExecution}) {
      runner_s += tracer.total_s(span, adv);
      forge_s += tracer.agg_child_s(span, adv);
    }
    if (runner_s > 0) out["adversaries.forge_share." + adv] = forge_s / runner_s;
    const std::uint64_t table_work = tracer.work(kSpanBatchTable, adv);
    if (table_work > 0) {
      out["batch_runner.self_ns_per_node_round." + adv] =
          tracer.self_s(kSpanBatchTable, adv) * 1e9 / static_cast<double>(table_work);
    }
    const std::uint64_t composed_work = tracer.work(kSpanBatchComposed, adv);
    if (composed_work > 0) {
      out["composed_runner.self_ns_per_node_round." + adv] =
          tracer.self_s(kSpanBatchComposed, adv) * 1e9 / static_cast<double>(composed_work);
    }
  }
  const std::uint64_t scalar_work = tracer.work(kSpanExecution);
  if (scalar_work > 0) {
    out["runner.self_ns_per_node_round"] =
        tracer.self_s(kSpanExecution) * 1e9 / static_cast<double>(scalar_work);
  }
  for (std::size_t e = 0; e < kAdversaryEntries; ++e) {
    out[std::string("adversaries.calls.") + kAdversaryEntryNames[e]] =
        static_cast<double>(calls.calls[e].load(std::memory_order_relaxed));
  }
}

}  // namespace perfbench
