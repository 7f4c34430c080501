// synccount_cli -- command-line front end for the library.
//
//   synccount_cli plan        --f=7 [--modulus=10] [--schedule=practical]
//               (spec mode)   [sweep grid flags] [sink flags] --emit=SPEC.json
//                             [--shards=K]  (emit a runnable experiment spec
//                             without running it, plus the shard plan)
//   synccount_cli run         --f=3 [--modulus=16] [--adversary=split]
//                             [--placement=blocks|spread] [--seed=S]
//                             [--rounds=N] [--trace=out.csv]
//   synccount_cli sweep       --f=3 [--modulus=16] [--seeds=5] [--threads=N]
//                             [--table=3states|4states|file.table]
//                             [--backend=auto|scalar] [--stats=exact|sketch]
//                             [--adversaries=split,lookahead|all]
//                             [--placements=spread,blocks,leaders]
//                             [--base-seed=S] [--rounds=N] [--margin=M]
//                             [sink flags: --trace=FILE
//                              --trace-format=jsonl|csv|bin
//                              --trace-outputs --checkpoint=FILE --progress]
//                             [--shards=K] [--shard=i] [--emit=FILE]
//   synccount_cli sweep       --spec=SPEC.json [--resume] [--threads=N]
//                             [--shards=K] [--shard=i] [--emit=FILE] [--progress]
//   synccount_cli merge       FILE... [--emit=FILE]
//   synccount_cli synthesize  --n=4 --f=1 --states=3 [--symmetry=cyclic]
//                             [--max-time=8] [--incremental] [--budget=K]
//                             [--dimacs=out.cnf]
//   synccount_cli synth       --n=4 --f=1 --states=3 [--symmetry=cyclic]
//                             [--min-time=1] [--max-time=8] [--portfolio=K]
//                             [--cube-depth=d] [--jobs=N] [--budget=C]
//                             [--no-prefilter] [--stats] [--save=FILE]
//                             [--emit-cnf=FILE]  (parallel synthesis engine:
//                             one canonical scan per cube across --jobs
//                             threads, falling back through K solver configs
//                             on budget exhaustion; the result is
//                             bit-identical for any --jobs)
//   synccount_cli verify      [--load=file.table]  (default: embedded tables)
//   synccount_cli consensus   --f=1 --values=8 --proposals=5,5,5,5 [--seed=S]
//
// Declarative sweeps: a spec file is the single source of truth for a run --
// `plan ... --emit=spec.json` writes one without running anything, and
// `sweep --spec=spec.json` executes it with the sinks (trace, progress,
// checkpoint) the spec configures. With a checkpoint sink configured, a
// killed worker restarts from the last finished cell-group via
// `sweep --spec=spec.json --resume`, and the completed checkpoint file is
// byte-identical to an uninterrupted worker's partial.
//
// Distributed sweeps: `sweep --shards=K` forks K local worker processes,
// each running a contiguous slice of (adversary, placement) cell-groups, and
// merges their partial files -- bit-identical to the single-process sweep.
// `sweep --shards=K --shard=i --emit=FILE` runs one worker in the calling
// process (the multi-machine form: run shard i per machine, copy the files,
// `merge` them anywhere). Unknown flags and subcommands exit with status 2.
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "counting/algorithm_spec.hpp"
#include "counting/table_io.hpp"
#include "sim/profile.hpp"
#include "sim/experiment_io.hpp"
#include "sim/sink.hpp"
#include "synccount/synccount.hpp"
#include "synthesis/portfolio.hpp"

using namespace synccount;

namespace {

void usage(std::ostream& os) {
  os << "usage: synccount_cli <command> [--flags]\n"
        "  plan        print a Theorem 1 recursion schedule and its bounds\n"
        "              --f --modulus --schedule=practical|corollary1|fixed-k --k --levels\n"
        "              with --emit=SPEC.json: build an experiment spec from the sweep\n"
        "              grid + sink flags below and write it WITHOUT running; --shards=K\n"
        "              additionally prints the per-worker shard plan\n"
        "  run         one execution with optional CSV trace\n"
        "              --f --modulus --adversary --placement --seed --rounds --trace\n"
        "  sweep       batched grid sweep (adversaries x placements x seeds)\n"
        "              --f --modulus | --table=3states|4states|file.table\n"
        "              --backend=auto|scalar --adversaries --placements --seeds\n"
        "              --base-seed --rounds --margin --stop-after-stable --threads\n"
        "              --stats=exact|sketch  (sketch: mergeable KLL quantile\n"
        "              sketches instead of retained samples; bounded memory)\n"
        "              sink flags: --trace=FILE --trace-format=jsonl|csv|bin\n"
        "              --trace-outputs --checkpoint=FILE --progress\n"
        "              --shards=K [--shard=i] [--emit=FILE]  (distributed mode)\n"
        "              --spec=SPEC.json [--resume]  (run a spec file; --resume\n"
        "              restarts a checkpointed run from the last finished group)\n"
        "  merge       fold sweep worker partials: merge FILE... [--emit=FILE]\n"
        "  synthesize  SAT-synthesize a table algorithm\n"
        "              --n --f --states --modulus --symmetry --min-time --max-time\n"
        "              --incremental --budget --dimacs --save\n"
        "  synth       parallel synthesis: 2^d cube scans across --jobs threads,\n"
        "              each trying K solver configs in order until one resolves\n"
        "              within --budget, + batch prefilter; deterministic for any --jobs\n"
        "              --n --f --states --modulus --symmetry --min-time --max-time\n"
        "              --portfolio=K --cube-depth=d --jobs=N --budget=C\n"
        "              --no-prefilter --stats --save=FILE --emit-cnf=FILE\n"
        "  verify      exact verification --load=file.table (default: embedded)\n"
        "  consensus   repeated consensus demo --f --values --proposals --seed --adversary\n"
        "see the header of tools/synccount_cli.cpp for details\n";
}

// Strict flag handling: a typo'd flag must fail the command, not silently
// run a different experiment.
int reject_unknown(const util::Cli& cli, std::initializer_list<const char*> known,
                   bool allow_positional = false) {
  const auto unknown = cli.unknown_flags(known);
  if (!unknown.empty()) {
    std::cerr << "unknown flag" << (unknown.size() > 1 ? "s" : "") << ":";
    for (const auto& f : unknown) std::cerr << " --" << f;
    std::cerr << "\n";
    usage(std::cerr);
    return 2;
  }
  if (!allow_positional && !cli.positional().empty()) {
    std::cerr << "unexpected argument: " << cli.positional().front() << "\n";
    usage(std::cerr);
    return 2;
  }
  return 0;
}

// Writes one output file through `write`. The stream is checked after open
// and after close, so an unwritable path prints "cannot write PATH" and
// returns false instead of reporting success.
bool write_output(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (out.good()) {
    write(out);
    out.close();
  }
  if (out.good()) return true;
  std::cerr << "cannot write " << path << "\n";
  return false;
}

// Defined with the sweep machinery below: `plan --emit=SPEC.json` builds the
// sweep grid + sink configs from flags and writes a spec file without
// running anything.
int cmd_plan_spec(const util::Cli& cli);

int cmd_plan(const util::Cli& cli) {
  if (const int rc = reject_unknown(
          cli, {"f", "modulus", "schedule", "k", "levels",
                // Spec-emission mode shares the sweep grid + sink flags.
                "table", "backend", "stats", "adversaries", "placements", "seeds",
                "base-seed", "rounds", "margin", "stop-after-stable", "shards", "emit",
                "trace", "trace-format", "trace-outputs", "checkpoint", "progress"})) {
    return rc;
  }
  if (cli.has("emit")) return cmd_plan_spec(cli);
  // Without --emit the sweep-grid/sink flags would be silently ignored --
  // keep the strict-CLI promise and refuse them instead.
  for (const char* flag :
       {"table", "backend", "stats", "adversaries", "placements", "seeds", "base-seed",
        "rounds", "margin", "stop-after-stable", "shards", "trace", "trace-format",
        "trace-outputs", "checkpoint", "progress"}) {
    if (cli.has(flag)) {
      std::cerr << "--" << flag << " requires spec-emission mode: plan ... --emit=SPEC.json\n";
      return 2;
    }
  }
  const int f = static_cast<int>(cli.get_int("f", 3));
  const std::uint64_t modulus = cli.get_u64("modulus", 10);
  const std::string schedule = cli.get_string("schedule", "practical");
  boosting::Plan plan;
  if (schedule == "practical") {
    plan = boosting::plan_practical(f, modulus);
  } else if (schedule == "corollary1") {
    plan = boosting::plan_corollary1(f, modulus);
  } else if (schedule == "fixed-k") {
    plan = boosting::plan_fixed_k(static_cast<int>(cli.get_int("k", 4)),
                                  static_cast<int>(cli.get_int("levels", 2)), modulus);
  } else {
    std::cerr << "unknown schedule: " << schedule << "\n";
    return 2;
  }
  const auto algo = boosting::build_plan(plan);
  std::cout << "schedule: " << plan.label << "\n";
  util::Table t({"level", "k", "F", "output modulus", "level cost 3(F+2)(2m)^k"});
  t.add_row({"base", "-", "0", std::to_string(plan.base_modulus), "-"});
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const auto& lv = plan.levels[i];
    t.add_row({std::to_string(i + 1), std::to_string(lv.k), std::to_string(lv.F),
               std::to_string(lv.C),
               std::to_string(boosting::required_input_modulus(lv.k, lv.F))});
  }
  t.print(std::cout);
  std::cout << "\nn = " << algo->num_nodes() << ", f = " << algo->resilience()
            << ", T bound = " << algo->stabilisation_bound().value_or(0)
            << " rounds, S = " << algo->state_bits() << " bits/node\n";
  return 0;
}

int cmd_run(const util::Cli& cli) {
  if (const int rc = reject_unknown(
          cli, {"f", "modulus", "adversary", "placement", "seed", "rounds", "trace"})) {
    return rc;
  }
  const int f = static_cast<int>(cli.get_int("f", 3));
  const std::uint64_t modulus = cli.get_u64("modulus", 16);
  const auto algo = boosting::build_plan(boosting::plan_practical(f, modulus));
  const int n = algo->num_nodes();

  sim::RunConfig cfg;
  cfg.algo = algo;
  const std::string placement = cli.get_string("placement", "blocks");
  if (placement == "spread" || f == 1) {
    cfg.faulty = sim::faults_spread(n, f);
  } else {
    cfg.faulty = sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f);
  }
  cfg.max_rounds = cli.get_u64("rounds", algo->stabilisation_bound().value_or(2000) + 300);
  cfg.seed = cli.get_u64("seed", 1);
  cfg.record_outputs = cli.has("trace");
  auto adversary = sim::make_adversary(cli.get_string("adversary", "split"));
  const auto res = sim::run_execution(cfg, *adversary, 100);

  std::cout << "algorithm:  " << algo->name() << "\n"
            << "faulty:     ";
  for (auto id : sim::fault_ids(cfg.faulty)) std::cout << id << ' ';
  std::cout << "\nadversary:  " << adversary->name() << "\n"
            << "rounds run: " << res.rounds << "\n"
            << "stabilised: " << (res.stabilised ? "yes" : "no") << " at round "
            << res.stabilisation_round << " (bound "
            << algo->stabilisation_bound().value_or(0) << ")\n";

  if (cli.has("trace")) {
    const std::string path = cli.get_string("trace", "trace.csv");
    const bool written = write_output(path, [&res](std::ostream& out) {
      out << "round";
      for (auto id : res.correct_ids) out << ",node" << id;
      out << "\n";
      for (std::size_t r = 0; r < res.outputs.size(); ++r) {
        out << r;
        for (auto v : res.outputs[r]) out << ',' << v;
        out << "\n";
      }
    });
    if (!written) return 1;
    std::cout << "trace:      " << path << " (" << res.outputs.size() << " rounds)\n";
  }
  return res.stabilised ? 0 : 1;
}

// --- sweep -------------------------------------------------------------------

// The grid a sweep command line describes; shared by the single-process,
// worker and orchestrator paths (a worker must reconstruct the exact spec
// from the same flags or read the same spec file). The ExperimentSpec is
// fully declarative (`spec.algorithm`), so it serialises as-is.
struct SweepGrid {
  counting::AlgorithmPtr algo;  // built once for header printing
  sim::ExperimentSpec spec;
  int n = 0;
  int f = 0;
};

int build_sweep_grid(const util::Cli& cli, SweepGrid& out) {
  counting::AlgorithmSpec algo_spec;
  if (cli.has("table")) {
    // Resolve through the same AlgorithmSpec path a deserialised worker
    // spec takes, so registry names and table files cannot drift between
    // the CLI and the wire format.
    const std::string which = cli.get_string("table", "3states");
    algo_spec.kind = counting::AlgorithmSpec::Kind::kTable;
    if (synthesis::known_table_by_name(which).has_value()) {
      algo_spec.table_name = which;
    } else {
      algo_spec.table_file = which;
    }
  } else {
    const int plan_f = static_cast<int>(cli.get_int("f", 3));
    const std::uint64_t modulus = cli.get_u64("modulus", 16);
    algo_spec = *counting::describe(
        boosting::build_plan(boosting::plan_practical(plan_f, modulus)));
  }
  counting::AlgorithmPtr algo = counting::build(algo_spec);
  const int f = cli.has("table") ? algo->resilience()
                                 : static_cast<int>(cli.get_int("f", 3));
  const int n = algo->num_nodes();

  sim::ExperimentSpec spec;
  spec.algorithm = std::move(algo_spec);
  const std::string backend = cli.get_string("backend", "auto");
  if (backend == "scalar") {
    spec.backend = sim::Backend::kScalar;
  } else if (backend != "auto") {
    std::cerr << "unknown backend: " << backend << " (want auto|scalar)\n";
    return 2;
  }

  const std::string stats = cli.get_string("stats", "exact");
  if (stats == "sketch") {
    spec.stats = util::StatsMode::kSketch;
  } else if (stats != "exact") {
    std::cerr << "unknown stats mode: " << stats << " (want exact|sketch)\n";
    return 2;
  }

  const std::string adv_arg = cli.get_string("adversaries", "split,random,lookahead");
  spec.adversaries =
      adv_arg == "all" ? sim::adversary_names() : cli.get_list("adversaries", adv_arg);

  const bool placements_given = cli.has("placements");
  for (const auto& name : cli.get_list("placements", "spread,blocks")) {
    if (name == "spread") {
      spec.placements.push_back({"spread", sim::faults_spread(n, f)});
    } else if (name == "blocks" || name == "leaders") {
      // Block-structured placements need a multi-block fault budget.
      if (f <= 1) {
        if (placements_given) {
          std::cerr << "placement '" << name << "' requires --f>1 (skipped at f=" << f
                    << ")\n";
        }
        continue;
      }
      spec.placements.push_back(
          name == "blocks"
              ? sim::FaultPattern{"blocks", sim::faults_block_concentrated(3, n / 3, (f - 1) / 2, f)}
              : sim::FaultPattern{"leaders", sim::faults_leader_blocks(3, n / 3, (f - 1) / 2, f)});
    } else if (name == "none") {
      spec.placements.push_back({"none", {}});
    } else {
      std::cerr << "unknown placement: " << name << " (want spread|blocks|leaders|none)\n";
      return 2;
    }
  }
  if (spec.placements.empty()) {
    std::cerr << "no applicable placements for f=" << f
              << " -- pass --placements=spread or none\n";
    return 2;
  }

  spec.seeds = static_cast<int>(cli.get_int("seeds", 5));
  spec.base_seed = cli.get_u64("base-seed", 0x9000);
  spec.max_rounds = cli.get_u64("rounds", 0);
  spec.margin = cli.get_u64("margin", 100);
  spec.stop_after_stable = cli.get_u64("stop-after-stable", 120);

  out.algo = std::move(algo);
  out.spec = std::move(spec);
  out.n = n;
  out.f = f;
  return 0;
}

// Turns the sink flags into declarative SinkConfigs on the spec, so a spec
// emitted by `plan` or rebuilt by a worker from the same flags carries the
// identical observer setup.
int apply_sink_flags(const util::Cli& cli, sim::ExperimentSpec& spec) {
  if (cli.has("trace")) {
    sim::SinkConfig cfg;
    cfg.kind = sim::SinkConfig::Kind::kTrace;
    cfg.path = cli.get_string("trace", "");
    if (cfg.path.empty() || cfg.path == "true") {
      std::cerr << "--trace requires a file: --trace=FILE\n";
      return 2;
    }
    cfg.format = cli.get_string("trace-format", "jsonl");
    if (cfg.format != "jsonl" && cfg.format != "csv" && cfg.format != "bin") {
      std::cerr << "unknown trace format: " << cfg.format << " (want jsonl|csv|bin)\n";
      return 2;
    }
    cfg.outputs = cli.get_bool("trace-outputs");
    if (cfg.outputs && cfg.format != "jsonl") {
      std::cerr << "--trace-outputs requires --trace-format=jsonl\n";
      return 2;
    }
    spec.sinks.push_back(std::move(cfg));
  }
  if (cli.has("checkpoint")) {
    sim::SinkConfig cfg;
    cfg.kind = sim::SinkConfig::Kind::kCheckpoint;
    cfg.path = cli.get_string("checkpoint", "");
    if (cfg.path.empty() || cfg.path == "true") {
      std::cerr << "--checkpoint requires a file: --checkpoint=FILE\n";
      return 2;
    }
    spec.sinks.push_back(std::move(cfg));
  }
  if (cli.get_bool("progress")) {
    sim::SinkConfig cfg;
    cfg.kind = sim::SinkConfig::Kind::kProgress;
    spec.sinks.push_back(std::move(cfg));
  }
  return 0;
}

const sim::SinkConfig* checkpoint_config(const sim::ExperimentSpec& spec) {
  for (const sim::SinkConfig& cfg : spec.sinks) {
    if (cfg.kind == sim::SinkConfig::Kind::kCheckpoint) return &cfg;
  }
  return nullptr;
}

void print_grid_header(const SweepGrid& g) {
  std::cout << "algorithm: " << g.algo->name() << " (n=" << g.n << ", f=" << g.f
            << ", T bound " << g.algo->stabilisation_bound().value_or(0) << ")\n";
}

// The per-(adversary, placement) table plus the grand total, printed from a
// full-grid partial -- identical whether the groups were computed here or
// merged from worker files.
int print_partial_table(const sim::ShardPartial& partial) {
  util::Table table({"adversary", "placement", "stabilised", "T mean", "T p50", "T p95",
                     "T max"});
  for (const auto& g : partial.groups) {
    const auto& agg = g.aggregate;
    const auto& st = agg.stabilisation;
    table.add_row({partial.adversaries[g.group / partial.placement_names.size()],
                   partial.placement_names[g.group % partial.placement_names.size()],
                   std::to_string(agg.stabilised) + "/" + std::to_string(agg.runs),
                   agg.stabilised ? util::fmt_double(st.mean(), 1) : "-",
                   agg.stabilised ? util::fmt_double(st.quantile(0.5), 1) : "-",
                   agg.stabilised ? util::fmt_double(st.quantile(0.95), 1) : "-",
                   agg.stabilised ? util::fmt_double(st.max(), 0) : "-"});
  }
  table.print(std::cout);

  const auto t = partial.total();
  std::cout << "\ntotal: " << t.stabilised << "/" << t.runs << " stabilised ("
            << util::fmt_double(100.0 * t.stabilisation_rate(), 1) << "%), T "
            << t.stabilisation.to_string() << "\n";
  return t.stabilised == t.runs ? 0 : 1;
}

// The always-on per-group profiling counters (sim/profile.hpp) of what THIS
// process executed: which backend each group landed on, its node-rounds
// (executed rounds x correct nodes) and aggregate task compute time. Groups
// skipped by a resume are not re-profiled and do not appear.
void print_profile_table(const sim::ExperimentSpec& spec,
                         const sim::ExperimentResult& executed) {
  if (executed.profiles.empty() || executed.cells.empty()) return;
  std::vector<std::string> adversaries;
  std::vector<std::string> placements;
  sim::grid_names(spec, adversaries, placements);
  const auto n_seeds = static_cast<std::size_t>(spec.seeds);
  util::Table t({"adversary", "placement", "backend", "node-rounds", "compute ms"});
  for (std::size_t lg = 0; lg < executed.profiles.size(); ++lg) {
    const auto& p = executed.profiles[lg];
    const auto& cell = executed.cells[lg * n_seeds];
    t.add_row({adversaries[cell.adversary], placements[cell.placement], p.backend_name(),
               std::to_string(p.node_rounds),
               util::fmt_double(static_cast<double>(p.nanos) / 1e6, 1)});
  }
  std::cout << "\nprofile (this process):\n";
  t.print(std::cout);
}

int emit_partial(const std::string& path, const sim::ShardPartial& partial) {
  std::ostringstream out;
  sim::write_partial(out, partial);
  try {
    // Durable + atomic: an orchestrator (or CI byte-compare) never sees a
    // half-written partial, and ENOSPC fails the worker here, not later.
    sim::atomic_write_file(path, out.str());
  } catch (const std::exception& e) {
    std::cerr << "error writing " << path << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// `plan --emit=SPEC.json`: build the grid + sink configs from flags and
// write the spec file -- the whole experiment as data, nothing executed.
// With --shards=K the per-worker group assignment is printed too, so an
// operator can eyeball the split before handing shards to machines.
int cmd_plan_spec(const util::Cli& cli) {
  const std::string emit = cli.get_string("emit", "");
  if (emit.empty() || emit == "true") {
    std::cerr << "--emit requires a file: --emit=SPEC.json\n";
    return 2;
  }
  // Spec emission builds the practical-schedule sweep grid; the schedule
  // flags of the bounds-printing mode would be silently ignored here, which
  // must fail loudly instead of emitting a spec for a different algorithm.
  for (const char* flag : {"schedule", "k", "levels"}) {
    if (cli.has(flag)) {
      std::cerr << "--" << flag << " applies to the schedule-printing mode and "
                   "conflicts with --emit (spec emission uses the practical plan; "
                   "use --table=... for table algorithms)\n";
      return 2;
    }
  }
  SweepGrid grid;
  if (const int rc = build_sweep_grid(cli, grid)) return rc;
  if (const int rc = apply_sink_flags(cli, grid.spec)) return rc;

  if (!write_output(emit, [&grid](std::ostream& out) { sim::write_spec_file(out, grid.spec); })) {
    return 1;
  }

  print_grid_header(grid);
  const sim::ExperimentSpec& spec = grid.spec;
  const std::size_t groups = sim::group_count(spec);
  std::cout << "grid: " << spec.adversaries.size() << " adversaries x "
            << std::max<std::size_t>(spec.placements.size(), 1) << " placements x "
            << spec.seeds << " seeds = " << groups * static_cast<std::size_t>(spec.seeds)
            << " executions in " << groups << " cell-groups\n";
  for (const sim::SinkConfig& cfg : spec.sinks) {
    switch (cfg.kind) {
      case sim::SinkConfig::Kind::kTrace:
        std::cout << "sink: trace -> " << cfg.path << " (" << cfg.format
                  << (cfg.outputs ? ", with outputs" : "") << ")\n";
        break;
      case sim::SinkConfig::Kind::kProgress:
        std::cout << "sink: progress (stderr)\n";
        break;
      case sim::SinkConfig::Kind::kCheckpoint:
        std::cout << "sink: checkpoint -> " << cfg.path << " (resumable with --resume)\n";
        break;
    }
  }
  const int shards = static_cast<int>(cli.get_int("shards", 1));
  if (shards > 1) {
    util::Table t({"shard", "groups [begin, end)", "cells"});
    for (int i = 0; i < shards; ++i) {
      const auto plan = sim::plan_shards(spec, shards, i);
      t.add_row({std::to_string(i),
                 "[" + std::to_string(plan.group_begin) + ", " +
                     std::to_string(plan.group_end) + ")",
                 std::to_string(plan.groups() * static_cast<std::size_t>(spec.seeds))});
    }
    t.print(std::cout);
  }
  std::cout << "spec: " << emit << "  (run: synccount_cli sweep --spec=" << emit << ")\n";
  return 0;
}

// Forks one worker per shard (re-executing this binary) and waits for all of
// them; multi-machine runs do exactly this by hand, one shard per machine.
int run_worker_processes(const std::string& exe,
                         const std::vector<std::vector<std::string>>& worker_args) {
  std::vector<pid_t> pids;
  bool spawn_failed = false;
  for (const auto& args : worker_args) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      spawn_failed = true;
      break;  // reap the workers already running before reporting failure
    }
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      // execvp: self_exe falls back to argv[0] where /proc/self/exe is
      // unavailable, and a bare program name then needs the PATH search.
      execvp(exe.c_str(), argv.data());
      std::perror("execvp");
      _exit(127);
    }
    pids.push_back(pid);
  }
  int failures = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::cerr << failures << " worker process(es) failed\n";
  }
  return (failures > 0 || spawn_failed) ? 1 : 0;
}

// Runs one shard with its configured sinks, honouring --resume: when a
// usable checkpoint prefix exists, the already-finished groups are skipped,
// the checkpoint (and its companion trace files) are truncated to the clean
// prefix and appended to, and the full partial is read back from the
// completed checkpoint file -- byte-identical to an uninterrupted run.
// Returns an exit code; on 0 fills `partial` (and `executed` with what THIS
// process actually ran, which is less than the shard after a resume).
int run_shard(const sim::ExperimentSpec& spec, const sim::ShardPlan& plan, int threads,
              bool resume, const sim::SinkList& extra, sim::ShardPartial& partial,
              sim::ExperimentResult& executed) {
  sim::ShardPlan run_plan = plan;
  bool append = false;
  std::string ck_path;
  if (resume) {
    const sim::SinkConfig* ck = checkpoint_config(spec);
    if (ck == nullptr) {
      std::cerr << "--resume needs a checkpoint sink in the spec "
                   "(plan/sweep --checkpoint=FILE)\n";
      return 2;
    }
    ck_path = sim::sink_path(*ck, plan);
    const auto state = sim::read_checkpoint(ck_path, spec, plan);
    if (state.header_present) {
      std::filesystem::resize_file(ck_path, state.valid_bytes);
      // Companion trace files flush before the checkpoint line, so they hold
      // at least the checkpointed groups' rows; cut them back to exactly
      // those before appending.
      const std::uint64_t groups_done = state.next_group - plan.group_begin;
      for (const sim::SinkConfig& cfg : spec.sinks) {
        if (cfg.kind != sim::SinkConfig::Kind::kTrace) continue;
        if (cfg.format == "bin") {
          // Binary traces are block-oriented: one header block plus one
          // CRC-framed block per finished group.
          sim::truncate_to_blocks(sim::sink_path(cfg, plan), 1 + groups_done);
          continue;
        }
        const std::uint64_t rows =
            groups_done * static_cast<std::uint64_t>(spec.seeds) +
            (cfg.format == "csv" ? 1 : 0);
        sim::truncate_to_lines(sim::sink_path(cfg, plan), rows);
      }
      run_plan.group_begin = state.next_group;
      append = true;
      std::cout << "resume: " << ck_path << " holds groups [" << plan.group_begin << ","
                << state.next_group << "); running [" << state.next_group << ","
                << plan.group_end << ")\n";
    }
  }

  const auto owned = sim::make_sinks(spec, plan, append);
  const sim::Engine engine(threads);
  executed = engine.run(spec, run_plan, sim::sink_list(owned, extra));

  if (append) {
    std::ifstream in(ck_path);
    if (!in.good()) {
      std::cerr << "cannot re-read checkpoint " << ck_path << "\n";
      return 1;
    }
    partial = sim::read_partial(in, ck_path);
  } else {
    partial = sim::make_partial(spec, plan, executed);
  }
  return 0;
}

int cmd_sweep(const util::Cli& cli, const std::string& exe,
              const std::vector<std::string>& raw_args) {
  if (const int rc = reject_unknown(
          cli, {"f", "modulus", "table", "backend", "stats", "adversaries", "placements",
                "seeds", "base-seed", "rounds", "margin", "stop-after-stable", "threads",
                "shards", "shard", "emit", "spec", "resume", "trace", "trace-format",
                "trace-outputs", "checkpoint", "progress"})) {
    return rc;
  }
  SweepGrid grid;
  if (cli.has("spec")) {
    // The spec file is the single source of truth; grid and sink flags would
    // silently disagree with it, so they are rejected outright.
    for (const char* flag :
         {"f", "modulus", "table", "backend", "stats", "adversaries", "placements",
          "seeds", "base-seed", "rounds", "margin", "stop-after-stable", "trace",
          "trace-format", "trace-outputs", "checkpoint"}) {
      if (cli.has(flag)) {
        std::cerr << "--" << flag << " conflicts with --spec (the spec file defines it)\n";
        return 2;
      }
    }
    const std::string path = cli.get_string("spec", "");
    if (path.empty() || path == "true") {
      std::cerr << "--spec requires a file: --spec=SPEC.json\n";
      return 2;
    }
    std::ifstream in(path);
    if (!in.good()) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    grid.spec = sim::read_spec_file(in, path);
    grid.algo = sim::spec_algorithm(grid.spec);
    grid.n = grid.algo->num_nodes();
    grid.f = grid.algo->resilience();
  } else {
    if (cli.get_bool("resume")) {
      // Resuming against flag-built specs invites drift (one changed flag ==
      // a different experiment); the checkpoint flow is spec-file-driven.
      std::cerr << "--resume requires --spec=SPEC.json (emit one with `plan --emit`)\n";
      return 2;
    }
    if (const int rc = build_sweep_grid(cli, grid)) return rc;
    if (const int rc = apply_sink_flags(cli, grid.spec)) return rc;
  }
  const sim::ExperimentSpec& spec = grid.spec;
  sim::check_margin(spec, *grid.algo);  // before any worker forks
  const bool resume = cli.get_bool("resume");

  // --progress on a --spec run attaches an extra in-process sink instead of
  // mutating the spec (the spec's serialized form must stay stable for
  // checkpoint validation).
  sim::ProgressSink progress;
  sim::SinkList extra;
  if (cli.has("spec") && cli.get_bool("progress")) extra.push_back(&progress);

  const int shards = static_cast<int>(cli.get_int("shards", 1));
  if (shards < 1) {
    std::cerr << "--shards must be >= 1\n";
    return 2;
  }
  const std::string emit = cli.get_string("emit", "");
  // A bare `--emit` parses as the boolean value "true"; writing a file
  // literally named "true" is always a forgotten =FILE.
  if (cli.has("emit") && emit == "true") {
    std::cerr << "--emit requires a file: --emit=FILE\n";
    return 2;
  }
  const int threads = static_cast<int>(cli.get_int("threads", 0));

  // --- Worker mode: run one shard, emit the partial, stay quiet ------------
  if (cli.has("shard")) {
    const int shard = static_cast<int>(cli.get_int("shard", 0));
    if (shard < 0 || shard >= shards) {
      std::cerr << "--shard must be in [0, " << shards << ")\n";
      return 2;
    }
    if (emit.empty()) {
      std::cerr << "worker mode (--shard) requires --emit=FILE\n";
      return 2;
    }
    const auto plan = sim::plan_shards(spec, shards, shard);
    sim::ShardPartial partial;
    sim::ExperimentResult executed;
    if (const int rc = run_shard(spec, plan, threads, resume, extra, partial, executed)) {
      return rc;
    }
    if (const int rc = emit_partial(emit, partial)) return rc;
    std::cout << "shard " << shard << "/" << shards << ": groups [" << plan.group_begin
              << "," << plan.group_end << ") of " << sim::group_count(spec) << ", "
              << executed.cells.size() << " cells run (" << executed.batched_cells
              << " batched), wall " << util::fmt_double(executed.wall_seconds, 2)
              << "s -> " << emit << "\n";
    return 0;
  }

  // --- Single process: the grid in one engine run --------------------------
  if (shards == 1) {
    const auto plan = sim::plan_shards(spec, 1, 0);
    sim::ShardPartial partial;
    sim::ExperimentResult executed;
    if (const int rc = run_shard(spec, plan, threads, resume, extra, partial, executed)) {
      return rc;
    }
    print_grid_header(grid);
    std::cout << "grid: " << spec.adversaries.size() << " adversaries x "
              << std::max<std::size_t>(spec.placements.size(), 1) << " placements x "
              << spec.seeds << " seeds; " << executed.cells.size()
              << " executions run this process (" << executed.batched_cells
              << " on the batched backend)\n\n";
    if (!emit.empty()) {
      if (const int rc = emit_partial(emit, partial)) return rc;
    }
    const int rc = print_partial_table(partial);
    print_profile_table(spec, executed);
    std::cout << "wall: " << util::fmt_double(executed.wall_seconds, 2) << "s\n";
    return rc;
  }

  // --- Orchestrator: fork K local workers and merge their partials ---------
  const auto t0 = sim::profile_now();
  std::vector<std::string> worker_files;
  const bool keep_partials = !emit.empty();
  std::string tmp_base;
  if (!keep_partials) {
    tmp_base = (std::filesystem::temp_directory_path() /
                ("synccount-sweep-" + std::to_string(getpid()) + "-shard"))
                   .string();
  }
  // The workers run concurrently, so --threads (or hardware concurrency) is
  // a *total* budget split across them -- forwarding it verbatim would
  // oversubscribe the machine K-fold.
  const int total_threads =
      threads > 0 ? threads
                  : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int worker_threads = std::max(1, total_threads / shards);
  std::vector<std::vector<std::string>> worker_args;
  for (int i = 0; i < shards; ++i) {
    const std::string file = keep_partials ? emit + ".shard" + std::to_string(i)
                                           : tmp_base + std::to_string(i) + ".jsonl";
    worker_files.push_back(file);
    std::vector<std::string> args = {exe, "sweep"};
    for (const auto& a : raw_args) {
      if (a.rfind("--shards", 0) == 0 || a.rfind("--shard", 0) == 0 ||
          a.rfind("--emit", 0) == 0 || a.rfind("--threads", 0) == 0) {
        continue;  // replaced below (--shards is re-added explicitly)
      }
      args.push_back(a);
    }
    args.push_back("--shards=" + std::to_string(shards));
    args.push_back("--shard=" + std::to_string(i));
    args.push_back("--threads=" + std::to_string(worker_threads));
    args.push_back("--emit=" + file);
    worker_args.push_back(std::move(args));
  }

  print_grid_header(grid);
  std::cout << "grid: " << spec.adversaries.size() << " adversaries x "
            << std::max<std::size_t>(spec.placements.size(), 1) << " placements x "
            << spec.seeds << " seeds = "
            << sim::group_count(spec) * static_cast<std::size_t>(spec.seeds)
            << " executions across " << shards << " worker processes\n";
  const int spawn_rc = run_worker_processes(exe, worker_args);

  std::vector<sim::ShardPartial> parts;
  int read_rc = 0;
  if (spawn_rc == 0) {
    for (const auto& file : worker_files) {
      std::ifstream in(file);
      if (!in.good()) {
        std::cerr << "missing worker partial: " << file << "\n";
        read_rc = 1;
        break;
      }
      parts.push_back(sim::read_partial(in, file));
    }
  }
  if (!keep_partials) {
    for (const auto& file : worker_files) std::remove(file.c_str());
  }
  if (spawn_rc != 0 || read_rc != 0) return 1;

  const auto merged = sim::merge_partials(std::move(parts));
  std::cout << "\n";
  if (!emit.empty()) {
    if (const int rc = emit_partial(emit, merged)) return rc;
  }
  const int rc = print_partial_table(merged);
  std::cout << "wall: "
            << util::fmt_double(std::chrono::duration<double>(
                                    sim::profile_now() - t0)
                                    .count(),
                                2)
            << "s (" << shards << " workers)\n";
  return rc;
}

int cmd_merge(const util::Cli& cli) {
  if (const int rc = reject_unknown(cli, {"emit"}, /*allow_positional=*/true)) return rc;
  if (cli.has("emit") && cli.get_string("emit", "") == "true") {
    std::cerr << "--emit requires a file: --emit=FILE\n";
    return 2;
  }
  const auto& files = cli.positional();
  if (files.empty()) {
    std::cerr << "merge needs at least one partial file\n";
    return 2;
  }
  std::vector<sim::ShardPartial> parts;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in.good()) {
      std::cerr << "cannot open " << file << "\n";
      return 1;
    }
    parts.push_back(sim::read_partial(in, file));
  }
  const auto merged = sim::merge_partials(std::move(parts));

  // Rebuild the algorithm from the spec echo for the header line (also
  // validates that this machine can reconstruct the experiment).
  const auto algo = sim::spec_algorithm(sim::experiment_spec_from_json(merged.spec));
  std::cout << "algorithm: " << algo->name() << " (n=" << algo->num_nodes() << ", f="
            << algo->resilience() << ")\n"
            << "grid: " << merged.adversaries.size() << " adversaries x "
            << merged.placement_names.size() << " placements x " << merged.seeds
            << " seeds, merged from " << files.size() << " partial(s)\n\n";
  if (cli.has("emit")) {
    if (const int rc = emit_partial(cli.get_string("emit", ""), merged)) return rc;
  }
  return print_partial_table(merged);
}

counting::Symmetry parse_symmetry(const std::string& s) {
  if (s == "uniform") return counting::Symmetry::kUniform;
  if (s == "cyclic") return counting::Symmetry::kCyclic;
  if (s == "per-node") return counting::Symmetry::kPerNode;
  throw std::invalid_argument("unknown symmetry: " + s);
}

// `synthesize` (the serial drivers) and `synth` (the parallel engine) share
// the spec and sweep flags, the CNF dump and the report.
struct SynthesisFlags {
  synthesis::SynthesisSpec spec;
  synthesis::SynthesisOptions sweep;
};

SynthesisFlags synthesis_flags(const util::Cli& cli) {
  SynthesisFlags flags;
  flags.spec.n = static_cast<int>(cli.get_int("n", 4));
  flags.spec.f = static_cast<int>(cli.get_int("f", 1));
  flags.spec.num_states = cli.get_u64("states", 3);
  flags.spec.modulus = cli.get_u64("modulus", 2);
  flags.spec.symmetry = parse_symmetry(cli.get_string("symmetry", "cyclic"));
  flags.sweep.min_time = static_cast<int>(cli.get_int("min-time", 1));
  flags.sweep.max_time = static_cast<int>(cli.get_int("max-time", 8));
  flags.sweep.conflict_budget = cli.get_u64("budget", 100000);
  return flags;
}

// Dumps the encoding at the sweep's max_time bound: the exact instance the
// R = max_time attempt solves (the parallel engine's lower R values only add
// the -rank_exceeds(R) assumption).
int write_cnf(const SynthesisFlags& flags, const std::string& path) {
  synthesis::SynthesisSpec spec = flags.spec;
  spec.max_time = flags.sweep.max_time;
  const synthesis::Encoder enc(spec);
  if (!write_output(path, [&enc](std::ostream& out) { sat::write_dimacs(enc.cnf(), out); })) {
    return 1;
  }
  std::cout << "wrote " << enc.size().variables << " vars / " << enc.size().clauses
            << " clauses to " << path << "\n";
  return 0;
}

// Prints the outcome (`where` adds to the found line) and saves the table
// when --save is set; exits 1 when no table was found or saved.
int report_synthesis(const util::Cli& cli, const synthesis::SynthesisOutcome& out,
                     const std::string& where) {
  if (!out.found) {
    std::cout << (out.budget_exhausted ? "budget exhausted" : "UNSAT (optimality proof)")
              << " after " << out.total_conflicts << " conflicts\n";
    return 1;
  }
  std::cout << "found: certified worst-case stabilisation " << out.exact_time
            << " rounds (admissible bound " << out.time_bound_used << where << ")\n";
  if (cli.has("save")) {
    const std::string path = cli.get_string("save", "counter.table");
    if (!write_output(path, [&out](std::ostream& os) { counting::write_table(out.table, os); })) {
      return 1;
    }
    std::cout << "saved to " << path << "\n";
  }
  std::cout << "g = {";
  for (std::size_t i = 0; i < out.table.g.size(); ++i) {
    std::cout << static_cast<int>(out.table.g[i]) << (i + 1 < out.table.g.size() ? "," : "");
  }
  std::cout << "}\nh = {";
  for (std::size_t i = 0; i < out.table.h.size(); ++i) {
    std::cout << static_cast<int>(out.table.h[i]) << (i + 1 < out.table.h.size() ? "," : "");
  }
  std::cout << "}\n";
  return 0;
}

int cmd_synthesize(const util::Cli& cli) {
  if (const int rc = reject_unknown(
          cli, {"n", "f", "states", "modulus", "symmetry", "max-time", "min-time",
                "incremental", "budget", "dimacs", "save"})) {
    return rc;
  }
  const SynthesisFlags flags = synthesis_flags(cli);
  if (cli.has("dimacs")) return write_cnf(flags, cli.get_string("dimacs", "out.cnf"));
  return report_synthesis(cli,
                          cli.get_bool("incremental")
                              ? synthesize_incremental(flags.spec, flags.sweep)
                              : synthesize(flags.spec, flags.sweep),
                          "");
}

// The parallel synthesis engine (synthesis/portfolio.hpp): one canonical
// scan per cube across a thread pool, with the empirical batch prefilter
// ahead of the exact verifier. The printed table is bit-identical for any
// --jobs value -- determinism is part of the engine's contract.
int cmd_synth(const util::Cli& cli) {
  if (const int rc = reject_unknown(
          cli, {"n", "f", "states", "modulus", "symmetry", "min-time", "max-time",
                "portfolio", "cube-depth", "jobs", "budget", "no-prefilter", "stats",
                "save", "emit-cnf"})) {
    return rc;
  }
  const SynthesisFlags flags = synthesis_flags(cli);
  if (cli.has("emit-cnf")) return write_cnf(flags, cli.get_string("emit-cnf", "out.cnf"));

  synthesis::ParallelOptions opt;
  opt.base = flags.sweep;
  opt.portfolio = static_cast<int>(cli.get_int("portfolio", 4));
  opt.cube_depth = static_cast<int>(cli.get_int("cube-depth", 3));
  opt.threads = static_cast<int>(cli.get_int("jobs", 0));
  opt.prefilter = !cli.get_bool("no-prefilter", false);
  synthesis::ParallelOutcomeInfo info;
  const auto out = synthesize_portfolio(flags.spec, opt, &info);
  if (cli.get_bool("stats", false)) std::cout << out.stats_string() << "\n";
  std::cout << "cubes: " << info.cubes_sat << " sat, " << info.cubes_unsat
            << " unsat, " << info.cubes_unknown << " unknown, "
            << info.cubes_cancelled << " cancelled; prefilter "
            << info.prefilter_rejections << "/" << info.prefilter_runs
            << " rejected\n";
  return report_synthesis(cli, out,
                          ", cube " + std::to_string(info.winning_cube) + ", config " +
                              std::to_string(info.winning_config));
}

int cmd_verify(const util::Cli& cli) {
  if (const int rc = reject_unknown(cli, {"load"})) return rc;
  std::vector<counting::TransitionTable> tables;
  if (cli.has("load")) {
    std::ifstream file(cli.get_string("load", ""));
    SC_CHECK(file.good(), "cannot open table file");
    tables.push_back(counting::read_table(file));
  } else {
    tables = {synthesis::known_table_4_1_3states(), synthesis::known_table_4_1_4states()};
  }
  for (const auto& table : tables) {
    const counting::TableAlgorithm algo(table);
    const auto vr = synthesis::verify(algo);
    std::cout << algo.name() << ": " << (vr.ok ? "VERIFIED" : ("FAILED: " + vr.failure))
              << ", exact worst-case T = " << vr.worst_case_time << " ("
              << vr.configurations << " configurations, " << vr.transitions
              << " transitions)\n";
    if (!vr.ok) return 1;
  }
  return 0;
}

int cmd_consensus(const util::Cli& cli) {
  if (const int rc =
          reject_unknown(cli, {"f", "values", "proposals", "seed", "adversary"})) {
    return rc;
  }
  const int f = static_cast<int>(cli.get_int("f", 1));
  const std::uint64_t values = cli.get_u64("values", 8);
  const int tau = 3 * (f + 2);
  const auto counter =
      boosting::build_plan(boosting::plan_practical(f, static_cast<std::uint64_t>(tau)));
  const int n = counter->num_nodes();

  std::vector<std::uint64_t> proposals(static_cast<std::size_t>(n), 0);
  {
    std::istringstream ss(cli.get_string("proposals", ""));
    std::string tok;
    std::size_t i = 0;
    while (std::getline(ss, tok, ',') && i < proposals.size()) {
      proposals[i++] = std::strtoull(tok.c_str(), nullptr, 10) % values;
    }
  }
  const auto svc = std::make_shared<apps::RepeatedConsensus>(counter, f, values, proposals);

  sim::RunConfig cfg;
  cfg.algo = svc;
  cfg.faulty = sim::faults_spread(n, f);
  cfg.max_rounds = *svc->stabilisation_bound() + 3 * static_cast<std::uint64_t>(tau);
  cfg.seed = cli.get_u64("seed", 1);
  cfg.record_outputs = true;
  auto adversary = sim::make_adversary(cli.get_string("adversary", "split"));
  const auto res = sim::run_execution(cfg, *adversary, 1);

  std::cout << "service: " << svc->name() << " on " << n << " nodes, " << f
            << " Byzantine\nproposals:";
  for (auto p : proposals) std::cout << ' ' << p;
  const auto& last = res.outputs.back();
  std::cout << "\nfinal decisions:";
  for (auto d : last) std::cout << ' ' << d;
  const bool agreed = std::all_of(last.begin(), last.end(),
                                  [&](std::uint64_t v) { return v == last[0]; });
  std::cout << "\nagreement: " << (agreed ? "yes" : "NO") << "\n";
  return agreed ? 0 : 1;
}

// Path of the running binary, for re-exec'ing worker processes.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    buf[len] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      usage(std::cerr);
      return 2;
    }
    const std::string cmd = argv[1];
    const util::Cli cli(argc - 1, argv + 1);
    if (cmd == "plan") return cmd_plan(cli);
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "sweep") {
      return cmd_sweep(cli, self_exe(argv[0]),
                       std::vector<std::string>(argv + 2, argv + argc));
    }
    if (cmd == "merge") return cmd_merge(cli);
    if (cmd == "synthesize") return cmd_synthesize(cli);
    if (cmd == "synth") return cmd_synth(cli);
    if (cmd == "verify") return cmd_verify(cli);
    if (cmd == "consensus") return cmd_consensus(cli);
    std::cerr << "unknown command: " << cmd << "\n";
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
