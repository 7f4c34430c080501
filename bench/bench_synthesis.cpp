// Experiment E9: the computational algorithm design pipeline ([4,5];
// paper Section 1). Re-discovers the small computer-designed counters live:
//  * n = 4, f = 1, |X| = 2: UNSAT -- one state bit is not enough (optimality,
//    as reported in [4,5]);
//  * n = 4, f = 1, |X| = 3 uniform: UNSAT for every admissible time bound up
//    to 16 -- position-indexed identical programs cannot do it;
//  * n = 4, f = 1, |X| = 3 cyclic: SAT, certified exact worst-case time 6 --
//    the "3 states per node" algorithm class of [5];
//  * --deep adds |X| = 4 uniform (T = 8) and the n = 6 single-bit search.
// Reports CNF sizes, solver statistics and verifier-certified times.
//
// Every FOUND table is additionally re-validated *empirically*: an engine
// sweep (seeds x adversaries on the batched table backend) checks that the
// observed stabilisation never exceeds the verifier-certified worst case.
// Each row carries its expected verdict (an UNSAT proof, or FOUND with an
// exact T at most the row's bound); the bench exits 1 when a verdict differs
// or an engine check fails. Conflict budgets are deterministic, so the
// verdicts do not depend on host speed (they hold at the default --budget).
//
// `bench_synthesis --json [path]` instead runs the parallel-engine perf
// smoke: the |X| = 3 cyclic minimal-time re-discovery (R = 6, unlimited
// budget) single-threaded vs portfolio-only vs portfolio+cubes, and merges
// a "synthesis" section into the bench_micro --json record at `path`
// (read-modify-write -- run it AFTER bench_micro, which rewrites the whole
// file). check_perf_smoke.py gates the recorded speedups.
//
// Usage: bench_synthesis [--deep] [--budget=CONFLICTS] [--sim-seeds=N]
//                        [--threads=N] [--json[=PATH]]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "synthesis/portfolio.hpp"
#include "synthesis/synthesize.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace synccount;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string what;
  synthesis::SynthesisSpec spec;
  synthesis::SynthesisOptions opt;
  std::uint64_t found_within = 0;  // expected: FOUND with exact T <= this; 0 = UNSAT proof
};

// Empirical cross-check of a freshly synthesised table: run it through the
// experiment engine (batched backend) and confirm no execution stabilises
// later than the verifier-certified exact worst case.
std::string engine_check(const bench::Harness& harness, const std::string& label,
                         const synthesis::SynthesisOutcome& out, int sim_seeds) {
  const auto algo = std::make_shared<counting::TableAlgorithm>(out.table);
  sim::ExperimentSpec spec;
  spec.algo = algo;
  spec.adversaries = {"silent", "split", "random"};
  spec.placements = {{"spread", sim::faults_spread(out.table.n, out.table.f)}};
  spec.seeds = sim_seeds;
  spec.max_rounds = out.exact_time + 64;
  spec.margin = 32;
  const auto res = harness.run(label, spec);
  std::uint64_t worst = 0;
  for (const auto& cell : res.cells) {
    worst = std::max(worst, cell.result.stabilisation_round);
  }
  if (res.total.stabilised != res.total.runs) {
    return "FAILED: " + bench::fmt_rate(res.total) + " stabilised";
  }
  if (worst > out.exact_time) {
    return "FAILED: observed T=" + std::to_string(worst) + " > certified";
  }
  return "ok (" + bench::fmt_rate(res.total) + ", obs T<=" + std::to_string(worst) + ")";
}

// --- Parallel-engine perf smoke (--json) -------------------------------------

// The re-discovery workload: the minimal-time instance of the embedded
// 4/1/3-state cyclic counter, solved to completion (unlimited budget) so all
// three modes have identical complete-search semantics and the comparison is
// pure search-strategy speedup.
int run_json_smoke(const std::string& path, int threads) {
  synthesis::SynthesisSpec spec{4, 1, 3, 2, counting::Symmetry::kCyclic, 6};
  synthesis::SynthesisOptions base{6, 6, 0};

  const auto t0 = Clock::now();
  const synthesis::SynthesisOutcome baseline = synthesize_incremental(spec, base);
  const double baseline_ms =
      1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
  if (!baseline.found || baseline.exact_time != 6) {
    std::cerr << "baseline run failed to re-discover the R=6 table\n";
    return 1;
  }

  struct Mode {
    const char* name;
    int cube_depth;
  };
  util::Json modes = util::Json::array();
  std::cout << "baseline (incremental, 1 thread): " << baseline_ms << " ms, "
            << baseline.total_conflicts << " conflicts\n";
  for (const Mode mode : {Mode{"portfolio", 0}, Mode{"cubed", 3}}) {
    synthesis::ParallelOptions opt;
    opt.base = base;
    opt.portfolio = 4;
    opt.cube_depth = mode.cube_depth;
    opt.threads = threads;
    const auto t1 = Clock::now();
    const synthesis::SynthesisOutcome out = synthesize_portfolio(spec, opt);
    const double ms = 1e3 * std::chrono::duration<double>(Clock::now() - t1).count();
    // Different modes may land on different (equally certified) R = 6
    // tables; what must agree is the certified time, not the model.
    if (!out.found || out.exact_time != 6) {
      std::cerr << mode.name << " run did not re-discover an R=6 table\n";
      return 1;
    }
    util::Json row = util::Json::object();
    row.set("mode", util::Json::string(mode.name));
    row.set("cube_depth", util::Json::number(mode.cube_depth));
    row.set("portfolio", util::Json::number(4));
    row.set("ms", util::Json::number(ms));
    row.set("conflicts", util::Json::number(out.total_conflicts));
    row.set("speedup", util::Json::number(baseline_ms / ms));
    modes.push_back(std::move(row));
    std::cout << mode.name << " (K=4, d=" << mode.cube_depth << "): " << ms << " ms, "
              << out.total_conflicts << " conflicts, speedup "
              << baseline_ms / ms << "x\n";
  }

  util::Json section = util::Json::object();
  section.set("instance", util::Json::string("n=4 f=1 |X|=3 cyclic R=6"));
  section.set("budget", util::Json::number(std::uint64_t{0}));
  section.set("baseline_ms", util::Json::number(baseline_ms));
  section.set("baseline_conflicts", util::Json::number(baseline.total_conflicts));
  section.set("modes", std::move(modes));

  // Merge into the bench_micro record rather than rewriting it: the two
  // benches share one BENCH_batch.json.
  util::Json doc = util::Json::object();
  {
    std::ifstream in(path, std::ios::binary);
    if (in.good()) {
      std::ostringstream raw;
      raw << in.rdbuf();
      try {
        doc = util::Json::parse(raw.str());
      } catch (const std::exception& e) {
        std::cerr << path << " is not valid JSON (" << e.what() << ") -- rewriting\n";
        doc = util::Json::object();
      }
    }
  }
  doc.set("synthesis", std::move(section));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << doc.dump() << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("json")) {
    return run_json_smoke(cli.get_string("json", "BENCH_batch.json"),
                          static_cast<int>(cli.get_int("threads", 0)));
  }
  const bool deep = cli.get_bool("deep");
  const std::uint64_t budget = cli.get_u64("budget", 120000);
  const int sim_seeds = static_cast<int>(cli.get_int("sim-seeds", 64));
  const bench::Harness harness(cli);

  std::cout << "=== E9: SAT-based algorithm synthesis (reproducing [4,5]) ===\n\n";

  std::vector<Row> rows;
  {
    Row r;
    r.what = "n=4 f=1 |X|=2 uniform";
    r.spec = {4, 1, 2, 2, counting::Symmetry::kUniform, 1};
    r.opt = {1, 10, budget};
    rows.push_back(r);
  }
  {
    Row r;
    r.what = "n=4 f=1 |X|=3 uniform";
    r.spec = {4, 1, 3, 2, counting::Symmetry::kUniform, 1};
    r.opt = {1, 16, budget};
    rows.push_back(r);
  }
  {
    Row r;
    r.what = "n=4 f=1 |X|=3 cyclic";
    r.spec = {4, 1, 3, 2, counting::Symmetry::kCyclic, 1};
    r.opt = {7, 8, budget};
    r.found_within = 8;
    rows.push_back(r);
  }
  if (deep) {
    {
      // The minimal-time discovery: T = 6 is SAT (the embedded table), and
      // this row re-finds it live.
      Row r;
      r.what = "n=4 f=1 |X|=3 cyclic (minimal T)";
      r.spec = {4, 1, 3, 2, counting::Symmetry::kCyclic, 1};
      r.opt = {6, 6, 500000};
      r.found_within = 6;
      rows.push_back(r);
    }
    {
      Row r;
      r.what = "n=4 f=1 |X|=4 uniform";
      r.spec = {4, 1, 4, 2, counting::Symmetry::kUniform, 1};
      r.opt = {8, 8, 500000};
      r.found_within = 8;
      rows.push_back(r);
    }
    {
      Row r;
      r.what = "n=6 f=1 |X|=2 cyclic";
      r.spec = {6, 1, 2, 2, counting::Symmetry::kCyclic, 1};
      r.opt = {5, 8, 2000000};
      rows.push_back(r);
    }
  }

  util::Table table({"instance", "mode", "time sweep", "result", "exact T", "vars",
                     "clauses", "conflicts", "wall s", "engine check", "expected"});
  std::vector<std::string> mismatches;
  for (auto& row : rows) {
    for (const bool incremental : {false, true}) {
      const auto t0 = Clock::now();
      const auto out = incremental ? synthesize_incremental(row.spec, row.opt)
                                   : synthesize(row.spec, row.opt);
      const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
      std::string result;
      if (out.found) {
        result = "FOUND";
      } else if (out.budget_exhausted) {
        result = "budget exhausted";
      } else {
        result = "UNSAT (proof)";
      }
      std::string sweep = "[";
      sweep += std::to_string(row.opt.min_time);
      sweep += ",";
      sweep += std::to_string(row.opt.max_time);
      sweep += "]";
      const std::string mode = incremental ? "incremental" : "re-encode";
      const std::string check =
          out.found ? engine_check(harness, "E9-check-" + row.what, out, sim_seeds) : "-";
      const bool as_expected =
          row.found_within == 0
              ? result == "UNSAT (proof)"
              : out.found && out.exact_time <= row.found_within && check.rfind("ok", 0) == 0;
      const std::string expected =
          row.found_within == 0 ? "UNSAT" : "T<=" + std::to_string(row.found_within);
      if (!as_expected) mismatches.push_back(row.what + " (" + mode + "): " + result);
      table.add_row({row.what, mode, sweep, result,
                     out.found ? std::to_string(out.exact_time) : "-",
                     std::to_string(out.last_size.variables),
                     std::to_string(out.last_size.clauses),
                     std::to_string(out.total_conflicts), util::fmt_double(secs, 2), check,
                     as_expected ? expected : expected + " MISMATCH"});
    }
  }
  table.print(std::cout);

  std::cout << "\nEvery FOUND table is re-certified by the exact verifier (adversarial\n"
            << "game solving over all faulty sets) and then re-validated empirically:\n"
            << "an engine sweep on the batched backend must never observe stabilisation\n"
            << "later than the certified worst case. Every UNSAT line is a proof that no\n"
            << "such algorithm exists in that symmetry class and time sweep.\n"
            << "Run with --deep for the |X|=4 uniform (T=8) and n=6 single-bit rows.\n";
  for (const std::string& m : mismatches) std::cerr << "MISMATCH " << m << "\n";
  return mismatches.empty() ? 0 : 1;
}
