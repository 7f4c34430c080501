// synth_table: synthesize_portfolio re-discovers the computer-designed
// n=4, f=1, |X|=3 cyclic 2-counter with R fixed at 6 (portfolio 4, cube
// depth 3, 4 threads, prefilter on). The traced run calls the public pieces
// in order instead -- Encoder, the canonical per-cube scan, the prefilter,
// the exact verifier -- and compares against the same call on one thread.
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "counting/table_io.hpp"
#include "sat/solver.hpp"
#include "synthesis/cube.hpp"
#include "synthesis/known_tables.hpp"
#include "synthesis/portfolio.hpp"
#include "synthesis/verifier.hpp"

namespace perfbench {
namespace {

namespace counting = synccount::counting;
namespace synthesis = synccount::synthesis;
namespace sat = synccount::sat;

constexpr int kTimeBound = 6;  // certified T of the known table

synthesis::SynthesisSpec synth_spec() {
  synthesis::SynthesisSpec spec;
  spec.n = 4;
  spec.f = 1;
  spec.num_states = 3;
  spec.modulus = 2;
  spec.symmetry = counting::Symmetry::kCyclic;
  spec.max_time = kTimeBound;
  return spec;
}

synthesis::ParallelOptions synth_options(int threads) {
  synthesis::ParallelOptions o;
  o.base.min_time = kTimeBound;
  o.base.max_time = kTimeBound;
  o.portfolio = 4;
  o.cube_depth = 3;
  o.threads = threads;
  o.prefilter = true;
  return o;
}

bool same_table(const counting::TransitionTable& a, const counting::TransitionTable& b) {
  return a.n == b.n && a.f == b.f && a.num_states == b.num_states && a.modulus == b.modulus &&
         a.symmetry == b.symmetry && a.g == b.g && a.h == b.h;
}

// The oracle: a verifier-certified table of the registry's shape (n=4, f=1,
// |X|=3, c=2, cyclic) exactly as fast as the registry's computer-designed
// one (T=6). At cube depth 3 the lowest SAT cube holds a different table
// than the registry's, so the table itself is pinned by the default-seed
// digest and by agreement across iterations and thread counts instead.
bool certified(const synthesis::SynthesisOutcome& o) {
  const counting::TransitionTable known = synthesis::known_table_4_1_3states();
  return o.found && o.table.verified_time == known.verified_time &&
         o.exact_time == known.verified_time && o.table.n == known.n &&
         o.table.f == known.f && o.table.num_states == known.num_states &&
         o.table.modulus == known.modulus && o.table.symmetry == known.symmetry;
}

struct SynthIteration {
  double setup_s = 0;  // encoding
  double time_to_table_s = 0;
  synthesis::SynthesisOutcome outcome;
  synthesis::ParallelOutcomeInfo info;
};

SynthIteration run_synth_iteration(int threads, Outcome& out) {
  SynthIteration it;
  const std::int64_t t0 = now_ns();
  const synthesis::Encoder enc(synth_spec());
  const std::int64_t t1 = now_ns();
  if (enc.size().clauses == 0) out.fail("empty encoding");
  it.outcome = synthesis::synthesize_portfolio(synth_spec(), synth_options(threads), &it.info);
  const std::int64_t t2 = now_ns();
  it.setup_s = seconds_between(t0, t1);
  it.time_to_table_s = seconds_between(t1, t2);
  out.op(certified(it.outcome), "synthesis run");
  return it;
}

// The public pieces in order, traced. Returns the replay's wall time.
double traced_pieces(Tracer& tracer, const counting::TransitionTable& expected,
                     std::map<std::string, double>& layer, Outcome& out) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t root = tracer.begin("replay.synth", 0);
  std::unique_ptr<synthesis::Encoder> enc;
  {
    const SpanScope span(tracer, "synthesis.encode", root);
    enc = std::make_unique<synthesis::Encoder>(synth_spec());
  }
  synthesis::SynthJobSpec job;
  job.spec = synth_spec();
  job.time_bound = kTimeBound;
  job.cube_depth = synth_options(1).cube_depth;
  job.portfolio = synth_options(1).portfolio;
  const std::vector<sat::SolverConfig> configs = synthesis::portfolio_configs(job.portfolio);

  // The canonical scan, cube by cube on one thread: configs in priority
  // order on fresh solvers until one resolves; the first SAT cube wins.
  std::uint64_t conflicts = 0, propagations = 0, winner_conflicts = 0;
  std::optional<std::uint64_t> winner;
  counting::TransitionTable table;
  const std::uint64_t cubes = std::uint64_t{1} << job.cube_depth;
  for (std::uint64_t j = 0; j < cubes && !winner; ++j) {
    const SpanScope cube_span(tracer, "synthesis.solve_cube", root);
    const synthesis::Cube cube = synthesis::make_cube(*enc, job.cube_depth, j);
    std::uint64_t cube_conflicts = 0;
    for (const sat::SolverConfig& cfg : configs) {
      const SpanScope solve_span(tracer, "sat.solve", cube_span.id());
      sat::Solver solver(cfg);
      enc->cnf().load_into(solver);
      const sat::Result res = solver.solve_assuming(cube.assumptions, job.conflict_budget);
      cube_conflicts += solver.stats().conflicts;
      propagations += solver.stats().propagations;
      if (res == sat::Result::kSat) {
        winner = j;
        table = enc->decode(solver);
      }
      if (res != sat::Result::kUnknown) break;
    }
    conflicts += cube_conflicts;
    if (winner) winner_conflicts = cube_conflicts;
  }
  if (!winner) {
    out.fail("canonical scan found no SAT cube");
    tracer.end(root);
    return seconds_between(t0, now_ns());
  }
  {
    // The library's own canonical scan of the winning cube must agree.
    const SpanScope span(tracer, "synthesis.solve_cube_check", root);
    const synthesis::CubeResult check = synthesis::solve_cube(*enc, job, *winner);
    if (check.verdict != synthesis::CubeVerdict::kSat || !same_table(check.table, table) ||
        check.conflicts != winner_conflicts) {
      out.fail("replayed cube scan disagrees with synthesis::solve_cube");
    }
  }
  {
    const SpanScope span(tracer, "synthesis.prefilter", root);
    if (!synthesis::prefilter_candidate(table, kTimeBound, synth_options(1).prefilter_seeds)) {
      out.fail("prefilter rejected the canonical winner");
    }
  }
  {
    const SpanScope span(tracer, "synthesis.verify", root);
    const synthesis::VerifyResult vr = synthesis::verify(counting::TableAlgorithm(table));
    if (!vr.ok || vr.worst_case_time != kTimeBound) out.fail("verifier did not certify T=6");
  }
  tracer.end(root);
  // The cross-check re-solves the winning cube; it is oracle work, not part
  // of the pieces being traced.
  const double wall =
      seconds_between(t0, now_ns()) - tracer.total_s("synthesis.solve_cube_check");
  if (!same_table(table, expected)) out.fail("traced pieces found a different table");

  const double scan_s = tracer.total_s("synthesis.solve_cube");
  layer["synthesis.encode_s"] = tracer.total_s("synthesis.encode");
  layer["synthesis.serial_scan_s"] = scan_s;
  layer["synthesis.prefilter_s"] = tracer.total_s("synthesis.prefilter");
  layer["synthesis.verify_s"] = tracer.total_s("synthesis.verify");
  layer["sat.conflicts"] = static_cast<double>(conflicts);
  layer["sat.propagations"] = static_cast<double>(propagations);
  layer["sat.conflicts_per_s"] = static_cast<double>(conflicts) / tracer.total_s("sat.solve");
  return wall;
}

}  // namespace

Outcome run_synth(const RunArgs& args) {
  Outcome out;
  // The synthesised table must be the same on every run and thread count.
  const auto check_table = [&out](const SynthIteration& it) {
    const std::string d = digest(counting::table_to_string(it.outcome.table));
    if (out.digest.empty()) out.digest = d;
    if (d != out.digest) out.fail("synthesised table differs between runs");
  };
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  if (!args.trace) {
    std::vector<double> setup, result;
    for (int r = 0; r < kSetupReps; ++r) {
      const std::int64_t t0 = now_ns();
      const synthesis::Encoder enc(synth_spec());
      setup.push_back(seconds_between(t0, now_ns()));
    }
    for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
      const SynthIteration it = run_synth_iteration(4, out);
      check_table(it);
      setup.push_back(it.setup_s);
      result.push_back(it.time_to_table_s);
      note_iteration(i, it.setup_s, it.time_to_table_s);
    }
    out.set("setup_s", median(setup));
    out.set("time_to_result_s", warm_median(result));
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }
  Samples samples;
  auto tracer = std::make_unique<Tracer>();
  for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
    std::map<std::string, double> layer;
    const SynthIteration parallel = run_synth_iteration(4, out);
    const SynthIteration serial = run_synth_iteration(1, out);
    check_table(parallel);
    check_table(serial);
    tracer = std::make_unique<Tracer>();
    const double traced_s = traced_pieces(*tracer, parallel.outcome.table, layer, out);
    layer["time_to_table_s"] = parallel.time_to_table_s;
    layer["synthesis.speedup_vs_serial"] =
        layer["synthesis.serial_scan_s"] / parallel.time_to_table_s;
    layer["synthesis.cubes.sat"] = static_cast<double>(parallel.info.cubes_sat);
    layer["synthesis.cubes.unsat"] = static_cast<double>(parallel.info.cubes_unsat);
    layer["synthesis.cubes.unknown"] = static_cast<double>(parallel.info.cubes_unknown);
    layer["synthesis.cubes.cancelled"] = static_cast<double>(parallel.info.cubes_cancelled);
    // Against synthesize_portfolio on one thread, which runs the same pieces
    // untraced (the race then degenerates to the canonical order).
    layer["trace.overhead_share"] =
        (traced_s - serial.time_to_table_s) / serial.time_to_table_s;
    samples.add_all(layer);
  }
  samples.publish(out);
  tracer->write_jsonl(args.out_dir + "/spans-" + args.workload + ".jsonl");
  return out;
}

}  // namespace perfbench
