#include "synthesis/portfolio.hpp"

#include <atomic>
#include <deque>
#include <optional>
#include <stdexcept>

#include "sim/adversaries.hpp"
#include "sim/batch_runner.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace synccount::synthesis {

std::vector<sat::SolverConfig> portfolio_configs(int k) {
  SC_CHECK(k >= 1 && k <= 64, "portfolio size must be in [1, 64]");
  using Phase = sat::SolverConfig::Phase;
  std::vector<sat::SolverConfig> out;
  out.reserve(static_cast<std::size_t>(k));
  out.emplace_back();  // index 0: the canonical default config
  static constexpr Phase kPhases[] = {Phase::kTrue, Phase::kRandom, Phase::kFalse};
  static constexpr double kFreqs[] = {0.02, 0.05, 0.10, 0.0};
  static constexpr std::uint64_t kScales[] = {64, 150, 100, 256, 32};
  static constexpr double kDecays[] = {0.95, 0.90, 0.99};
  for (int i = 1; i < k; ++i) {
    sat::SolverConfig c;
    c.seed = static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ULL + 1;
    c.initial_phase = kPhases[(i - 1) % 3];
    c.random_branch_freq = kFreqs[(i - 1) % 4];
    c.restart_scale = kScales[(i - 1) % 5];
    c.decay = kDecays[(i - 1) % 3];
    out.push_back(c);
  }
  return out;
}

const char* to_string(CubeVerdict v) noexcept {
  switch (v) {
    case CubeVerdict::kSat: return "sat";
    case CubeVerdict::kUnsat: return "unsat";
    case CubeVerdict::kUnknown: return "unknown";
  }
  return "?";
}

CubeVerdict cube_verdict_from_string(const std::string& s) {
  if (s == "sat") return CubeVerdict::kSat;
  if (s == "unsat") return CubeVerdict::kUnsat;
  if (s == "unknown") return CubeVerdict::kUnknown;
  throw std::invalid_argument("unknown cube verdict \"" + s + "\"");
}

namespace {

// Assumptions for one cube: its branch literals plus the rank selector that
// asserts "worst-case stabilisation <= R" (absent when R == max_time).
std::vector<sat::ExtLit> cube_assumptions(const Encoder& enc, const SynthJobSpec& job,
                                          std::uint64_t cube_index) {
  Cube cube = make_cube(enc, job.cube_depth, cube_index);
  std::vector<sat::ExtLit> assumptions = std::move(cube.assumptions);
  if (job.time_bound < job.spec.max_time) {
    assumptions.push_back(-enc.rank_exceeds_var(job.time_bound));
  }
  return assumptions;
}

// The canonical scan of one cube under the CEGAR blocking clauses `blocks`.
// Returns nullopt when `stop` was raised mid-scan (the cube became moot).
std::optional<CubeResult> solve_cube_impl(const Encoder& enc, const SynthJobSpec& job,
                                          std::uint64_t cube_index,
                                          const std::vector<std::vector<sat::ExtLit>>& blocks,
                                          const std::atomic<bool>* stop) {
  const std::vector<sat::ExtLit> assumptions = cube_assumptions(enc, job, cube_index);
  const std::vector<sat::SolverConfig> configs = portfolio_configs(job.portfolio);
  CubeResult out;
  for (int c = 0; c < job.portfolio; ++c) {
    sat::Solver solver(configs[static_cast<std::size_t>(c)]);
    enc.cnf().load_into(solver);
    for (const auto& b : blocks) solver.add_clause(b);
    solver.set_stop_flag(stop);
    const sat::Result res = solver.solve_assuming(assumptions, job.conflict_budget);
    out.conflicts += solver.stats().conflicts;
    out.decisions += solver.stats().decisions;
    out.propagations += solver.stats().propagations;
    out.restarts += solver.stats().restarts;
    switch (res) {
      case sat::Result::kSat:
        out.verdict = CubeVerdict::kSat;
        out.config_index = c;
        out.table = enc.decode(solver);
        return out;
      case sat::Result::kUnsatAssumptions:
        out.verdict = CubeVerdict::kUnsat;
        out.config_index = c;
        return out;
      case sat::Result::kUnsat:
        out.verdict = CubeVerdict::kUnsat;
        out.config_index = c;
        out.globally_unsat = true;
        return out;
      case sat::Result::kUnknown:
        break;  // next config in priority order
      case sat::Result::kCancelled:
        return std::nullopt;
    }
  }
  out.verdict = CubeVerdict::kUnknown;
  return out;
}

}  // namespace

CubeResult solve_cube(const Encoder& enc, const SynthJobSpec& job,
                      std::uint64_t cube_index) {
  job.validate();
  return *solve_cube_impl(enc, job, cube_index, {}, nullptr);
}

CubeResult solve_cube(const SynthJobSpec& job, std::uint64_t cube_index) {
  job.validate();
  const Encoder enc(job.spec);
  return *solve_cube_impl(enc, job, cube_index, {}, nullptr);
}

bool prefilter_candidate(const counting::TransitionTable& table,
                         std::uint64_t claimed_time, int seeds) {
  SC_CHECK(seeds >= 1, "prefilter needs at least one seed");
  const auto algo = std::make_shared<counting::TableAlgorithm>(table);
  std::vector<std::uint64_t> seed_list(static_cast<std::size_t>(seeds));
  for (int i = 0; i < seeds; ++i) seed_list[static_cast<std::size_t>(i)] =
      0x5EEDBA5Eu + static_cast<std::uint64_t>(i);
  const std::vector<std::vector<bool>> placements = {
      sim::faults_spread(table.n, table.f), sim::faults_prefix(table.n, table.f)};
  for (const char* adversary : {"random", "split"}) {
    for (const std::vector<bool>& faulty : placements) {
      sim::BatchConfig bc;
      bc.algo = algo;
      bc.faulty = faulty;
      bc.max_rounds = claimed_time + 24;
      bc.margin = 8;
      bc.adversary = [adversary] { return sim::make_adversary(adversary); };
      bc.seeds = seed_list;
      for (const sim::RunResult& r : sim::run_batch(bc)) {
        if (!r.stabilised || r.stabilisation_round > claimed_time) return false;
      }
    }
  }
  return true;
}

std::vector<sat::ExtLit> blocking_clause_for(const Encoder& enc,
                                             const counting::TransitionTable& table) {
  const SynthesisSpec& spec = enc.spec();
  const int node_dim = spec.symmetry == counting::Symmetry::kPerNode ? spec.n : 1;
  const std::uint64_t vecs = util::ipow(spec.num_states, static_cast<unsigned>(spec.n));
  SC_CHECK(table.g.size() == static_cast<std::size_t>(node_dim) * vecs &&
               table.h.size() == static_cast<std::size_t>(node_dim) * spec.num_states,
           "table shape does not match the encoder's spec");
  std::vector<sat::ExtLit> clause;
  clause.reserve(table.g.size() + table.h.size());
  for (int nd = 0; nd < node_dim; ++nd) {
    for (std::uint64_t vec = 0; vec < vecs; ++vec) {
      const std::uint8_t target = table.g[static_cast<std::size_t>(nd) * vecs + vec];
      clause.push_back(-enc.g_var(nd, vec, target));
    }
    for (std::uint64_t s = 0; s < spec.num_states; ++s) {
      const std::uint8_t o = table.h[static_cast<std::size_t>(nd) * spec.num_states + s];
      clause.push_back(-enc.h_var(nd, s, o));
    }
  }
  return clause;
}

SynthesisOutcome synthesize_portfolio(SynthesisSpec spec, const ParallelOptions& options,
                                      ParallelOutcomeInfo* info_out) {
  SC_CHECK(options.base.min_time >= 1 && options.base.min_time <= options.base.max_time,
           "bad time sweep");
  SC_CHECK(options.max_refinements >= 0, "max_refinements must be non-negative");
  ParallelOutcomeInfo info;
  SynthesisOutcome out;
  spec.max_time = options.base.max_time;
  const Encoder enc(spec);
  out.last_size = enc.size();

  SynthJobSpec job;
  job.spec = spec;
  job.time_bound = options.base.min_time;
  job.cube_depth = options.cube_depth;
  job.portfolio = options.portfolio;
  job.conflict_budget = options.base.conflict_budget;
  // Bad options throw here rather than on a pool thread.
  job.validate();
  (void)cube_branch_vars(enc, job.cube_depth);
  const std::size_t ncubes = std::size_t{1} << job.cube_depth;
  util::ThreadPool pool(options.threads);

  const auto publish_info = [&] {
    if (info_out != nullptr) *info_out = info;
  };

  for (int R = options.base.min_time; R <= options.base.max_time; ++R) {
    job.time_bound = R;
    std::vector<std::vector<sat::ExtLit>> blocks;  // CEGAR refutations
    for (int round = 0;; ++round) {
      // One scan per cube. C++20 value-initialises the atomics; deque keeps
      // their addresses stable without requiring movability.
      std::vector<std::optional<CubeResult>> scans(ncubes);  // nullopt: stopped
      std::deque<std::atomic<bool>> stops(ncubes);
      pool.parallel_for(ncubes, [&](std::size_t j) {
        if (stops[j].load(std::memory_order_relaxed)) return;
        scans[j] = solve_cube_impl(enc, job, j, blocks, &stops[j]);
        if (!scans[j].has_value()) return;
        // Higher cubes can no longer win; lower ones keep running so the
        // winner stays the timing-independent lowest SAT cube. A global
        // UNSAT (no model even at max_time) kills every cube.
        const std::size_t from = scans[j]->globally_unsat                 ? 0
                                 : scans[j]->verdict == CubeVerdict::kSat ? j + 1
                                                                          : ncubes;
        for (std::size_t i = from; i < ncubes; ++i) {
          stops[i].store(true, std::memory_order_relaxed);
        }
      });

      AttemptStats attempt;
      attempt.time_bound = R;
      std::optional<std::size_t> winner;
      bool globally_unsat = false, unknown = false;
      for (std::size_t j = 0; j < ncubes; ++j) {
        if (!scans[j].has_value()) {
          ++info.cubes_cancelled;
          continue;
        }
        const CubeResult& scan = *scans[j];
        switch (scan.verdict) {
          case CubeVerdict::kSat: ++info.cubes_sat; break;
          case CubeVerdict::kUnsat: ++info.cubes_unsat; break;
          case CubeVerdict::kUnknown: ++info.cubes_unknown; break;
        }
        if (winner.has_value()) continue;  // moot: above the lowest SAT cube
        attempt.conflicts += scan.conflicts;
        attempt.decisions += scan.decisions;
        attempt.propagations += scan.propagations;
        attempt.restarts += scan.restarts;
        if (scan.verdict == CubeVerdict::kSat) winner = j;
        globally_unsat = globally_unsat || scan.globally_unsat;
        unknown = unknown || scan.verdict == CubeVerdict::kUnknown;
      }
      attempt.result = winner.has_value() ? "sat"
                       : globally_unsat   ? "unsat"
                       : unknown          ? "unknown"
                                          : "unsat-assumptions";
      out.attempts.push_back(attempt);
      out.total_conflicts += attempt.conflicts;

      if (!winner.has_value()) {
        SC_REQUIRE(blocks.empty(),
                   "refinement emptied a satisfiable instance: the empirical "
                   "prefilter refuted models of an exact encoding (encoder bug)");
        if (globally_unsat) {
          // No algorithm even at max_time: stop the sweep with an UNSAT
          // proof, exactly like synthesize_incremental.
          out.note = "unsat at max_time R=" + std::to_string(options.base.max_time);
          publish_info();
          return out;
        }
        if (unknown) {
          out.budget_exhausted = true;
          out.note = "conflict budget exhausted at R=" + std::to_string(R);
        }
        break;  // next R
      }

      CubeResult& scan = *scans[*winner];
      if (options.prefilter) {
        ++info.prefilter_runs;
        if (!prefilter_candidate(scan.table, static_cast<std::uint64_t>(R),
                                 options.prefilter_seeds)) {
          ++info.prefilter_rejections;
          SC_REQUIRE(round < options.max_refinements,
                     "empirical prefilter kept refuting candidates past the "
                     "refinement cap -- encoder/verifier disagreement");
          blocks.push_back(blocking_clause_for(enc, scan.table));
          continue;  // re-scan this R with the refuted model excluded
        }
      }
      out.certify(std::move(scan.table), R);
      info.winning_cube = *winner;
      info.winning_config = scan.config_index;
      publish_info();
      return out;
    }
  }
  publish_info();
  return out;
}

}  // namespace synccount::synthesis
