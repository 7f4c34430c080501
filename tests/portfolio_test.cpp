// Tests of the parallel synthesis engine (synthesis/portfolio.hpp +
// synthesis/cube.hpp) and its serve integration: cube splitting, the
// deterministic config family, the empirical prefilter, CEGAR blocking
// clauses, DIMACS round-trips of the encoding, and -- the heart of the
// contract -- bit-identical certified tables across thread counts and
// across local-pool vs serve-worker (JobQueue) execution.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "counting/table_io.hpp"
#include "sat/dimacs.hpp"
#include "serve/queue.hpp"
#include "synthesis/cube.hpp"
#include "synthesis/encoder.hpp"
#include "synthesis/known_tables.hpp"
#include "synthesis/portfolio.hpp"
#include "synthesis/synthesize.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

struct TempDir {
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("synccount-portfolio-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

synthesis::SynthesisSpec spec_4_1_3() {
  synthesis::SynthesisSpec spec;
  spec.n = 4;
  spec.f = 1;
  spec.num_states = 3;
  spec.modulus = 2;
  spec.symmetry = counting::Symmetry::kCyclic;
  spec.max_time = 6;
  return spec;
}

// The reference re-discovery instance used throughout: one R = 6 round of
// the 4/1/3-state spec, depth-3 cubes, a 4-config portfolio, and a small
// deterministic budget (the diversified configs crack the SAT cube well
// inside it; the default config alone cannot).
synthesis::ParallelOptions fast_options() {
  synthesis::ParallelOptions opt;
  opt.base.min_time = 6;
  opt.base.max_time = 6;
  opt.base.conflict_budget = 2000;
  opt.portfolio = 4;
  opt.cube_depth = 3;
  return opt;
}

synthesis::SynthJobSpec job_4_1_3() {
  synthesis::SynthJobSpec job;
  job.spec = spec_4_1_3();
  job.time_bound = 6;
  job.cube_depth = 3;
  job.portfolio = 4;
  job.conflict_budget = 2000;
  return job;
}

// --- Config family -----------------------------------------------------------

TEST(PortfolioConfigs, PrefixStable) {
  const auto small = synthesis::portfolio_configs(2);
  const auto large = synthesis::portfolio_configs(8);
  ASSERT_EQ(small.size(), 2u);
  ASSERT_EQ(large.size(), 8u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].seed, large[i].seed) << i;
    EXPECT_EQ(small[i].initial_phase, large[i].initial_phase) << i;
    EXPECT_EQ(small[i].random_branch_freq, large[i].random_branch_freq) << i;
    EXPECT_EQ(small[i].restart_scale, large[i].restart_scale) << i;
    EXPECT_EQ(small[i].decay, large[i].decay) << i;
  }
  // Index 0 is the canonical default; later entries genuinely diversify.
  EXPECT_EQ(large[0].seed, sat::SolverConfig{}.seed);
  EXPECT_EQ(large[0].random_branch_freq, 0.0);
  for (std::size_t i = 1; i < large.size(); ++i) {
    EXPECT_NE(large[i].seed, large[0].seed) << i;
  }
}

TEST(PortfolioConfigs, RejectsBadSizes) {
  EXPECT_THROW(synthesis::portfolio_configs(0), std::invalid_argument);
  EXPECT_THROW(synthesis::portfolio_configs(65), std::invalid_argument);
}

// --- Cube splitting ----------------------------------------------------------

TEST(CubeSplit, SignPatternsMatchIndices) {
  const synthesis::Encoder enc(spec_4_1_3());
  const std::vector<sat::Var> vars = synthesis::cube_branch_vars(enc, 3);
  ASSERT_EQ(vars.size(), 3u);
  const auto cubes = synthesis::split_cubes(enc, 3);
  ASSERT_EQ(cubes.size(), 8u);
  for (std::uint64_t j = 0; j < 8; ++j) {
    EXPECT_EQ(cubes[j].index, j);
    ASSERT_EQ(cubes[j].assumptions.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      const bool positive = ((j >> i) & 1U) != 0;
      EXPECT_EQ(cubes[j].assumptions[static_cast<std::size_t>(i)],
                positive ? vars[static_cast<std::size_t>(i)]
                         : -vars[static_cast<std::size_t>(i)])
          << "cube " << j << " literal " << i;
    }
  }
}

TEST(CubeSplit, DepthZeroIsOneEmptyCube) {
  const synthesis::Encoder enc(spec_4_1_3());
  const auto cubes = synthesis::split_cubes(enc, 0);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_TRUE(cubes[0].assumptions.empty());
}

TEST(CubeSplit, RejectsOutOfRangeIndex) {
  const synthesis::Encoder enc(spec_4_1_3());
  EXPECT_THROW(synthesis::make_cube(enc, 3, 8), std::invalid_argument);
  EXPECT_THROW(synthesis::make_cube(enc, -1, 0), std::invalid_argument);
  // A depth beyond the g layer (one node, 2 vectors x 2 targets) is refused,
  // and the parallel engine refuses it before any pool thread runs a cube.
  const synthesis::SynthesisSpec tiny{1, 0, 2, 2, counting::Symmetry::kUniform, 2};
  EXPECT_THROW(synthesis::make_cube(synthesis::Encoder(tiny), 5, 0), std::invalid_argument);
  synthesis::ParallelOptions opt;
  opt.base.min_time = 2;
  opt.base.max_time = 2;
  opt.cube_depth = 5;
  opt.threads = 4;
  EXPECT_THROW(synthesis::synthesize_portfolio(tiny, opt), std::invalid_argument);
}

// --- SynthJobSpec JSON -------------------------------------------------------

TEST(SynthJobSpec, JsonRoundTripIsCanonical) {
  const synthesis::SynthJobSpec job = job_4_1_3();
  const util::Json j = job.to_json();
  const synthesis::SynthJobSpec back = synthesis::SynthJobSpec::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.spec.n, 4);
  EXPECT_EQ(back.time_bound, 6);
  EXPECT_EQ(back.cube_depth, 3);
  EXPECT_EQ(back.portfolio, 4);
  EXPECT_EQ(back.conflict_budget, 2000u);
}

TEST(SynthJobSpec, RejectsNonSynthJson) {
  util::Json j = util::Json::object();
  j.set("n", util::Json::number(4));
  EXPECT_THROW(synthesis::SynthJobSpec::from_json(j), std::invalid_argument);
}

// --- The determinism contract ------------------------------------------------

// Pinned outcomes of the reference instance at two budgets and of two
// sweeps that end without a table; none may depend on the thread count.
struct GoldenOutcome {
  const char* what;
  synthesis::SynthesisSpec spec;
  int min_time;
  int max_time;
  std::uint64_t budget;
  const char* table;  // table_to_string of the found table; nullptr: none
  std::uint64_t winning_cube;
  int winning_config;
  int time_bound_used;
  std::uint64_t exact_time;
  bool budget_exhausted;
};

const GoldenOutcome kGolden[] = {
    {"4/1/3 cyclic R=6, budget 0", spec_4_1_3(), 6, 6, 0,
     "synccount-table v1\n"
     "n 4\n"
     "f 1\n"
     "states 3\n"
     "modulus 2\n"
     "symmetry cyclic\n"
     "verified_time 6\n"
     "label synthesized\n"
     "g 1 1 1 1 0 1 1 0 1 1 1 1 0 0 1 1 0 1 1 1 1 1 0 1 1 0 1 1 0 1 1 0 1 1 0 1 2 0 1 2 0 1 0 "
     "0 1 1 0 1 1 0 0 1 1 1 1 0 1 1 0 1 1 0 1 1 0 1 0 0 1 1 0 1 1 1 1 1 0 1 1 1 1\n"
     "h 0 1 0\n",
     2, 0, 6, 6, false},
    // Config 0 exhausts its budget on cube 2, so config 1 resolves it.
    {"4/1/3 cyclic R=6, budget 2000", spec_4_1_3(), 6, 6, 2000,
     "synccount-table v1\n"
     "n 4\n"
     "f 1\n"
     "states 3\n"
     "modulus 2\n"
     "symmetry cyclic\n"
     "verified_time 6\n"
     "label synthesized\n"
     "g 1 1 1 1 0 1 1 1 1 1 1 1 2 0 1 1 1 1 1 1 1 1 0 1 1 1 1 1 0 1 1 2 1 1 0 1 0 0 1 2 0 1 0 "
     "0 1 1 0 1 1 0 1 1 0 1 1 1 1 1 0 1 1 1 1 1 1 1 0 0 1 1 1 1 1 1 1 1 1 1 1 1 1\n"
     "h 0 1 0\n",
     2, 1, 6, 6, false},
    {"|X|=2 uniform, R 1..8 (UNSAT proof)", {4, 1, 2, 2, counting::Symmetry::kUniform, 1},
     1, 8, 0, nullptr, 0, -1, 0, 0, false},
    {"|X|=4 uniform, R=8, budget 10", {4, 1, 4, 2, counting::Symmetry::kUniform, 1},
     8, 8, 10, nullptr, 0, -1, 0, 0, true},
};

TEST(SynthesizePortfolio, BitIdenticalAcrossThreadCounts) {
  const synthesis::SynthesisSpec spec = spec_4_1_3();
  std::string reference;
  std::uint64_t reference_cube = 0;
  std::string reference_stats;
  std::uint64_t reference_conflicts = 0;
  for (const int threads : {1, 2, 8}) {
    synthesis::ParallelOptions opt = fast_options();
    opt.threads = threads;
    synthesis::ParallelOutcomeInfo info;
    const synthesis::SynthesisOutcome out = synthesize_portfolio(spec, opt, &info);
    ASSERT_TRUE(out.found) << "threads=" << threads;
    // synthesize_portfolio certifies internally; re-check the certificate.
    const synthesis::VerifyResult vr = synthesis::verify(counting::TableAlgorithm(out.table));
    ASSERT_TRUE(vr.ok) << vr.failure;
    EXPECT_EQ(vr.worst_case_time, out.exact_time);
    const std::string text = counting::table_to_string(out.table);
    if (reference.empty()) {
      reference = text;
      reference_cube = info.winning_cube;
      reference_stats = out.stats_string();
      reference_conflicts = out.total_conflicts;
    } else {
      EXPECT_EQ(text, reference) << "threads=" << threads;
      EXPECT_EQ(info.winning_cube, reference_cube) << "threads=" << threads;
      // The attempt stats of a found table count the scans of cubes
      // 0..winner, whose work does not depend on timing.
      EXPECT_EQ(out.total_conflicts, reference_conflicts) << "threads=" << threads;
      EXPECT_EQ(out.stats_string(), reference_stats) << "threads=" << threads;
    }
    // Registry equivalence: the re-discovered table is exactly as fast as
    // the embedded computer-designed one.
    EXPECT_EQ(out.exact_time,
              synthesis::known_table_4_1_3states().verified_time.value());
  }

  for (const GoldenOutcome& g : kGolden) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(g.what) + ", threads=" + std::to_string(threads));
      synthesis::ParallelOptions opt = fast_options();
      opt.base.min_time = g.min_time;
      opt.base.max_time = g.max_time;
      opt.base.conflict_budget = g.budget;
      opt.threads = threads;
      synthesis::ParallelOutcomeInfo info;
      const synthesis::SynthesisOutcome out = synthesize_portfolio(g.spec, opt, &info);
      ASSERT_EQ(out.found, g.table != nullptr);
      if (out.found) {
        EXPECT_EQ(counting::table_to_string(out.table), g.table);
      }
      EXPECT_EQ(info.winning_cube, g.winning_cube);
      EXPECT_EQ(info.winning_config, g.winning_config);
      EXPECT_EQ(out.time_bound_used, g.time_bound_used);
      EXPECT_EQ(out.exact_time, g.exact_time);
      EXPECT_EQ(out.budget_exhausted, g.budget_exhausted);
    }
  }
}

TEST(SynthesizePortfolio, ReportsPerAttemptStats) {
  synthesis::ParallelOptions opt = fast_options();
  opt.threads = 1;
  const synthesis::SynthesisOutcome out = synthesize_portfolio(spec_4_1_3(), opt);
  ASSERT_TRUE(out.found);
  ASSERT_EQ(out.attempts.size(), 1u);
  EXPECT_EQ(out.attempts[0].time_bound, 6);
  EXPECT_EQ(out.attempts[0].result, "sat");
  EXPECT_GT(out.attempts[0].conflicts, 0u);
  const std::string stats = out.stats_string();
  EXPECT_NE(stats.find("R=6 result=sat"), std::string::npos) << stats;
  EXPECT_NE(stats.find("found=1"), std::string::npos) << stats;
}

// The serve half of the contract: a JobQueue-driven "fleet" of workers
// running the canonical per-cube scan produces the same winner, the same
// certified table, and byte-identical results no matter the completion
// order -- transport-free here; process-level chaos lives in CI.
TEST(SynthesizePortfolio, ServeWorkersMatchLocalEngineBitIdentically) {
  const synthesis::SynthJobSpec job = job_4_1_3();

  // Local reference run.
  synthesis::ParallelOptions opt = fast_options();
  opt.threads = 2;
  synthesis::ParallelOutcomeInfo info;
  const synthesis::SynthesisOutcome local = synthesize_portfolio(job.spec, opt, &info);
  ASSERT_TRUE(local.found);

  const auto drive_queue = [&](serve::JobQueue& queue) {
    // A minimal worker loop: lease one cube at a time, solve it with the
    // canonical scan (exactly what serve::run_worker does), record it.
    const auto never_held = [](const std::string&, std::uint64_t) { return false; };
    serve::JobQueue::Assignment a;
    while (queue.assign(1, never_held, a)) {
      const synthesis::SynthJobSpec leased =
          synthesis::SynthJobSpec::from_json(*a.spec);
      const synthesis::CubeResult r = synthesis::solve_cube(leased, a.group_begin);
      const std::string table_text = r.verdict == synthesis::CubeVerdict::kSat
                                         ? counting::table_to_string(r.table)
                                         : std::string();
      EXPECT_TRUE(queue.record_cube(a.job, a.group_begin,
                                    synthesis::to_string(r.verdict), r.config_index,
                                    r.conflicts, r.decisions, r.restarts, table_text));
    }
    EXPECT_TRUE(queue.job_complete("rediscover"));
    return queue.results_text("rediscover");
  };

  // In-order fleet.
  TempDir dir_a;
  serve::JobQueue queue_a(dir_a.path.string());
  queue_a.submit("rediscover", job.to_json());
  const std::string results_a = drive_queue(queue_a);

  // Out-of-order fleet: a straggler-free worker lands the SAT cube first,
  // draining the moot cubes; the survivors below it finish later.
  TempDir dir_b;
  serve::JobQueue queue_b(dir_b.path.string());
  queue_b.submit("rediscover", job.to_json());
  {
    const synthesis::CubeResult r = synthesis::solve_cube(job, info.winning_cube);
    ASSERT_EQ(r.verdict, synthesis::CubeVerdict::kSat);
    ASSERT_TRUE(queue_b.record_cube("rediscover", info.winning_cube, "sat",
                                    r.config_index, r.conflicts, r.decisions,
                                    r.restarts, counting::table_to_string(r.table)));
    EXPECT_FALSE(queue_b.job_complete("rediscover"));
  }
  const std::string results_b = drive_queue(queue_b);

  EXPECT_EQ(results_a, results_b);

  // Parse the serve results and compare against the local engine.
  const serve::SynthResults parsed = serve::parse_synth_results(results_a);
  ASSERT_TRUE(parsed.found);
  EXPECT_EQ(parsed.winning_cube, info.winning_cube);
  EXPECT_EQ(parsed.cubes.size(), info.winning_cube + 1);
  const counting::TransitionTable served =
      counting::table_from_string(parsed.table_text);
  EXPECT_EQ(served.g, local.table.g);
  EXPECT_EQ(served.h, local.table.h);
  const synthesis::VerifyResult vr = synthesis::verify(counting::TableAlgorithm(served));
  ASSERT_TRUE(vr.ok) << vr.failure;
  EXPECT_EQ(vr.worst_case_time, local.exact_time);

  // Restart persistence: reload the state directory and the finished job's
  // results are still byte-identical.
  serve::JobQueue reloaded(dir_a.path.string());
  EXPECT_TRUE(reloaded.job_complete("rediscover"));
  EXPECT_EQ(reloaded.results_text("rediscover"), results_a);
}

TEST(ServeQueue, SynthJobDrainsAboveTheWinner) {
  TempDir dir;
  serve::JobQueue queue(dir.path.string());
  const synthesis::SynthJobSpec job = job_4_1_3();
  const auto outcome = queue.submit("drain", job.to_json());
  EXPECT_EQ(outcome.groups, 8u);
  const auto never_held = [](const std::string&, std::uint64_t) { return false; };

  // Record a SAT verdict on cube 2 (the known winner of this instance):
  // cubes 3..7 become moot, only 0 and 1 stay assignable.
  const synthesis::CubeResult r = synthesis::solve_cube(job, 2);
  ASSERT_EQ(r.verdict, synthesis::CubeVerdict::kSat);
  ASSERT_TRUE(queue.record_cube("drain", 2, "sat", r.config_index, r.conflicts,
                                r.decisions, r.restarts,
                                counting::table_to_string(r.table)));
  EXPECT_EQ(queue.pending_groups(), 2u);
  serve::JobQueue::Assignment a;
  ASSERT_TRUE(queue.assign(8, never_held, a));
  EXPECT_EQ(a.group_begin, 0u);
  EXPECT_EQ(a.group_end, 2u);  // capped at the winner, not the full grid

  // Duplicate completes are benign; invalid records are rejected loudly.
  EXPECT_FALSE(queue.record_cube("drain", 2, "sat", r.config_index, r.conflicts,
                                 r.decisions, r.restarts,
                                 counting::table_to_string(r.table)));
  EXPECT_THROW(queue.record_cube("drain", 0, "sat", 0, 0, 0, 0, ""),
               std::invalid_argument);  // SAT without a model
  EXPECT_THROW(queue.record_cube("drain", 0, "maybe", 0, 0, 0, 0, ""),
               std::invalid_argument);  // bad verdict
  EXPECT_THROW(queue.record_cube("drain", 9, "unsat", 0, 0, 0, 0, ""),
               std::invalid_argument);  // cube outside the grid
}

// --- Prefilter + CEGAR building blocks ---------------------------------------

TEST(Prefilter, AcceptsTheCertifiedTableAndRejectsACorruptedOne) {
  const counting::TransitionTable good = synthesis::known_table_4_1_3states();
  const std::uint64_t certified = good.verified_time.value();
  EXPECT_TRUE(synthesis::prefilter_candidate(good, certified, 64));
  // Break the output map: the counter can never tick correctly.
  counting::TransitionTable bad = good;
  for (auto& h : bad.h) h = 0;
  EXPECT_FALSE(synthesis::prefilter_candidate(bad, certified, 64));
}

TEST(BlockingClause, CoversEveryTableEntryNegated) {
  const synthesis::Encoder enc(spec_4_1_3());
  const counting::TransitionTable table = synthesis::known_table_4_1_3states();
  const std::vector<sat::ExtLit> clause = synthesis::blocking_clause_for(enc, table);
  ASSERT_EQ(clause.size(), table.g.size() + table.h.size());
  // Every literal negates the table's chosen entry.
  std::size_t i = 0;
  const std::uint64_t vecs = table.g.size();  // cyclic: node_dim == 1
  for (std::uint64_t vec = 0; vec < vecs; ++vec, ++i) {
    EXPECT_EQ(clause[i], -enc.g_var(0, vec, table.g[static_cast<std::size_t>(vec)]));
  }
  for (std::uint64_t s = 0; s < table.h.size(); ++s, ++i) {
    EXPECT_EQ(clause[i], -enc.h_var(0, s, table.h[static_cast<std::size_t>(s)]));
  }
}

// --- DIMACS round-trip of the encoding ---------------------------------------

TEST(EmitCnf, DimacsRoundTripPreservesTheVerdict) {
  synthesis::SynthesisSpec spec = spec_4_1_3();
  spec.max_time = 2;  // small instance: R=2 is UNSAT for this spec
  const synthesis::Encoder enc(spec);
  std::ostringstream emitted;
  sat::write_dimacs(enc.cnf(), emitted);
  std::istringstream in(emitted.str());
  const sat::Cnf parsed = sat::parse_dimacs(in);
  EXPECT_EQ(parsed.num_vars, enc.cnf().num_vars);
  EXPECT_EQ(parsed.clauses.size(), enc.cnf().clauses.size());

  sat::Solver direct;
  enc.cnf().load_into(direct);
  sat::Solver round_tripped;
  parsed.load_into(round_tripped);
  const sat::Result want = direct.solve();
  EXPECT_EQ(round_tripped.solve(), want);
  EXPECT_EQ(want, sat::Result::kUnsat);
}

}  // namespace
