// End-to-end tests of the synccount_cli front end, driving the real binary
// (path injected by CMake via the SYNCCOUNT_CLI environment variable; the
// tests skip when it is absent, e.g. when only the test targets were built).
// Covered: strict flag rejection (exit status 2), the declarative
// plan-emit / sweep --spec flow reproducing an in-process run bit-
// identically, and the checkpoint --resume cycle.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "counting/algorithm_spec.hpp"
#include "sat/dimacs.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "sim/faults.hpp"
#include "synthesis/encoder.hpp"
#include "util/json.hpp"

namespace {

using namespace synccount;

// synccount-lint: allow(nondet) -- ctest hands this test the real binary's
// path via the environment (see CMakeLists); no result bytes depend on it.
const char* cli_binary() { return std::getenv("SYNCCOUNT_CLI"); }

#define REQUIRE_CLI()                                                       \
  do {                                                                      \
    if (cli_binary() == nullptr) {                                          \
      GTEST_SKIP() << "SYNCCOUNT_CLI not set (built without the CLI?)";     \
    }                                                                       \
  } while (false)

// Runs `<cli> args...` with stdout/stderr silenced; returns the exit status
// (or -1 when the process did not exit normally).
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(cli_binary()) + " " + args + " >/dev/null 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

struct TempDir {
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("synccount-cli-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return (path / name).string(); }
  std::filesystem::path path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The grid used throughout: the 3-state table algorithm (fast, spans the
// bit-sliced and scalar backends via the adversary mix).
sim::ExperimentSpec reference_spec(const std::string& checkpoint_path = "") {
  sim::ExperimentSpec spec;
  counting::AlgorithmSpec algo;
  algo.kind = counting::AlgorithmSpec::Kind::kTable;
  algo.table_name = "3states";
  spec.algorithm = algo;
  spec.adversaries = {"split", "silent", "random"};
  spec.placements = {{"spread", sim::faults_spread(4, 1)}, {"none", {}}};
  spec.seeds = 8;
  spec.base_seed = 0x9000;
  spec.margin = 100;
  spec.stop_after_stable = 120;
  if (!checkpoint_path.empty()) {
    spec.sinks.push_back({sim::SinkConfig::Kind::kCheckpoint, checkpoint_path, "jsonl",
                          false});
  }
  return spec;
}

// --- Strict flag handling ----------------------------------------------------

TEST(Cli, UnknownFlagsAndSubcommandsExitWithStatus2) {
  REQUIRE_CLI();
  EXPECT_EQ(run_cli("frobnicate"), 2);                      // unknown subcommand
  EXPECT_EQ(run_cli("sweep --definitely-not-a-flag=1"), 2); // unknown flag
  EXPECT_EQ(run_cli("plan --schedulle=practical"), 2);      // typo'd flag
  EXPECT_EQ(run_cli("verify stray-positional"), 2);         // stray positional
  EXPECT_EQ(run_cli(""), 2);                                // no command at all
  EXPECT_EQ(run_cli("sweep --spec=x.json --seeds=3"), 2);   // grid flag vs --spec
  EXPECT_EQ(run_cli("sweep --resume --table=3states"), 2);  // --resume without --spec
}

// The margin cliff: runs that could only count as stabilised by starting
// valid are refused up front (exit 2) instead of reported as a rate.
TEST(Cli, SweepRefusesAHorizonAtOrBelowTheMargin) {
  REQUIRE_CLI();
  EXPECT_EQ(run_cli("sweep --table=3states --rounds=64 --seeds=5"), 2);
  EXPECT_EQ(run_cli("sweep --table=3states --rounds=100 --seeds=5"), 2);
  EXPECT_EQ(run_cli("sweep --table=3states --rounds=64 --seeds=5 --shards=2"), 2);
  EXPECT_EQ(run_cli("sweep --table=3states --seeds=5 --stop-after-stable=40"), 2);
  EXPECT_EQ(run_cli("sweep --table=3states --rounds=101 --seeds=5"), 0);
  EXPECT_EQ(run_cli("sweep --table=3states --seeds=5 --stop-after-stable=40 --margin=30"), 0);
}

// Every file a command writes is checked: an unwritable path exits 1
// instead of reporting that it was saved.
TEST(Cli, UnwritableOutputsExitWithStatus1) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string missing = dir.file("missing") + "/";
  const std::string synth =
      "synth --n=4 --f=1 --states=3 --symmetry=cyclic --min-time=6 --max-time=6 "
      "--cube-depth=3 --budget=2000 --jobs=1";
  EXPECT_EQ(run_cli(synth + " --save=" + missing + "x.table"), 1);
  EXPECT_EQ(run_cli(synth + " --save=" + dir.file("x.table")), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.file("x.table")));

  const std::string synthesize =
      "synthesize --n=4 --f=1 --states=3 --symmetry=cyclic --min-time=7 --max-time=8";
  EXPECT_EQ(run_cli(synthesize + " --save=" + missing + "y.table"), 1);
  EXPECT_EQ(run_cli(synthesize + " --save=" + dir.file("y.table")), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.file("y.table")));

  EXPECT_EQ(run_cli("synthesize --max-time=2 --dimacs=" + missing + "x.cnf"), 1);
  EXPECT_EQ(run_cli("synthesize --max-time=2 --dimacs=" + dir.file("x.cnf")), 0);
  EXPECT_EQ(run_cli("synth --max-time=2 --emit-cnf=" + missing + "y.cnf"), 1);

  EXPECT_EQ(run_cli("run --f=1 --trace=" + missing + "t.csv"), 1);
  EXPECT_EQ(run_cli("run --f=1 --trace=" + dir.file("t.csv")), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.file("t.csv")));
}

// --- Declarative spec flow ---------------------------------------------------

TEST(Cli, SweepSpecReproducesInProcessRunBitIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const auto spec = reference_spec();

  // The hand-rolled in-process run.
  const auto plan = sim::plan_shards(spec, 1, 0);
  const auto result = sim::Engine(2).run(spec, plan);
  std::ostringstream reference;
  write_partial(reference, make_partial(spec, plan, result));

  // The same experiment as a spec file through the CLI.
  {
    std::ofstream out(dir.file("spec.json"));
    write_spec_file(out, spec);
  }
  ASSERT_EQ(run_cli("sweep --spec=" + dir.file("spec.json") + " --threads=2 --emit=" +
                    dir.file("out.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("out.jsonl")), reference.str());
}

TEST(Cli, PlanEmitsARunnableSpecWithoutRunning) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  ASSERT_EQ(run_cli("plan --table=3states --seeds=8 --adversaries=split,silent,random "
                    "--placements=spread,none --checkpoint=" +
                    dir.file("ck.jsonl") + " --emit=" + spec_path + " --shards=3"),
            0);
  // plan ran nothing: no checkpoint yet.
  EXPECT_FALSE(std::filesystem::exists(dir.file("ck.jsonl")));

  // The emitted spec parses and matches the reference grid exactly.
  std::ifstream in(spec_path);
  const auto spec = sim::read_spec_file(in, spec_path);
  const auto expected = reference_spec(dir.file("ck.jsonl"));
  EXPECT_EQ(sim::experiment_spec_to_json(spec).dump(),
            sim::experiment_spec_to_json(expected).dump());

  // And it runs: sweep --spec produces the checkpoint == emitted partial.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("ck.jsonl")), slurp(dir.file("full.jsonl")));
}

TEST(Cli, ResumeCompletesAKilledRunByteIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  const std::string ck = dir.file("ck.jsonl");
  {
    std::ofstream out(spec_path);
    write_spec_file(out, reference_spec(ck));
  }

  // Uninterrupted reference run.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  const std::string reference = slurp(ck);
  EXPECT_EQ(reference, slurp(dir.file("full.jsonl")));

  // "Kill" the worker after two groups -- plus a torn partial write.
  sim::truncate_to_lines(ck, 3);
  {
    std::ofstream out(ck, std::ios::binary | std::ios::app);
    out << "{\"group\":2,\"adversary\":\"sil";
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2 --emit=" +
                    dir.file("resumed.jsonl")),
            0);
  EXPECT_EQ(slurp(ck), reference);
  EXPECT_EQ(slurp(dir.file("resumed.jsonl")), reference);

  // Resuming a complete run is a no-op that still emits the full partial.
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2 --emit=" +
                    dir.file("again.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("again.jsonl")), reference);
  EXPECT_EQ(slurp(ck), reference);
}

TEST(Cli, ResumeWorksFromAHeaderOnlyCheckpointWithCsvTrace) {
  // The worst kill window: the worker died after flushing the checkpoint
  // header but before finishing any group. The CSV trace then holds only
  // its (flushed-at-start) header line, and resume must re-run everything
  // and still converge to the uninterrupted bytes.
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  const std::string ck = dir.file("ck.jsonl");
  const std::string tr = dir.file("tr.csv");
  {
    auto spec = reference_spec(ck);
    spec.sinks.push_back({sim::SinkConfig::Kind::kTrace, tr, "csv", false});
    std::ofstream out(spec_path);
    write_spec_file(out, spec);
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2"), 0);
  const std::string ck_reference = slurp(ck);
  const std::string tr_reference = slurp(tr);

  sim::truncate_to_lines(ck, 1);  // header only: zero groups finished
  sim::truncate_to_lines(tr, 1);  // CSV header only
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --resume --threads=2"), 0);
  EXPECT_EQ(slurp(ck), ck_reference);
  EXPECT_EQ(slurp(tr), tr_reference);
}

TEST(Cli, ShardedSpecWorkersMergeBitIdentically) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string spec_path = dir.file("spec.json");
  {
    std::ofstream out(spec_path);
    write_spec_file(out, reference_spec());
  }
  ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --threads=2 --emit=" +
                    dir.file("full.jsonl")),
            0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(run_cli("sweep --spec=" + spec_path + " --shards=3 --shard=" +
                      std::to_string(i) + " --threads=1 --emit=" +
                      dir.file("w" + std::to_string(i) + ".jsonl")),
              0);
  }
  ASSERT_EQ(run_cli("merge " + dir.file("w0.jsonl") + " " + dir.file("w1.jsonl") + " " +
                    dir.file("w2.jsonl") + " --emit=" + dir.file("merged.jsonl")),
            0);
  EXPECT_EQ(slurp(dir.file("merged.jsonl")), slurp(dir.file("full.jsonl")));
}

TEST(Cli, SynthEmitCnfRoundTripsThroughDimacs) {
  REQUIRE_CLI();
  TempDir dir;
  const std::string cnf_path = dir.file("synth.cnf");
  // R = 2 is UNSAT for the 4/1/3-state cyclic spec (the certified optimum
  // is 6), and small enough to solve in-process here.
  ASSERT_EQ(run_cli("synth --n=4 --f=1 --states=3 --symmetry=cyclic "
                    "--max-time=2 --emit-cnf=" + cnf_path),
            0);

  synthesis::SynthesisSpec spec;
  spec.n = 4;
  spec.f = 1;
  spec.num_states = 3;
  spec.modulus = 2;
  spec.symmetry = counting::Symmetry::kCyclic;
  spec.max_time = 2;
  const synthesis::Encoder enc(spec);

  std::ifstream in(cnf_path);
  ASSERT_TRUE(in.good()) << cnf_path;
  const sat::Cnf parsed = sat::parse_dimacs(in);
  EXPECT_EQ(parsed.num_vars, enc.cnf().num_vars);
  EXPECT_EQ(parsed.clauses.size(), enc.cnf().clauses.size());

  sat::Solver emitted, direct;
  parsed.load_into(emitted);
  enc.cnf().load_into(direct);
  EXPECT_EQ(emitted.solve(), direct.solve());
  EXPECT_EQ(emitted.solve(), sat::Result::kUnsat);
}

}  // namespace
