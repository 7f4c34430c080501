// perfbench: the synccount benchmark. Runs one workload and prints, as the
// last line of stdout, one JSON object:
//
//   {"correct":B,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U},...}}
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones of the traced run. Diagnostics go
// to stderr.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--self-check]
//   NAME: table_sweep | tower_sweep | fleet_ablation | synth_table
//   --self-check: tiny sizes and one iteration; enforces the default-seed
//   (--seed 0) digests and that an ill-posed workload is refused.
#include <malloc.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "counting/algorithm_spec.hpp"
#include "replay.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Outcome;
using perfbench::RunArgs;
using synccount::util::Json;

// Digests of each workload's result bytes for the default seed (--seed 0):
// the emitted sweep partial, the fleet's results partial, the synthesised
// table's text. {full size, self-check size}.
struct Golden {
  const char* workload;
  const char* full;
  const char* self_check;
};
constexpr Golden kGolden[] = {
    {"table_sweep", "3b6cea4e460ef0b7", "c79f2c989584c889"},
    {"tower_sweep", "1c0462c5c0adeed4", "a637580a8c7e9326"},
    {"fleet_ablation", "aa657dc0e8247863", "42c2fc1e341eb34c"},
    {"synth_table", "052dc746bbdad52b", "052dc746bbdad52b"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload table_sweep|tower_sweep|fleet_ablation|"
               "synth_table --seed N --seconds S --trace 0|1 [--self-check]\n";
  std::exit(2);
}

RunArgs parse_args(int argc, char** argv) {
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args.self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

Outcome dispatch(const RunArgs& args) {
  if (args.workload == "table_sweep" || args.workload == "tower_sweep") {
    return perfbench::run_sweep(args);
  }
  if (args.workload == "fleet_ablation") return perfbench::run_fleet(args);
  if (args.workload == "synth_table") return perfbench::run_synth(args);
  usage("unknown workload " + args.workload);
}

// Self-check of the workload guard: a horizon at or below the margin (the
// margin cliff) must be refused before anything runs.
void check_margin_cliff(Outcome& out) {
  namespace sim = synccount::sim;
  synccount::counting::AlgorithmSpec table;
  table.kind = synccount::counting::AlgorithmSpec::Kind::kTable;
  table.table_name = "3states";
  sim::ExperimentSpec spec;
  spec.algorithm = table;
  spec.max_rounds = 64;
  spec.margin = 100;
  try {
    perfbench::validate_workload(spec, *synccount::counting::build(table));
    out.fail("a workload with horizon 64 <= margin 100 was not refused");
  } catch (const std::invalid_argument&) {
  }
}

void check_golden(const RunArgs& args, Outcome& out) {
  if (args.seed != 0) return;
  for (const Golden& g : kGolden) {
    if (args.workload != g.workload) continue;
    const std::string want = args.self_check ? g.self_check : g.full;
    if (want != out.digest) {
      out.fail("result digest " + out.digest + " != default-seed digest " + want);
    }
  }
}

// The final line: the metrics of this mode, every one of them. Layers a
// workload does not cross report 0.
void print_result(const RunArgs& args, Outcome& out) {
  if (out.attempted == 0) out.fail("no operation was attempted");
  if (args.trace && out.attempted > 0) {
    out.set("fail_ratio", static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  }
  Json metrics = Json::object();
  for (const perfbench::MetricDef& def : perfbench::metric_table()) {
    if (def.end_to_end == args.trace) continue;
    double value = 0.0;
    if (const auto it = out.metrics.find(def.name); it != out.metrics.end()) {
      value = it->second;
    } else if (def.end_to_end) {
      out.fail(std::string("end-to-end metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      out.fail(std::string("metric is not finite: ") + def.name);
      value = 0.0;
    }
    Json m = Json::object();
    m.set("value", Json::number(value));
    m.set("unit", Json::string(def.unit));
    metrics.set(def.name, std::move(m));
  }
  for (const std::string& p : out.problems) std::cerr << "perfbench: " << p << "\n";
  Json line = Json::object();
  line.set("correct", Json::boolean(out.correct));
  line.set("attempted", Json::number(std::max<std::uint64_t>(out.attempted, 1)));
  line.set("failed", Json::number(out.failed));
  line.set("metrics", std::move(metrics));
  std::cout << line.dump() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args = parse_args(argc, argv);
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises after
  // the first large free, so later iterations of a run allocate from arenas
  // a fresh process would not use and peak RSS drifts with the iteration
  // count; pinned, every iteration allocates like a user's first sweep.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Temporary files live under the checkout, one directory per workload. The
  // path is fixed because the sweep specs echo their sink paths into the
  // result bytes the digests cover; runs in one checkout are sequential.
  args.work_dir = ".bench_work/" + args.workload;
  args.out_dir = ".bench_out";
  int rc = 0;
  try {
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);
    fs::create_directories(args.out_dir);
    Outcome out = dispatch(args);
    if (args.self_check) check_margin_cliff(out);
    check_golden(args, out);
    std::cerr << "perfbench: " << args.workload << " digest " << out.digest << "\n";
    print_result(args, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  return rc;
}
