// Experiment E10: adversary and fault-placement ablation. Stabilisation time
// of the Theorem 1 recursion (A(12,3), counting mod 16) under every adversary
// strategy in the library crossed with the interesting fault placements.
// The bound must hold against all of them; the measured spread shows which
// attacks actually hurt.
//
// The whole ablation is ONE engine sweep: the adversary axis covers the
// library strategies plus the construction-aware "leader-split" attack,
// installed through the spec's adversary factory. Exits 1 when a cell
// misses the bound.
//
// Usage: bench_adversary [--seeds=N] [--f=3] [--threads=N]
#include <iostream>

#include "bench_common.hpp"
#include "boosting/leader_split_adversary.hpp"
#include "boosting/planner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace synccount;
  const util::Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.get_int("seeds", 3));
  const int f = static_cast<int>(cli.get_int("f", 3));

  const auto algo = boosting::build_plan(boosting::plan_practical(f, 16));
  const int n = algo->num_nodes();
  const int k_top = 3;
  const int block = n / k_top;
  const int f_inner = (f - 1) / 2;

  std::cout << "=== E10: adversary x fault-placement ablation on A(" << n << ", " << f
            << ") ===\nTheorem 1 bound: " << *algo->stabilisation_bound() << " rounds.\n\n";

  sim::ExperimentSpec spec;
  spec.algo = algo;
  spec.placements = {
      {"spread", sim::faults_spread(n, f)},
      {"block-concentrated", sim::faults_block_concentrated(k_top, block, f_inner, f)},
      {"leader-blocks", sim::faults_leader_blocks(k_top, block, f_inner, f)},
  };
  spec.adversaries = sim::adversary_names();
  // The construction-aware attack (decodes votes, splits leader majorities,
  // impersonates kings) exists only for the boosted construction.
  if (const auto boosted = std::dynamic_pointer_cast<const boosting::BoostedCounter>(algo)) {
    spec.adversaries.push_back("leader-split");
    spec.adversary_factory =
        [boosted](const std::string& name) -> std::unique_ptr<sim::Adversary> {
      if (name == "leader-split") {
        return std::make_unique<boosting::LeaderSplitAdversary>(boosted);
      }
      return sim::make_adversary(name);
    };
  }
  spec.seeds = seeds;
  spec.stop_after_stable = 120;
  spec.margin = 100;

  const bench::Harness harness(cli);
  const auto result = harness.run("E10", spec);

  util::Table table({"adversary", "placement", "stabilised", "T measured mean (max)",
                     "within bound"});
  int missed = 0;
  for (std::size_t a = 0; a < spec.adversaries.size(); ++a) {
    for (std::size_t p = 0; p < spec.placements.size(); ++p) {
      const auto m = result.aggregate(a, p);
      const bool ok = m.stabilised == m.runs &&
                      m.stabilisation.max() <= static_cast<double>(*algo->stabilisation_bound());
      table.add_row({spec.adversaries[a], spec.placements[p].name, bench::fmt_rate(m),
                     bench::fmt_rounds(m), ok ? "yes" : "NO"});
      missed += ok ? 0 : 1;
    }
  }
  table.print(std::cout);
  std::cout << "\nAll cells must stabilise within the bound; 'echo' (a protocol-following\n"
            << "fault) and 'silent' are the benign ends; vote-splitting, lookahead and\n"
            << "the construction-aware 'leader-split' are the aggressive ends.\n"
            << "(" << result.cells.size() << " executions in "
            << util::fmt_double(result.wall_seconds, 2) << "s on "
            << harness.threads() << " threads)\n";
  if (missed != 0) {
    std::cout << "CHECK FAILED: " << missed << " cell(s) miss the bound\n";
    return 1;
  }
  return 0;
}
