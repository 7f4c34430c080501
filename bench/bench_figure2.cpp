// Experiment E3: regenerate Figure 2 -- the recursive construction
// A(4,1) -> A(12,3) -> A(36,7) -- and actually run it: 36 nodes, 7 Byzantine
// (including a fully faulty 12-node block, as drawn), measuring stabilisation
// against the Theorem 1 bound and the state bits against the closed form.
// Exits 1 when a placement misses the bound, or when the built tower's
// bound or per-level state bits differ from the closed forms printed.
//
// Usage: bench_figure2 [--seeds=N] [--deep]
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "boosting/planner.hpp"
#include "util/math.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace synccount;
  const util::Cli cli(argc, argv);
  const int seeds = static_cast<int>(cli.get_int("seeds", 3));
  const bool deep = cli.get_bool("deep");

  std::cout << "=== Figure 2 (reproduction): recursive construction ===\n\n";

  // The recursion tree, printed level by level.
  const auto plan = boosting::plan_practical(7, 10);
  std::cout << "  trivial 1-node counter, modulus " << plan.base_modulus << "\n";
  std::uint64_t n = 1;
  std::uint64_t t_bound = 0;
  for (const auto& lv : plan.levels) {
    n *= static_cast<std::uint64_t>(lv.k);
    t_bound += boosting::required_input_modulus(lv.k, lv.F);
    std::cout << "  -> A(" << n << ", " << lv.F << ", " << lv.C << ")  [k=" << lv.k
              << " blocks, level cost 3(F+2)(2m)^k = "
              << boosting::required_input_modulus(lv.k, lv.F) << "]\n";
  }
  const auto algo = boosting::build_plan(plan);
  std::cout << "\nTheorem 1 accounting: T(B) <= " << *algo->stabilisation_bound()
            << " rounds, S(B) = " << algo->state_bits() << " bits per node.\n\n";
  int failed = 0;
  const auto check = [&failed](bool ok, const std::string& what) {
    if (!ok) {
      std::cout << "CHECK FAILED: " << what << "\n";
      ++failed;
    }
  };
  // The trivial base stabilises at once, so T(B) is the sum of the level costs.
  check(*algo->stabilisation_bound() == t_bound,
        "T(B) = " + std::to_string(*algo->stabilisation_bound()) +
            " differs from the sum of the level costs, " + std::to_string(t_bound));

  // Fault placements, in increasing nastiness (Figure 2 draws a fully faulty
  // block plus scattered faults); one declarative spec covers the whole
  // placements x adversaries x seeds grid.
  const bench::Harness harness(cli);
  sim::ExperimentSpec spec;
  spec.algo = algo;
  spec.placements = {
      {"spread over all blocks", sim::faults_spread(36, 7)},
      {"one 12-node block fully faulty + spill", sim::faults_block_concentrated(3, 12, 3, 7)},
      {"leader blocks targeted", sim::faults_leader_blocks(3, 12, 3, 7)},
  };
  spec.adversaries = deep ? std::vector<std::string>{"split", "targeted-vote", "lookahead"}
                          : std::vector<std::string>{"split", "targeted-vote"};
  spec.seeds = seeds;
  spec.stop_after_stable = 120;
  spec.margin = 100;
  const auto result = harness.run("figure2", spec);

  util::Table table({"fault placement", "runs", "stabilised", "T measured mean (max)",
                     "T bound", "bound respected"});
  for (std::size_t p = 0; p < spec.placements.size(); ++p) {
    const auto m = result.aggregate(std::nullopt, p);
    const bool ok = m.stabilised == m.runs &&
                    m.stabilisation.max() <= static_cast<double>(*algo->stabilisation_bound());
    table.add_row({spec.placements[p].name, std::to_string(m.runs), std::to_string(m.stabilised),
                   bench::fmt_rounds(m), util::fmt_u64(*algo->stabilisation_bound()),
                   ok ? "yes" : "NO"});
    check(ok, "placement \"" + spec.placements[p].name + "\" misses the bound");
  }
  table.print(std::cout);
  std::cout << "\n(" << result.cells.size() << " executions in "
            << util::fmt_double(result.wall_seconds, 2) << "s on "
            << harness.threads() << " threads)\n";

  // The built tower's state bits, bottom-up: base first, then each level.
  std::vector<int> built_bits;
  const counting::CountingAlgorithm* cur = algo.get();
  while (const auto* b = dynamic_cast<const boosting::BoostedCounter*>(cur)) {
    built_bits.insert(built_bits.begin(), b->state_bits());
    cur = &b->inner();
  }
  built_bits.insert(built_bits.begin(), cur->state_bits());

  std::cout << "\nState-bit accounting per level (S(B) = S(A) + ceil(log(C+1)) + 1):\n";
  util::Table bits({"level", "algorithm", "state bits"});
  bits.add_row({"base", "trivial(" + std::to_string(plan.base_modulus) + ")",
                std::to_string(util::ceil_log2(plan.base_modulus))});
  int acc = util::ceil_log2(plan.base_modulus);
  std::vector<int> closed_bits = {acc};
  int level = 1;
  for (const auto& lv : plan.levels) {
    acc += util::ceil_log2(lv.C + 1) + 1;
    closed_bits.push_back(acc);
    bits.add_row({std::to_string(level++), "boost(k=" + std::to_string(lv.k) + ",F=" +
                                               std::to_string(lv.F) + ",C=" + std::to_string(lv.C) + ")",
                  std::to_string(acc)});
  }
  bits.print(std::cout);
  check(built_bits == closed_bits, "the built tower's per-level state bits differ from the "
                                   "closed form");
  return failed == 0 ? 0 : 1;
}
