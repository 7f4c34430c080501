#include "synthesis/synthesize.hpp"

#include <mutex>
#include <sstream>

#include "synthesis/known_tables.hpp"
#include "util/check.hpp"

namespace synccount::synthesis {

namespace {

const char* result_name(sat::Result r) {
  switch (r) {
    case sat::Result::kSat: return "sat";
    case sat::Result::kUnsat: return "unsat";
    case sat::Result::kUnsatAssumptions: return "unsat-assumptions";
    case sat::Result::kUnknown: return "unknown";
    case sat::Result::kCancelled: return "cancelled";
  }
  return "?";
}

// Stat deltas between two snapshots of the same solver (incremental sweeps
// accumulate; attempts report what each R actually cost).
AttemptStats attempt_delta(int time_bound, sat::Result res,
                           const sat::Solver::Stats& before,
                           const sat::Solver::Stats& after) {
  AttemptStats a;
  a.time_bound = time_bound;
  a.result = result_name(res);
  a.conflicts = after.conflicts - before.conflicts;
  a.decisions = after.decisions - before.decisions;
  a.propagations = after.propagations - before.propagations;
  a.restarts = after.restarts - before.restarts;
  return a;
}

}  // namespace

std::string SynthesisOutcome::stats_string() const {
  std::ostringstream os;
  for (const AttemptStats& a : attempts) {
    os << "R=" << a.time_bound << " result=" << a.result
       << " conflicts=" << a.conflicts << " decisions=" << a.decisions
       << " propagations=" << a.propagations << " restarts=" << a.restarts << "\n";
  }
  os << "attempts=" << attempts.size() << " total_conflicts=" << total_conflicts
     << " found=" << (found ? 1 : 0);
  if (found) os << " R=" << time_bound_used << " exact_time=" << exact_time;
  return os.str();
}

void SynthesisOutcome::certify(counting::TransitionTable model, int time_bound) {
  const VerifyResult vr = verify(counting::TableAlgorithm(model));
  SC_REQUIRE(vr.ok, "SAT model failed exact verification: " + vr.failure);
  SC_REQUIRE(vr.worst_case_time <= static_cast<std::uint64_t>(time_bound),
             "verifier found a longer stabilisation than the encoding allows");
  model.verified_time = vr.worst_case_time;
  found = true;
  table = std::move(model);
  time_bound_used = time_bound;
  exact_time = vr.worst_case_time;
}

SynthesisOutcome synthesize(SynthesisSpec spec, const SynthesisOptions& options) {
  SC_CHECK(options.min_time >= 1 && options.min_time <= options.max_time,
           "bad time sweep");
  SynthesisOutcome out;
  for (int R = options.min_time; R <= options.max_time; ++R) {
    spec.max_time = R;
    Encoder enc(spec);
    sat::Solver solver;
    enc.cnf().load_into(solver);
    const sat::Result res = solver.solve(options.conflict_budget);
    out.attempts.push_back(attempt_delta(R, res, sat::Solver::Stats{}, solver.stats()));
    out.total_conflicts += solver.stats().conflicts;
    out.last_size = enc.size();
    if (res == sat::Result::kUnknown) {
      out.budget_exhausted = true;
      out.note = "conflict budget exhausted at R=" + std::to_string(R);
      continue;
    }
    if (res == sat::Result::kUnsat) continue;

    out.certify(enc.decode(solver), R);
    return out;
  }
  return out;
}

SynthesisOutcome synthesize_incremental(SynthesisSpec spec, const SynthesisOptions& options) {
  SC_CHECK(options.min_time >= 1 && options.min_time <= options.max_time,
           "bad time sweep");
  SynthesisOutcome out;
  spec.max_time = options.max_time;
  Encoder enc(spec);
  out.last_size = enc.size();
  sat::Solver solver;
  enc.cnf().load_into(solver);

  for (int R = options.min_time; R <= options.max_time; ++R) {
    std::vector<sat::ExtLit> assumptions;
    if (R < options.max_time) assumptions.push_back(-enc.rank_exceeds_var(R));
    const sat::Solver::Stats before = solver.stats();
    const sat::Result res =
        solver.solve_assuming(assumptions, options.conflict_budget == 0
                                               ? 0
                                               : before.conflicts + options.conflict_budget);
    out.attempts.push_back(attempt_delta(R, res, before, solver.stats()));
    out.total_conflicts = solver.stats().conflicts;
    if (res == sat::Result::kUnknown) {
      out.budget_exhausted = true;
      out.note = "conflict budget exhausted at R=" + std::to_string(R);
      continue;
    }
    if (res == sat::Result::kUnsat) {
      // Globally unsatisfiable: no algorithm even at max_time; stop early.
      return out;
    }
    if (res == sat::Result::kUnsatAssumptions) continue;

    out.certify(enc.decode(solver), R);
    return out;
  }
  return out;
}

counting::AlgorithmPtr computer_designed_4_1() {
  static std::mutex mu;
  // synccount-lint: allow(global-state) -- write-once memo of the embedded
  // table's re-verification, guarded by the mutex above; the cached value is
  // a function of compiled-in data only, so every process computes the same.
  static counting::AlgorithmPtr cached;
  std::lock_guard<std::mutex> lock(mu);
  if (cached) return cached;
  // The embedded table was produced by this same pipeline; re-certify it
  // here so a corrupted table can never be served.
  auto algo = std::make_shared<counting::TableAlgorithm>(known_table_4_1_3states());
  const VerifyResult vr = verify(*algo);
  SC_REQUIRE(vr.ok, "embedded computer-designed table failed verification: " + vr.failure);
  SC_REQUIRE(vr.worst_case_time == algo->table().verified_time,
             "embedded table's certified time is stale");
  cached = std::move(algo);
  return cached;
}

}  // namespace synccount::synthesis
