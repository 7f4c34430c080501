#include "sim/runner.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace synccount::sim {

Placement::Placement(const counting::CountingAlgorithm& algo, const std::vector<bool>& faulty) {
  const int n = algo.num_nodes();
  SC_CHECK(faulty.empty() || static_cast<int>(faulty.size()) == n, "fault vector size mismatch");
  faulty_index.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (!faulty.empty() && faulty[static_cast<std::size_t>(i)]) {
      faulty_index[static_cast<std::size_t>(i)] = static_cast<int>(faulty_ids.size());
      faulty_ids.push_back(i);
    } else {
      correct_ids.push_back(i);
    }
  }
  SC_CHECK(static_cast<int>(faulty_ids.size()) <= algo.resilience(),
           "more faults than the algorithm's resilience");
  SC_CHECK(!correct_ids.empty(), "all nodes faulty");
}

std::vector<State> initial_states(const counting::CountingAlgorithm& algo,
                                  const std::vector<State>& initial, util::Rng& rng) {
  const auto nn = static_cast<std::size_t>(algo.num_nodes());
  std::vector<State> states;
  if (!initial.empty()) {
    SC_CHECK(initial.size() == nn, "initial state vector size mismatch");
    states.reserve(nn);
    for (const auto& s : initial) states.push_back(algo.canonicalize(s));
  } else {
    states.resize(nn);
    for (auto& s : states) s = counting::arbitrary_state(algo, rng);
  }
  return states;
}

std::uint64_t resolve_margin(std::uint64_t margin, std::uint64_t max_rounds,
                             std::uint64_t modulus) noexcept {
  if (margin != 0) return margin;
  return std::min<std::uint64_t>(2 * modulus + 16, std::max<std::uint64_t>(max_rounds / 4, 1));
}

void finish_run(RunResult& result, const StabilisationChecker& checker, std::uint64_t margin,
                std::uint64_t total_pulls, std::uint64_t pull_samples) {
  result.rounds = checker.rounds();
  result.stabilisation_round = checker.suffix_start();
  result.suffix_length = checker.suffix_length();
  result.max_window = checker.max_window();
  result.stabilised = result.suffix_length >= std::min<std::uint64_t>(margin, result.rounds);
  // Mean over all executed (correct node, round) transitions, zero-pull
  // samples included; identically 0 for pure broadcast algorithms.
  if (pull_samples > 0) {
    result.avg_pulls_per_round =
        static_cast<double>(total_pulls) / static_cast<double>(pull_samples);
  }
}

RunResult run_execution(const RunConfig& cfg, Adversary& adversary, std::uint64_t margin) {
  SC_CHECK(cfg.algo != nullptr, "no algorithm given");
  const auto& algo = *cfg.algo;
  const auto nn = static_cast<std::size_t>(algo.num_nodes());

  const Placement placement(algo, cfg.faulty);
  const std::vector<counting::NodeId>& faulty_ids = placement.faulty_ids;
  const std::vector<counting::NodeId>& correct_ids = placement.correct_ids;

  util::Rng rng(cfg.seed);

  // Arbitrary initial states (the self-stabilisation part of the model).
  std::vector<State> states = initial_states(algo, cfg.initial, rng);

  margin = resolve_margin(margin, cfg.max_rounds, algo.modulus());

  StabilisationChecker checker(algo.modulus());
  RunResult result;
  result.correct_ids = correct_ids;

  // Scratch buffers reused across every round (the engine runs millions of
  // rounds per experiment; no per-round allocation on the hot path).
  std::vector<State> received(nn);
  std::vector<State> next(nn);
  std::vector<std::uint64_t> outs(correct_ids.size());
  counting::TransitionContext ctx{&rng};

  // Per-sender memo of the last forged bit pattern and its canonical form:
  // adversaries frequently resend an unchanged state (split's two values,
  // targeted-vote's pooled replays), and canonicalize on the recursive
  // constructions decodes the whole state, so skipping the redundant calls
  // is a measurable win. Keyed by raw equality -- canonicalize is a pure
  // function -- so the memo stays valid across receivers and rounds.
  std::vector<State> memo_raw(nn);
  std::vector<State> memo_canonical(nn);
  std::vector<bool> memo_valid(nn, false);
  const auto forge = [&](std::uint64_t round, counting::NodeId s, counting::NodeId receiver) {
    const auto si = static_cast<std::size_t>(s);
    State raw = adversary.message(round, s, receiver, states, algo, rng);
    if (!memo_valid[si] || raw != memo_raw[si]) {
      memo_canonical[si] = algo.canonicalize(raw);
      memo_raw[si] = std::move(raw);
      memo_valid[si] = true;
    }
    received[si] = memo_canonical[si];
  };

  // A receiver-oblivious adversary sends every receiver the same state and
  // draws no randomness in message(), so the per-receiver forge loop can be
  // hoisted to once per faulty sender per round without changing the
  // execution.
  const bool faultless = faulty_ids.empty();
  const bool hoist_forge = !faultless && adversary.receiver_oblivious();

  std::uint64_t total_pulls = 0;
  std::uint64_t pull_samples = 0;  // (correct node, round) transitions executed

  for (std::uint64_t round = 0; round < cfg.max_rounds; ++round) {
    // Record outputs of the round-start states.
    for (std::size_t j = 0; j < correct_ids.size(); ++j) {
      const auto i = correct_ids[j];
      outs[j] = algo.output(i, states[static_cast<std::size_t>(i)]);
    }
    checker.observe(outs);
    if (cfg.record_outputs) result.outputs.push_back(outs);
    if (cfg.record_states) result.states.push_back(states);

    if (cfg.stop_after_stable > 0 && checker.suffix_length() >= cfg.stop_after_stable) {
      break;
    }

    adversary.begin_round(round, states, algo, faulty_ids, rng);

    // Received vector: correct senders' entries are shared; faulty senders'
    // entries are overwritten (per round when hoisted, else per receiver).
    // With no faults the round-start states are delivered verbatim and the
    // copy is skipped entirely.
    if (!faultless) {
      std::copy(states.begin(), states.end(), received.begin());
      if (hoist_forge) {
        for (const auto s : faulty_ids) forge(round, s, correct_ids.front());
      }
    }
    const std::span<const State> inbox = faultless ? std::span<const State>(states)
                                                   : std::span<const State>(received);

    for (const auto i : correct_ids) {
      if (!faultless && !hoist_forge) {
        for (const auto s : faulty_ids) forge(round, s, i);
      }
      ctx.messages_pulled = 0;
      next[static_cast<std::size_t>(i)] = algo.transition(i, inbox, ctx);
      total_pulls += ctx.messages_pulled;
      ++pull_samples;
      result.max_pulls_per_round = std::max(result.max_pulls_per_round, ctx.messages_pulled);
    }
    // Faulty nodes keep a nominal state (only the adversary ever reads it).
    for (const auto s : faulty_ids) next[static_cast<std::size_t>(s)] = states[static_cast<std::size_t>(s)];

    states.swap(next);
    result.rounds = round + 1;
  }

  finish_run(result, checker, margin, total_pulls, pull_samples);
  return result;
}

}  // namespace synccount::sim
