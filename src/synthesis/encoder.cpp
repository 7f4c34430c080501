#include "synthesis/encoder.hpp"

#include <bit>
#include <utility>

#include "util/check.hpp"
#include "util/math.hpp"

namespace synccount::synthesis {

using counting::Symmetry;

void SynthesisSpec::validate() const {
  SC_CHECK(n >= 1 && n <= 8, "synthesis supports 1 <= n <= 8");
  SC_CHECK(f >= 0, "resilience must be non-negative");
  SC_CHECK(n > 3 * f, "synchronous counting requires n > 3f");
  SC_CHECK(modulus >= 2, "counter modulus must be at least 2");
  SC_CHECK(num_states >= modulus, "need at least c states to count modulo c");
  SC_CHECK(num_states <= 16, "state budget too large for synthesis");
  SC_CHECK(max_time >= 1 && max_time <= 64, "time bound must be in [1, 64]");
  const auto vecs = util::checked_pow(num_states, static_cast<unsigned>(n));
  SC_CHECK(vecs.has_value() && *vecs <= (1ULL << 22),
           "|X|^n too large: shrink n or the state budget");
}

Encoder::Encoder(const SynthesisSpec& spec) : spec_(spec) {
  spec_.validate();
  vecs_per_node_ = util::ipow(spec_.num_states, static_cast<unsigned>(spec_.n));
  const int node_dim = spec_.symmetry == Symmetry::kPerNode ? spec_.n : 1;
  g_base_ = 1;
  const auto g_count = static_cast<std::uint64_t>(node_dim) * vecs_per_node_ * spec_.num_states;
  h_base_ = static_cast<int>(1 + g_count);
  const auto h_count = static_cast<std::uint64_t>(node_dim) * spec_.num_states * spec_.modulus;
  next_var_ = static_cast<int>(h_base_ + h_count);
  build();
  cnf_.num_vars = std::max(cnf_.num_vars, next_var_ - 1);
}

sat::Var Encoder::fresh() { return next_var_++; }

sat::Var Encoder::g_var(int node, std::uint64_t vec, std::uint64_t target) const {
  const int nd = spec_.symmetry == Symmetry::kPerNode ? node : 0;
  return g_base_ + static_cast<int>((static_cast<std::uint64_t>(nd) * vecs_per_node_ + vec) *
                                        spec_.num_states +
                                    target);
}

sat::Var Encoder::h_var(int node, std::uint64_t state, std::uint64_t out) const {
  const int nd = spec_.symmetry == Symmetry::kPerNode ? node : 0;
  return h_base_ + static_cast<int>((static_cast<std::uint64_t>(nd) * spec_.num_states + state) *
                                        spec_.modulus +
                                    out);
}

void Encoder::build() {
  const auto S = spec_.num_states;
  const auto c = spec_.modulus;
  const int n = spec_.n;
  const int node_dim = spec_.symmetry == Symmetry::kPerNode ? n : 1;
  // Ranks range over [0, max_time - 1]: a rank-j configuration enters the
  // good set within j+1 steps, so worst-case stabilisation <= max_time.
  const int R = spec_.max_time - 1;

  // --- One-hot g and h -----------------------------------------------------
  for (int nd = 0; nd < node_dim; ++nd) {
    for (std::uint64_t vec = 0; vec < vecs_per_node_; ++vec) {
      std::vector<sat::ExtLit> alo;
      alo.reserve(S);
      for (std::uint64_t s = 0; s < S; ++s) alo.push_back(g_var(nd, vec, s));
      cnf_.add(std::move(alo));
      for (std::uint64_t s1 = 0; s1 < S; ++s1) {
        for (std::uint64_t s2 = s1 + 1; s2 < S; ++s2) {
          cnf_.add({-g_var(nd, vec, s1), -g_var(nd, vec, s2)});
        }
      }
    }
    for (std::uint64_t x = 0; x < S; ++x) {
      std::vector<sat::ExtLit> alo;
      alo.reserve(c);
      for (std::uint64_t o = 0; o < c; ++o) alo.push_back(h_var(nd, x, o));
      cnf_.add(std::move(alo));
      for (std::uint64_t o1 = 0; o1 < c; ++o1) {
        for (std::uint64_t o2 = o1 + 1; o2 < c; ++o2) {
          cnf_.add({-h_var(nd, x, o1), -h_var(nd, x, o2)});
        }
      }
    }
  }
  // Symmetry breaking: outputs are invariant under rotation, so fix state 0
  // of (the first) node to output 0.
  cnf_.add({h_var(0, 0, 0)});

  // Rank-cap selectors for incremental time sweeps.
  rank_exceeds_.resize(static_cast<std::size_t>(std::max(R, 0)));
  for (auto& v : rank_exceeds_) v = fresh();

  std::vector<std::uint64_t> pow_s(static_cast<std::size_t>(n) + 1);
  pow_s[0] = 1;
  for (int i = 0; i < n; ++i) {
    pow_s[static_cast<std::size_t>(i) + 1] = pow_s[static_cast<std::size_t>(i)] * S;
  }

  // Table index of the vector as *seen by* absolute node v when the full
  // network state is `full` (indexed by absolute sender id).
  auto vec_index_for = [&](int v, const std::vector<std::uint64_t>& full) {
    std::uint64_t idx = 0;
    for (int u = 0; u < n; ++u) {
      const int sender = spec_.symmetry == Symmetry::kCyclic ? (v + u) % n : u;
      idx += full[static_cast<std::size_t>(sender)] * pow_s[static_cast<std::size_t>(u)];
    }
    return idx;
  };

  // --- Per faulty set ------------------------------------------------------
  const std::uint32_t limit = 1U << n;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    if (std::popcount(mask) > spec_.f) continue;
    std::vector<int> faulty, correct;
    for (int i = 0; i < n; ++i) {
      if (mask & (1U << i)) {
        faulty.push_back(i);
      } else {
        correct.push_back(i);
      }
    }
    const int P = static_cast<int>(correct.size());
    const std::uint64_t configs = util::ipow(S, static_cast<unsigned>(P));
    const std::uint64_t byz = util::ipow(S, static_cast<unsigned>(faulty.size()));

    std::vector<sat::Var> Gv(configs);
    for (auto& v : Gv) v = fresh();
    std::vector<sat::Var> Uv(configs * static_cast<std::uint64_t>(R));
    for (auto& v : Uv) v = fresh();
    auto u = [&](std::uint64_t e, int j) {  // "rank(e) >= j", j in [1, R]
      return Uv[e * static_cast<std::uint64_t>(R) + static_cast<std::uint64_t>(j - 1)];
    };
    for (std::uint64_t e = 0; e < configs; ++e) {
      for (int j = 1; j < R; ++j) cnf_.add({-u(e, j + 1), u(e, j)});
      // rank(e) >= j implies the global "some rank >= j" selector.
      for (int j = 1; j <= R; ++j) cnf_.add({-u(e, j), rank_exceeds_[static_cast<std::size_t>(j - 1)]});
    }

    // can[e][p][s]: upper bound on "the adversary can steer correct node p
    // from configuration e into state s" (only the g -> can direction is
    // encoded; see the header).
    std::vector<sat::Var> can(configs * static_cast<std::uint64_t>(P) * S);
    auto can_var = [&](std::uint64_t e, int p, std::uint64_t s) -> sat::Var& {
      return can[(e * static_cast<std::uint64_t>(P) + static_cast<std::uint64_t>(p)) * S + s];
    };

    std::vector<std::uint64_t> cfg(static_cast<std::size_t>(P));
    std::vector<std::uint64_t> full(static_cast<std::size_t>(n));
    for (std::uint64_t e = 0; e < configs; ++e) {
      std::uint64_t rem = e;
      for (int p = 0; p < P; ++p) {
        cfg[static_cast<std::size_t>(p)] = rem % S;
        rem /= S;
        full[static_cast<std::size_t>(correct[static_cast<std::size_t>(p)])] =
            cfg[static_cast<std::size_t>(p)];
      }
      const bool deterministic = faulty.empty();
      if (!deterministic) {
        for (int p = 0; p < P; ++p) {
          for (std::uint64_t s = 0; s < S; ++s) can_var(e, p, s) = fresh();
        }
      }
      for (std::uint64_t bz = 0; bz < byz; ++bz) {
        std::uint64_t brem = bz;
        for (std::size_t q = 0; q < faulty.size(); ++q) {
          full[static_cast<std::size_t>(faulty[q])] = brem % S;
          brem /= S;
        }
        for (int p = 0; p < P; ++p) {
          const int v = correct[static_cast<std::size_t>(p)];
          const std::uint64_t vec = vec_index_for(v, full);
          if (deterministic) {
            for (std::uint64_t s = 0; s < S; ++s) can_var(e, p, s) = g_var(v, vec, s);
          } else {
            for (std::uint64_t s = 0; s < S; ++s) {
              cnf_.add({can_var(e, p, s), -g_var(v, vec, s)});
            }
          }
        }
      }

      // Agreement inside G (chain over adjacent correct nodes).
      for (int p = 0; p + 1 < P; ++p) {
        for (std::uint64_t o = 0; o < c; ++o) {
          cnf_.add({-Gv[e],
                    -h_var(correct[static_cast<std::size_t>(p)], cfg[static_cast<std::size_t>(p)], o),
                    h_var(correct[static_cast<std::size_t>(p + 1)],
                          cfg[static_cast<std::size_t>(p + 1)], o)});
        }
      }
    }

    // Pair constraints. They share a P-literal prefix; each clause is built
    // in one allocation of its final size and moved into the CNF.
    std::vector<std::uint64_t> dcfg(static_cast<std::size_t>(P));
    std::vector<sat::ExtLit> prefix;
    prefix.reserve(static_cast<std::size_t>(P));
    const auto with_prefix = [&prefix](std::size_t tail) {
      std::vector<sat::ExtLit> cl;
      cl.reserve(prefix.size() + tail);
      cl.assign(prefix.begin(), prefix.end());
      return cl;
    };
    for (std::uint64_t e = 0; e < configs; ++e) {
      std::uint64_t erem = e;
      for (int p = 0; p < P; ++p) {
        cfg[static_cast<std::size_t>(p)] = erem % S;
        erem /= S;
      }
      for (std::uint64_t d = 0; d < configs; ++d) {
        std::uint64_t drem = d;
        for (int p = 0; p < P; ++p) {
          dcfg[static_cast<std::size_t>(p)] = drem % S;
          drem /= S;
        }
        prefix.clear();
        for (int p = 0; p < P; ++p) {
          prefix.push_back(-can_var(e, p, dcfg[static_cast<std::size_t>(p)]));
        }

        // Closure: G_e ∧ reach(e,d) -> G_d.
        {
          auto cl = with_prefix(2);
          cl.push_back(-Gv[e]);
          cl.push_back(Gv[d]);
          cnf_.add(std::move(cl));
        }
        // Increment: G_e ∧ reach(e,d) -> out(d) = out(e) + 1 (mod c).
        for (std::uint64_t o = 0; o < c; ++o) {
          auto cl = with_prefix(3);
          cl.push_back(-Gv[e]);
          cl.push_back(-h_var(correct[0], cfg[0], o));
          cl.push_back(h_var(correct[0], dcfg[0], (o + 1) % c));
          cnf_.add(std::move(cl));
        }
        // Convergence: ¬G_e ∧ reach(e,d) ∧ ¬G_d -> rank(d) < rank(e) <= R.
        for (int j = 0; j <= R; ++j) {
          auto cl = with_prefix(2 + (j > 0 ? 1 : 0) + (j < R ? 1 : 0));
          cl.push_back(Gv[e]);
          cl.push_back(Gv[d]);
          if (j > 0) cl.push_back(-u(d, j));
          if (j < R) cl.push_back(u(e, j + 1));
          cnf_.add(std::move(cl));
        }
      }
    }
  }
}

counting::TransitionTable Encoder::decode(const sat::Solver& solver) const {
  counting::TransitionTable t;
  t.n = spec_.n;
  t.f = spec_.f;
  t.num_states = spec_.num_states;
  t.modulus = spec_.modulus;
  t.symmetry = spec_.symmetry;
  t.label = "synthesized";
  const int node_dim = spec_.symmetry == Symmetry::kPerNode ? spec_.n : 1;
  t.g.resize(t.expected_g_size(), 0);
  t.h.resize(t.expected_h_size(), 0);
  for (int nd = 0; nd < node_dim; ++nd) {
    for (std::uint64_t vec = 0; vec < vecs_per_node_; ++vec) {
      bool found = false;
      for (std::uint64_t s = 0; s < spec_.num_states; ++s) {
        if (solver.value(g_var(nd, vec, s))) {
          t.g[static_cast<std::size_t>(nd) * vecs_per_node_ + vec] = static_cast<std::uint8_t>(s);
          found = true;
          break;
        }
      }
      SC_REQUIRE(found, "model missing a g assignment");
    }
    for (std::uint64_t x = 0; x < spec_.num_states; ++x) {
      bool found = false;
      for (std::uint64_t o = 0; o < spec_.modulus; ++o) {
        if (solver.value(h_var(nd, x, o))) {
          t.h[static_cast<std::size_t>(nd) * spec_.num_states + x] = static_cast<std::uint8_t>(o);
          found = true;
          break;
        }
      }
      SC_REQUIRE(found, "model missing an h assignment");
    }
  }
  return t;
}

sat::Var Encoder::rank_exceeds_var(int bound) const {
  SC_CHECK(bound >= 1 && bound <= static_cast<int>(rank_exceeds_.size()),
           "rank bound out of range");
  return rank_exceeds_[static_cast<std::size_t>(bound - 1)];
}

Encoder::SizeInfo Encoder::size() const {
  return SizeInfo{static_cast<std::size_t>(next_var_ - 1), cnf_.clauses.size()};
}

}  // namespace synccount::synthesis
