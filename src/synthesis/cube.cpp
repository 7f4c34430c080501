#include "synthesis/cube.hpp"

#include <stdexcept>

#include "util/check.hpp"
#include "util/math.hpp"

namespace synccount::synthesis {

using util::Json;

std::vector<sat::Var> cube_branch_vars(const Encoder& enc, int depth) {
  SC_CHECK(depth >= 0 && depth <= 20, "cube depth must be in [0, 20]");
  const SynthesisSpec& spec = enc.spec();
  std::vector<sat::Var> vars;
  vars.reserve(static_cast<std::size_t>(depth));
  // The g layer is laid out densely from variable 1 in (node, vec, target)
  // order; walk it through the accessor so a layout change cannot silently
  // desynchronise the splitter.
  const int node_dim = spec.symmetry == counting::Symmetry::kPerNode ? spec.n : 1;
  const std::uint64_t vecs = util::ipow(spec.num_states, static_cast<unsigned>(spec.n));
  for (int nd = 0; nd < node_dim && static_cast<int>(vars.size()) < depth; ++nd) {
    for (std::uint64_t vec = 0; vec < vecs && static_cast<int>(vars.size()) < depth; ++vec) {
      for (std::uint64_t s = 0;
           s < spec.num_states && static_cast<int>(vars.size()) < depth; ++s) {
        vars.push_back(enc.g_var(nd, vec, s));
      }
    }
  }
  SC_CHECK(static_cast<int>(vars.size()) == depth,
           "cube depth exceeds the encoder's g layer");
  return vars;
}

Cube make_cube(const Encoder& enc, int depth, std::uint64_t index) {
  SC_CHECK(depth >= 0 && depth <= 20, "cube depth must be in [0, 20]");
  SC_CHECK(index < (std::uint64_t{1} << depth), "cube index outside 2^depth");
  const std::vector<sat::Var> vars = cube_branch_vars(enc, depth);
  Cube cube;
  cube.index = index;
  cube.assumptions.reserve(vars.size());
  for (int i = 0; i < depth; ++i) {
    const bool positive = ((index >> i) & 1U) != 0;
    cube.assumptions.push_back(positive ? vars[static_cast<std::size_t>(i)]
                                        : -vars[static_cast<std::size_t>(i)]);
  }
  return cube;
}

std::vector<Cube> split_cubes(const Encoder& enc, int depth) {
  std::vector<Cube> cubes;
  const std::uint64_t count = std::uint64_t{1} << depth;
  cubes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t j = 0; j < count; ++j) cubes.push_back(make_cube(enc, depth, j));
  return cubes;
}

counting::Symmetry symmetry_from_string(const std::string& s) {
  if (s == "uniform") return counting::Symmetry::kUniform;
  if (s == "cyclic") return counting::Symmetry::kCyclic;
  if (s == "per-node") return counting::Symmetry::kPerNode;
  throw std::invalid_argument("unknown symmetry \"" + s + "\"");
}

void SynthJobSpec::validate() const {
  spec.validate();
  SC_CHECK(time_bound >= 1 && time_bound <= spec.max_time,
           "time_bound must be in [1, max_time]");
  SC_CHECK(cube_depth >= 0 && cube_depth <= 20, "cube_depth must be in [0, 20]");
  SC_CHECK(portfolio >= 1 && portfolio <= 64, "portfolio must be in [1, 64]");
}

Json SynthJobSpec::to_json() const {
  validate();
  Json j = Json::object();
  j.set("kind", Json::string("synth"));
  j.set("n", Json::number(spec.n));
  j.set("f", Json::number(spec.f));
  j.set("states", Json::number(spec.num_states));
  j.set("modulus", Json::number(spec.modulus));
  j.set("symmetry", Json::string(counting::to_string(spec.symmetry)));
  j.set("max_time", Json::number(spec.max_time));
  j.set("time_bound", Json::number(time_bound));
  j.set("cube_depth", Json::number(cube_depth));
  j.set("portfolio", Json::number(portfolio));
  j.set("budget", Json::number(conflict_budget));
  return j;
}

SynthJobSpec SynthJobSpec::from_json(const Json& j) {
  SC_CHECK(j.has("kind") && j.at("kind").as_string() == "synth",
           "not a synth job spec");
  SynthJobSpec out;
  out.spec.n = static_cast<int>(j.at("n").as_int());
  out.spec.f = static_cast<int>(j.at("f").as_int());
  out.spec.num_states = j.at("states").as_u64();
  out.spec.modulus = j.at("modulus").as_u64();
  out.spec.symmetry = symmetry_from_string(j.at("symmetry").as_string());
  out.spec.max_time = static_cast<int>(j.at("max_time").as_int());
  out.time_bound = static_cast<int>(j.at("time_bound").as_int());
  out.cube_depth = static_cast<int>(j.at("cube_depth").as_int());
  out.portfolio = static_cast<int>(j.at("portfolio").as_int());
  out.conflict_budget = j.at("budget").as_u64();
  out.validate();
  return out;
}

}  // namespace synccount::synthesis
