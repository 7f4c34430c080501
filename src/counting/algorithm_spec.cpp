#include "counting/algorithm_spec.hpp"

#include <fstream>
#include <limits>

#include "boosting/boosted_counter.hpp"
#include "boosting/planner.hpp"
#include "counting/table_algorithm.hpp"
#include "counting/table_io.hpp"
#include "counting/trivial.hpp"
#include "pulling/pulling_counter.hpp"
#include "synthesis/known_tables.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace synccount::counting {

namespace {

bool level_eq(const AlgorithmSpec::Level& a, const AlgorithmSpec::Level& b) {
  return a.pulling == b.pulling && a.k == b.k && a.F == b.F && a.C == b.C &&
         a.sample_size == b.sample_size && a.fixed_sampling == b.fixed_sampling &&
         a.sampling_seed == b.sampling_seed && a.gamma == b.gamma;
}

}  // namespace

bool AlgorithmSpec::operator==(const AlgorithmSpec& other) const {
  if (kind != other.kind || modulus != other.modulus || table_name != other.table_name ||
      table_file != other.table_file || table_text != other.table_text ||
      levels.size() != other.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (!level_eq(levels[i], other.levels[i])) return false;
  }
  if ((base == nullptr) != (other.base == nullptr)) return false;
  return base == nullptr || *base == *other.base;
}

util::Json to_json(const AlgorithmSpec& spec) {
  using util::Json;
  Json j = Json::object();
  switch (spec.kind) {
    case AlgorithmSpec::Kind::kTrivial:
      j.set("kind", Json::string("trivial"));
      j.set("modulus", Json::number(spec.modulus));
      break;
    case AlgorithmSpec::Kind::kTable:
      j.set("kind", Json::string("table"));
      if (!spec.table_name.empty()) j.set("name", Json::string(spec.table_name));
      if (!spec.table_file.empty()) j.set("file", Json::string(spec.table_file));
      if (!spec.table_text.empty()) j.set("inline", Json::string(spec.table_text));
      break;
    case AlgorithmSpec::Kind::kTower: {
      j.set("kind", Json::string("tower"));
      SC_CHECK(spec.base != nullptr, "tower spec has no base");
      j.set("base", to_json(*spec.base));
      Json levels = Json::array();
      for (const AlgorithmSpec::Level& lv : spec.levels) {
        Json l = Json::object();
        l.set("type", Json::string(lv.pulling ? "pulling" : "boosted"));
        l.set("k", Json::number(lv.k));
        l.set("F", Json::number(lv.F));
        l.set("C", Json::number(lv.C));
        if (lv.pulling) {
          l.set("sample_size", Json::number(lv.sample_size));
          l.set("sampling", Json::string(lv.fixed_sampling ? "fixed" : "fresh"));
          l.set("sampling_seed", Json::number(lv.sampling_seed));
          l.set("gamma", Json::number(lv.gamma));
        }
        levels.push_back(std::move(l));
      }
      j.set("levels", std::move(levels));
      break;
    }
  }
  return j;
}

AlgorithmSpec algorithm_spec_from_json(const util::Json& j) {
  AlgorithmSpec spec;
  const std::string& kind = j.at("kind").as_string();
  if (kind == "trivial") {
    spec.kind = AlgorithmSpec::Kind::kTrivial;
    spec.modulus = j.at("modulus").as_u64();
  } else if (kind == "table") {
    spec.kind = AlgorithmSpec::Kind::kTable;
    if (const auto* v = j.find("name")) spec.table_name = v->as_string();
    if (const auto* v = j.find("file")) spec.table_file = v->as_string();
    if (const auto* v = j.find("inline")) spec.table_text = v->as_string();
  } else if (kind == "tower") {
    spec.kind = AlgorithmSpec::Kind::kTower;
    spec.base = std::make_shared<AlgorithmSpec>(algorithm_spec_from_json(j.at("base")));
    const util::Json& levels = j.at("levels");
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const util::Json& l = levels.at(i);
      AlgorithmSpec::Level lv;
      const std::string& type = l.at("type").as_string();
      SC_CHECK(type == "boosted" || type == "pulling", "unknown tower level type: " + type);
      lv.pulling = type == "pulling";
      lv.k = l.at("k").as_int();
      lv.F = l.at("F").as_int();
      lv.C = l.at("C").as_u64();
      if (lv.pulling) {
        lv.sample_size = l.at("sample_size").as_int();
        const std::string& sampling = l.at("sampling").as_string();
        SC_CHECK(sampling == "fixed" || sampling == "fresh",
                 "unknown sampling mode: " + sampling);
        lv.fixed_sampling = sampling == "fixed";
        lv.sampling_seed = l.at("sampling_seed").as_u64();
        lv.gamma = l.at("gamma").as_double();
      }
      spec.levels.push_back(lv);
    }
  } else {
    SC_CHECK(false, "unknown algorithm spec kind: " + kind);
  }
  return spec;
}

std::optional<AlgorithmSpec> describe(const AlgorithmPtr& algo) {
  if (algo == nullptr) return std::nullopt;

  // Walk the tower top-down (like the composed backend's compile), then
  // reverse into the spec's bottom-up level order.
  std::vector<AlgorithmSpec::Level> top_down;
  const CountingAlgorithm* cur = algo.get();
  while (const auto* b = dynamic_cast<const boosting::BoostingLevel*>(cur)) {
    AlgorithmSpec::Level lv;
    lv.k = b->k();
    lv.F = b->resilience();
    lv.C = b->modulus();
    if (const auto* p = dynamic_cast<const pulling::PullingBoostedCounter*>(b)) {
      lv.pulling = true;
      lv.sample_size = p->sample_size();
      lv.fixed_sampling = p->mode() == pulling::SamplingMode::kFixed;
      lv.sampling_seed = p->sampling_seed();
      lv.gamma = p->gamma();
    }
    top_down.push_back(lv);
    cur = &b->inner();
  }

  AlgorithmSpec base;
  if (const auto* t = dynamic_cast<const TrivialCounter*>(cur)) {
    base.kind = AlgorithmSpec::Kind::kTrivial;
    base.modulus = t->modulus();
  } else if (const auto* t2 = dynamic_cast<const TableAlgorithm*>(cur)) {
    base.kind = AlgorithmSpec::Kind::kTable;
    if (const auto name = synthesis::known_table_name_of(t2->table())) {
      base.table_name = *name;
    } else {
      base.table_text = table_to_string(t2->table());
    }
  } else {
    return std::nullopt;  // services, randomized baselines, unknown wrappers
  }

  if (top_down.empty()) return base;

  AlgorithmSpec spec;
  spec.kind = AlgorithmSpec::Kind::kTower;
  spec.base = std::make_shared<AlgorithmSpec>(std::move(base));
  spec.levels.assign(top_down.rbegin(), top_down.rend());
  return spec;
}

AlgorithmPtr build(const AlgorithmSpec& spec) {
  switch (spec.kind) {
    case AlgorithmSpec::Kind::kTrivial:
      return std::make_shared<TrivialCounter>(spec.modulus);
    case AlgorithmSpec::Kind::kTable: {
      const int sources = (spec.table_name.empty() ? 0 : 1) +
                          (spec.table_file.empty() ? 0 : 1) +
                          (spec.table_text.empty() ? 0 : 1);
      SC_CHECK(sources == 1, "table spec needs exactly one of name/file/inline");
      TransitionTable table;
      if (!spec.table_name.empty()) {
        auto known = synthesis::known_table_by_name(spec.table_name);
        SC_CHECK(known.has_value(), "unknown table name: " + spec.table_name);
        table = std::move(*known);
      } else if (!spec.table_file.empty()) {
        std::ifstream file(spec.table_file);
        SC_CHECK(file.good(), "cannot open table file: " + spec.table_file);
        table = read_table(file);
      } else {
        table = table_from_string(spec.table_text);
      }
      return std::make_shared<TableAlgorithm>(std::move(table));
    }
    case AlgorithmSpec::Kind::kTower: {
      SC_CHECK(spec.base != nullptr, "tower spec has no base");
      SC_CHECK(spec.base->kind != AlgorithmSpec::Kind::kTower,
               "tower base must be trivial or table (flatten nested towers)");
      SC_CHECK(!spec.levels.empty(), "tower spec has no levels");
      AlgorithmPtr algo = build(*spec.base);
      for (const AlgorithmSpec::Level& lv : spec.levels) {
        if (lv.pulling) {
          pulling::PullParams pp;
          pp.k = lv.k;
          pp.F = lv.F;
          pp.C = lv.C;
          pp.sample_size = lv.sample_size;
          pp.mode = lv.fixed_sampling ? pulling::SamplingMode::kFixed
                                      : pulling::SamplingMode::kFresh;
          pp.seed = lv.sampling_seed;
          pp.gamma = lv.gamma;
          algo = std::make_shared<pulling::PullingBoostedCounter>(std::move(algo), pp);
        } else {
          algo = std::make_shared<boosting::BoostedCounter>(
              std::move(algo), boosting::BoostParams{lv.k, lv.F, lv.C});
        }
      }
      return algo;
    }
  }
  SC_CHECK(false, "unreachable");
  return nullptr;
}

namespace {

AlgorithmSpec::Level& top_level(AlgorithmSpec& spec, const std::string& param) {
  SC_CHECK(spec.kind == AlgorithmSpec::Kind::kTower && !spec.levels.empty(),
           "sweep param '" + param + "' needs a tower spec");
  return spec.levels.back();
}

AlgorithmSpec::Level& top_pulling_level(AlgorithmSpec& spec, const std::string& param) {
  AlgorithmSpec::Level& lv = top_level(spec, param);
  SC_CHECK(lv.pulling, "sweep param '" + param + "' needs a pulling top level");
  return lv;
}

}  // namespace

std::vector<AlgorithmSpec> sweep_u64(const AlgorithmSpec& base, const std::string& param,
                                     const std::vector<std::uint64_t>& values) {
  // int-typed params must not truncate silently -- a wrapped value is a
  // different algorithm, and every other bad input here throws.
  const auto as_int = [&param](std::uint64_t v) {
    SC_CHECK(v <= static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
             "sweep value out of range for '" + param + "': " + std::to_string(v));
    return static_cast<int>(v);
  };
  std::vector<AlgorithmSpec> out;
  out.reserve(values.size());
  for (const std::uint64_t v : values) {
    AlgorithmSpec spec = base;
    if (param == "sampling_seed") {
      top_pulling_level(spec, param).sampling_seed = v;
    } else if (param == "sample_size") {
      top_pulling_level(spec, param).sample_size = as_int(v);
    } else if (param == "C") {
      top_level(spec, param).C = v;
    } else if (param == "k") {
      top_level(spec, param).k = as_int(v);
    } else if (param == "F") {
      top_level(spec, param).F = as_int(v);
    } else if (param == "modulus") {
      SC_CHECK(spec.kind == AlgorithmSpec::Kind::kTrivial,
               "sweep param 'modulus' needs a trivial spec");
      spec.modulus = v;
    } else {
      SC_CHECK(false, "unknown integer sweep param: " + param);
    }
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<AlgorithmSpec> sweep_double(const AlgorithmSpec& base, const std::string& param,
                                        const std::vector<double>& values) {
  std::vector<AlgorithmSpec> out;
  out.reserve(values.size());
  for (const double v : values) {
    AlgorithmSpec spec = base;
    SC_CHECK(param == "gamma", "unknown floating sweep param: " + param);
    top_pulling_level(spec, param).gamma = v;
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace synccount::counting
