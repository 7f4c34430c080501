#include "sim/experiment_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "counting/algorithm_spec.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/fault_injector.hpp"

namespace synccount::sim {

namespace {

constexpr const char* kPartialFormat = "synccount-sweep-partial";
constexpr int kPartialVersion = 3;        // v3: per-line CRC suffixes
                                          // (v2: declarative specs -- variants +
                                          // sinks, record_* flags retired)
constexpr int kPartialVersionSketch = 4;  // v4: sketch-mode aggregates (specs
                                          // carry "stats":"sketch"; exact
                                          // specs stay v3 byte-for-byte)

// The wire version a spec's partials use, derived from the spec JSON itself
// so writers and readers can never disagree: a spec without a "stats" field
// is exact mode and stays on v3 (bit-identical to pre-sketch builds), a
// sketch spec promotes its partials to v4.
int partial_version_for(const util::Json& spec) {
  return spec.find("stats") != nullptr ? kPartialVersionSketch : kPartialVersion;
}
constexpr const char* kSpecFormat = "synccount-spec";
constexpr int kSpecVersion = 1;

std::string faulty_to_string(const std::vector<bool>& faulty) {
  std::string s;
  s.reserve(faulty.size());
  for (const bool b : faulty) s.push_back(b ? '1' : '0');
  return s;
}

std::vector<bool> faulty_from_string(const std::string& s) {
  std::vector<bool> out;
  out.reserve(s.size());
  for (const char c : s) {
    SC_CHECK(c == '0' || c == '1', "fault mask must be a 0/1 string");
    out.push_back(c == '1');
  }
  return out;
}

// Inverse of BitVec::to_hex: nibble i of the value is hex digit len-1-i.
State state_from_hex(const std::string& hex) {
  State s;
  SC_CHECK(!hex.empty() && hex.size() * 4 <= State::kCapacityBits,
           "bad state hex string: " + hex);
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const char c = hex[hex.size() - 1 - i];
    std::uint64_t v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      SC_CHECK(false, "bad state hex string: " + hex);
    }
    s.set_bits(static_cast<int>(i) * 4, 4, v);
  }
  return s;
}

util::Json placements_to_json(const std::vector<FaultPattern>& placements) {
  util::Json arr = util::Json::array();
  for (const FaultPattern& p : placements) {
    util::Json j = util::Json::object();
    j.set("name", util::Json::string(p.name));
    j.set("faulty", util::Json::string(faulty_to_string(p.faulty)));
    arr.push_back(std::move(j));
  }
  return arr;
}

util::Json sink_config_to_json(const SinkConfig& cfg) {
  using util::Json;
  Json j = Json::object();
  switch (cfg.kind) {
    case SinkConfig::Kind::kTrace:
      j.set("kind", Json::string("trace"));
      j.set("path", Json::string(cfg.path));
      j.set("format", Json::string(cfg.format));
      j.set("outputs", Json::boolean(cfg.outputs));
      break;
    case SinkConfig::Kind::kProgress:
      j.set("kind", Json::string("progress"));
      break;
    case SinkConfig::Kind::kCheckpoint:
      j.set("kind", Json::string("checkpoint"));
      j.set("path", Json::string(cfg.path));
      break;
  }
  return j;
}

SinkConfig sink_config_from_json(const util::Json& j) {
  SinkConfig cfg;
  const std::string& kind = j.at("kind").as_string();
  if (kind == "trace") {
    cfg.kind = SinkConfig::Kind::kTrace;
    cfg.path = j.at("path").as_string();
    cfg.format = j.at("format").as_string();
    cfg.outputs = j.at("outputs").as_bool();
    SC_CHECK(cfg.format == "jsonl" || cfg.format == "csv" || cfg.format == "bin",
             "unknown trace format: " + cfg.format);
  } else if (kind == "progress") {
    cfg.kind = SinkConfig::Kind::kProgress;
  } else if (kind == "checkpoint") {
    cfg.kind = SinkConfig::Kind::kCheckpoint;
    cfg.path = j.at("path").as_string();
  } else {
    SC_CHECK(false, "unknown sink kind: " + kind);
  }
  return cfg;
}

// The grid echo a partial needs for printing/validation, shared by
// make_partial (from the spec struct via its JSON) and read_partial.
void derive_grid(ShardPartial& partial) {
  partial.adversaries.clear();
  const util::Json& advs = partial.spec.at("adversaries");
  for (std::size_t i = 0; i < advs.size(); ++i) {
    partial.adversaries.push_back(advs.at(i).as_string());
  }
  partial.placement_names.clear();
  const util::Json& placements = partial.spec.at("placements");
  for (std::size_t i = 0; i < placements.size(); ++i) {
    partial.placement_names.push_back(placements.at(i).at("name").as_string());
  }
  if (partial.placement_names.empty()) partial.placement_names.emplace_back("");
  partial.seeds = partial.spec.at("seeds").as_int();
  SC_CHECK(!partial.adversaries.empty() && partial.seeds > 0, "partial has an empty grid");
}

std::size_t grid_groups(const ShardPartial& partial) {
  return partial.adversaries.size() * partial.placement_names.size();
}

// Parses one wire line with the source + line number attached to any JSON
// error, so a truncated or corrupted file names itself instead of failing
// with a bare parser message. Spec files only -- partial/checkpoint lines
// additionally carry a CRC suffix and go through parse_framed_line.
util::Json parse_wire_line(const std::string& line, const std::string& source,
                           std::size_t line_no) {
  try {
    return util::Json::parse(line);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(source + ":" + std::to_string(line_no) +
                                ": bad JSON (truncated file?): " + e.what());
  }
}

// CRC check + parse of one v3 partial/checkpoint line.
util::Json parse_framed_line(const std::string& line, const std::string& source,
                             std::size_t line_no) {
  return parse_wire_line(crc_unframe(line, source, line_no), source, line_no);
}

// fsyncs the directory holding `path` so a just-renamed file survives a
// crash of the machine, not only of the process.
void fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  // synccount-lint: allow(raw-io) -- read-only directory fd, opened solely to
  // fsync the rename in the atomic-commit discipline this file implements.
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// Writes `content` to `fd` honouring a torn-write fault at `site`: on a
// torn fault only the injector-chosen prefix reaches the file before the
// process dies -- the caller's recovery path must cope with exactly that.
void write_all_fsync(int fd, std::string_view content, std::string_view site,
                     const std::string& path) {
  const auto fault = util::FaultInjector::instance().on_write(site, content.size());
  const std::string_view payload =
      fault.torn ? content.substr(0, fault.keep_bytes) : content;
  std::size_t written = 0;
  while (written < payload.size()) {
    // synccount-lint: allow(raw-io) -- this IS the atomic writers' fd loop:
    // callers only ever see temp files published by fsync + rename.
    const ssize_t n = ::write(fd, payload.data() + written, payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      SC_CHECK(false, "write failed for " + path + ": " + err);
    }
    written += static_cast<std::size_t>(n);
  }
  SC_CHECK(::fsync(fd) == 0, "fsync failed for " + path);
  if (fault.torn) {
    ::close(fd);
    util::FaultInjector::die();
  }
}

}  // namespace

// --- Line integrity ----------------------------------------------------------

std::string crc_frame(std::string_view json_dump) {
  std::string line(json_dump);
  line.push_back('#');
  line += util::crc32_hex(json_dump);
  return line;
}

std::string crc_unframe(const std::string& line, const std::string& source,
                        std::size_t line_no) {
  const auto ctx = [&](const std::string& what) {
    return source + ":" + std::to_string(line_no) + ": " + what;
  };
  // The suffix is exactly '#' + 8 hex digits at the end of the line; the
  // shortest framed payload is "{}".
  SC_CHECK(line.size() >= 11 && line[line.size() - 9] == '#',
           ctx("missing line CRC (pre-v3 file, torn write, or trailing garbage?)"));
  const std::string payload = line.substr(0, line.size() - 9);
  const std::string want = line.substr(line.size() - 8);
  const std::string got = util::crc32_hex(payload);
  SC_CHECK(want == got, ctx("bad line CRC (want " + got + ", file says " + want +
                            "): corrupt or torn line"));
  return payload;
}

// --- Atomic file helpers -----------------------------------------------------

void atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view fault_site) {
  const std::string tmp = path + ".tmp";
  // synccount-lint: allow(raw-io) -- atomic_write_file's own temp file; the
  // destination is only ever touched by the rename after write + fsync.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  SC_CHECK(fd >= 0, "cannot write " + tmp + ": " + std::strerror(errno));
  write_all_fsync(fd, content, fault_site, tmp);
  ::close(fd);
  SC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "cannot rename " + tmp + " -> " + path + ": " + std::strerror(errno));
  fsync_parent_dir(path);
  util::FaultInjector::instance().probe(fault_site);
}

AtomicAppender::AtomicAppender(std::string path, bool resume, std::string fault_site)
    : path_(std::move(path)), fault_site_(std::move(fault_site)) {
  SC_CHECK(!path_.empty(), "atomic appender needs a path");
  have_base_ = resume && std::filesystem::exists(path_);
}

void AtomicAppender::commit() {
  // The first commit publishes even an empty buffer (it IS the truncate of
  // the fresh-open path); later empty commits are no-ops.
  if (have_base_ && buffer_.empty()) return;
  const std::string tmp = path_ + ".tmp";
  std::error_code ec;
  if (have_base_) {
    // Committed base + buffer, without buffering the base in memory: copy
    // the published file, append, fsync, rename back over it.
    std::filesystem::copy_file(path_, tmp,
                               std::filesystem::copy_options::overwrite_existing, ec);
    SC_CHECK(!ec, "cannot stage " + tmp + ": " + ec.message());
  }
  const int flags = O_WRONLY | O_CLOEXEC | (have_base_ ? O_APPEND : O_CREAT | O_TRUNC);
  // synccount-lint: allow(raw-io) -- AtomicAppender's own staging file; the
  // published path only ever changes via the rename after write + fsync.
  const int fd = ::open(tmp.c_str(), flags, 0644);
  SC_CHECK(fd >= 0, "cannot write " + tmp + ": " + std::strerror(errno));
  write_all_fsync(fd, buffer_, fault_site_, tmp);
  ::close(fd);
  SC_CHECK(std::rename(tmp.c_str(), path_.c_str()) == 0,
           "cannot rename " + tmp + " -> " + path_ + ": " + std::strerror(errno));
  fsync_parent_dir(path_);
  have_base_ = true;
  buffer_.clear();
  util::FaultInjector::instance().probe(fault_site_);
}

void grid_names(const ExperimentSpec& spec, std::vector<std::string>& adversaries,
                std::vector<std::string>& placements) {
  adversaries = spec.adversaries;
  placements.clear();
  for (const FaultPattern& p : spec.placements) placements.push_back(p.name);
  if (placements.empty()) placements.emplace_back("");
}

util::Json experiment_spec_to_json(const ExperimentSpec& spec) {
  using util::Json;
  SC_CHECK(!spec.adversary_factory,
           "custom adversary factories are not serialisable (use library names)");
  const int sources = static_cast<int>(spec.algo != nullptr) +
                      static_cast<int>(spec.algorithm.has_value()) +
                      static_cast<int>(!spec.variants.empty());
  SC_CHECK(sources == 1, "ExperimentSpec needs exactly one of algo/algorithm/variants");

  Json j = Json::object();
  if (spec.algorithm.has_value()) {
    j.set("algo", to_json(*spec.algorithm));
  } else if (!spec.variants.empty()) {
    Json variants = Json::array();
    for (const counting::AlgorithmSpec& v : spec.variants) variants.push_back(to_json(v));
    j.set("variants", std::move(variants));
  } else {
    const auto algo_spec = counting::describe(spec.algo);
    SC_CHECK(algo_spec.has_value(),
             "algorithm is outside the describable family (see counting/algorithm_spec.hpp)");
    j.set("algo", to_json(*algo_spec));
  }
  Json advs = Json::array();
  for (const std::string& a : spec.adversaries) advs.push_back(Json::string(a));
  j.set("adversaries", std::move(advs));
  j.set("placements", placements_to_json(spec.placements));
  j.set("seeds", Json::number(static_cast<std::int64_t>(spec.seeds)));
  j.set("base_seed", Json::number(spec.base_seed));
  if (!spec.explicit_seeds.empty()) {
    Json seeds = Json::array();
    for (const std::uint64_t s : spec.explicit_seeds) seeds.push_back(Json::number(s));
    j.set("explicit_seeds", std::move(seeds));
  }
  j.set("max_rounds", Json::number(spec.max_rounds));
  j.set("extra_rounds", Json::number(spec.extra_rounds));
  j.set("horizon_override", Json::number(spec.horizon_override));
  j.set("margin", Json::number(spec.margin));
  j.set("stop_after_stable", Json::number(spec.stop_after_stable));
  if (!spec.initial.empty()) {
    const int bits = spec_algorithm(spec)->state_bits();
    Json initial = Json::array();
    for (const State& s : spec.initial) initial.push_back(Json::string(s.to_hex(bits)));
    j.set("initial", std::move(initial));
  }
  j.set("backend",
        Json::string(spec.backend == Backend::kScalar ? "scalar" : "auto"));
  // Written only in sketch mode: exact-mode spec JSON -- and with it the v3
  // partial wire bytes -- stays byte-identical to pre-sketch builds.
  if (spec.stats == util::StatsMode::kSketch) {
    j.set("stats", Json::string("sketch"));
  }
  if (!spec.sinks.empty()) {
    Json sinks = Json::array();
    for (const SinkConfig& s : spec.sinks) sinks.push_back(sink_config_to_json(s));
    j.set("sinks", std::move(sinks));
  }
  return j;
}

ExperimentSpec experiment_spec_from_json(const util::Json& j) {
  ExperimentSpec spec;
  if (const auto* algo = j.find("algo")) {
    spec.algorithm = counting::algorithm_spec_from_json(*algo);
  }
  if (const auto* variants = j.find("variants")) {
    for (std::size_t i = 0; i < variants->size(); ++i) {
      spec.variants.push_back(counting::algorithm_spec_from_json(variants->at(i)));
    }
  }
  SC_CHECK(spec.algorithm.has_value() != !spec.variants.empty(),
           "spec needs exactly one of algo/variants");
  spec.adversaries.clear();
  const util::Json& advs = j.at("adversaries");
  for (std::size_t i = 0; i < advs.size(); ++i) {
    spec.adversaries.push_back(advs.at(i).as_string());
  }
  const util::Json& placements = j.at("placements");
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const util::Json& p = placements.at(i);
    spec.placements.push_back(
        {p.at("name").as_string(), faulty_from_string(p.at("faulty").as_string())});
  }
  spec.seeds = j.at("seeds").as_int();
  spec.base_seed = j.at("base_seed").as_u64();
  if (const auto* seeds = j.find("explicit_seeds")) {
    for (std::size_t i = 0; i < seeds->size(); ++i) {
      spec.explicit_seeds.push_back(seeds->at(i).as_u64());
    }
  }
  spec.max_rounds = j.at("max_rounds").as_u64();
  spec.extra_rounds = j.at("extra_rounds").as_u64();
  spec.horizon_override = j.at("horizon_override").as_u64();
  spec.margin = j.at("margin").as_u64();
  spec.stop_after_stable = j.at("stop_after_stable").as_u64();
  if (const auto* initial = j.find("initial")) {
    for (std::size_t i = 0; i < initial->size(); ++i) {
      spec.initial.push_back(state_from_hex(initial->at(i).as_string()));
    }
  }
  const std::string& backend = j.at("backend").as_string();
  SC_CHECK(backend == "auto" || backend == "scalar", "unknown backend: " + backend);
  spec.backend = backend == "scalar" ? Backend::kScalar : Backend::kAuto;
  if (const auto* stats = j.find("stats")) {
    SC_CHECK(stats->as_string() == "sketch", "unknown stats mode: " + stats->as_string());
    spec.stats = util::StatsMode::kSketch;
  }
  if (const auto* sinks = j.find("sinks")) {
    for (std::size_t i = 0; i < sinks->size(); ++i) {
      spec.sinks.push_back(sink_config_from_json(sinks->at(i)));
    }
  }
  return spec;
}

void write_spec_file(std::ostream& out, const ExperimentSpec& spec) {
  using util::Json;
  Json j = Json::object();
  j.set("format", Json::string(kSpecFormat));
  j.set("version", Json::number(static_cast<std::int64_t>(kSpecVersion)));
  j.set("spec", experiment_spec_to_json(spec));
  out << j.dump() << '\n';
}

ExperimentSpec read_spec_file(std::istream& in, const std::string& source) {
  const auto ctx = [&source](const std::string& what) { return source + ": " + what; };
  std::string line;
  SC_CHECK(static_cast<bool>(std::getline(in, line)), ctx("empty spec file"));
  const util::Json j = parse_wire_line(line, source, 1);
  SC_CHECK(j.has("format") && j.at("format").as_string() == kSpecFormat,
           ctx("not a synccount-spec file"));
  SC_CHECK(j.at("version").as_i64() == kSpecVersion,
           ctx("unsupported spec version " + j.at("version").dump() + " (want " +
               std::to_string(kSpecVersion) + ")"));
  return experiment_spec_from_json(j.at("spec"));
}

util::Json aggregate_to_json(const AggregateResult& agg) {
  using util::Json;
  Json j = Json::object();
  j.set("runs", Json::number(agg.runs));
  j.set("stabilised", Json::number(agg.stabilised));
  j.set("max_pulls", Json::number(agg.max_pulls));
  j.set("stabilisation", to_json(agg.stabilisation));
  j.set("rounds", to_json(agg.rounds));
  j.set("avg_pulls", to_json(agg.avg_pulls));
  return j;
}

AggregateResult aggregate_from_json(const util::Json& j) {
  AggregateResult agg;
  agg.runs = j.at("runs").as_u64();
  agg.stabilised = j.at("stabilised").as_u64();
  agg.max_pulls = j.at("max_pulls").as_u64();
  agg.stabilisation = util::streaming_stats_from_json(j.at("stabilisation"));
  agg.rounds = util::streaming_stats_from_json(j.at("rounds"));
  agg.avg_pulls = util::streaming_stats_from_json(j.at("avg_pulls"));
  SC_CHECK(agg.rounds.count() == agg.runs && agg.avg_pulls.count() == agg.runs &&
               agg.stabilisation.count() == agg.stabilised,
           "aggregate sample counts disagree with run counts");
  return agg;
}

AggregateResult ShardPartial::total() const {
  AggregateResult total;
  for (const Group& g : groups) total.merge(g.aggregate);
  return total;
}

ShardPartial make_partial(const ExperimentSpec& spec, const ShardPlan& plan,
                          const ExperimentResult& result) {
  ShardPartial partial;
  partial.plan = plan;
  partial.spec = experiment_spec_to_json(spec);
  derive_grid(partial);
  SC_CHECK(plan.group_end <= grid_groups(partial), "shard plan does not fit the grid");
  SC_CHECK(result.groups.empty() || result.groups.size() == plan.groups(),
           "result does not cover the shard's groups");
  const std::size_t n_pl = partial.placement_names.size();
  for (std::size_t g = plan.group_begin; g < plan.group_end; ++g) {
    ShardPartial::Group group;
    group.group = g;
    // Engine::run folded each group once; only a result assembled by hand
    // (without `groups`) is re-folded from its cells.
    group.aggregate = result.groups.empty() ? result.aggregate(g / n_pl, g % n_pl)
                                            : result.groups[g - plan.group_begin];
    SC_CHECK(group.aggregate.runs == static_cast<std::uint64_t>(partial.seeds),
             "result does not cover the shard's cells");
    partial.groups.push_back(std::move(group));
  }
  return partial;
}

void write_partial_header(std::ostream& out, const ShardPlan& plan, const util::Json& spec) {
  using util::Json;
  Json header = Json::object();
  header.set("format", Json::string(kPartialFormat));
  header.set("version", Json::number(static_cast<std::int64_t>(partial_version_for(spec))));
  header.set("shards", Json::number(static_cast<std::int64_t>(plan.shards)));
  header.set("shard", Json::number(static_cast<std::int64_t>(plan.shard)));
  header.set("group_begin", Json::number(static_cast<std::uint64_t>(plan.group_begin)));
  header.set("group_end", Json::number(static_cast<std::uint64_t>(plan.group_end)));
  header.set("spec", spec);
  out << crc_frame(header.dump()) << '\n';
}

void write_partial_group(std::ostream& out, std::size_t group,
                         const std::vector<std::string>& adversaries,
                         const std::vector<std::string>& placements,
                         const AggregateResult& aggregate) {
  using util::Json;
  const std::size_t n_pl = placements.size();
  Json line = Json::object();
  line.set("group", Json::number(static_cast<std::uint64_t>(group)));
  line.set("adversary", Json::string(adversaries[group / n_pl]));
  line.set("placement", Json::string(placements[group % n_pl]));
  line.set("aggregate", aggregate_to_json(aggregate));
  out << crc_frame(line.dump()) << '\n';
}

void write_partial(std::ostream& out, const ShardPartial& partial) {
  write_partial_header(out, partial.plan, partial.spec);
  for (const ShardPartial::Group& g : partial.groups) {
    write_partial_group(out, g.group, partial.adversaries, partial.placement_names,
                        g.aggregate);
  }
}

ShardPartial read_partial(std::istream& in, const std::string& source) {
  const auto ctx = [&source](const std::string& what) { return source + ": " + what; };
  std::string line;
  SC_CHECK(static_cast<bool>(std::getline(in, line)), ctx("empty partial file"));
  const util::Json header = parse_framed_line(line, source, 1);
  SC_CHECK(header.has("format") && header.at("format").as_string() == kPartialFormat,
           ctx("not a sweep-partial file"));
  const std::int64_t version = header.at("version").as_i64();
  SC_CHECK(version == kPartialVersion || version == kPartialVersionSketch,
           ctx("unsupported format version " + header.at("version").dump() + " (want " +
               std::to_string(kPartialVersion) + " or " +
               std::to_string(kPartialVersionSketch) + ")"));
  SC_CHECK(version == partial_version_for(header.at("spec")),
           ctx("format version disagrees with the spec's stats mode"));

  ShardPartial partial;
  partial.source = source;
  partial.plan.shards = header.at("shards").as_int();
  partial.plan.shard = header.at("shard").as_int();
  partial.plan.group_begin = header.at("group_begin").as_u64();
  partial.plan.group_end = header.at("group_end").as_u64();
  partial.spec = header.at("spec");
  derive_grid(partial);
  SC_CHECK(partial.plan.shards >= 1 && partial.plan.shard >= 0 &&
               partial.plan.shard < partial.plan.shards,
           ctx("bad shard coordinates"));
  SC_CHECK(partial.plan.group_begin <= partial.plan.group_end &&
               partial.plan.group_end <= grid_groups(partial),
           ctx("shard group range does not fit the grid"));

  const std::size_t n_pl = partial.placement_names.size();
  std::size_t expected = partial.plan.group_begin;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const util::Json g = parse_framed_line(line, source, line_no);
    SC_CHECK(!g.has("format"), ctx("duplicate header line (two partials concatenated?)"));
    SC_CHECK(expected < partial.plan.group_end,
             ctx("group line past the declared shard range"));
    ShardPartial::Group group;
    group.group = g.at("group").as_u64();
    SC_CHECK(group.group == expected, ctx("group lines out of order"));
    SC_CHECK(g.at("adversary").as_string() == partial.adversaries[group.group / n_pl] &&
                 g.at("placement").as_string() == partial.placement_names[group.group % n_pl],
             ctx("group coordinates disagree with the grid"));
    try {
      group.aggregate = aggregate_from_json(g.at("aggregate"));
    } catch (const std::invalid_argument& e) {
      // Name the shard file and line: the merge caller sees immediately
      // WHICH worker's partial is corrupt.
      throw std::invalid_argument(source + ":" + std::to_string(line_no) +
                                  ": corrupt aggregate for group " +
                                  std::to_string(group.group) + ": " + e.what());
    }
    partial.groups.push_back(std::move(group));
    ++expected;
  }
  SC_CHECK(expected == partial.plan.group_end, ctx("partial is missing group lines"));
  return partial;
}

ShardPartial merge_partials(std::vector<ShardPartial> parts) {
  SC_CHECK(!parts.empty(), "nothing to merge");
  std::sort(parts.begin(), parts.end(),
            [](const ShardPartial& a, const ShardPartial& b) {
              return a.plan.shard < b.plan.shard;
            });
  const std::string spec_dump = parts.front().spec.dump();
  const int shards = parts.front().plan.shards;
  SC_CHECK(parts.size() == static_cast<std::size_t>(shards),
           "expected " + std::to_string(shards) + " partials, got " +
               std::to_string(parts.size()));

  ShardPartial merged;
  merged.plan.shards = 1;
  merged.plan.shard = 0;
  merged.plan.group_begin = 0;
  merged.spec = parts.front().spec;
  derive_grid(merged);

  std::size_t next_group = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    ShardPartial& p = parts[i];
    // Merge diagnostics name the offending worker file whenever the partial
    // was read from one, so a corrupt or mismatched shard is identifiable
    // without binary-searching K inputs.
    const std::string who = "shard " + std::to_string(p.plan.shard) +
                            (p.source.empty() ? "" : " (" + p.source + ")");
    SC_CHECK(p.plan.shard == static_cast<int>(i),
             "duplicate or missing shard index at " + who);
    SC_CHECK(p.plan.shards == shards, who + " disagrees on the shard count");
    SC_CHECK(p.spec.dump() == spec_dump,
             who + " comes from a different experiment spec: " +
                 describe_spec_mismatch(parts.front().spec, p.spec));
    SC_CHECK(p.plan.group_begin == next_group,
             "shard group ranges do not concatenate at " + who);
    next_group = p.plan.group_end;
    for (ShardPartial::Group& g : p.groups) merged.groups.push_back(std::move(g));
  }
  SC_CHECK(next_group == grid_groups(merged), "partials do not cover the whole grid");
  merged.plan.group_end = next_group;
  return merged;
}

std::string describe_spec_mismatch(const util::Json& wanted, const util::Json& found) {
  const auto clip = [](std::string s) {
    if (s.size() > 48) s = s.substr(0, 45) + "...";
    return s;
  };
  std::string out;
  const auto add = [&out](const std::string& part) {
    if (!out.empty()) out += "; ";
    out += part;
  };
  for (const auto& [key, want] : wanted.members()) {
    const util::Json* got = found.find(key);
    if (got == nullptr) {
      add(key + ": missing (want " + clip(want.dump()) + ")");
    } else if (got->dump() != want.dump()) {
      add(key + ": found " + clip(got->dump()) + ", want " + clip(want.dump()));
    }
  }
  for (const auto& [key, got] : found.members()) {
    if (!wanted.has(key)) add(key + ": unexpected " + clip(got.dump()));
  }
  return out;
}

CheckpointState read_checkpoint(const std::string& path, const ExperimentSpec& spec,
                                const ShardPlan& plan) {
  CheckpointState state;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return state;  // no file yet: fresh start

  const auto ctx = [&path](const std::string& what) { return path + ": " + what; };
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (content.empty()) return state;

  // Walk complete ('\n'-terminated) lines only; a line the dying worker
  // never finished is not part of the resumable prefix.
  std::size_t pos = 0;
  std::size_t line_no = 0;
  std::vector<std::string> adversaries, placements;
  grid_names(spec, adversaries, placements);
  const std::string expected_spec = experiment_spec_to_json(spec).dump();
  std::size_t expected_group = plan.group_begin;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // incomplete last line: stop here
    const std::string line = content.substr(pos, nl - pos);
    ++line_no;
    if (!state.header_present) {
      // Header damage is not resumable-from-zero: silently restarting would
      // clobber a file the caller thought held progress.
      const util::Json header = parse_framed_line(line, path, line_no);
      SC_CHECK(header.has("format") && header.at("format").as_string() == kPartialFormat,
               ctx("not a checkpoint (sweep-partial) file"));
      SC_CHECK(header.at("version").as_i64() ==
                   partial_version_for(experiment_spec_to_json(spec)),
               ctx("unsupported format version"));
      SC_CHECK(header.at("spec").dump() == expected_spec,
               ctx("checkpoint belongs to a different experiment spec -- mismatched " +
                   describe_spec_mismatch(experiment_spec_to_json(spec),
                                          header.at("spec"))));
      SC_CHECK(header.at("shards").as_int() == plan.shards &&
                   header.at("shard").as_int() == plan.shard &&
                   header.at("group_begin").as_u64() == plan.group_begin &&
                   header.at("group_end").as_u64() == plan.group_end,
               ctx("checkpoint belongs to a different shard plan"));
      state.header_present = true;
    } else {
      // Group lines: accept the well-formed in-order prefix, stop at the
      // first line that does not extend it (a bad CRC is the usual crash
      // signature: the dying worker tore the line mid-write).
      util::Json g;
      try {
        g = util::Json::parse(crc_unframe(line, path, line_no));
        if (!g.has("group") || g.at("group").as_u64() != expected_group ||
            expected_group >= plan.group_end) {
          break;
        }
        (void)aggregate_from_json(g.at("aggregate"));
      } catch (const std::invalid_argument&) {
        break;
      }
      ++expected_group;
    }
    pos = nl + 1;
    state.valid_bytes = pos;
  }
  state.next_group = state.header_present ? expected_group : plan.group_begin;
  return state;
}

void truncate_to_lines(const std::string& path, std::uint64_t lines) {
  // Streaming scan + in-place resize: resumed trace files can be huge (the
  // whole point of streaming sinks), so never slurp or rewrite them.
  std::uint64_t keep_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary);
    SC_CHECK(in.good(), "cannot open for truncation: " + path);
    std::uint64_t seen = 0;
    char buf[1 << 16];
    while (seen < lines && in) {
      in.read(buf, sizeof(buf));
      const std::streamsize got = in.gcount();
      for (std::streamsize i = 0; i < got && seen < lines; ++i) {
        ++keep_bytes;
        if (buf[i] == '\n') ++seen;
      }
    }
    SC_CHECK(seen == lines, path + ": has only " + std::to_string(seen) +
                                " complete lines, need " + std::to_string(lines));
  }
  std::filesystem::resize_file(path, keep_bytes);
}

}  // namespace synccount::sim
