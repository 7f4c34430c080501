#include "serve/queue.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "counting/algorithm_spec.hpp"
#include "counting/table_io.hpp"
#include "sim/engine.hpp"
#include "synthesis/portfolio.hpp"
#include "util/check.hpp"

namespace synccount::serve {

namespace fs = std::filesystem;
using util::Json;

namespace {

constexpr const char* kJobFormat = "synccount-serve-job";
constexpr int kJobVersion = 1;
constexpr const char* kSynthResultFormat = "synccount-synth-result";
constexpr int kSynthResultVersion = 1;

bool is_synth_spec(const Json& spec_json) {
  const Json* kind = spec_json.find("kind");
  return kind != nullptr && kind->type() == Json::Type::kString &&
         kind->as_string() == "synth";
}

// One parsed cube-verdict line of a job-<name>.cubes.jsonl file (also the
// line shape of synth results). Shared by record_cube (fresh records),
// load_job (restart replay) and parse_synth_results (clients).
struct CubeRecord {
  std::uint64_t cube = 0;
  std::string verdict;
  int config = -1;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t restarts = 0;
  std::string table;  // counting table text; non-empty iff verdict == "sat"
};

Json cube_record_to_json(const CubeRecord& r) {
  Json j = Json::object();
  j.set("cube", Json::number(r.cube));
  j.set("verdict", Json::string(r.verdict));
  j.set("config", Json::number(static_cast<std::int64_t>(r.config)));
  j.set("conflicts", Json::number(r.conflicts));
  j.set("decisions", Json::number(r.decisions));
  j.set("restarts", Json::number(r.restarts));
  if (!r.table.empty()) j.set("table", Json::string(r.table));
  return j;
}

CubeRecord cube_record_from_json(const Json& j, const std::string& ctx) {
  CubeRecord r;
  r.cube = j.at("cube").as_u64();
  r.verdict = j.at("verdict").as_string();
  r.config = static_cast<int>(j.at("config").as_int());
  r.conflicts = j.at("conflicts").as_u64();
  r.decisions = j.at("decisions").as_u64();
  r.restarts = j.at("restarts").as_u64();
  if (const Json* t = j.find("table")) r.table = t->as_string();
  SC_CHECK(!r.verdict.empty(), ctx + ": cube record without a verdict");
  return r;
}

// Full validation of one cube record against its job: verdict vocabulary,
// config range, and that a model rides along exactly when the verdict says
// SAT -- with the table parsed and shape-checked against the job's spec so
// a cross-job (or corrupted) model can never be recorded.
void validate_cube_record(const synthesis::SynthJobSpec& synth, std::uint64_t groups,
                          const CubeRecord& r, const std::string& ctx) {
  SC_CHECK(r.cube < groups, ctx + ": cube " + std::to_string(r.cube) +
                                " outside the job's 2^" +
                                std::to_string(synth.cube_depth) + " cubes");
  const synthesis::CubeVerdict v = synthesis::cube_verdict_from_string(r.verdict);
  if (v == synthesis::CubeVerdict::kUnknown) {
    SC_CHECK(r.config == -1, ctx + ": unknown verdict names a resolving config");
  } else {
    SC_CHECK(r.config >= 0 && r.config < synth.portfolio,
             ctx + ": resolving config " + std::to_string(r.config) +
                 " outside the portfolio of " + std::to_string(synth.portfolio));
  }
  if (v == synthesis::CubeVerdict::kSat) {
    SC_CHECK(!r.table.empty(), ctx + ": SAT cube without a model table");
    const counting::TransitionTable table = counting::table_from_string(r.table);
    SC_CHECK(table.n == synth.spec.n && table.f == synth.spec.f &&
                 table.num_states == synth.spec.num_states,
             ctx + ": model table shape does not match the job's spec");
  } else {
    SC_CHECK(r.table.empty(), ctx + ": non-SAT cube carries a model table");
  }
}

}  // namespace

bool valid_job_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string JobQueue::spec_path(const std::string& name) const {
  return dir_ + "/job-" + name + ".spec.json";
}

std::string JobQueue::done_path(const Job& job) const {
  return dir_ + "/job-" + job.name +
         (job.kind == Job::Kind::kSynth ? ".cubes.jsonl" : ".done.jsonl");
}

std::uint64_t JobQueue::required_groups(const Job& job) {
  // Once a synth job has a SAT cube W, only cubes 0..W still matter; higher
  // cubes are moot and the job drains to this shrunken target.
  if (job.kind == Job::Kind::kSynth && job.min_sat < job.groups) {
    return job.min_sat + 1;
  }
  return job.groups;
}

std::uint64_t JobQueue::required_done(const Job& job) {
  const std::uint64_t limit = required_groups(job);
  std::uint64_t n = 0;
  for (const auto& [group, line] : job.done) {
    if (group < limit) ++n;
  }
  return n;
}

JobQueue::Job JobQueue::make_job(std::string name, Json spec_json) {
  // Round-trip through the typed struct: validates the spec and
  // canonicalizes the serialization, so idempotent-resubmit comparison and
  // results_text are byte-exact against any other serialization of the same
  // spec.
  Job job;
  job.name = std::move(name);
  if (is_synth_spec(spec_json)) {
    job.kind = Job::Kind::kSynth;
    job.synth = synthesis::SynthJobSpec::from_json(spec_json);
    job.spec = job.synth.to_json();
    job.groups = std::uint64_t{1} << job.synth.cube_depth;
  } else {
    const sim::ExperimentSpec parsed = sim::experiment_spec_from_json(spec_json);
    for (const sim::SinkConfig& cfg : parsed.sinks) {
      SC_CHECK(cfg.kind == sim::SinkConfig::Kind::kProgress,
               "job \"" + job.name +
                   "\": file-writing sinks (trace/checkpoint) are worker-local and not "
                   "supported in service jobs -- strip them from the spec");
    }
    job.spec = sim::experiment_spec_to_json(parsed);
    job.groups = sim::group_count(parsed);
    SC_CHECK(job.groups > 0, "job \"" + job.name + "\": empty experiment grid");
    sim::grid_names(parsed, job.adversaries, job.placements);
  }
  job.min_sat = job.groups;  // "no SAT cube recorded yet"
  return job;
}

JobQueue::JobQueue(std::string dir) : dir_(std::move(dir)) {
  SC_CHECK(!dir_.empty(), "job queue needs a state directory");
  fs::create_directories(dir_);
  std::vector<std::string> spec_files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("job-", 0) == 0 && file.size() > 14 &&
        file.compare(file.size() - 10, 10, ".spec.json") == 0) {
      spec_files.push_back(entry.path().string());
    }
  }
  // Directory iteration order is unspecified; a restarted daemon must hand
  // out work in a reproducible order.
  std::sort(spec_files.begin(), spec_files.end());
  for (const std::string& file : spec_files) load_job(file);
}

void JobQueue::load_job(const std::string& spec_file) {
  std::ifstream in(spec_file, std::ios::binary);
  SC_CHECK(in.good(), "cannot read job file: " + spec_file);
  std::string line;
  SC_CHECK(std::getline(in, line), spec_file + ": empty job file");
  const Json meta = Json::parse(sim::crc_unframe(line, spec_file, 1));
  SC_CHECK(meta.has("format") && meta.at("format").as_string() == kJobFormat,
           spec_file + ": not a " + std::string(kJobFormat) + " file");
  SC_CHECK(meta.has("version") && meta.at("version").as_int() == kJobVersion,
           spec_file + ": unsupported job version");
  const std::string name = meta.at("job").as_string();
  SC_CHECK(valid_job_name(name), spec_file + ": invalid job name \"" + name + "\"");
  SC_CHECK(spec_path(name) == spec_file,
           spec_file + ": job name \"" + name + "\" does not match the file name");
  Job job = make_job(name, meta.at("spec"));

  // Replay the durably recorded groups. The done file is AtomicAppender-
  // committed (never a torn tail), so every line must verify -- a bad CRC
  // here is real corruption and stops the daemon with a file:line pointer.
  const std::string done_file = done_path(job);
  if (fs::exists(done_file)) {
    std::ifstream done_in(done_file, std::ios::binary);
    SC_CHECK(done_in.good(), "cannot read done file: " + done_file);
    std::size_t line_no = 0;
    while (std::getline(done_in, line)) {
      ++line_no;
      const std::string ctx = done_file + ":" + std::to_string(line_no);
      const Json g = Json::parse(sim::crc_unframe(line, done_file, line_no));
      if (job.kind == Job::Kind::kSynth) {
        const CubeRecord rec = cube_record_from_json(g, ctx);
        validate_cube_record(job.synth, job.groups, rec, ctx);
        job.done.emplace(rec.cube, line + "\n");
        if (rec.verdict == "sat") job.min_sat = std::min(job.min_sat, rec.cube);
        continue;
      }
      const std::uint64_t group = g.at("group").as_u64();
      SC_CHECK(group < job.groups,
               ctx + ": group " + std::to_string(group) + " outside the job's grid");
      // Parse the aggregate too: restart is the one moment we can still
      // point at the damaged file instead of merging garbage later.
      (void)sim::aggregate_from_json(g.at("aggregate"));
      job.done.emplace(group, line + "\n");
    }
  }
  job.done_file = std::make_unique<sim::AtomicAppender>(done_file, /*resume=*/true,
                                                        "serve.job.done");
  submit_order_.push_back(job.name);
  jobs_.emplace(job.name, std::move(job));
}

JobQueue::SubmitOutcome JobQueue::submit(const std::string& name, const Json& spec_json) {
  SC_CHECK(valid_job_name(name),
           "invalid job name \"" + name + "\" (want [A-Za-z0-9._-]{1,64})");
  Job job = make_job(name, spec_json);
  if (job.kind == Job::Kind::kSweep) {
    // The margin cliff is refused at submit only: a reloaded queue keeps
    // serving the jobs it already accepted.
    const sim::ExperimentSpec parsed = sim::experiment_spec_from_json(job.spec);
    if (parsed.variants.empty()) sim::check_margin(parsed, *sim::spec_algorithm(parsed));
    for (const counting::AlgorithmSpec& v : parsed.variants) {
      sim::check_margin(parsed, *counting::build(v));
    }
  }
  const auto it = jobs_.find(name);
  if (it != jobs_.end()) {
    // Idempotent resubmit (a client that never heard the response retries);
    // a different grid under the same name is always a caller mistake.
    SC_CHECK(it->second.spec.dump() == job.spec.dump(),
             "job \"" + name + "\" already exists with a different spec -- mismatched " +
                 sim::describe_spec_mismatch(job.spec, it->second.spec));
    return {it->second.groups, static_cast<std::uint64_t>(it->second.done.size()), true};
  }

  Json meta = Json::object();
  meta.set("format", Json::string(kJobFormat));
  meta.set("version", Json::number(kJobVersion));
  meta.set("job", Json::string(name));
  meta.set("spec", job.spec);
  // A new job starts with no done file: load_job reads a missing one as
  // nothing recorded, and the first record creates it. A leftover one (no
  // op removes jobs, so only a hand-edited state dir holds one) must not be
  // replayed; the spec publish's directory fsync makes its removal durable.
  for (const char* suffix : {".done.jsonl", ".cubes.jsonl"}) {
    std::error_code ec;
    fs::remove(dir_ + "/job-" + name + suffix, ec);
    SC_CHECK(!ec, "cannot remove a stale done file of job \"" + name + "\": " + ec.message());
  }
  sim::atomic_write_file(spec_path(name), sim::crc_frame(meta.dump()) + "\n",
                         "serve.job.spec");
  job.done_file = std::make_unique<sim::AtomicAppender>(done_path(job),
                                                        /*resume=*/false,
                                                        "serve.job.done");

  const std::uint64_t groups = job.groups;
  submit_order_.push_back(name);
  jobs_.emplace(name, std::move(job));
  return {groups, 0, false};
}

bool JobQueue::assign(std::uint64_t max_groups,
                      const std::function<bool(const std::string&, std::uint64_t)>& held,
                      Assignment& out) const {
  SC_CHECK(max_groups > 0, "assignment needs max_groups >= 1");
  for (const std::string& name : submit_order_) {
    const Job& job = jobs_.at(name);
    // Synth jobs drain once a SAT cube is recorded: cubes above the winner
    // candidate are moot and never assigned again.
    const std::uint64_t bound = required_groups(job);
    for (std::uint64_t g = 0; g < bound; ++g) {
      if (job.done.count(g) != 0 || held(name, g)) continue;
      std::uint64_t end = g + 1;
      while (end < bound && end - g < max_groups && job.done.count(end) == 0 &&
             !held(name, end)) {
        ++end;
      }
      out.job = name;
      out.group_begin = g;
      out.group_end = end;
      out.spec = &job.spec;
      return true;
    }
  }
  return false;
}

bool JobQueue::record_done(const std::string& job_name, std::uint64_t group,
                           const std::string& adversary, const std::string& placement,
                           const Json& aggregate) {
  const auto it = jobs_.find(job_name);
  SC_CHECK(it != jobs_.end(), "unknown job \"" + job_name + "\"");
  Job& job = it->second;
  SC_CHECK(job.kind == Job::Kind::kSweep,
           "job \"" + job_name + "\" is a synth job -- complete cubes, not groups");
  SC_CHECK(group < job.groups, "job \"" + job_name + "\": group " +
                                   std::to_string(group) + " outside the grid of " +
                                   std::to_string(job.groups) + " groups");
  const std::string& want_adv = job.adversaries[group / job.placements.size()];
  const std::string& want_pl = job.placements[group % job.placements.size()];
  SC_CHECK(adversary == want_adv && placement == want_pl,
           "job \"" + job_name + "\": group " + std::to_string(group) + " is (" +
               want_adv + ", " + want_pl + "), not (" + adversary + ", " + placement +
               ") -- worker/daemon grid disagreement");
  // Validate the aggregate's own invariants before anything durable
  // happens; the canonical line below re-serializes the parsed form.
  const sim::AggregateResult agg = sim::aggregate_from_json(aggregate);

  if (job.done.count(group) != 0) return false;  // benign duplicate
  std::ostringstream os;
  sim::write_partial_group(os, static_cast<std::size_t>(group), job.adversaries,
                           job.placements, agg);
  job.done_file->append(os.str());
  job.done_file->commit();
  job.done.emplace(group, os.str());
  return true;
}

bool JobQueue::record_cube(const std::string& job_name, std::uint64_t cube,
                           const std::string& verdict, int config,
                           std::uint64_t conflicts, std::uint64_t decisions,
                           std::uint64_t restarts, const std::string& table_text) {
  const auto it = jobs_.find(job_name);
  SC_CHECK(it != jobs_.end(), "unknown job \"" + job_name + "\"");
  Job& job = it->second;
  SC_CHECK(job.kind == Job::Kind::kSynth,
           "job \"" + job_name + "\" is a sweep job -- complete groups, not cubes");
  CubeRecord rec;
  rec.cube = cube;
  rec.verdict = verdict;
  rec.config = config;
  rec.conflicts = conflicts;
  rec.decisions = decisions;
  rec.restarts = restarts;
  rec.table = table_text;
  validate_cube_record(job.synth, job.groups, rec, "job \"" + job_name + "\"");

  if (job.done.count(cube) != 0) return false;  // benign duplicate
  const std::string line = sim::crc_frame(cube_record_to_json(rec).dump()) + "\n";
  job.done_file->append(line);
  job.done_file->commit();
  job.done.emplace(cube, line);
  if (rec.verdict == "sat") job.min_sat = std::min(job.min_sat, cube);
  return true;
}

std::vector<JobQueue::JobStatus> JobQueue::status() const {
  std::vector<JobStatus> out;
  for (const std::string& name : submit_order_) {
    const Job& job = jobs_.at(name);
    // Synth jobs report against the drained target: finding a SAT cube
    // visibly collapses groups to winner+1.
    const std::uint64_t groups = required_groups(job);
    const std::uint64_t done = required_done(job);
    out.push_back({name, job.kind == Job::Kind::kSynth ? "synth" : "sweep", groups,
                   done, done == groups});
  }
  return out;
}

bool JobQueue::job_complete(const std::string& name) const {
  const auto it = jobs_.find(name);
  SC_CHECK(it != jobs_.end(), "unknown job \"" + name + "\"");
  return required_done(it->second) == required_groups(it->second);
}

std::uint64_t JobQueue::pending_groups() const {
  std::uint64_t pending = 0;
  for (const auto& [name, job] : jobs_) pending += required_groups(job) - required_done(job);
  return pending;
}

std::string JobQueue::results_text(const std::string& name) const {
  const auto it = jobs_.find(name);
  SC_CHECK(it != jobs_.end(), "unknown job \"" + name + "\"");
  const Job& job = it->second;
  const std::uint64_t limit = required_groups(job);
  SC_CHECK(required_done(job) == limit,
           "job \"" + name + "\" incomplete: " + std::to_string(required_done(job)) +
               "/" + std::to_string(limit) + " groups done");
  std::ostringstream os;
  if (job.kind == Job::Kind::kSynth) {
    // Only the deterministic prefix is emitted: cubes 0..W (W = the lowest
    // SAT cube), or every cube when none is SAT. Any worker/kill schedule
    // that completes the job produces these exact bytes.
    Json meta = Json::object();
    meta.set("format", Json::string(kSynthResultFormat));
    meta.set("version", Json::number(kSynthResultVersion));
    meta.set("job", Json::string(name));
    meta.set("spec", job.spec);
    os << sim::crc_frame(meta.dump()) << "\n";
    for (const auto& [cube, line] : job.done) {
      if (cube < limit) os << line;  // map: cube order
    }
    return os.str();
  }
  sim::ShardPlan plan;
  plan.shards = 1;
  plan.shard = 0;
  plan.group_begin = 0;
  plan.group_end = static_cast<std::size_t>(job.groups);
  sim::write_partial_header(os, plan, job.spec);
  for (const auto& [group, line] : job.done) os << line;  // map: group order
  return os.str();
}

SynthResults parse_synth_results(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  SC_CHECK(std::getline(in, line), "empty synth results");
  const Json meta = Json::parse(sim::crc_unframe(line, "synth-results", 1));
  SC_CHECK(meta.has("format") && meta.at("format").as_string() == kSynthResultFormat,
           "not a " + std::string(kSynthResultFormat) + " file");
  SC_CHECK(meta.has("version") && meta.at("version").as_int() == kSynthResultVersion,
           "unsupported synth results version");
  SynthResults out;
  out.job = meta.at("job").as_string();
  out.spec = synthesis::SynthJobSpec::from_json(meta.at("spec"));
  const std::uint64_t groups = std::uint64_t{1} << out.spec.cube_depth;
  std::size_t line_no = 1;
  std::uint64_t next_cube = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string ctx = "synth-results:" + std::to_string(line_no);
    const Json g = Json::parse(sim::crc_unframe(line, "synth-results", line_no));
    const CubeRecord rec = cube_record_from_json(g, ctx);
    validate_cube_record(out.spec, groups, rec, ctx);
    SC_CHECK(rec.cube == next_cube, ctx + ": cube lines out of order");
    SC_CHECK(!out.found, ctx + ": cube line after the winning SAT cube");
    ++next_cube;
    if (rec.verdict == "sat") {
      out.found = true;
      out.winning_cube = rec.cube;
      out.table_text = rec.table;
    }
    out.cubes.push_back({rec.cube, rec.verdict, rec.config, rec.conflicts,
                         rec.decisions, rec.restarts, rec.table});
  }
  SC_CHECK(out.found || next_cube == groups,
           "synth results without a winner must cover every cube");
  return out;
}

}  // namespace synccount::serve
