// Durable work queue of the sweep service.
//
// A job is either a sweep (one ExperimentSpec whose (adversary, placement)
// cell-groups are handed out to workers and recorded back one at a time) or
// a synthesis cube job (one synthesis::SynthJobSpec whose 2^cube_depth
// cubes are the leased unit -- the distributed half of the parallel
// synthesis engine, see synthesis/portfolio.hpp). Everything the queue
// knows lives on disk under one state directory, written with the
// crash-safe primitives of sim/experiment_io.hpp, so a SIGKILL'd daemon
// restarts from the directory with no lost completed work:
//
//   job-<name>.spec.json    one CRC-framed line (atomic_write_file):
//                           {"format":"synccount-serve-job","version":1,
//                            "job":NAME,"spec":{...ExperimentSpec... |
//                                               ...SynthJobSpec...}}
//   job-<name>.done.jsonl   (sweep) one CRC-framed group line per durably
//                           recorded group, in COMPLETION order
//                           (AtomicAppender: never a torn tail) -- each line
//                           is byte-for-byte a v3 partial-file group line
//   job-<name>.cubes.jsonl  (synth) one CRC-framed cube-verdict line per
//                           durably recorded cube: {"cube":J,"verdict":
//                           "sat|unsat|unknown","config":C,"conflicts":N,
//                           "decisions":N,"restarts":N[,"table":TEXT]}
//
// submit publishes the spec file only (one durable write). The done or
// cubes file appears with the job's first record; until then a missing
// file means nothing recorded. submit removes a leftover one first.
//
// Because sweep done lines are canonical partial-file group lines,
// assembling a finished job's result is pure concatenation: header + done
// lines sorted by group index, byte-identical to a single-process `sweep
// --spec --emit` run of the same spec (the chaos differential test enforces
// this).
//
// Synth jobs inherit the determinism contract: every cube's verdict line is
// the output of the canonical priority scan (synthesis::solve_cube), which
// is deterministic per (spec, cube), and "first SAT cube wins" means first
// in CUBE order, not arrival order. Once a SAT cube W is recorded, cubes
// above W are moot and never again assigned (the job drains); the job is
// complete when every cube below W is recorded too (or all cubes are, when
// none is SAT), and results_text emits exactly cubes 0..W -- so a chaos run
// with any worker/kill schedule produces byte-identical results.
//
// The queue tracks WHAT is done; WHO is currently working is the
// LeaseTable's problem (serve/lease.hpp) -- assignment takes a `held`
// predicate so the two stay decoupled and independently testable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment_io.hpp"
#include "synthesis/cube.hpp"
#include "util/json.hpp"

namespace synccount::serve {

// Filesystem-safe job names: [A-Za-z0-9._-], 1..64 chars, not starting
// with '.' (no surprise dotfiles / traversal in the state dir).
bool valid_job_name(const std::string& name);

class JobQueue {
 public:
  // Creates `dir` if missing and loads every job found in it. Throws
  // std::invalid_argument naming file and line on corrupt state (the
  // crash-safe writers never produce torn state, so corruption is real
  // damage, not an interrupted write).
  explicit JobQueue(std::string dir);

  struct SubmitOutcome {
    std::uint64_t groups = 0;
    std::uint64_t done = 0;
    bool existed = false;
  };

  // Registers a job, durably. Idempotent: re-submitting an identical spec
  // under an existing name reports existed=true; a DIFFERENT spec under an
  // existing name throws, naming the mismatched fields. `spec_json` must be
  // the canonical serialization (experiment_spec_to_json of the parsed
  // spec); file-writing sinks are rejected (worker-local paths are
  // meaningless on a fleet).
  SubmitOutcome submit(const std::string& name, const util::Json& spec_json);

  struct Assignment {
    std::string job;
    std::uint64_t group_begin = 0;
    std::uint64_t group_end = 0;
    const util::Json* spec = nullptr;  // owned by the queue
  };

  // First-fit over jobs in submit order: the first contiguous run (up to
  // max_groups long) of groups neither done nor held(job, group). False
  // when nothing is assignable right now.
  bool assign(std::uint64_t max_groups,
              const std::function<bool(const std::string&, std::uint64_t)>& held,
              Assignment& out) const;

  // Durably records one finished group: validates the job, range, grid
  // names, and the aggregate itself (parse + invariants) before appending
  // to the done file. False on a benign duplicate (first write wins; the
  // engine is deterministic, so duplicates are byte-identical). Throws on
  // anything inconsistent with the job's grid. Sweep jobs only.
  bool record_done(const std::string& job, std::uint64_t group,
                   const std::string& adversary, const std::string& placement,
                   const util::Json& aggregate);

  // Durably records one solved cube of a synth job: verdict is
  // "sat"/"unsat"/"unknown", table_text the counting::table_to_string form
  // of the decoded model (required for sat, forbidden otherwise). False on
  // a benign duplicate; the canonical scan is deterministic, so duplicates
  // are byte-identical. A recorded SAT cube lowers the job's winner
  // candidate: higher cubes stop being assignable.
  bool record_cube(const std::string& job, std::uint64_t cube,
                   const std::string& verdict, int config,
                   std::uint64_t conflicts, std::uint64_t decisions,
                   std::uint64_t restarts, const std::string& table_text);

  struct JobStatus {
    std::string name;
    std::string kind;  // "sweep" | "synth"
    std::uint64_t groups = 0;
    std::uint64_t done = 0;
    bool complete = false;
  };
  std::vector<JobStatus> status() const;

  bool has_job(const std::string& name) const { return jobs_.count(name) != 0; }
  bool job_complete(const std::string& name) const;

  // Groups not yet durably done, across all jobs (an idle worker exits
  // only when this hits zero).
  std::uint64_t pending_groups() const;

  // The finished job's results: for sweep jobs the full shard-partial file
  // (header + group lines in group order); for synth jobs a
  // synccount-synth-result file (header + cube-verdict lines 0..W in cube
  // order, where W is the winning cube -- or every cube when none is SAT).
  // Throws while the job is incomplete, reporting done/total.
  std::string results_text(const std::string& name) const;

  const std::string& dir() const noexcept { return dir_; }

 private:
  struct Job {
    enum class Kind { kSweep, kSynth };
    std::string name;
    Kind kind = Kind::kSweep;
    util::Json spec;  // canonical serialized ExperimentSpec / SynthJobSpec
    std::uint64_t groups = 0;
    // Sweep-only grid names.
    std::vector<std::string> adversaries;
    std::vector<std::string> placements;
    // Synth-only: the parsed work unit and the lowest recorded SAT cube
    // (groups when none yet) -- cubes above it are moot.
    synthesis::SynthJobSpec synth;
    std::uint64_t min_sat = 0;
    std::map<std::uint64_t, std::string> done;  // group -> framed line + '\n'
    std::unique_ptr<sim::AtomicAppender> done_file;
  };

  // Groups/cubes this job still needs recorded: all of them for sweeps, only
  // those at or below the winner candidate for synth jobs.
  static std::uint64_t required_groups(const Job& job);
  static std::uint64_t required_done(const Job& job);

  std::string spec_path(const std::string& name) const;
  std::string done_path(const Job& job) const;
  void load_job(const std::string& spec_file);
  static Job make_job(std::string name, util::Json spec_json);

  std::string dir_;
  std::map<std::string, Job> jobs_;        // by name
  std::vector<std::string> submit_order_;  // assignment fairness is FIFO
};

// A parsed synccount-synth-result file (results_text of a synth job): the
// deterministic cube-verdict prefix plus the winner, ready for clients to
// re-verify and compare against a local synthesize_portfolio run.
struct SynthResults {
  std::string job;
  synthesis::SynthJobSpec spec;
  struct CubeLine {
    std::uint64_t cube = 0;
    std::string verdict;  // "sat" | "unsat" | "unknown"
    int config = -1;
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t restarts = 0;
    std::string table_text;  // counting table text, non-empty iff sat
  };
  std::vector<CubeLine> cubes;     // cube order: 0..winner, or all when none
  bool found = false;
  std::uint64_t winning_cube = 0;  // valid when found
  std::string table_text;          // the winning cube's table, when found
};
SynthResults parse_synth_results(const std::string& text);

}  // namespace synccount::serve
