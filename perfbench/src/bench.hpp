// Shared pieces of the synccount benchmark (perfbench): run arguments, the
// metric table every run reports from, the clock, process counters, the span
// tracer, and the timing decorators the traced run wraps around the
// library's Adversary and Sink interfaces.
//
// The benchmark measures the library only through its public entry points
// (sim::Engine::run, serve::Daemon + serve::run_worker,
// synthesis::synthesize_portfolio). Per-layer numbers come from a separate
// traced run that replays the same work through the layers' public functions
// with spans recorded here, in the benchmark's own code.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/sink.hpp"

namespace perfbench {

namespace sim = synccount::sim;

// --- Clock ---------------------------------------------------------------------

// Monotonic nanoseconds; the benchmark's single clock read.
std::int64_t now_ns() noexcept;
inline double seconds_between(std::int64_t t0, std::int64_t t1) noexcept {
  return static_cast<double>(t1 - t0) * 1e-9;
}

// --- Run arguments -------------------------------------------------------------

struct RunArgs {
  std::string workload;     // table_sweep | tower_sweep | fleet_ablation | synth_table
  std::uint64_t seed = 0;   // workload seed; 0 is the default (golden digests)
  double seconds = 10.0;    // measuring time of the run
  bool trace = false;       // per-layer run instead of the end-to-end run
  bool self_check = false;  // tiny sizes, one iteration, golden digests enforced
  std::string work_dir;     // temporary files of this run (removed at exit)
  std::string out_dir;      // span dumps of traced runs (kept)
};

// Stand-alone set-ups per end-to-end run, on top of one per iteration:
// setup_s is the median over all of them.
inline constexpr int kSetupReps = 32;

// The spec's base_seed for a workload seed: seed 0 keeps the engine's
// default base seed, so the default-seed digests match a plain CLI sweep.
inline std::uint64_t base_seed_for(std::uint64_t seed) noexcept { return 0x9000 + seed; }

// --- Metrics -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  // reported by --trace 0 runs; per-layer otherwise
};

// Every metric the benchmark reports, end-to-end and per-layer (mirrors
// BENCHMARK.json; tests/self_check.py keeps the two in step).
const std::vector<MetricDef>& metric_table();

// One run's result: the fields of the final JSON line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;  // why `correct` is false (stderr)
  std::string digest;                 // of the workload's result bytes

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  // Throws std::invalid_argument for a name missing from metric_table().
  void set(const std::string& name, double value);
  // Counts one operation; a failed one also marks the run incorrect.
  void op(bool ok, const std::string& what);
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double p);  // linear interpolation
// Median of per-iteration times without the first iteration, which warms
// caches, the allocator and lazy set-up (kept when it is the only one).
double warm_median(const std::vector<double>& per_iteration);
// One stderr line per measured iteration (diagnostics; stdout stays clean).
void note_iteration(std::size_t index, double setup_s, double time_to_result_s);

// Medians of per-loop metric samples, for runs that repeat a measurement.
class Samples {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  void add_all(const std::map<std::string, double>& m) {
    for (const auto& [k, v] : m) add(k, v);
  }
  void publish(Outcome& out) const {
    for (const auto& [k, v] : values_) out.set(k, median(v));
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

// --- Process counters ----------------------------------------------------------

double peak_rss_mb();         // VmHWM of this process
std::uint64_t io_wchar();     // bytes this process passed to write-class syscalls
std::uint64_t file_size(const std::string& path);
std::string read_file(const std::string& path);

// FNV-1a 64 of `bytes`, as 16 hex digits (result digests).
std::string digest(std::string_view bytes);

// --- Span tracer ---------------------------------------------------------------

// One timed call into a layer. `agg_child_ns` is time of calls too many and
// too short to record one by one (adversary forging inside a run_batch): it
// counts as covered by children when self time is computed.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::string tag;  // e.g. the adversary a run_batch call served
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t agg_child_ns = 0;
  std::uint64_t work = 0;  // node-rounds, cells, ... (span-specific)
};

// Spans kept in memory, written out when the run ends. Thread-safe.
class Tracer {
 public:
  std::uint64_t begin(std::string name, std::uint64_t parent, std::string tag = {});
  void end(std::uint64_t id, std::uint64_t work = 0, std::int64_t agg_child_ns = 0);

  // Sums over closed spans named `name` (and tagged `tag`, unless empty).
  double total_s(const std::string& name, const std::string& tag = {}) const;
  // Duration minus the union of child-span intervals minus agg_child_ns.
  double self_s(const std::string& name, const std::string& tag = {}) const;
  std::uint64_t work(const std::string& name, const std::string& tag = {}) const;
  double agg_child_s(const std::string& name, const std::string& tag = {}) const;
  std::vector<double> durations_s(const std::string& name, const std::string& tag = {}) const;

  void write_jsonl(const std::string& path) const;

 private:
  bool matches(const Span& s, const std::string& name, const std::string& tag) const {
    return s.name == name && (tag.empty() || s.tag == tag);
  }
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::uint64_t parent, std::string tag = {})
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, std::move(tag))) {}
  ~SpanScope() { tracer_.end(id_, work_, agg_child_ns_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const noexcept { return id_; }
  void set_work(std::uint64_t w) noexcept { work_ = w; }
  void set_agg_child_ns(std::int64_t ns) noexcept { agg_child_ns_ = ns; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
  std::uint64_t work_ = 0;
  std::int64_t agg_child_ns_ = 0;
};

// --- Timing decorators ---------------------------------------------------------

// Adversary entry points counted by the decorator.
enum AdversaryEntry : std::size_t {
  kForgeLanesIdx,
  kForgeBlockIdx,
  kForgeBlock,
  kMessage,
  kBeginRound,
  kAdversaryEntries,
};
extern const std::array<const char*, kAdversaryEntries> kAdversaryEntryNames;

// Per-thread adversary time and call counts. A span around a runner call
// reads the delta, so forge time is attributed to the call that caused it
// without a clock read per lane leaving this thread.
struct AdversaryCounters {
  std::int64_t ns = 0;
  std::array<std::uint64_t, kAdversaryEntries> calls{};
};
AdversaryCounters& thread_adversary_counters() noexcept;

// Forwards every virtual of sim::Adversary to `inner` -- the forging entry
// points, all six trait booleans and name() -- so the runners take exactly
// the code path they take for the bare adversary, and times the five entry
// points a runner calls.
class TimedAdversary final : public sim::Adversary {
 public:
  explicit TimedAdversary(std::unique_ptr<sim::Adversary> inner);

  void begin_round(std::uint64_t round, std::span<const sim::State> true_states,
                   const sim::CountingAlgorithm& algo,
                   std::span<const sim::NodeId> faulty_ids, synccount::util::Rng& rng) override;
  sim::State message(std::uint64_t round, sim::NodeId sender, sim::NodeId receiver,
                     std::span<const sim::State> true_states, const sim::CountingAlgorithm& algo,
                     synccount::util::Rng& rng) override;
  void forge_block(std::uint64_t round, std::span<const sim::State> true_states,
                   const sim::CountingAlgorithm& algo, std::span<const sim::NodeId> faulty_ids,
                   std::span<const sim::NodeId> correct_ids, synccount::util::Rng& rng,
                   sim::ForgedRound& out) override;
  bool forge_block_idx(std::uint64_t round, std::span<const sim::State> true_states,
                       const sim::CountingAlgorithm& algo,
                       std::span<const sim::NodeId> faulty_ids,
                       std::span<const sim::NodeId> correct_ids, synccount::util::Rng& rng,
                       sim::ForgedRound& out) override;
  bool forge_lanes_idx(std::uint64_t round, const sim::CountingAlgorithm& algo,
                       std::span<const sim::NodeId> faulty_ids,
                       std::span<const sim::NodeId> correct_ids,
                       std::span<synccount::util::Rng> rngs,
                       std::span<const std::uint64_t> active, std::uint8_t* out_idx,
                       sim::ForgedRound& out) override;

  bool receiver_oblivious() const noexcept override { return inner_->receiver_oblivious(); }
  bool state_oblivious() const noexcept override { return inner_->state_oblivious(); }
  bool begin_round_passive() const noexcept override { return inner_->begin_round_passive(); }
  bool forgery_static() const noexcept override { return inner_->forgery_static(); }
  bool message_draw_free() const noexcept override { return inner_->message_draw_free(); }
  bool batchable() const noexcept override { return inner_->batchable(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::Adversary> inner_;
};

// Forwards every virtual of sim::Sink (wants_*/retain_traces and the four
// callbacks) to `inner`, timing on_cell in aggregate and on_group/on_done as
// spans named "sink.on_group" / "sink.on_done" tagged with `kind`.
class TimedSink final : public sim::Sink {
 public:
  TimedSink(sim::Sink& inner, std::string kind, Tracer& tracer, std::uint64_t parent)
      : inner_(inner), kind_(std::move(kind)), tracer_(tracer), parent_(parent) {}

  bool wants_outputs() const override { return inner_.wants_outputs(); }
  bool wants_states() const override { return inner_.wants_states(); }
  bool retain_traces() const override { return inner_.retain_traces(); }

  void on_start(const sim::ExperimentSpec& spec, const sim::ShardPlan& plan) override;
  void on_cell(const sim::CellOutcome& cell) override;
  void on_group(std::size_t group, const sim::AggregateResult& aggregate) override;
  void on_done(const sim::ExperimentResult& result) override;

  const std::string& kind() const noexcept { return kind_; }
  std::uint64_t cells() const noexcept { return cells_; }
  std::int64_t cell_ns() const noexcept { return cell_ns_; }

 private:
  sim::Sink& inner_;
  std::string kind_;
  Tracer& tracer_;
  std::uint64_t parent_;
  std::uint64_t cells_ = 0;   // delivery is serialised by the caller
  std::int64_t cell_ns_ = 0;
};

// --- Workloads -----------------------------------------------------------------

Outcome run_sweep(const RunArgs& args);  // table_sweep, tower_sweep
Outcome run_fleet(const RunArgs& args);  // fleet_ablation
Outcome run_synth(const RunArgs& args);  // synth_table

}  // namespace perfbench
