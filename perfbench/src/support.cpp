#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

using synccount::util::Json;

std::int64_t now_ns() noexcept {
  // synccount-lint: allow(nondet) -- benchmark timing: clock values feed the
  // reported metrics only, never the library's inputs or result bytes.
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

// --- Metrics -------------------------------------------------------------------

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // End to end (tracing off).
      {"setup_s", "s", true},
      {"time_to_result_s", "s", true},
      {"peak_rss_mb", "MB", true},
      // Workload-level figures the traced run also reports.
      {"cells_per_s", "1/s", false},
      {"groups_per_s", "1/s", false},
      {"time_to_table_s", "s", false},
      {"probe_rtt_p50_ms", "ms", false},
      {"probe_rtt_p99_ms", "ms", false},
      {"fail_ratio", "ratio", false},
      // counting
      {"counting.build_s", "s", false},
      // sim.batch_runner
      {"batch_runner.self_ns_per_node_round.silent", "ns", false},
      {"batch_runner.self_ns_per_node_round.split", "ns", false},
      {"batch_runner.self_ns_per_node_round.random", "ns", false},
      {"batch_runner.self_ns_per_node_round.mirror", "ns", false},
      {"batch_runner.self_ns_per_node_round.targeted-vote", "ns", false},
      // sim.composed_runner
      {"composed_runner.compile_s", "s", false},
      {"composed_runner.self_ns_per_node_round.silent", "ns", false},
      {"composed_runner.self_ns_per_node_round.echo", "ns", false},
      {"composed_runner.self_ns_per_node_round.random", "ns", false},
      {"composed_runner.self_ns_per_node_round.split", "ns", false},
      {"composed_runner.self_ns_per_node_round.mirror", "ns", false},
      {"composed_runner.self_ns_per_node_round.targeted-vote", "ns", false},
      // sim.runner
      {"runner.self_ns_per_node_round", "ns", false},
      // sim.adversaries
      {"adversaries.forge_share.silent", "ratio", false},
      {"adversaries.forge_share.echo", "ratio", false},
      {"adversaries.forge_share.random", "ratio", false},
      {"adversaries.forge_share.split", "ratio", false},
      {"adversaries.forge_share.mirror", "ratio", false},
      {"adversaries.forge_share.targeted-vote", "ratio", false},
      {"adversaries.forge_share.lookahead", "ratio", false},
      {"adversaries.calls.forge_lanes_idx", "count", false},
      {"adversaries.calls.forge_block_idx", "count", false},
      {"adversaries.calls.forge_block", "count", false},
      {"adversaries.calls.message", "count", false},
      {"adversaries.calls.begin_round", "count", false},
      {"adversaries.lookahead_s", "s", false},
      // sim.engine
      {"engine.busy_s", "s", false},
      {"engine.idle_share", "ratio", false},
      {"engine.post_join_fold_s", "s", false},
      {"engine.result_bytes", "bytes", false},
      {"engine.result_free_s", "s", false},
      // util.stats
      {"stats.fold_ns_per_cell.sketch", "ns", false},
      {"stats.fold_ns_per_cell.exact", "ns", false},
      {"stats.summary_s", "s", false},
      // sim.sink (+ trace_format, experiment_io's AtomicAppender)
      {"sink.on_cell_ns.trace", "ns", false},
      {"sink.on_cell_ns.checkpoint", "ns", false},
      {"sink.on_group_s.trace", "s", false},
      {"sink.on_group_s.checkpoint", "s", false},
      {"sink.bytes_published", "bytes", false},
      {"sink.bytes_written", "bytes", false},
      {"sink.write_amplification", "ratio", false},
      // serve
      {"serve.handle_us.submit", "us", false},
      {"serve.handle_us.lease", "us", false},
      {"serve.handle_us.heartbeat", "us", false},
      {"serve.handle_us.complete", "us", false},
      {"serve.handle_us.status", "us", false},
      {"serve.transport_share", "ratio", false},
      {"serve.requests_per_group", "count", false},
      {"serve.group_engine_s", "s", false},
      {"probe.late_p99_ms", "ms", false},
      {"probe.requests", "count", false},
      // synthesis
      {"synthesis.encode_s", "s", false},
      {"synthesis.serial_scan_s", "s", false},
      {"synthesis.speedup_vs_serial", "ratio", false},
      {"synthesis.prefilter_s", "s", false},
      {"synthesis.verify_s", "s", false},
      {"synthesis.cubes.sat", "count", false},
      {"synthesis.cubes.unsat", "count", false},
      {"synthesis.cubes.unknown", "count", false},
      {"synthesis.cubes.cancelled", "count", false},
      // sat
      {"sat.conflicts", "count", false},
      {"sat.propagations", "count", false},
      {"sat.conflicts_per_s", "1/s", false},
      // harness
      {"trace.overhead_share", "ratio", false},
  };
  return table;
}

void Outcome::set(const std::string& name, double value) {
  const auto& table = metric_table();
  const bool known = std::any_of(table.begin(), table.end(),
                                 [&](const MetricDef& d) { return name == d.name; });
  if (!known) throw std::invalid_argument("metric not in the metric table: " + name);
  metrics[name] = value;
}

void Outcome::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the report short: the first few failures say what went wrong.
    if (problems.size() < 8) problems.push_back("failed: " + what);
    correct = false;
  }
}

void note_iteration(std::size_t index, double setup_s, double time_to_result_s) {
  std::fprintf(stderr, "perfbench: iteration %zu setup_s %.6f time_to_result_s %.6f\n", index,
               setup_s, time_to_result_s);
}

double warm_median(const std::vector<double>& per_iteration) {
  if (per_iteration.size() < 2) return median(per_iteration);
  return median(std::vector<double>(per_iteration.begin() + 1, per_iteration.end()));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// --- Process counters ----------------------------------------------------------

namespace {

// The value of `key` (e.g. "VmHWM:") in a "key value" /proc file, or 0.
std::uint64_t proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  }
  return 0;
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) / 1024.0;
}

std::uint64_t io_wchar() { return proc_field("/proc/self/io", "wchar:"); }

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Span tracer ---------------------------------------------------------------

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent, std::string tag) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.start_ns = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id, std::uint64_t work, std::int64_t agg_child_ns) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(id - 1);
  s.end_ns = t;
  s.work = work;
  s.agg_child_ns = agg_child_ns;
}

double Tracer::total_s(const std::string& name, const std::string& tag) const {
  double sum = 0;
  for (double d : durations_s(name, tag)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations_s(const std::string& name, const std::string& tag) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (matches(s, name, tag)) out.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  return out;
}

std::uint64_t Tracer::work(const std::string& name, const std::string& tag) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const Span& s : spans_) {
    if (matches(s, name, tag)) sum += s.work;
  }
  return sum;
}

double Tracer::agg_child_s(const std::string& name, const std::string& tag) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (matches(s, name, tag)) sum += s.agg_child_ns;
  }
  return static_cast<double>(sum) * 1e-9;
}

double Tracer::self_s(const std::string& name, const std::string& tag) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Child intervals per parent, merged so overlapping children (parallel
  // tasks under one replay span) are not subtracted twice.
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::int64_t self = 0;
  for (const Span& s : spans_) {
    if (!matches(s, name, tag)) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self += (s.end_ns - s.start_ns) - covered - s.agg_child_ns;
  }
  return static_cast<double>(self) * 1e-9;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    Json j = Json::object();
    j.set("id", Json::number(s.id));
    j.set("parent", Json::number(s.parent));
    j.set("name", Json::string(s.name));
    if (!s.tag.empty()) j.set("tag", Json::string(s.tag));
    j.set("start_ns", Json::number(static_cast<std::int64_t>(s.start_ns)));
    j.set("end_ns", Json::number(static_cast<std::int64_t>(s.end_ns)));
    if (s.agg_child_ns != 0) {
      j.set("agg_child_ns", Json::number(static_cast<std::int64_t>(s.agg_child_ns)));
    }
    if (s.work != 0) j.set("work", Json::number(s.work));
    out << j.dump() << '\n';
  }
}

// --- Timing decorators ---------------------------------------------------------

const std::array<const char*, kAdversaryEntries> kAdversaryEntryNames = {
    "forge_lanes_idx", "forge_block_idx", "forge_block", "message", "begin_round"};

AdversaryCounters& thread_adversary_counters() noexcept {
  thread_local AdversaryCounters counters;
  return counters;
}

namespace {

// Times one decorated call into the thread's counters.
class EntryTimer {
 public:
  explicit EntryTimer(AdversaryEntry entry) noexcept : entry_(entry), t0_(now_ns()) {}
  ~EntryTimer() {
    AdversaryCounters& c = thread_adversary_counters();
    c.ns += now_ns() - t0_;
    ++c.calls[entry_];
  }
  EntryTimer(const EntryTimer&) = delete;
  EntryTimer& operator=(const EntryTimer&) = delete;

 private:
  AdversaryEntry entry_;
  std::int64_t t0_;
};

}  // namespace

TimedAdversary::TimedAdversary(std::unique_ptr<sim::Adversary> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) throw std::invalid_argument("TimedAdversary needs an adversary");
}

void TimedAdversary::begin_round(std::uint64_t round, std::span<const sim::State> true_states,
                                 const sim::CountingAlgorithm& algo,
                                 std::span<const sim::NodeId> faulty_ids,
                                 synccount::util::Rng& rng) {
  const EntryTimer timer(kBeginRound);
  inner_->begin_round(round, true_states, algo, faulty_ids, rng);
}

sim::State TimedAdversary::message(std::uint64_t round, sim::NodeId sender,
                                   sim::NodeId receiver,
                                   std::span<const sim::State> true_states,
                                   const sim::CountingAlgorithm& algo,
                                   synccount::util::Rng& rng) {
  const EntryTimer timer(kMessage);
  return inner_->message(round, sender, receiver, true_states, algo, rng);
}

void TimedAdversary::forge_block(std::uint64_t round, std::span<const sim::State> true_states,
                                 const sim::CountingAlgorithm& algo,
                                 std::span<const sim::NodeId> faulty_ids,
                                 std::span<const sim::NodeId> correct_ids,
                                 synccount::util::Rng& rng, sim::ForgedRound& out) {
  const EntryTimer timer(kForgeBlock);
  inner_->forge_block(round, true_states, algo, faulty_ids, correct_ids, rng, out);
}

bool TimedAdversary::forge_block_idx(std::uint64_t round,
                                     std::span<const sim::State> true_states,
                                     const sim::CountingAlgorithm& algo,
                                     std::span<const sim::NodeId> faulty_ids,
                                     std::span<const sim::NodeId> correct_ids,
                                     synccount::util::Rng& rng, sim::ForgedRound& out) {
  const EntryTimer timer(kForgeBlockIdx);
  return inner_->forge_block_idx(round, true_states, algo, faulty_ids, correct_ids, rng, out);
}

bool TimedAdversary::forge_lanes_idx(std::uint64_t round, const sim::CountingAlgorithm& algo,
                                     std::span<const sim::NodeId> faulty_ids,
                                     std::span<const sim::NodeId> correct_ids,
                                     std::span<synccount::util::Rng> rngs,
                                     std::span<const std::uint64_t> active,
                                     std::uint8_t* out_idx, sim::ForgedRound& out) {
  const EntryTimer timer(kForgeLanesIdx);
  return inner_->forge_lanes_idx(round, algo, faulty_ids, correct_ids, rngs, active, out_idx,
                                 out);
}

void TimedSink::on_start(const sim::ExperimentSpec& spec, const sim::ShardPlan& plan) {
  const SpanScope span(tracer_, "sink.on_start", parent_, kind_);
  inner_.on_start(spec, plan);
}

void TimedSink::on_cell(const sim::CellOutcome& cell) {
  const std::int64_t t0 = now_ns();
  inner_.on_cell(cell);
  cell_ns_ += now_ns() - t0;
  ++cells_;
}

void TimedSink::on_group(std::size_t group, const sim::AggregateResult& aggregate) {
  const SpanScope span(tracer_, "sink.on_group", parent_, kind_);
  inner_.on_group(group, aggregate);
}

void TimedSink::on_done(const sim::ExperimentResult& result) {
  const SpanScope span(tracer_, "sink.on_done", parent_, kind_);
  inner_.on_done(result);
}

}  // namespace perfbench
