// fleet_ablation: the full adversary ablation (7 adversaries x 4
// placements = 28 groups) on the practical(f=2, C=10) N=12 tower, run
// through the sweep service: an in-process daemon thread (serve::Daemon::run
// on a Unix socket), two serve::run_worker threads with one engine thread
// each and their own worker ids, and an open-loop `status` probe at a fixed
// rate. The traced run replays the same job through Daemon::handle with no
// transport, once plainly (what run_worker does) and once with every runner
// call decorated.
#include <atomic>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "boosting/planner.hpp"
#include "counting/algorithm_spec.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "sim/experiment_io.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace perfbench {
namespace {

namespace counting = synccount::counting;
namespace serve = synccount::serve;
namespace util = synccount::util;
namespace fs = std::filesystem;
using util::Json;

constexpr const char* kJob = "ablation";
constexpr int kWorkers = 2;
constexpr double kProbeHz = 200.0;
constexpr int kProbeTimeoutMs = 1000;

sim::ExperimentSpec fleet_spec(const RunArgs& args) {
  const auto algo =
      synccount::boosting::build_plan(synccount::boosting::plan_practical(2, 10));
  sim::ExperimentSpec spec;
  spec.algorithm = *counting::describe(algo);
  // All 7 library adversaries, the heavy scalar lookahead groups first: the
  // queue leases groups in order, so with lookahead last the job's tail was
  // whichever worker happened to draw two of its four groups, and the end
  // of the job swung by a third between otherwise identical runs.
  spec.adversaries = {"lookahead", "silent", "echo", "random", "split", "mirror",
                      "targeted-vote"};
  spec.placements =
      placements_for({"spread", "blocks", "leaders", "none"}, algo->num_nodes(), 2);
  spec.seeds = args.self_check ? 4 : 128;
  spec.base_seed = base_seed_for(args.seed);
  spec.margin = 100;
  spec.stop_after_stable = 120;
  validate_workload(spec, *algo);
  return spec;
}

// The single-process result the fleet must reproduce byte for byte.
std::string reference_partial(const sim::ExperimentSpec& spec) {
  const sim::Engine engine(4);
  const sim::ExperimentResult result = engine.run(spec);
  std::ostringstream os;
  sim::write_partial(os, sim::make_partial(spec, sim::plan_shards(spec, 1, 0), result));
  return os.str();
}

Json submit_request(const sim::ExperimentSpec& spec) {
  Json req = serve::make_request("submit");
  req.set("job", Json::string(kJob));
  req.set("spec", sim::experiment_spec_to_json(spec));
  return req;
}

Json job_request(const std::string& op) {
  Json req = serve::make_request(op);
  req.set("job", Json::string(kJob));
  return req;
}

// A fresh directory for one daemon instance.
std::string fresh_dir(const RunArgs& args, const std::string& name) {
  const std::string dir = args.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

serve::DaemonConfig daemon_config(const std::string& dir, std::ostream* log) {
  serve::DaemonConfig cfg;
  cfg.socket_path = dir + "/sock";
  cfg.state_dir = dir + "/state";
  cfg.log = log;
  return cfg;
}

// A daemon serving on its own thread; shut down and joined on destruction.
class DaemonThread {
 public:
  explicit DaemonThread(const std::string& dir)
      : socket_(dir + "/sock"),
        daemon_(daemon_config(dir, &log_)),
        thread_([this] { daemon_.run(); }) {}
  ~DaemonThread() {
    try {
      serve::Client(socket_).request(serve::make_request("shutdown"));
    } catch (const std::exception& e) {
      // The loop only exits on a shutdown request; without one the join
      // below would hang, so give up loudly instead.
      std::cerr << "perfbench: daemon shutdown failed: " << e.what() << "\n";
      std::terminate();
    }
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  std::ostringstream log_;  // written by the daemon thread only
  serve::Daemon daemon_;
  std::thread thread_;  // last: starts after the members it uses
};

// Open-loop `status` probe: requests are due on a fixed schedule whatever
// the daemon does, and each is timed from its due time, so a stall shows up
// in the requests queued behind it. Samples accumulate across iterations.
class Probe {
 public:
  struct Samples {
    std::vector<double> rtt_ms;   // completion - due
    std::vector<double> late_ms;  // send - due (how late the generator ran)
    std::uint64_t failures = 0;
  };

  Probe(std::string socket, Samples& samples)
      : socket_(std::move(socket)), samples_(samples), thread_([this] { loop(); }) {}
  ~Probe() {
    stop_.store(true);
    thread_.join();
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  void loop() {
    const std::string line = serve::make_request("status").dump();
    const auto period = static_cast<std::int64_t>(1e9 / kProbeHz);
    const std::int64_t start = now_ns();
    for (std::int64_t i = 0; !stop_.load(); ++i) {
      const std::int64_t due = start + i * period;
      const std::int64_t wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      if (stop_.load()) break;
      const std::int64_t sent = now_ns();
      bool ok = false;
      util::LineSocket conn = util::LineSocket::connect_unix(socket_, kProbeTimeoutMs);
      std::string resp;
      if (conn.valid() && conn.send_line(line, kProbeTimeoutMs) &&
          conn.recv_line(resp, kProbeTimeoutMs)) {
        try {
          ok = serve::check_response(Json::parse(resp));
        } catch (const std::exception&) {
          ok = false;
        }
      }
      const std::int64_t done = now_ns();
      samples_.rtt_ms.push_back(static_cast<double>(done - due) * 1e-6);
      samples_.late_ms.push_back(static_cast<double>(sent - due) * 1e-6);
      if (!ok) ++samples_.failures;
    }
  }

  std::string socket_;
  Samples& samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

struct FleetIteration {
  double setup_s = 0;
  double time_to_result_s = 0;
  std::string results;
};

// One job through the real service: daemon bind + submit is the set-up,
// the clock then runs until the workers have drained the queue and the
// results are fetched.
FleetIteration run_fleet_iteration(const sim::ExperimentSpec& spec, const RunArgs& args,
                                   Probe::Samples* probe_samples, Outcome& out) {
  FleetIteration it;
  const std::string dir = fresh_dir(args, "fleet");
  const std::int64_t t0 = now_ns();
  DaemonThread daemon(dir);
  serve::Client client(daemon.socket());
  client.request(submit_request(spec));
  const std::int64_t t1 = now_ns();
  it.setup_s = seconds_between(t0, t1);
  if (probe_samples == nullptr) return it;  // set-up sample only

  {
    const Probe probe(daemon.socket(), *probe_samples);
    std::vector<std::string> errors(kWorkers);
    {
      std::vector<std::jthread> workers;
      for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
          serve::WorkerConfig cfg;
          cfg.socket_path = daemon.socket();
          cfg.worker_id = "bench-worker-" + std::to_string(w);  // own lease identity
          cfg.threads = 1;
          cfg.idle_wait_ms = 10;
          try {
            serve::run_worker(cfg);
          } catch (const std::exception& e) {
            errors[static_cast<std::size_t>(w)] = e.what();
          }
        });
      }
    }
    for (const std::string& e : errors) {
      if (!e.empty()) out.fail("worker: " + e);
    }
    it.results = client.request(job_request("results")).at("partial").as_string();
    it.time_to_result_s = seconds_between(t1, now_ns());
  }
  return it;
}

// Checks a fleet result: byte-identical to the single-process reference, and
// every group within the tower's Theorem 1 bound. Each group is one
// operation.
void check_results(const std::string& results, const std::string& reference,
                   std::uint64_t bound, Outcome& out) {
  if (results != reference) out.fail("fleet results differ from the single-process partial");
  std::istringstream in(results);
  const sim::ShardPartial partial = sim::read_partial(in, "fleet results");
  for (const auto& g : partial.groups) {
    const auto& agg = g.aggregate;
    const bool ok = results == reference && agg.stabilised == agg.runs &&
                    agg.stabilisation.max() <= static_cast<double>(bound);
    out.op(ok, "group " + std::to_string(g.group));
  }
}

// The same job replayed through Daemon::handle with no transport. With a
// tracer, every group runs through the decorated replay tasks; without, it
// runs through Engine::run on one thread, exactly as run_worker does.
struct HandleReplay {
  double wall_s = 0;
  std::string results;
  std::map<std::string, std::vector<double>> handle_us;  // per op
  std::uint64_t requests = 0;  // worker-side requests (lease/heartbeat/complete)
  std::vector<double> group_s;
  std::uint64_t wchar = 0;
  std::uint64_t published = 0;
};

HandleReplay handle_replay(const sim::ExperimentSpec& spec, const RunArgs& args,
                           Tracer* tracer, CallTotals* calls) {
  HandleReplay r;
  const std::string dir = fresh_dir(args, tracer != nullptr ? "replay-traced" : "replay");
  std::ostringstream log;
  serve::Daemon daemon(daemon_config(dir, &log));
  const auto handle = [&](const std::string& op, const Json& req) {
    const std::int64_t t0 = now_ns();
    Json resp = daemon.handle(req);
    r.handle_us[op].push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    serve::check_response(resp);
    return resp;
  };

  const std::int64_t t0 = now_ns();
  const std::uint64_t root = tracer != nullptr ? tracer->begin("replay.fleet", 0) : 0;
  std::unique_ptr<ReplayPlan> plan;
  if (tracer != nullptr) plan = std::make_unique<ReplayPlan>(make_replay_plan(spec, *tracer, root));
  const sim::Engine engine(1);
  const std::uint64_t w0 = io_wchar();
  handle("submit", submit_request(spec));
  std::vector<std::string> adversaries, placements;
  sim::grid_names(spec, adversaries, placements);
  for (;;) {
    Json lease_req = serve::make_request("lease");
    lease_req.set("worker", Json::string("replay-worker"));
    const Json lease = handle("lease", lease_req);
    ++r.requests;
    if (serve::msg_bool(lease, "idle", false)) break;
    const serve::LeaseGrant grant = serve::LeaseGrant::from_json(lease);
    for (std::uint64_t g = grant.group_begin; g < grant.group_end; ++g) {
      Json hb = serve::make_request("heartbeat");
      hb.set("lease", Json::number(grant.lease_id));
      handle("heartbeat", hb);
      ++r.requests;
      const std::int64_t g0 = now_ns();
      sim::AggregateResult agg(spec.stats);
      if (tracer != nullptr) {
        const SpanScope span(*tracer, "serve.group", root);
        for (const ReplayTask& t : replay_tasks(*plan, g, g + 1)) {
          for (const sim::RunResult& res :
               replay_task(*plan, t.group, t.s0, t.count, *tracer, span.id(), *calls)) {
            agg.fold(res);
          }
        }
      } else {
        sim::ShardPlan shard;
        shard.group_begin = static_cast<std::size_t>(g);
        shard.group_end = shard.group_begin + 1;
        const sim::ExperimentResult res = engine.run(spec, shard);
        agg = sim::make_partial(spec, shard, res).groups.at(0).aggregate;
      }
      r.group_s.push_back(seconds_between(g0, now_ns()));
      serve::CompleteRequest complete;
      complete.lease_id = grant.lease_id;
      complete.job = grant.job;
      complete.group = g;
      complete.adversary = adversaries[g / placements.size()];
      complete.placement = placements[g % placements.size()];
      complete.aggregate = sim::aggregate_to_json(agg);
      handle("complete", complete.to_json());
      ++r.requests;
      handle("status", serve::make_request("status"));
    }
  }
  r.results = handle("results", job_request("results")).at("partial").as_string();
  r.wchar = io_wchar() - w0;
  if (tracer != nullptr) tracer->end(root);
  r.wall_s = seconds_between(t0, now_ns());
  for (const auto& entry : fs::directory_iterator(dir + "/state")) {
    if (entry.is_regular_file()) r.published += file_size(entry.path().string());
  }
  return r;
}

}  // namespace

Outcome run_fleet(const RunArgs& args) {
  Outcome out;
  const sim::ExperimentSpec spec = fleet_spec(args);
  const std::uint64_t bound = *counting::build(*spec.algorithm)->stabilisation_bound();
  const std::string reference = reference_partial(spec);
  out.digest = digest(reference);
  const double groups = static_cast<double>(sim::group_count(spec));
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  Probe::Samples probe;

  if (!args.trace) {
    std::vector<double> setup, result;
    for (int r = 0; r < kSetupReps; ++r) {
      setup.push_back(run_fleet_iteration(spec, args, nullptr, out).setup_s);
    }
    for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
      const FleetIteration it = run_fleet_iteration(spec, args, &probe, out);
      check_results(it.results, reference, bound, out);
      setup.push_back(it.setup_s);
      result.push_back(it.time_to_result_s);
      note_iteration(i, it.setup_s, it.time_to_result_s);
    }
    out.set("setup_s", median(setup));
    out.set("time_to_result_s", warm_median(result));
    out.set("peak_rss_mb", peak_rss_mb());
  } else {
    Samples samples;
    auto tracer = std::make_unique<Tracer>();
    for (std::size_t i = 0; i == 0 || (!args.self_check && now_ns() < deadline); ++i) {
      std::map<std::string, double> layer;
      const FleetIteration it = run_fleet_iteration(spec, args, &probe, out);
      check_results(it.results, reference, bound, out);
      layer["groups_per_s"] = groups / it.time_to_result_s;

      const HandleReplay plain = handle_replay(spec, args, nullptr, nullptr);
      tracer = std::make_unique<Tracer>();
      CallTotals calls;
      const HandleReplay traced = handle_replay(spec, args, tracer.get(), &calls);
      if (plain.results != reference || traced.results != reference) {
        out.fail("transport-free replay results differ from the single-process partial");
      }
      for (const char* op : {"submit", "lease", "heartbeat", "complete", "status"}) {
        layer[std::string("serve.handle_us.") + op] = median(plain.handle_us.at(op));
      }
      layer["serve.requests_per_group"] = static_cast<double>(plain.requests) / groups;
      double group_sum = 0;
      for (double g : plain.group_s) group_sum += g;
      layer["serve.group_engine_s"] = group_sum / groups;
      layer["sink.bytes_written"] = static_cast<double>(plain.wchar);
      layer["sink.bytes_published"] = static_cast<double>(plain.published);
      layer["sink.write_amplification"] =
          static_cast<double>(plain.wchar) / static_cast<double>(plain.published);
      layer["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s;
      runner_layer_metrics(*tracer, spec.adversaries, calls, layer);
      layer["adversaries.lookahead_s"] = tracer->agg_child_s(kSpanExecution, "lookahead");
      layer["counting.build_s"] = tracer->total_s("counting.build");
      layer["composed_runner.compile_s"] = tracer->total_s("composed_runner.compile");
      // Share of a status round trip spent outside the daemon's handler:
      // socket connect/send/receive and the accept loop.
      layer["serve.transport_share"] =
          1.0 - layer["serve.handle_us.status"] * 1e-3 / median(probe.rtt_ms);
      samples.add_all(layer);
    }
    // Over every probe of the run (p99 needs the whole sample).
    samples.add("probe_rtt_p50_ms", median(probe.rtt_ms));
    samples.add("probe_rtt_p99_ms", quantile(probe.rtt_ms, 0.99));
    samples.add("probe.late_p99_ms", quantile(probe.late_ms, 0.99));
    samples.add("probe.requests", static_cast<double>(probe.rtt_ms.size()));
    samples.publish(out);
    tracer->write_jsonl(args.out_dir + "/spans-" + args.workload + ".jsonl");
  }
  if (probe.failures > 0) {
    out.fail(std::to_string(probe.failures) + " status probe(s) failed or timed out");
  }
  out.attempted += probe.rtt_ms.size();
  out.failed += probe.failures;
  return out;
}

}  // namespace perfbench
