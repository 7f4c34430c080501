#include "serve/client.hpp"

#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "counting/table_io.hpp"
#include "serve/protocol.hpp"
#include "sim/engine.hpp"
#include "sim/experiment_io.hpp"
#include "synthesis/portfolio.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/socket.hpp"

namespace synccount::serve {

using util::Json;

Client::Client(std::string socket_path, util::BackoffPolicy policy, std::uint64_t seed)
    : socket_path_(std::move(socket_path)), policy_(policy), seed_(seed) {
  SC_CHECK(!socket_path_.empty(), "client needs a socket path");
}

Json Client::request(const Json& req) {
  const std::string line = req.dump();
  util::Backoff backoff(policy_, seed_);
  for (;;) {
    util::LineSocket conn = util::LineSocket::connect_unix(socket_path_, io_timeout_ms_);
    std::string resp_line;
    if (conn.valid() && conn.send_line(line, io_timeout_ms_) &&
        conn.recv_line(resp_line, io_timeout_ms_)) {
      Json resp = Json::parse(resp_line);
      check_response(resp);  // {"ok":false} throws the daemon's error
      return resp;
    }
    // Transport failure: daemon restarting, response lost, accept backlog.
    // The request is idempotent/dedupe-guarded, so retry it whole.
    if (!backoff.should_retry()) {
      throw std::runtime_error("service at " + socket_path_ + " unreachable after " +
                               std::to_string(backoff.attempt() + 1) + " attempt(s)");
    }
    backoff.sleep();
  }
}

namespace {

std::uint64_t worker_seed(const std::string& id) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a: distinct jitter per worker
  for (const char c : id) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

}  // namespace

std::uint64_t run_worker(const WorkerConfig& cfg) {
  util::FaultInjector& faults = util::FaultInjector::instance();
  const std::string id =
      cfg.worker_id.empty() ? "worker-" + std::to_string(::getpid()) : cfg.worker_id;
  Client client(cfg.socket_path, {}, worker_seed(id));
  sim::Engine engine(cfg.threads);
  std::uint64_t completed = 0;
  for (;;) {
    faults.probe("worker.lease");
    Json lease_req = make_request("lease");
    lease_req.set("worker", Json::string(id));
    if (cfg.max_groups > 0) lease_req.set("max_groups", Json::number(cfg.max_groups));
    const Json resp = client.request(lease_req);
    if (msg_bool(resp, "idle", false)) {
      const bool pending = msg_bool(resp, "pending", false);
      const bool draining = msg_bool(resp, "draining", false);
      // Settled-empty (nothing pending anywhere) or draining: a --once
      // worker is finished. pending=true means groups are under other
      // workers' leases -- wait; if their holder died, the lease expires
      // and the next poll picks the groups up.
      if (draining || (cfg.once && !pending)) return completed;
      std::this_thread::sleep_for(std::chrono::milliseconds(cfg.idle_wait_ms));
      continue;
    }
    const LeaseGrant grant = LeaseGrant::from_json(resp);
    const Json* kind = grant.spec.find("kind");
    if (kind != nullptr && kind->as_string() == "synth") {
      // Synth job: each leased group is one cube, solved by the canonical
      // priority scan -- the same deterministic unit of work the local
      // engine runs per cube, so recorded verdict lines are byte-identical
      // no matter which worker (or how many) ran them.
      const synthesis::SynthJobSpec job = synthesis::SynthJobSpec::from_json(grant.spec);
      for (std::uint64_t g = grant.group_begin; g < grant.group_end; ++g) {
        if (g != grant.group_begin && !faults.should_drop("worker.heartbeat")) {
          Json hb = make_request("heartbeat");
          hb.set("lease", Json::number(grant.lease_id));
          if (!msg_bool(client.request(hb), "valid", false)) break;  // lease lost
        }
        faults.probe("worker.group");
        const synthesis::CubeResult r = synthesis::solve_cube(job, g);
        CubeCompleteRequest complete;
        complete.lease_id = grant.lease_id;
        complete.job = grant.job;
        complete.cube = g;
        complete.verdict = synthesis::to_string(r.verdict);
        complete.config = r.config_index;
        complete.conflicts = r.conflicts;
        complete.decisions = r.decisions;
        complete.restarts = r.restarts;
        if (r.verdict == synthesis::CubeVerdict::kSat) {
          complete.table = counting::table_to_string(r.table);
        }
        faults.probe("worker.complete");
        (void)client.request(complete.to_json());  // accepted=false: benign dup
        ++completed;
      }
      continue;
    }
    const sim::ExperimentSpec spec = sim::experiment_spec_from_json(grant.spec);
    std::vector<std::string> adversaries, placements;
    sim::grid_names(spec, adversaries, placements);
    for (std::uint64_t g = grant.group_begin; g < grant.group_end; ++g) {
      if (g != grant.group_begin && !faults.should_drop("worker.heartbeat")) {
        // Renew before each further group of a multi-group lease (the
        // grant itself covers the first). A muted heartbeat ("drop" fault)
        // lets the lease expire mid-range: the requeue path.
        Json hb = make_request("heartbeat");
        hb.set("lease", Json::number(grant.lease_id));
        if (!msg_bool(client.request(hb), "valid", false)) break;  // lease lost
      }
      faults.probe("worker.group");
      sim::ShardPlan plan;
      plan.shards = 1;
      plan.shard = 0;
      plan.group_begin = static_cast<std::size_t>(g);
      plan.group_end = static_cast<std::size_t>(g) + 1;
      const sim::ExperimentResult result = engine.run(spec, plan);
      const sim::ShardPartial partial = sim::make_partial(spec, plan, result);
      SC_REQUIRE(partial.groups.size() == 1 && partial.groups[0].group == g,
                 "single-group plan must yield exactly its global group");
      CompleteRequest complete;
      complete.lease_id = grant.lease_id;
      complete.job = grant.job;
      complete.group = g;
      complete.adversary = adversaries[g / placements.size()];
      complete.placement = placements[g % placements.size()];
      complete.aggregate = sim::aggregate_to_json(partial.groups[0].aggregate);
      faults.probe("worker.complete");
      (void)client.request(complete.to_json());  // accepted=false: benign dup
      ++completed;
    }
  }
}

}  // namespace synccount::serve
