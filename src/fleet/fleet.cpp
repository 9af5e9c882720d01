#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "common/assert.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace pipette {

bool deterministic_equal(const FleetResult& a, const FleetResult& b) {
  if (a.Deterministic() != b.Deterministic()) return false;
  if (a.shard_results.size() != b.shard_results.size()) return false;
  for (std::size_t s = 0; s < a.shard_results.size(); ++s) {
    if (a.shard_results[s].Deterministic() !=
        b.shard_results[s].Deterministic())
      return false;
  }
  return true;
}

FleetRunner::FleetRunner(FleetConfig config,
                         SeededWorkloadFactory make_workload,
                         std::uint64_t workload_seed)
    : config_(std::move(config)),
      make_workload_(std::move(make_workload)),
      seed_(workload_seed) {
  PIPETTE_ASSERT(config_.shards > 0);
  PIPETTE_ASSERT_MSG(config_.shard_machines.empty() ||
                         config_.shard_machines.size() == config_.shards,
                     "shard_machines must be empty or one per shard");
  PIPETTE_ASSERT(make_workload_ != nullptr);
  const ReplicationConfig& repl = config_.replication;
  PIPETTE_ASSERT_MSG(repl.replicas >= 1, "a group needs at least one copy");
  PIPETTE_ASSERT_MSG(repl.shadow_read_fraction >= 0.0 &&
                         repl.shadow_read_fraction <= 1.0,
                     "shadow_read_fraction is a probability");
  if (repl.read_policy == ReadPolicy::kQuorum) {
    PIPETTE_ASSERT_MSG(repl.quorum_k >= 1 && repl.quorum_k <= repl.replicas,
                       "quorum_k must be in [1, replicas]");
  }
  if (repl.migration.active()) {
    PIPETTE_ASSERT_MSG(repl.migration.target < config_.shards,
                       "migration target is not a group");
  }
  const std::vector<ShardOutage>& outages = config_.faults.outages;
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const ShardOutage& o = outages[i];
    PIPETTE_ASSERT_MSG(o.shard < config_.shards, "outage for unknown shard");
    PIPETTE_ASSERT_MSG(o.recover_at >= o.fail_at, "outage recovers in the past");
    PIPETTE_ASSERT_MSG(o.replica < repl.replicas,
                       "outage for a replica the fleet does not have");
    for (std::size_t j = 0; j < i; ++j) {
      PIPETTE_ASSERT_MSG(
          outages[j].shard != o.shard || outages[j].replica != o.replica,
          "two outage windows for one (shard, replica)");
    }
  }
}

MachineConfig FleetRunner::machine_config(std::size_t machine_id) const {
  const std::size_t group = machine_id / config_.replication.replicas;
  MachineConfig machine = config_.shard_machines.empty()
                              ? config_.machine
                              : config_.shard_machines[group];
  // Every device draws from a private fault sub-stream keyed by its machine
  // id; without the split each device would replay the identical error
  // trace. A zero-rate plan never draws, so reseeding keeps fault-free runs
  // bit-identical.
  machine.ssd.faults.seed =
      Rng::split_seed(machine.ssd.faults.seed, machine_id);
  return machine;
}

namespace {

/// One machine's share of the client's view of the measured phase.
/// Singleton serves record straight into `latency`; quorum legs are kept
/// per read, since the client completes on the k-th fastest across
/// machines.
struct ClientTally {
  struct QuorumLeg {
    std::uint64_t index;
    SimDuration latency;
    std::uint32_t len;
    bool operator<(const QuorumLeg& o) const {
      return std::tie(index, latency) < std::tie(o.index, o.latency);
    }
  };
  LatencyHistogram latency;
  std::uint64_t served = 0;
  std::uint64_t bytes = 0;
  std::uint64_t failover_penalty_ns = 0;
  std::vector<QuorumLeg> quorum_legs;
};

}  // namespace

FleetResult FleetRunner::run(const RunConfig& run, unsigned jobs) const {
  const auto host_t0 = std::chrono::steady_clock::now();
  const ReplicationConfig& repl = config_.replication;
  const FleetFaultPlan& faults = config_.faults;
  const std::size_t groups = config_.shards;
  const std::size_t replicas = repl.replicas;
  const std::size_t machines = groups * replicas;

  // Counting pre-pass: replay the master stream through a private router to
  // size every machine's warmup/measured phases. The same router instance
  // also yields the client-side tallies (attempted reads, failovers, quorum
  // legs, migration progress) — pure RNG/arithmetic work, no simulation.
  RunConfig zero_plan = run;
  zero_plan.warmup = 0;
  zero_plan.requests = 0;
  std::vector<RunConfig> plans(machines, zero_plan);
  ReplicaCounters counters;
  std::uint64_t lost_writes = 0;
  {
    std::unique_ptr<Workload> master = make_workload_(seed_);
    PIPETTE_ASSERT_MSG(master != nullptr, "fleet workload factory failed");
    const Partitioner part(config_.partition, groups, master->files());
    ReplicaRouter router(repl, faults, part, seed_, run.warmup);
    std::vector<ReplicaAssignment> scratch;
    for (std::uint64_t i = 0; i < run.warmup + run.requests; ++i) {
      scratch.clear();
      router.route(i, master->next(), scratch);
      for (const ReplicaAssignment& a : scratch) {
        if (a.index < run.warmup) {
          ++plans[a.machine].warmup;
        } else {
          ++plans[a.machine].requests;
        }
      }
    }
    counters = router.counters();
    lost_writes = router.pending_catchup_writes();
  }

  std::vector<ClientTally> tallies(machines);
  std::vector<RunResult> machine_results(machines);

  auto run_machine = [&](std::size_t m) {
    std::unique_ptr<Workload> master = make_workload_(seed_);
    PIPETTE_ASSERT_MSG(master != nullptr, "fleet workload factory failed");
    const Partitioner part(config_.partition, groups, master->files());
    ReplicaWorkload sub(std::move(master), repl, faults, part,
                        static_cast<std::uint32_t>(m), seed_, run.warmup);
    const auto build_t0 = std::chrono::steady_clock::now();
    Machine machine(machine_config(m), sub.files());
    const std::chrono::duration<double> build =
        std::chrono::steady_clock::now() - build_t0;
    const ShardOutage* outage = faults.outage_for(m / replicas, m % replicas);
    if (outage != nullptr && !outage->active()) outage = nullptr;
    ClientTally& tally = tallies[m];

    // A client read's latency is the sim-time delta across its closed-loop
    // issue, which equals what the path records for a successful read. A
    // device-failed read records nothing (the path's failed_reads counter
    // moves) and the composition below counts it unanswered. A failover
    // serve also charges the fail-fast detection latency the client burned
    // before re-issuing.
    auto serve = [&](const Request& req, std::uint64_t index, ReplicaRole role,
                     const RunHooks::IssueFn& issue) {
      const SimTime t0 = machine.sim().now();
      const std::uint64_t failed0 = machine.path().stats().failed_reads;
      issue(req);
      if (index < run.warmup ||
          machine.path().stats().failed_reads != failed0)
        return;
      SimDuration latency = machine.sim().now() - t0;
      if (role == ReplicaRole::kQuorumServe) {
        tally.quorum_legs.push_back({index, latency, req.len});
        return;
      }
      if (role == ReplicaRole::kFailoverServe) {
        latency += faults.fail_fast_latency;
        tally.failover_penalty_ns += faults.fail_fast_latency;
      }
      tally.latency.record(latency);
      ++tally.served;
      tally.bytes += req.len;
    };

    // Outage interceptor: a kReject is refused after the fail-fast latency,
    // a kDefer is parked. The first assignment at or after recovery
    // cold-restarts the machine (host caches come back empty) unless the
    // policy reroutes — a routing drain, the machine never stopped. The
    // parked reads replay once the router's catch-up writes (emitted first
    // at rejoin) are applied, each charged its client's full backoff ladder.
    struct Deferred {
      Request req;
      std::uint64_t index;
    };
    std::vector<Deferred> deferred;
    std::uint64_t client_retries = 0;
    bool recovered = false;
    RunHooks hooks;
    hooks.on_request = [&](const Request& req,
                           const RunHooks::IssueFn& issue) {
      const ReplicaAssignment& a = sub.last();
      if (outage != nullptr && !recovered && a.index >= outage->recover_at) {
        recovered = true;
        if (faults.policy != DownShardPolicy::kReroute) machine.cold_restart();
      }
      if (recovered && !deferred.empty() &&
          a.role != ReplicaRole::kCatchupWrite) {
        for (const Deferred& d : deferred) {
          machine.sim().advance(faults.total_retry_backoff());
          if (d.index >= run.warmup) client_retries += faults.retry_attempts;
          serve(d.req, d.index, ReplicaRole::kServe, issue);
        }
        deferred.clear();
      }
      switch (a.role) {
        case ReplicaRole::kServe:
        case ReplicaRole::kFailoverServe:
        case ReplicaRole::kQuorumServe:
          serve(req, a.index, a.role, issue);
          return true;
        case ReplicaRole::kReject:
          machine.path().reject_request(req.is_write, faults.fail_fast_latency);
          return true;
        case ReplicaRole::kDefer:
          deferred.push_back({req, a.index});
          return true;
        default:
          return false;  // device-only work, issued as is
      }
    };
    RunResult result = run_experiment_on(machine, sub, plans[m], hooks);
    // Deferrals still parked when the stream ends (recovery lies beyond the
    // run) exhausted their backoff ladder without an answer: failures.
    for (const Deferred& d : deferred) {
      if (d.index < run.warmup) continue;
      client_retries += faults.retry_attempts;
      ++result.failed_reads;
    }
    result.retries += client_retries;
    result.build_seconds = build.count();
    // Reads that found their group's primary down are credited to it.
    if (m % replicas == 0)
      result.down_requests = counters.down_requests[m / replicas];
    machine_results[m] = std::move(result);
  };

  // Machines share no mutable state, so which thread runs which machine
  // (and in what order) cannot change any result.
  parallel_for(machines, jobs, run_machine);

  // Client-side composition: serial, pure arithmetic. Per-machine
  // histograms merge bucket-wise. Quorum legs are pooled, grouped by master
  // index, and the client completes on the k'-th fastest where
  // k' = min(quorum_k, legs that answered).
  LatencyHistogram client;
  std::uint64_t served = 0;
  std::uint64_t served_bytes = 0;
  std::uint64_t failover_penalty_ns = 0;
  std::vector<ClientTally::QuorumLeg> quorum_legs;
  for (const ClientTally& t : tallies) {
    client.merge(t.latency);
    served += t.served;
    served_bytes += t.bytes;
    failover_penalty_ns += t.failover_penalty_ns;
    quorum_legs.insert(quorum_legs.end(), t.quorum_legs.begin(),
                       t.quorum_legs.end());
  }
  std::sort(quorum_legs.begin(), quorum_legs.end());
  for (std::size_t i = 0; i < quorum_legs.size();) {
    std::size_t j = i;
    while (j < quorum_legs.size() &&
           quorum_legs[j].index == quorum_legs[i].index)
      ++j;
    const std::size_t kth = std::min<std::size_t>(repl.quorum_k, j - i);
    client.record(quorum_legs[i + kth - 1].latency);
    ++served;
    served_bytes += quorum_legs[i].len;
    i = j;
  }

  FleetResult out;
  out.shard_results = std::move(machine_results);
  out.requests = run.requests;  // the client's measured request count
  out.measured_reads = served;
  out.bytes_requested = served_bytes;
  out.failed_reads = counters.client_reads - served;
  out.retries = counters.client_retries;
  // Normalize extremes to representative bucket values (diff against an
  // empty snapshot recomputes them from the buckets), matching a machine's
  // measured histogram, which passes through diff(). Without this a 1-shard
  // fleet would match run_experiment in every bucket yet fail on
  // exact-vs-representative min/max.
  out.latency = client.diff(LatencyHistogram{});

  // Device-level sums over every machine: replication fan-out, shadow and
  // warm reads all count here, which is exactly the point — availability
  // costs device work, and these fields price it.
  std::uint64_t device_requests = 0;
  out.min_shard_requests = out.shard_results.empty() ? 0 : ~0ull;
  for (std::size_t m = 0; m < out.shard_results.size(); ++m) {
    const RunResult& r = out.shard_results[m];
    device_requests += r.requests;
    out.traffic_bytes += r.traffic_bytes;
    out.events_executed += r.events_executed;
    out.retries += r.retries;
    out.degraded_reads += r.degraded_reads;
    out.down_requests += r.down_requests;
    out.makespan = std::max(out.makespan, r.elapsed);
    out.metrics.merge_add(r.metrics);
    merge_stage_latency(out.stage_latency, r.stage_latency);
    if (r.requests > out.max_shard_requests) {
      out.max_shard_requests = r.requests;
      out.hottest_shard = m;
    }
    out.min_shard_requests = std::min(out.min_shard_requests, r.requests);
  }
  if (out.latency.count() > 0) {
    out.mean_latency_us = out.latency.mean_ns() / 1e3;
    out.p50_latency_us = to_us(out.latency.percentile(50));
    out.p99_latency_us = to_us(out.latency.percentile(99));
    out.p999_latency_us = to_us(out.latency.percentile(99.9));
  }
  out.mean_shard_requests =
      machines == 0 ? 0.0
                    : static_cast<double>(device_requests) /
                          static_cast<double>(machines);
  out.load_imbalance =
      out.mean_shard_requests == 0.0
          ? 0.0
          : static_cast<double>(out.max_shard_requests) /
                out.mean_shard_requests;
  if (!out.shard_results.empty()) {
    out.hottest_shard_fgrc_hit_ratio =
        out.shard_results[out.hottest_shard].fgrc_hit_ratio;
  }

  // Router-level counters join the merged machine registries under fleet.*
  // so one MetricsRegistry tells the whole availability story.
  out.metrics.set("fleet.machines", machines);
  out.metrics.set("fleet.replica_groups", groups);
  out.metrics.set("fleet.replicas_per_group", replicas);
  out.metrics.set("fleet.replica_client_reads", counters.client_reads);
  out.metrics.set("fleet.replica_served_reads", served);
  out.metrics.set("fleet.replica_unserved_reads", counters.unserved_reads);
  out.metrics.set("fleet.replica_failover_reads", counters.failover_reads);
  out.metrics.set("fleet.replica_failover_penalty_ns", failover_penalty_ns);
  out.metrics.set("fleet.replica_shadow_reads", counters.shadow_reads);
  out.metrics.set("fleet.replica_stale_reads", counters.stale_reads);
  out.metrics.set("fleet.replica_catchup_writes", counters.catchup_writes);
  out.metrics.set("fleet.replica_lost_writes", lost_writes);
  if (repl.read_policy == ReadPolicy::kQuorum) {
    out.metrics.set("fleet.replica_quorum_reads", counters.quorum_reads);
    out.metrics.set("fleet.replica_quorum_fanout", counters.quorum_fanout);
    out.metrics.set("fleet.replica_quorum_shortfall",
                    counters.quorum_shortfall);
  }
  if (repl.migration.active()) {
    out.metrics.set("fleet.migration_dual_reads", counters.dual_reads);
    out.metrics.set("fleet.migration_warm_reads", counters.warm_reads_done);
    out.metrics.set("fleet.migration_dual_writes", counters.dual_writes);
    out.metrics.set("fleet.migration_cut_over", counters.cut_over ? 1 : 0);
    out.metrics.set("fleet.migration_cutover_index", counters.cutover_index);
    out.metrics.set("fleet.migration_migrated_reads",
                    counters.migrated_reads);
  }

  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - host_t0)
          .count();
  return out;
}

}  // namespace pipette
