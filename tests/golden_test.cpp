// Golden-trace regression tripwire: one fixed experiment cell per path kind
// (Table 1 'C', uniform, 20k measured requests over a 32 MiB file), with
// every deterministic RunResult field pinned to a checked-in JSON fixture.
//
// Any change to simulator behaviour — event ordering, timing constants,
// cache policy, RNG consumption — shows up here as a one-line diff long
// before a human would notice it in a benchmark table. Future PRs run this
// as their seed-parity gate: an intentional behaviour change regenerates
// the fixture (and says so in review); an unintentional one fails loudly.
//
// Regenerate with:
//   PIPETTE_UPDATE_GOLDEN=1 ./tests/golden_test
// which rewrites tests/golden/golden_trace.json in the source tree.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

#ifndef GOLDEN_TRACE_PATH
#error "GOLDEN_TRACE_PATH must point at the checked-in fixture"
#endif

namespace pipette {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kFileMiB = 32;
constexpr std::uint64_t kWarmup = 5'000;
constexpr std::uint64_t kRequests = 20'000;

// %.17g round-trips every double exactly, so string equality on the
// rendered fixture is bit-equality on the values.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// `write_ratio` 0 renders the historic read-only matrix; nonzero renders
// the write-mix matrix (run at an explicit page-sized mapping unit, pinning
// that MU = 4096 spelled out stays the same device as the page-granular
// default — see golden_mu_trace.json).
std::string render_golden(const char* workload_name, double write_ratio,
                          std::uint32_t mapping_unit) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"workload\": \"" << workload_name << "\",\n";
  out << "  \"file_mib\": " << kFileMiB << ",\n";
  out << "  \"seed\": " << kSeed << ",\n";
  out << "  \"warmup\": " << kWarmup << ",\n";
  out << "  \"requests\": " << kRequests << ",\n";
  out << "  \"cells\": [\n";
  bool first = true;
  for (PathKind kind : kAllPaths) {
    SyntheticConfig sc = table1_workload('C', Distribution::kUniform, kSeed);
    sc.file_size = kFileMiB * kMiB;
    sc.write_ratio = write_ratio;
    SyntheticWorkload workload(sc);
    MachineConfig machine = default_machine(kind);
    machine.mapping_unit = mapping_unit;
    const RunResult r = run_experiment(machine, workload, {kRequests, kWarmup});
    if (!first) out << ",\n";
    first = false;
    out << "    {\n";
    out << "      \"path\": \"" << r.path_name << "\",\n";
    out << "      \"requests\": " << fmt(r.requests) << ",\n";
    out << "      \"measured_reads\": " << fmt(r.measured_reads) << ",\n";
    out << "      \"bytes_requested\": " << fmt(r.bytes_requested) << ",\n";
    out << "      \"elapsed_ns\": " << fmt(r.elapsed) << ",\n";
    out << "      \"traffic_bytes\": " << fmt(r.traffic_bytes) << ",\n";
    out << "      \"mean_latency_us\": " << fmt(r.mean_latency_us) << ",\n";
    out << "      \"p50_latency_us\": " << fmt(r.p50_latency_us) << ",\n";
    out << "      \"p99_latency_us\": " << fmt(r.p99_latency_us) << ",\n";
    out << "      \"page_cache_hit_ratio\": " << fmt(r.page_cache_hit_ratio)
        << ",\n";
    out << "      \"fgrc_hit_ratio\": " << fmt(r.fgrc_hit_ratio) << ",\n";
    out << "      \"page_cache_bytes\": " << fmt(r.page_cache_bytes) << ",\n";
    out << "      \"fgrc_bytes\": " << fmt(r.fgrc_bytes) << ",\n";
    out << "      \"events_executed\": " << fmt(r.events_executed) << "\n";
    out << "    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

// Fleet-layer tripwire: four small fleets (plain, and one per outage
// policy) with every deterministic FleetResult aggregate and each shard's
// requests:measured_reads:elapsed:events:failed_reads:retries pinned. The
// fleets run at the default R=1 / kPrimaryOnly through the ReplicaRouter,
// so this fixture pins the router's outage rules (fail-fast reject,
// retry-backoff defer and replay, reroute around the ring) bit for bit.
std::string render_golden_fleet() {
  constexpr std::uint64_t kFleetWarmup = 600;
  constexpr std::uint64_t kFleetRequests = 1'200;

  struct Cell {
    const char* name;
    std::size_t shards;
    PartitionScheme partition;
    PathKind kind;
    FleetFaultPlan faults;
  };
  FleetFaultPlan fail_fast;
  fail_fast.outages = {{/*shard=*/1, /*fail_at=*/800, /*recover_at=*/1200}};
  fail_fast.policy = DownShardPolicy::kFailFast;
  FleetFaultPlan retry;
  retry.outages = {{/*shard=*/2, /*fail_at=*/700, /*recover_at=*/1000}};
  retry.policy = DownShardPolicy::kRetryBackoff;
  FleetFaultPlan reroute;
  reroute.outages = {{/*shard=*/0, /*fail_at=*/800, /*recover_at=*/1300}};
  reroute.policy = DownShardPolicy::kReroute;
  const Cell cells[] = {
      {"hash-pipette-4", 4, PartitionScheme::kHash, PathKind::kPipette, {}},
      {"range-blockio-3-failfast", 3, PartitionScheme::kRange,
       PathKind::kBlockIo, fail_fast},
      {"hash-pipette-4-retry", 4, PartitionScheme::kHash, PathKind::kPipette,
       retry},
      {"hash-blockio-3-reroute", 3, PartitionScheme::kHash, PathKind::kBlockIo,
       reroute},
  };

  std::ostringstream out;
  out << "{\n";
  out << "  \"workload\": \"table1-C-zipf-8mib\",\n";
  out << "  \"seed\": " << kSeed << ",\n";
  out << "  \"warmup\": " << kFleetWarmup << ",\n";
  out << "  \"requests\": " << kFleetRequests << ",\n";
  out << "  \"cells\": [\n";
  bool first = true;
  for (const Cell& cell : cells) {
    FleetConfig fleet;
    fleet.shards = cell.shards;
    fleet.partition = cell.partition;
    fleet.machine = default_machine(cell.kind);
    fleet.faults = cell.faults;
    FleetRunner runner(
        fleet,
        [](std::uint64_t seed) -> std::unique_ptr<Workload> {
          SyntheticConfig sc = table1_workload('C', Distribution::kZipf, seed);
          sc.file_size = 8 * kMiB;
          return std::make_unique<SyntheticWorkload>(sc);
        },
        kSeed);
    const FleetResult r = runner.run({kFleetRequests, kFleetWarmup},
                                     /*jobs=*/1);
    if (!first) out << ",\n";
    first = false;
    out << "    {\n";
    out << "      \"cell\": \"" << cell.name << "\",\n";
    out << "      \"requests\": " << fmt(r.requests) << ",\n";
    out << "      \"measured_reads\": " << fmt(r.measured_reads) << ",\n";
    out << "      \"bytes_requested\": " << fmt(r.bytes_requested) << ",\n";
    out << "      \"traffic_bytes\": " << fmt(r.traffic_bytes) << ",\n";
    out << "      \"events_executed\": " << fmt(r.events_executed) << ",\n";
    out << "      \"retries\": " << fmt(r.retries) << ",\n";
    out << "      \"failed_reads\": " << fmt(r.failed_reads) << ",\n";
    out << "      \"degraded_reads\": " << fmt(r.degraded_reads) << ",\n";
    out << "      \"down_requests\": " << fmt(r.down_requests) << ",\n";
    out << "      \"makespan_ns\": " << fmt(r.makespan) << ",\n";
    out << "      \"mean_latency_us\": " << fmt(r.mean_latency_us) << ",\n";
    out << "      \"p50_latency_us\": " << fmt(r.p50_latency_us) << ",\n";
    out << "      \"p99_latency_us\": " << fmt(r.p99_latency_us) << ",\n";
    out << "      \"p999_latency_us\": "
        << fmt(to_us(r.latency.percentile(99.9))) << ",\n";
    out << "      \"availability\": " << fmt(r.availability()) << ",\n";
    out << "      \"max_shard_requests\": " << fmt(r.max_shard_requests)
        << ",\n";
    out << "      \"min_shard_requests\": " << fmt(r.min_shard_requests)
        << ",\n";
    out << "      \"mean_shard_requests\": " << fmt(r.mean_shard_requests)
        << ",\n";
    out << "      \"load_imbalance\": " << fmt(r.load_imbalance) << ",\n";
    out << "      \"hottest_shard\": " << fmt(r.hottest_shard) << ",\n";
    out << "      \"hottest_shard_fgrc_hit_ratio\": "
        << fmt(r.hottest_shard_fgrc_hit_ratio) << ",\n";
    out << "      \"shards\": [\n";
    for (std::size_t s = 0; s < r.shard_results.size(); ++s) {
      const RunResult& sr = r.shard_results[s];
      out << "        \"" << fmt(sr.requests) << ":" << fmt(sr.measured_reads)
          << ":" << fmt(sr.elapsed) << ":" << fmt(sr.events_executed) << ":"
          << fmt(sr.failed_reads) << ":" << fmt(sr.retries) << "\""
          << (s + 1 < r.shard_results.size() ? ",\n" : "\n");
    }
    out << "      ]\n";
    out << "    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void check_against_fixture(const std::string& actual, const char* path) {
  if (std::getenv("PIPETTE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(static_cast<bool>(out));
    GTEST_SKIP() << "golden trace regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << "; regenerate with PIPETTE_UPDATE_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  // Line-by-line so a drifted field reads as `"elapsed_ns": old vs new`,
  // not as an opaque whole-file mismatch.
  const std::vector<std::string> want = lines_of(expected);
  const std::vector<std::string> got = lines_of(actual);
  ASSERT_EQ(want.size(), got.size())
      << "fixture shape changed; regenerate with PIPETTE_UPDATE_GOLDEN=1 "
         "if intentional";
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i])
        << "golden trace drift at " << path << ":" << (i + 1)
        << " — if this change is intentional, regenerate with "
           "PIPETTE_UPDATE_GOLDEN=1 and call it out in review";
  }
}

TEST(GoldenTrace, MatchesCheckedInFixture) {
  check_against_fixture(render_golden("table1-C-uniform", 0.0, 0),
                        GOLDEN_TRACE_PATH);
}

// Write-mix twin at an explicitly spelled page-sized mapping unit: pins the
// merged-write allocator, GC, and MU accounting on the write path against
// drift. (That `mapping_unit = 4096` equals the page-granular default is
// separately pinned by tests/ftl_test.cpp's differential sweep, so this
// fixture pins both spellings at once.)
TEST(GoldenTrace, WriteMixAtExplicitPageMuMatchesFixture) {
  check_against_fixture(
      render_golden("table1-C-uniform-wr20", 0.2, 4096),
      GOLDEN_MU_TRACE_PATH);
}

// Fleet fixture: pins the unreplicated fleet — partitioned routing, all
// three outage policies, merge aggregates — against bits on disk, not
// against a same-binary rerun.
TEST(GoldenTrace, FleetMatchesCheckedInFixture) {
  check_against_fixture(render_golden_fleet(), GOLDEN_FLEET_TRACE_PATH);
}

}  // namespace
}  // namespace pipette
