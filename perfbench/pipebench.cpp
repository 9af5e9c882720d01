// pipebench: the repository benchmark program.
//
// Runs one named workload against the simulator through its public API
// (Machine, run_experiment_on with RunHooks, FleetRunner::run,
// Machine::collect_metrics, Ftl, Vfs, FileSystem::extract_lbas, DiskContent)
// and prints one JSON result line on stdout. Human-readable detail goes to
// stderr.
//
// Every workload is a closed loop with one client: the runner issues the
// next request only after the previous one has completed in simulated time.
// Host time is therefore reported as batch work per second at the stated
// request counts.
//
// Two clocks:
//  * sim-clock metrics (sim_p50_us, sim_p999_us, sim_kiops, read_amp) are a
//    pure function of the workload and seed; every repetition inside a run
//    must reproduce them exactly, and the traced run must match the
//    untraced one (RunResult::Deterministic / deterministic_equal);
//  * host-clock metrics (wall_s, setup_s, host_req_per_s, peak_rss_mb) are
//    medians over the repetitions that fit in --seconds.
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 runs one untraced and one traced repetition and reports the
// per-layer metrics of the traced one; its spans (build, run, per-request
// next/issue samples, teardown, the standalone Ftl probe) are kept in memory
// and written to --trace-out as a Chrome trace.
//
// Usage:
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--short] [--trace-out PATH]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/units.h"
#include "common/zipf.h"
#include "fleet/fleet.h"
#include "sim/experiment.h"
#include "sim/machine.h"
#include "ssd/ftl.h"
#include "workload/synthetic.h"

using namespace pipette;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(pages) * page / static_cast<double>(kMiB);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// ---------------------------------------------------------------------------
// Workloads

/// gc_wear_sweep's sub-page write mix: 512 B uniform reads beside 512 B
/// rewrites of Zipf(0.9)-popular slots, ranks hashed onto the slot space so
/// hot slots scatter across pages and blocks.
class ZipfSlotWorkload : public Workload {
 public:
  ZipfSlotWorkload(std::uint64_t file_size, double write_ratio,
                   std::uint64_t seed)
      : rng_(seed),
        seed_(seed),
        write_ratio_(write_ratio),
        slots_(file_size / 512),
        zipf_(slots_, 0.9) {
    files_.push_back({"gc.dat", file_size});
  }

  const std::vector<FileSpec>& files() const override { return files_; }
  Request next() override {
    if (rng_.next_bool(write_ratio_)) {
      const std::uint64_t slot = mix64(seed_ ^ zipf_.sample(rng_)) % slots_;
      return {0, slot * 512, 512, true};
    }
    return {0, rng_.next_below(slots_) * 512, 512, false};
  }
  std::string name() const override { return "gc-zipf-slot"; }

 private:
  std::vector<FileSpec> files_;
  Rng rng_;
  std::uint64_t seed_;
  double write_ratio_;
  std::uint64_t slots_;
  ZipfGenerator zipf_;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(std::uint64_t seed)>;

struct Spec {
  const char* name;
  MachineConfig machine;  // for the fleet: every shard's machine
  WorkloadFactory make;
  std::uint64_t warmup;    // per stream; fleet: master-stream requests
  std::uint64_t requests;  // measured per stream; fleet: master stream
  std::size_t shards;      // 0 = single machine
  /// Independent streams per repetition, each on a fresh machine with seed
  /// Rng::split_seed(seed, k) (1 = the seed itself); their sim results are
  /// pooled.
  std::size_t streams = 1;
};

constexpr unsigned kFleetWorkers = 2;

std::unique_ptr<Workload> synthetic(char mix, Distribution dist,
                                    std::uint64_t seed) {
  return std::make_unique<SyntheticWorkload>(table1_workload(mix, dist, seed));
}

// Warm-ups are sized so the cache that matters is full when measurement
// starts (hostmem.warm_resident_mb in the traced run shows it); the fleet is
// the stated exception (see README.md).
std::vector<Spec> all_specs() {
  std::vector<Spec> specs;
  // Pipette over HMB, Table-1 mix E: 100% 128 B reads, zipf 0.8, 256 MiB.
  specs.push_back({"fine_zipf", default_machine(PathKind::kPipette),
                   [](std::uint64_t seed) {
                     return synthetic('E', Distribution::kZipf, seed);
                   },
                   4'000'000, 500'000, 0});
  // Block I/O, Table-1 mix C: 50% 4 KiB / 50% 128 B, uniform over 256 MiB
  // against a 160 MiB page cache.
  specs.push_back({"block_uniform", default_machine(PathKind::kBlockIo),
                   [](std::uint64_t seed) {
                     return synthetic('C', Distribution::kUniform, seed);
                   },
                   200'000, 300'000, 0});
  {
    // bottleneck_report's GC-bound cell: a 16 MiB drive at 85% logical
    // occupancy, MU = 512, fine writes, 50% sub-page rewrites. Greedy GC at
    // this occupancy makes one stream's simulated throughput depend strongly
    // on its seed (the interquartile range over seeds is 6-20% of the
    // median), so each repetition pools four independent streams.
    MachineConfig c = default_machine(PathKind::kPipette);
    c.ssd.geometry.channels = 4;
    c.ssd.geometry.ways_per_channel = 2;
    c.ssd.geometry.planes_per_die = 1;
    c.ssd.geometry.blocks_per_plane = 16;
    c.ssd.geometry.pages_per_block = 32;
    c.ssd.lba_count = c.ssd.geometry.total_pages() * 85 / 100;
    c.ssd.read_buffer_bytes = 2 * kMiB;
    c.page_cache_bytes = 1 * kMiB;
    c.ssd.hmb.data_bytes = 1 * kMiB;
    c.pipette.fine_writes = true;
    c.mapping_unit = 512;
    const std::uint64_t file_size = (c.ssd.lba_count - 64) * kBlockSize;
    specs.push_back({"subpage_writes", c,
                     [file_size](std::uint64_t seed) {
                       return std::unique_ptr<Workload>(
                           std::make_unique<ZipfSlotWorkload>(file_size, 0.5,
                                                              seed));
                     },
                     50'000, 150'000, 0, 4});
  }
  // 8 shards of the default Pipette machine, R=1 primary-only, hash
  // partition, master stream Table-1 mix C zipf, 2 workers.
  specs.push_back({"fleet_hash8", default_machine(PathKind::kPipette),
                   [](std::uint64_t seed) {
                     return synthetic('C', Distribution::kZipf, seed);
                   },
                   400'000, 400'000, 8});
  return specs;
}

// ---------------------------------------------------------------------------
// Tracing: the benchmark's own spans, recorded around the public calls it
// makes. Nothing inside the simulator is instrumented.

constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};
/// Per-request spans are kept for one request in this many, to bound
/// memory; the per-call means below count every request.
constexpr std::uint64_t kRequestSample = 256;

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;            // index into the span list, -1 for a root
  std::uint64_t req;     // request id shared by one request's spans
  std::uint32_t track;   // one per workload instance (fleet shards)
};

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  int open(const char* name, int parent, std::uint32_t track = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now_ns(), 0, parent, kNoRequest, track});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  void append(const std::vector<Span>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  std::uint32_t new_track() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++tracks_;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it that its
  /// children's intervals cover (children on different threads may
  /// overlap, so the union is taken).
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0)
        kids[static_cast<std::size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
    }
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : iv) {
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
      const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      self[i] = dur > covered ? dur - covered : 0;
    }
    return self;
  }

  bool write_chrome_trace(const std::string& path) const {
    const std::vector<std::uint64_t> self = self_ns();
    JsonWriter w;
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.kv("name", s.name);
      w.kv("ph", "X");
      w.kv("pid", 1);
      w.kv("tid", s.track);
      w.kv("ts", static_cast<double>(s.start_ns) / 1e3, 3);
      w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3, 3);
      w.key("args");
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(i));
      w.kv("parent", static_cast<std::int64_t>(s.parent));
      if (s.req != kNoRequest) w.kv("req", s.req);
      w.kv("self_us", static_cast<double>(self[i]) / 1e3, 3);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.write_file(path);
  }

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t tracks_ = 0;
};

/// Lifetime of one workload instance, as the decorator saw it.
struct Instance {
  std::uint32_t track;
  std::uint64_t born_ns, first_ns, last_ns, died_ns;  // first/last next()
};

/// Shared sink the per-instance workload decorators fold into when they
/// are destroyed (fleet shards run on worker threads).
struct WorkloadSink {
  std::mutex mu;
  CallStats next;
  std::vector<Instance> instances;
};

/// Forwarding decorator that times every Workload::next call, under a
/// `workload.lifetime` span from its construction to its destruction.
/// Inside FleetRunner::run each shard creates its workload just before
/// building its machine and destroys it just after tearing the machine
/// down, so an instance's lifetime brackets the shard's build, run and
/// teardown.
class TimedWorkload : public Workload {
 public:
  TimedWorkload(std::unique_ptr<Workload> inner, SpanLog& log, int parent,
                WorkloadSink& sink)
      : inner_(std::move(inner)),
        log_(log),
        sink_(sink),
        track_(log.new_track()),
        lifetime_(log.open("workload.lifetime", parent, track_)),
        born_ns_(log.now_ns()) {}
  ~TimedWorkload() override {
    const std::uint64_t died = log_.now_ns();
    if (stats_.calls == 0) first_ns_ = last_ns_ = died;
    log_.close(lifetime_);
    log_.append(spans_);
    std::lock_guard<std::mutex> lock(sink_.mu);
    sink_.next.calls += stats_.calls;
    sink_.next.ns += stats_.ns;
    sink_.instances.push_back({track_, born_ns_, first_ns_, last_ns_, died});
  }
  TimedWorkload(const TimedWorkload&) = delete;
  TimedWorkload& operator=(const TimedWorkload&) = delete;

  const std::vector<FileSpec>& files() const override {
    return inner_->files();
  }
  std::string name() const override { return inner_->name(); }
  Request next() override {
    const std::uint64_t t0 = log_.now_ns();
    const Request r = inner_->next();
    const std::uint64_t t1 = log_.now_ns();
    if (stats_.calls == 0) first_ns_ = t0;
    last_ns_ = t1;
    if (stats_.calls % kRequestSample == 0)
      spans_.push_back({"workload.next", t0, t1, lifetime_, stats_.calls,
                        track_});
    ++stats_.calls;
    stats_.ns += t1 - t0;
    return r;
  }

 private:
  std::unique_ptr<Workload> inner_;
  SpanLog& log_;
  WorkloadSink& sink_;
  std::uint32_t track_;
  int lifetime_;
  std::uint64_t born_ns_;
  std::uint64_t first_ns_ = 0;
  std::uint64_t last_ns_ = 0;
  CallStats stats_;
  std::vector<Span> spans_;
};

/// What the traced repetition measures beyond the untraced one.
struct TraceData {
  SpanLog log;
  WorkloadSink workload;
  CallStats issue;
  int root = -1;
  // Sums over the repetition's streams or shards.
  double workload_build_s = 0.0;
  double machine_build_s = 0.0;
  double machine_teardown_s = 0.0;
  double run_call_s = 0.0;  // in run_experiment_on / FleetRunner::run
  double prepass_s = 0.0;   // fleet: the runner's counting pre-pass
  double rss_after_build_mb = 0.0;
  double ftl_build_s = 0.0;
  // Resident cache bytes when the first stream's measurement starts
  // (single-machine workloads only: the fleet's hook is internal).
  std::uint64_t page_cache_at_measure = 0;
  std::uint64_t fgrc_at_measure = 0;
};

// ---------------------------------------------------------------------------
// One repetition: set up, warm up, measure, verify (untimed), tear down.

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double wall_s = 0.0;
  std::vector<RunResult> streams;  // single-machine workloads, one per stream
  FleetResult fleet;
  std::uint64_t attempted = 0;  // requests issued + verification reads
  std::uint64_t failed = 0;     // failed reads/writes + verify mismatches
};

/// Read back a seeded sample of the workload's ranges through the VFS and
/// compare every byte with the pristine content of the LBAs the file
/// system maps them to. Ranges the run wrote are skipped: they are found by
/// regenerating the run's request stream from its seed.
void verify_machine(const Spec& spec, std::uint64_t seed, Machine& machine,
                    Rep& rep) {
  constexpr std::uint64_t kGranule = 512;
  auto granule = [](std::uint32_t file, std::uint64_t offset) {
    return (static_cast<std::uint64_t>(file) << 48) | (offset / kGranule);
  };
  std::unordered_set<std::uint64_t> written;
  {
    std::unique_ptr<Workload> replay = spec.make(seed);
    for (std::uint64_t i = 0; i < spec.warmup + spec.requests; ++i) {
      const Request r = replay->next();
      if (!r.is_write) continue;
      for (std::uint64_t off = r.offset; off < r.offset + r.len;
           off += kGranule - off % kGranule)
        written.insert(granule(r.file_index, off));
    }
  }

  std::unique_ptr<Workload> sample = spec.make(mix64(seed ^ 0x7e51f1edULL));
  Vfs& vfs = machine.vfs();
  std::vector<int> fds;
  for (const FileSpec& f : sample->files())
    fds.push_back(vfs.open(f.name, machine.open_flags(/*writable=*/false)));

  constexpr std::uint64_t kReads = 4096;
  std::vector<std::uint8_t> buf;
  std::vector<LbaRange> lbas;
  std::uint64_t reads = 0, mismatches = 0, failed = 0;
  for (std::uint64_t draw = 0; reads < kReads && draw < 64 * kReads; ++draw) {
    const Request r = sample->next();
    if (r.is_write) continue;
    bool overlaps = false;
    for (std::uint64_t off = r.offset; off < r.offset + r.len && !overlaps;
         off += kGranule - off % kGranule)
      overlaps = written.count(granule(r.file_index, off)) != 0;
    if (overlaps) continue;

    ++reads;
    const int fd = fds[r.file_index];
    buf.assign(r.len, 0);
    const std::uint64_t failed0 = machine.path().stats().failed_reads;
    vfs.pread(fd, r.offset, {buf.data(), buf.size()});
    if (machine.path().stats().failed_reads != failed0) {
      ++failed;
      continue;
    }
    lbas.clear();
    vfs.fs().extract_lbas(vfs.file_of(fd), r.offset, r.len, lbas);
    const DiskContent& content = machine.ssd().content();
    std::size_t pos = 0;
    bool bad = false;
    for (const LbaRange& range : lbas) {
      for (std::uint32_t i = 0; i < range.len && !bad; ++i)
        bad = buf[pos + i] !=
              content.pristine_byte(range.lba, range.offset + i);
      pos += range.len;
    }
    if (bad || pos != r.len) ++mismatches;
  }
  for (int fd : fds) vfs.close(fd);
  rep.attempted += reads;
  rep.failed += mismatches + failed;
  if (reads == 0 || mismatches + failed != 0) {
    std::fprintf(stderr,
                 "pipebench: verify: %llu of %llu sampled reads wrong "
                 "(%llu mismatched, %llu failed)\n",
                 static_cast<unsigned long long>(mismatches + failed),
                 static_cast<unsigned long long>(reads),
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(failed));
    if (reads == 0) ++rep.failed;  // nothing could be checked
  }
}

/// Time a standalone Ftl with `machine`'s geometry, LBA count and MU.
void probe_ftl(const Spec& spec, Machine& machine, TraceData& tr) {
  const int s_ftl = tr.log.open("ssd.ftl_probe", tr.root);
  const auto f0 = Clock::now();
  auto ftl = std::make_unique<Ftl>(spec.machine.ssd.geometry,
                                   machine.ssd().ftl().lba_count(),
                                   machine.ssd().ftl().mapping_unit());
  tr.ftl_build_s = seconds_between(f0, Clock::now());
  ftl.reset();
  tr.log.close(s_ftl);
}

/// One stream on its own machine. Fills in `rep`'s times, counts and
/// result; with `tr`, also the traced-only measurements.
void run_stream(const Spec& spec, std::uint64_t seed, bool first,
                TraceData* tr, Rep& rep) {
  SpanLog* log = tr != nullptr ? &tr->log : nullptr;
  const int root = tr != nullptr ? tr->root : -1;

  const auto t0 = Clock::now();
  const int s_build = log ? log->open("build", root) : -1;
  const int s_wl = log ? log->open("workload.build", s_build) : -1;
  std::unique_ptr<Workload> workload = spec.make(seed);
  const auto t1 = Clock::now();
  if (log) log->close(s_wl);
  const int s_machine = log ? log->open("machine.build", s_build) : -1;
  auto machine = std::make_unique<Machine>(spec.machine, workload->files());
  const auto t2 = Clock::now();
  if (log) {
    log->close(s_machine);
    log->close(s_build);
  }

  const RunConfig run{spec.requests, spec.warmup, {}};
  RunResult result;
  if (tr == nullptr) {
    result = run_experiment_on(*machine, *workload, run);
  } else {
    tr->workload_build_s += seconds_between(t0, t1);
    tr->machine_build_s += seconds_between(t1, t2);
    if (first) tr->rss_after_build_mb = current_rss_mb();
    // The decorator lives until teardown, past the run span, so its
    // lifetime span hangs off the root.
    workload = std::make_unique<TimedWorkload>(std::move(workload), *log,
                                               root, tr->workload);
    const int s_run = log->open("run_experiment_on", root);
    std::uint64_t issued = 0;
    std::vector<Span> issue_spans;
    RunHooks hooks;
    hooks.on_request = [&](const Request& req, const RunHooks::IssueFn& issue) {
      if (first && issued == spec.warmup) {
        if (PageCache* pc = machine->page_cache())
          tr->page_cache_at_measure = pc->resident_bytes();
        if (PipettePath* p = machine->pipette_path())
          tr->fgrc_at_measure = p->fgrc().memory_bytes();
      }
      const std::uint64_t a = log->now_ns();
      issue(req);
      const std::uint64_t b = log->now_ns();
      if (issued % kRequestSample == 0)
        issue_spans.push_back({"iopath.issue", a, b, s_run, issued, 0});
      tr->issue.ns += b - a;
      ++tr->issue.calls;
      ++issued;
      return true;
    };
    result = run_experiment_on(*machine, *workload, run, hooks);
    log->close(s_run);
    log->append(issue_spans);
  }
  const auto t3 = Clock::now();

  rep.attempted += spec.warmup + spec.requests;
  rep.failed += result.metrics.value("path.failed_reads") +
                result.metrics.value("path.failed_writes");
  verify_machine(spec, seed, *machine, rep);
  if (tr != nullptr && first) probe_ftl(spec, *machine, *tr);

  const auto t4 = Clock::now();
  const int s_down = log ? log->open("teardown", root) : -1;
  machine.reset();
  workload.reset();
  const auto t5 = Clock::now();
  if (log) log->close(s_down);

  rep.setup_s += seconds_between(t0, t2);
  rep.run_s += seconds_between(t2, t3);
  rep.teardown_s += seconds_between(t4, t5);
  if (tr != nullptr) {
    tr->machine_teardown_s += seconds_between(t4, t5);
    tr->run_call_s += seconds_between(t2, t3);
  }
  rep.streams.push_back(std::move(result));
}

Rep run_single(const Spec& spec, std::uint64_t seed, TraceData* tr) {
  Rep rep;
  for (std::size_t k = 0; k < spec.streams; ++k) {
    const std::uint64_t stream_seed =
        spec.streams == 1 ? seed : Rng::split_seed(seed, k);
    run_stream(spec, stream_seed, k == 0, tr, rep);
  }
  rep.wall_s = rep.setup_s + rep.run_s + rep.teardown_s;
  return rep;
}

Rep run_fleet(const Spec& spec, std::uint64_t seed, TraceData* tr) {
  Rep rep;
  FleetConfig config;
  config.shards = spec.shards;
  config.partition = PartitionScheme::kHash;
  config.machine = spec.machine;

  SpanLog* log = tr != nullptr ? &tr->log : nullptr;
  int s_run = -1;
  SeededWorkloadFactory factory = spec.make;
  if (tr != nullptr) {
    s_run = log->open("FleetRunner::run", tr->root);
    factory = [&spec, tr, s_run](std::uint64_t s) -> std::unique_ptr<Workload> {
      return std::make_unique<TimedWorkload>(spec.make(s), tr->log, s_run,
                                             tr->workload);
    };
  }
  const RunConfig run{spec.requests, spec.warmup, {}};
  const auto t0 = Clock::now();
  {
    FleetRunner runner(config, factory, seed);
    rep.fleet = runner.run(run, kFleetWorkers);
  }
  const auto t1 = Clock::now();
  if (log) log->close(s_run);

  double shard_s = 0.0;
  for (const RunResult& r : rep.fleet.shard_results) shard_s += r.host_seconds;
  rep.wall_s = seconds_between(t0, t1);
  rep.run_s = rep.wall_s;
  rep.setup_s = rep.wall_s - shard_s / kFleetWorkers;

  // Every master request must be served, none may fail.
  rep.attempted = spec.warmup + spec.requests;
  rep.failed = rep.fleet.failed_reads + rep.fleet.down_requests +
               rep.fleet.metrics.value("path.failed_writes");
  if (rep.fleet.requests != spec.requests) {
    std::fprintf(stderr, "pipebench: fleet served %llu of %llu requests\n",
                 static_cast<unsigned long long>(rep.fleet.requests),
                 static_cast<unsigned long long>(spec.requests));
    rep.failed += rep.fleet.requests > spec.requests
                      ? rep.fleet.requests - spec.requests
                      : spec.requests - rep.fleet.requests;
  }

  if (tr != nullptr) {
    tr->run_call_s = rep.wall_s;
    // The first workload the runner creates drives the counting pre-pass;
    // every later one belongs to a shard, and its lifetime brackets that
    // shard's machine build (up to the first next()) and teardown (after
    // the last).
    std::vector<Instance>& seen = tr->workload.instances;
    std::sort(seen.begin(), seen.end(),
              [](const Instance& a, const Instance& b) {
                return a.track < b.track;
              });
    for (std::size_t i = 0; i < seen.size(); ++i) {
      const Instance& in = seen[i];
      if (i == 0) {
        tr->prepass_s = static_cast<double>(in.died_ns - in.born_ns) / 1e9;
        continue;
      }
      tr->machine_build_s +=
          static_cast<double>(in.first_ns - in.born_ns) / 1e9;
      tr->machine_teardown_s +=
          static_cast<double>(in.died_ns - in.last_ns) / 1e9;
    }
    // One shard machine outside the runner for its RSS and the Ftl probe.
    const auto b0 = Clock::now();
    std::unique_ptr<Workload> workload = spec.make(seed);
    tr->workload_build_s = seconds_between(b0, Clock::now());
    auto machine = std::make_unique<Machine>(spec.machine, workload->files());
    tr->rss_after_build_mb = current_rss_mb();
    probe_ftl(spec, *machine, *tr);
  }
  return rep;
}

Rep run_rep(const Spec& spec, std::uint64_t seed, TraceData* tr) {
  return spec.shards == 0 ? run_single(spec, seed, tr)
                          : run_fleet(spec, seed, tr);
}

bool same_sim(const Spec& spec, const Rep& a, const Rep& b) {
  if (spec.shards != 0) return deterministic_equal(a.fleet, b.fleet);
  if (a.streams.size() != b.streams.size()) return false;
  for (std::size_t k = 0; k < a.streams.size(); ++k) {
    if (a.streams[k].Deterministic() != b.streams[k].Deterministic())
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

/// Per-machine results of a repetition: the streams of a single-machine
/// workload, the shards of the fleet.
const std::vector<RunResult>& parts(const Spec& spec, const Rep& rep) {
  return spec.shards == 0 ? rep.streams : rep.fleet.shard_results;
}

/// Sim-clock end-to-end metrics of one repetition (deterministic per seed).
/// Streams are pooled: their latency histograms merge and their requests,
/// simulated time and bytes add up.
struct SimMetrics {
  double p50_us, p999_us, kiops, read_amp;
  std::uint64_t measured_reads;
};

SimMetrics sim_metrics(const Spec& spec, const Rep& rep) {
  if (spec.shards != 0) {
    const FleetResult& f = rep.fleet;
    return {f.p50_latency_us, f.p999_latency_us, f.requests_per_sec() / 1e3,
            ratio(f.traffic_bytes, f.bytes_requested), f.measured_reads};
  }
  LatencyHistogram latency;
  std::uint64_t requests = 0, traffic = 0, bytes = 0;
  SimDuration elapsed = 0;
  for (const RunResult& r : rep.streams) {
    latency.merge(r.read_latency);
    requests += r.requests;
    traffic += r.traffic_bytes;
    bytes += r.bytes_requested;
    elapsed += r.elapsed;
  }
  return {to_us(latency.percentile(50)), to_us(latency.percentile(99.9)),
          elapsed == 0 ? 0.0
                       : static_cast<double>(requests) /
                             (static_cast<double>(elapsed) / 1e9) / 1e3,
          ratio(traffic, bytes), latency.count()};
}

std::vector<Metric> end_to_end(const Spec& spec, const std::vector<Rep>& reps) {
  std::vector<double> wall, setup, rate;
  const double issued = static_cast<double>(
      (spec.warmup + spec.requests) * (spec.shards == 0 ? spec.streams : 1));
  for (const Rep& r : reps) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    rate.push_back(issued / r.run_s);
  }
  const SimMetrics s = sim_metrics(spec, reps.front());
  return {
      {"wall_s", "s", median(wall)},
      {"setup_s", "s", median(setup)},
      {"host_req_per_s", "req/s", median(rate)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
      {"sim_p50_us", "sim_us", s.p50_us},
      {"sim_p999_us", "sim_us", s.p999_us},
      {"sim_kiops", "kreq/s", s.kiops},
      {"read_amp", "ratio", s.read_amp},
  };
}

std::vector<Metric> per_layer(const Spec& spec, const Rep& traced,
                              const Rep& untraced, const TraceData& tr) {
  const bool fleet = spec.shards != 0;
  const unsigned workers = fleet ? kFleetWorkers : 1;
  MetricsRegistry m;
  std::uint64_t events = 0;
  // Hit ratios: measured-phase ratios weighted by measured requests.
  double shard_s = 0.0, pc_hits = 0.0, fgrc_hits = 0.0, measured = 0.0;
  for (const RunResult& r : parts(spec, traced)) {
    m.merge_add(r.metrics);
    events += r.events_executed;
    shard_s += r.host_seconds;
    const double w = static_cast<double>(r.requests);
    pc_hits += r.page_cache_hit_ratio * w;
    fgrc_hits += r.fgrc_hit_ratio * w;
    measured += w;
  }
  auto v = [&m](const char* name) {
    return static_cast<double>(m.value(name));
  };
  // Requests the machines issued, warm-up included. Each master request
  // of the fleet reaches exactly one shard.
  const std::uint64_t requests =
      m.value("path.reads") + m.value("path.writes");

  // Per-request host time. On the fleet the request hook is inside
  // FleetRunner, so issue time is shard run time minus next() time (the
  // per-request work of run_experiment_on included), and the runner's own
  // time is its counting pre-pass.
  double issue_total_ns = 0.0, issue_ns = 0.0, runner_s = 0.0;
  if (fleet) {
    issue_total_ns = shard_s * 1e9 - static_cast<double>(tr.workload.next.ns);
    issue_ns = issue_total_ns / static_cast<double>(requests);
    runner_s = tr.prepass_s;
  } else {
    issue_total_ns = static_cast<double>(tr.issue.ns);
    issue_ns = ratio(tr.issue.ns, tr.issue.calls);
    runner_s = tr.run_call_s -
               static_cast<double>(tr.workload.next.ns + tr.issue.ns) / 1e9;
  }

  const double sim_ns = v("util.sim_time_ns");
  const double die_units = v("util.nand_die.units");
  return {
      {"sim.build_s", "s", tr.machine_build_s},
      {"sim.teardown_s", "s", tr.machine_teardown_s},
      {"sim.runner_s", "s", runner_s},
      {"sim.rss_after_build_mb", "MiB", tr.rss_after_build_mb},
      {"workload.build_s", "s", tr.workload_build_s},
      {"workload.next_ns", "ns",
       ratio(tr.workload.next.ns, tr.workload.next.calls)},
      {"iopath.issue_ns", "ns", issue_ns},
      {"pipette.fine_reads", "count", v("pipette.fine_reads")},
      {"pipette.block_reads", "count", v("pipette.block_reads")},
      {"des.events_per_req", "count", ratio(events, requests)},
      {"des.host_ns_per_event", "ns",
       events == 0 ? 0.0 : issue_total_ns / static_cast<double>(events)},
      {"des.slab_peak", "count", v("des.slab_peak")},
      {"hostmem.page_cache_hit_ratio", "ratio",
       measured > 0 ? pc_hits / measured : 0.0},
      {"page_cache.evictions", "count", v("page_cache.evictions")},
      {"hostmem.readahead_waste", "ratio",
       ratio(m.value("page_cache.evicted_never_used"),
             m.value("page_cache.readahead_pages"))},
      {"hostmem.warm_resident_mb", "MiB",
       static_cast<double>(tr.page_cache_at_measure + tr.fgrc_at_measure) /
           static_cast<double>(kMiB)},
      {"pipette.fgrc_hit_ratio", "ratio",
       measured > 0 ? fgrc_hits / measured : 0.0},
      {"fgrc.promotions", "count", v("fgrc.promotions")},
      {"fgrc.tempbuf_fills", "count", v("fgrc.tempbuf_fills")},
      {"fgrc.slab_evictions", "count", v("fgrc.slab_evictions")},
      {"fgrc.adaptive_threshold", "count", v("fgrc.adaptive_threshold")},
      {"fgrc.invalidations", "count", v("fgrc.invalidations")},
      {"ssd.ftl_build_s", "s", tr.ftl_build_s},
      {"ssd.read_buffer_hit_ratio", "ratio",
       ratio(m.value("ssd.read_buffer_hits"),
             m.value("ssd.read_buffer_hits") +
                 m.value("ssd.read_buffer_misses"))},
      {"ssd.pcie_busy_share", "ratio",
       sim_ns == 0 ? 0.0 : v("util.pcie_link.busy_ns") / sim_ns},
      {"ssd.pcie_wait_ns_per_op", "sim_ns",
       ratio(m.value("queue.pcie_link.wait_ns"),
             m.value("util.pcie_link.ops"))},
      {"ssd.write_amp", "ratio", v("ftl.write_amp_x1000") / 1000.0},
      {"ftl.gc_collections", "count", v("ftl.gc_collections")},
      {"ftl.gc_relocated_mus", "count", v("ftl.gc_relocated_mus")},
      {"nand.die_busy_share", "ratio",
       sim_ns * die_units == 0
           ? 0.0
           : v("util.nand_die.busy_ns") / (die_units * sim_ns)},
      {"nand.die_wait_ns_per_op", "sim_ns",
       ratio(m.value("queue.nand_die.wait_ns"), m.value("util.nand_die.ops"))},
      {"nand.page_reads", "count", v("nand.page_reads")},
      {"nand.page_programs", "count", v("nand.page_programs")},
      {"util.gc.busy_ns", "sim_ns", v("util.gc.busy_ns")},
      {"util.gc.foreground_blocked_ns", "sim_ns",
       v("util.gc.foreground_blocked_ns")},
      {"fleet.shard_run_s", "s", shard_s},
      {"fleet.worker_util", "ratio", shard_s / (traced.wall_s * workers)},
      {"fleet.load_imbalance", "ratio",
       fleet ? traced.fleet.load_imbalance : 1.0},
      {"obs.trace_overhead", "ratio", traced.wall_s / untraced.wall_s},
      {"ops_failed_ratio", "ratio",
       ratio(traced.failed + untraced.failed,
             traced.attempted + untraced.attempted)},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool short_run = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\n"
               "usage: pipebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--short] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a.short_run = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = parse_u64("--seed", val);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64("--seconds", val));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64("--trace", val);
      if (t > 1) usage("--trace takes 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.trace < 0 || a.seconds <= 0.0)
    usage("--workload, --seconds and --trace are required");
  return a;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<Spec> specs = all_specs();
  auto it = std::find_if(specs.begin(), specs.end(), [&](const Spec& s) {
    return args.workload == s.name;
  });
  if (it == specs.end()) usage(("unknown workload " + args.workload).c_str());
  Spec spec = *it;
  if (args.short_run) {
    spec.warmup /= 20;
    spec.requests /= 20;
  }

  bool correct = true;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Rep> reps;

  if (args.trace == 0) {
    // Untraced repetitions until the next one would overrun --seconds (at
    // least one); host metrics are their medians.
    const auto start = Clock::now();
    while (true) {
      reps.push_back(run_rep(spec, args.seed, nullptr));
      const Rep& r = reps.back();
      std::fprintf(stderr,
                   "rep %zu: setup %.4f s, run %.4f s, teardown %.4f s, "
                   "wall %.4f s\n",
                   reps.size(), r.setup_s, r.run_s, r.teardown_s, r.wall_s);
      const double elapsed = seconds_between(start, Clock::now());
      const double per_rep = elapsed / static_cast<double>(reps.size());
      if (elapsed + per_rep > args.seconds || reps.size() >= 64) break;
    }
    metrics = end_to_end(spec, reps);
  } else {
    reps.push_back(run_rep(spec, args.seed, nullptr));
    TraceData tr;
    tr.root = tr.log.open(spec.name, -1);
    reps.push_back(run_rep(spec, args.seed, &tr));
    tr.log.close(tr.root);
    metrics = per_layer(spec, reps[1], reps[0], tr);
    std::fprintf(stderr,
                 "warm caches at start of measurement: page cache %.1f MiB, "
                 "FGRC %.1f MiB\n",
                 static_cast<double>(tr.page_cache_at_measure) / kMiB,
                 static_cast<double>(tr.fgrc_at_measure) / kMiB);
    std::fprintf(stderr,
                 "obs.trace_overhead %.4f (traced %.3f s / untraced %.3f s)\n",
                 reps[1].wall_s / reps[0].wall_s, reps[1].wall_s,
                 reps[0].wall_s);
    if (!args.trace_out.empty() && !tr.log.write_chrome_trace(args.trace_out))
      correct = false;
    // Self time by span name, from the recorded spans (per-request spans
    // are sampled, so the run span's self time includes unsampled ones).
    const std::vector<std::uint64_t> self = tr.log.self_ns();
    std::fprintf(stderr, "span self time (1 in %llu requests sampled):\n",
                 static_cast<unsigned long long>(kRequestSample));
    std::map<std::string, std::uint64_t> by_name;
    for (std::size_t i = 0; i < self.size(); ++i)
      by_name[tr.log.spans()[i].name] += self[i];
    for (const auto& [name, ns] : by_name)
      std::fprintf(stderr, "  %-24s %12.6f s\n", name.c_str(),
                   static_cast<double>(ns) / 1e9);
  }

  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted;
    failed += reps[i].failed;
    if (!same_sim(spec, reps[0], reps[i])) {
      std::fprintf(stderr,
                   "pipebench: repetition %zu of %s changed the simulated "
                   "result: the simulation is not deterministic%s\n",
                   i, spec.name,
                   args.trace == 1 ? " or tracing is not passive" : "");
      correct = false;
    }
  }
  if (failed != 0) correct = false;

  const SimMetrics s = sim_metrics(spec, reps.front());
  std::fprintf(stderr,
               "%s seed %llu: %zu repetition(s) of %zu stream(s) of %llu "
               "warmup + %llu measured requests; %llu measured reads behind "
               "sim_p999_us\n",
               spec.name, static_cast<unsigned long long>(args.seed),
               reps.size(), spec.shards == 0 ? spec.streams : std::size_t{1},
               static_cast<unsigned long long>(spec.warmup),
               static_cast<unsigned long long>(spec.requests),
               static_cast<unsigned long long>(s.measured_reads));
  print_metrics(args.trace == 0 ? "end-to-end:" : "per-layer:", metrics);

  JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value, 9);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
