// Machine: one simulated host + SSD + file system with one read-path
// implementation installed — the unit every experiment instantiates once
// per system under comparison.
#pragma once

#include <memory>
#include <span>

#include "fs/vfs.h"
#include "iopath/block_io_path.h"
#include "iopath/pipette_path.h"
#include "iopath/twob_ssd_path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/machine_config.h"
#include "workload/workload.h"

namespace pipette {

/// Point-in-time view of the machine's utilization accounts, cheap enough
/// for the timeline sampler to take per interval. Cumulative fields (the
/// *_busy_ns) are differenced by the caller; depth fields are instantaneous
/// levels at the snapshot instant. Reading the accounts only advances
/// observer-only sweep state — never the simulation.
struct UtilSnapshot {
  std::uint64_t nand_busy_ns = 0;          // die sensing + programming
  std::uint64_t interconnect_busy_ns = 0;  // PCIe DMA + LMB link combined
  std::uint64_t gc_busy_ns = 0;            // GC-attributed NAND time
  std::uint64_t gc_moves = 0;              // pages GC has relocated
  std::uint32_t info_ring_depth = 0;       // records in flight right now
  std::uint32_t nand_queue_depth = 0;      // host ops queued/active on dies
};

class Machine {
 public:
  Machine(const MachineConfig& config, std::span<const FileSpec> files);

  Simulator& sim() { return sim_; }
  Vfs& vfs() { return *vfs_; }
  SsdController& ssd() { return *ssd_; }
  FileSystem& fs() { return *fs_; }
  PathKind kind() const { return config_.kind; }

  /// The installed path, and typed accessors (nullptr if another kind).
  ReadPathBase& path() { return *path_; }
  BlockIoPath* block_path();    // kBlockIo only
  PipettePath* pipette_path();  // kPipette / kPipetteNoCache only
  TwoBSsdPath* twob_path();     // kTwoBMmio / kTwoBDma only

  /// The page cache of whichever path has one (block or pipette kinds).
  PageCache* page_cache();

  /// Device -> host bytes moved so far (the paper's I/O traffic metric).
  std::uint64_t io_traffic_bytes() const { return ssd_->stats().bytes_to_host; }

  /// Open flags appropriate for this machine's path (fine-grained kinds add
  /// O_FINE_GRAINED).
  int open_flags(bool writable) const;

  /// Shard-recovery support: flush dirty pages, then drop all host cache
  /// state (page cache + FGRC) as a machine restart would. Device state
  /// (flash contents, FTL, device DRAM buffer) survives; cumulative
  /// statistics are preserved.
  void cold_restart();

  /// The machine's tracer, or nullptr when config.trace.enabled is false.
  Tracer* tracer() { return tracer_.get(); }

  /// Snapshot every component's counters/gauges into `out` under dotted
  /// names (ssd.*, nand.*, page_cache.*, fgrc.*, ...). Always available —
  /// collection does not depend on tracing.
  void collect_metrics(MetricsRegistry& out);

  /// Utilization accounts at sim().now() (see UtilSnapshot).
  UtilSnapshot util_snapshot();

 private:
  MachineConfig config_;
  Simulator sim_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<SsdController> ssd_;
  std::unique_ptr<FileSystem> fs_;
  std::unique_ptr<ReadPathBase> path_;
  std::unique_ptr<Vfs> vfs_;
};

const char* to_string(PathKind kind);

}  // namespace pipette
