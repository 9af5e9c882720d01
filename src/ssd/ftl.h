// Flash translation layer with a configurable mapping unit (MU) and
// garbage collection.
//
// The FTL maps at MU granularity (512 B <= MU <= page, default MU = page,
// MQSim-style fine-grained mapping): each logical block splits into
// `page_size / MU` mapping units, and each MU maps independently to a
// (physical page, slot) pair. Writes append MUs to a per-die active block —
// merged write transactions pack MUs of *different* LBAs into one physical
// page, which is programmed when its last slot fills (until then the page
// sits in the capacitor-backed controller write cache). Invalidation is
// MU-granular: a physical page is live while any of its MUs is live, and GC
// victim selection scores blocks by valid-MU count. GC reads each victim
// page once into a page buffer, transferring only the valid MUs' bytes, and
// re-packs those MUs through the same merged-write allocator — relocation
// cost is charged per-MU, not per-page.
//
// The initial map stripes consecutive LBAs across channels then ways
// (maximising read parallelism); all MUs of an LBA start in that LBA's
// striped page. That placement is a closed form and is never materialised:
// LBA i sits on channel i % C, way (i / C) % W, die page i / (C*W), and the
// inverse names the owner of an untouched physical MU (none past
// lba_count). Both mapping tables store `value + 1`, so an entry of 0 means
// "still at the initial striping", and a superseded physical MU stores its
// own non-zero invalid code. The tables are allocated zeroed by the
// allocator (calloc) and never filled, so the OS backs only the 4 KiB pages
// that writes and GC have touched: a machine's map memory follows the data
// written, not the device size.
//
// With MU = page every page holds exactly one MU, each write seals (and
// thus programs) exactly one page, and GC relocations degrade to the
// read->program pairs of take_gc_moves() — the behaviour is bit-for-bit
// the page-mapped FTL this generalises (golden-pinned).
//
// Per-die wear: every erase bumps that die's erase counter (surfaced via
// erase_count() and the FtlStats wear fields) and is queued for the
// controller to forward to NandArray::note_erase(), which drives the
// erase-correlated fault model in src/faults.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "nand/nand.h"
#include "ssd/types.h"

namespace pipette {

struct FtlStats {
  std::uint64_t reads_mapped = 0;
  std::uint64_t writes_mapped = 0;      // host write ops (per-LBA calls)
  std::uint64_t mus_written = 0;        // host mapping units written
  std::uint64_t invalidated_pages = 0;  // pages whose last valid MU died
  std::uint64_t invalidated_mus = 0;    // superseded mapping units
  std::uint64_t pages_programmed = 0;   // sealed page programs (host + GC)
  std::uint64_t gc_collections = 0;
  std::uint64_t gc_relocated_pages = 0;  // victim pages GC read (>=1 live MU)
  std::uint64_t gc_relocated_mus = 0;    // live MUs GC re-packed
  std::uint64_t blocks_erased = 0;
  std::uint64_t max_die_erases = 0;  // wear spread across dies
  std::uint64_t min_die_erases = 0;

  /// Flash MUs programmed (host + GC relocation) per host MU written
  /// (>= 1.0). Counting MUs, not pages, keeps the ratio honest for
  /// partial-page merged programs; with MU = page it is the classic
  /// pages-programmed-per-page-written ratio.
  double write_amplification() const {
    return mus_written == 0
               ? 1.0
               : static_cast<double>(mus_written + gc_relocated_mus) /
                     static_cast<double>(mus_written);
  }
};

/// One GC relocation the device must perform (read `from`, program `to`).
/// Only emitted with MU = page, where relocations are naturally paired.
struct GcMove {
  PhysPageAddr from;
  PhysPageAddr to;
};

/// A physical page sealed by the merged-write allocator: the controller owes
/// the array one program of `addr` carrying `mus` mapping-unit slots.
struct PageProgram {
  PhysPageAddr addr;
  std::uint32_t mus = 0;
};

/// A page read that only needs `bytes` (= some MU subset * MU size) moved
/// over the channel: GC page-buffer fills and MU-granular staging reads.
struct MuPageRead {
  PhysPageAddr addr;
  std::uint32_t bytes = 0;
};

class Ftl {
 public:
  /// owner_of() for a physical MU that holds no live logical MU.
  static constexpr std::uint64_t kInvalidMu = ~0ull;

  /// Creates a mapping for `lba_count` logical blocks over `geometry`,
  /// mapped at `mapping_unit` bytes (0 = page-granular). `mapping_unit`
  /// must divide the page size and be >= 512. Requires lba_count <= 87.5%
  /// of total pages (overprovisioning headroom for write allocation and
  /// GC).
  Ftl(const NandGeometry& geometry, std::uint64_t lba_count,
      std::uint32_t mapping_unit = 0);

  /// Physical page currently holding `lba`'s first mapping unit.
  PhysPageAddr lookup(Lba lba) const;

  /// All distinct physical pages currently holding `lba`'s MUs, in slot
  /// order, each with the bytes of `lba`'s MUs it holds (a page appears
  /// once even if it holds several of the MUs; the bytes sum to the page
  /// size). With MU = page this is exactly {lookup(lba), page_size}.
  void lookup_pages(Lba lba, std::vector<MuPageRead>& out) const;

  /// Full-LBA write: invalidates every old MU, appends fresh ones; may
  /// trigger GC. Returns the page now holding slot 0. Drain take_gc_moves()
  /// / drain_*() afterwards.
  PhysPageAddr update(Lba lba);

  /// Host write covering the MU slots set in `slot_mask` (bit k = slot k)
  /// of `lba`. With MU = page the only valid mask is 0x1.
  void write_slots(Lba lba, std::uint32_t slot_mask);

  /// Paired relocations (MU = page only) since the last call (cleared on
  /// return).
  std::vector<GcMove> take_gc_moves();

  /// Pages sealed by host writes since the last drain; `out` is replaced.
  void drain_host_programs(std::vector<PageProgram>& out);
  /// GC page-buffer reads / merged GC programs since the last drain
  /// (MU < page only); `out` is replaced.
  void drain_gc_page_reads(std::vector<MuPageRead>& out);
  void drain_gc_page_programs(std::vector<PageProgram>& out);
  /// Dies erased since the last drain (wear forwarding); `out` is replaced.
  void drain_erased_dies(std::vector<std::uint32_t>& out);
  /// True if any GC/erase drain above would return work (cheap guard).
  bool has_pending_gc_work() const {
    return !gc_page_reads_.empty() || !gc_page_programs_.empty() ||
           !pending_erases_.empty();
  }

  std::uint64_t lba_count() const { return lba_count_; }
  std::uint32_t mapping_unit() const { return mu_size_; }
  std::uint32_t slots_per_page() const { return spp_; }
  const FtlStats& stats() const { return stats_; }
  std::uint64_t free_blocks(std::uint32_t die) const;
  std::uint32_t dies() const { return geometry_.dies(); }
  std::uint64_t erase_count(std::uint32_t die) const;

  /// Record a read for statistics (kept out of lookup(), which is const).
  void note_read() { ++stats_.reads_mapped; }

  // Introspection for the property tests (tests/ftl_test.cpp).
  std::uint64_t block_count() const { return blocks_.size(); }
  std::uint32_t block_valid_mus(std::uint64_t block_id) const;
  /// Linear MU address currently mapped for (lba, slot).
  std::uint64_t mu_linear(Lba lba, std::uint32_t slot) const;
  /// Logical MU (lba * slots_per_page + slot) that linear MU address
  /// `linear_mu` holds, or kInvalidMu if it holds none.
  std::uint64_t owner_of(std::uint64_t linear_mu) const;
  /// Global block id containing linear MU address `linear_mu`.
  std::uint64_t block_of_linear_mu(std::uint64_t linear_mu) const;

 private:
  static constexpr std::uint64_t kGcLowWater = 2;  // free blocks per die

  struct Block {
    std::uint32_t next_slot = 0;   // MUs written so far
    std::uint32_t valid = 0;       // still-mapped MUs
  };

  struct FreeDeleter {
    void operator()(std::uint64_t* p) const { std::free(p); }
  };
  using MapTable = std::unique_ptr<std::uint64_t[], FreeDeleter>;

  // The only accessors of map_ / reverse_ (see the header comment for the
  // encoding).
  std::uint64_t map_get(std::uint64_t logical_mu) const;
  void map_set(std::uint64_t logical_mu, std::uint64_t linear_mu);
  std::uint64_t rev_get(std::uint64_t linear_mu) const;
  void rev_set(std::uint64_t linear_mu, std::uint64_t logical_mu);

  PhysPageAddr decode(std::uint64_t linear) const;
  /// Allocate the next MU on `die`, running GC beforehand if the pool is
  /// low (GC-internal relocation allocates with allow_gc = false to avoid
  /// re-entrance). Updates bookkeeping for the containing block; when the
  /// allocation seals a page, a PageProgram is appended to `seal_out`
  /// (nullptr: the caller accounts for the program itself). Returns the
  /// linear MU address.
  std::uint64_t alloc_mu(std::uint64_t die, bool allow_gc,
                         std::vector<PageProgram>* seal_out);
  void invalidate_mu(std::uint64_t linear_mu);
  void collect(std::uint64_t die);

  NandGeometry geometry_;
  std::uint64_t lba_count_;
  std::uint32_t mu_size_;
  std::uint32_t spp_;  // MU slots per physical page
  std::uint64_t pages_per_die_;
  std::uint32_t pages_per_block_;
  std::uint64_t blocks_per_die_;
  std::uint32_t mus_per_block_;

  // Linear MU address = linear page * spp + slot; logical MU id =
  // lba * spp + slot.
  MapTable map_;      // logical MU -> linear MU address + 1 (0: initial)
  MapTable reverse_;  // linear MU address -> logical MU + 1 (0: initial)
  std::vector<Block> blocks_;            // global block id = die-major
  std::vector<std::vector<std::uint64_t>> free_blocks_;  // per die (LIFO)
  std::vector<std::uint64_t> active_block_;              // per die, global id
  std::uint64_t next_die_ = 0;
  std::vector<GcMove> pending_moves_;
  std::vector<PageProgram> host_programs_;
  std::vector<MuPageRead> gc_page_reads_;
  std::vector<PageProgram> gc_page_programs_;
  std::vector<std::uint32_t> pending_erases_;
  std::vector<std::uint64_t> die_erases_;
  FtlStats stats_;
};

}  // namespace pipette
