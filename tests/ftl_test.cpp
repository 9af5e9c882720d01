// Test wall for the sub-page FTL (ssd/ftl.h): a randomized property/fuzz
// suite over the mapping-unit invariants, a hand-computed pinned scenario
// for the merged-write arithmetic, and machine-level differential tests
// that sweep the mapping unit and require read-only streams to stay
// bit-identical across it.
//
// The invariants checked after every fuzz batch:
//  * the logical->physical MU map is injective and in range, the reverse
//    map inverts it, and every physical MU outside its image has no owner;
//  * per-block valid-MU accounting equals the count recomputed from the map
//    (so GC relocated exactly the live MUs, never an invalid one);
//  * total valid MUs are conserved at lba_count * slots_per_page;
//  * per-die erase counters are monotone and sum to stats().blocks_erased,
//    with max/min wear stats matching the true spread;
//  * every sealed PageProgram carries a full page of MU slots, GC page-buffer
//    reads move only whole live MUs (their bytes sum to exactly the MUs GC
//    relocated), classic GcMoves appear only at MU = page, and the sealed
//    host + GC programs + moves add up to stats().pages_programmed.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace pipette {
namespace {

// 4ch x 2way x 1pl x 8blk x 16pg = 1024 pages over 8 dies; lba_count 640
// leaves 3 free blocks per die, so the kGcLowWater = 2 threshold is one
// block pop away and GC runs constantly under the fuzz.
NandGeometry fuzz_geometry() {
  NandGeometry g;
  g.channels = 4;
  g.ways_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 16;
  return g;
}

// Cumulative drain bookkeeping threaded through the fuzz: the per-batch
// drains are checked individually and against the FtlStats totals at the
// end.
struct DrainTotals {
  std::uint64_t host_programs = 0;
  std::uint64_t gc_page_programs = 0;
  std::uint64_t gc_moves = 0;
  std::uint64_t gc_read_bytes = 0;
  std::vector<std::uint64_t> erases_per_die;
};

void check_addr(const NandGeometry& g, const PhysPageAddr& a) {
  ASSERT_LT(a.channel, g.channels);
  ASSERT_LT(a.way, g.ways_per_channel);
  ASSERT_LT(a.page, g.pages_per_die());
}

void drain_and_check(Ftl& ftl, const NandGeometry& g, DrainTotals& totals) {
  const std::uint32_t spp = ftl.slots_per_page();
  const std::uint32_t mu = ftl.mapping_unit();

  std::vector<PageProgram> programs;
  ftl.drain_host_programs(programs);
  for (const PageProgram& p : programs) {
    check_addr(g, p.addr);
    EXPECT_EQ(p.mus, spp);  // merged writes seal only full pages
  }
  totals.host_programs += programs.size();

  ftl.drain_gc_page_programs(programs);
  if (spp == 1) {
    EXPECT_TRUE(programs.empty());
  }
  for (const PageProgram& p : programs) {
    check_addr(g, p.addr);
    EXPECT_EQ(p.mus, spp);
  }
  totals.gc_page_programs += programs.size();

  std::vector<MuPageRead> reads;
  ftl.drain_gc_page_reads(reads);
  if (spp == 1) {
    EXPECT_TRUE(reads.empty());
  }
  for (const MuPageRead& r : reads) {
    check_addr(g, r.addr);
    EXPECT_GE(r.bytes, mu);
    EXPECT_LE(r.bytes, g.page_size);
    EXPECT_EQ(r.bytes % mu, 0u);  // the page buffer moves whole MUs
    totals.gc_read_bytes += r.bytes;
  }

  const std::vector<GcMove> moves = ftl.take_gc_moves();
  if (spp > 1) {
    EXPECT_TRUE(moves.empty());  // classic moves: MU = page only
  }
  for (const GcMove& m : moves) {
    check_addr(g, m.from);
    check_addr(g, m.to);
  }
  totals.gc_moves += moves.size();

  std::vector<std::uint32_t> erased;
  ftl.drain_erased_dies(erased);
  for (std::uint32_t die : erased) {
    ASSERT_LT(die, g.dies());
    ++totals.erases_per_die[die];
  }
  EXPECT_FALSE(ftl.has_pending_gc_work());
}

void check_invariants(const Ftl& ftl, const NandGeometry& g,
                      std::vector<std::uint64_t>& prev_erases) {
  const std::uint32_t spp = ftl.slots_per_page();
  const std::uint64_t lbas = ftl.lba_count();
  const std::uint64_t total_mus = g.total_pages() * spp;

  // Injectivity + map/block cross-check: every logical MU maps to a unique
  // in-range linear MU, and counting mapped MUs per block reproduces the
  // FTL's own valid-MU accounting exactly.
  std::set<std::uint64_t> seen;
  std::vector<std::uint32_t> per_block(ftl.block_count(), 0);
  for (Lba lba = 0; lba < lbas; ++lba) {
    for (std::uint32_t s = 0; s < spp; ++s) {
      const std::uint64_t linear = ftl.mu_linear(lba, s);
      ASSERT_LT(linear, total_mus);
      ASSERT_TRUE(seen.insert(linear).second) << "lba " << lba << " slot " << s;
      ASSERT_EQ(ftl.owner_of(linear), lba * spp + s);
      ++per_block[ftl.block_of_linear_mu(linear)];
    }
  }
  for (std::uint64_t linear = 0; linear < total_mus; ++linear) {
    if (seen.count(linear) == 0) {
      ASSERT_EQ(ftl.owner_of(linear), Ftl::kInvalidMu) << "mu " << linear;
    }
  }
  std::uint64_t valid_sum = 0;
  for (std::uint64_t b = 0; b < ftl.block_count(); ++b) {
    EXPECT_EQ(per_block[b], ftl.block_valid_mus(b)) << "block " << b;
    valid_sum += ftl.block_valid_mus(b);
  }
  EXPECT_EQ(valid_sum, lbas * spp);  // conservation

  // Wear accounting: monotone per-die counters, total == blocks_erased,
  // max/min stats match the true spread.
  std::uint64_t erase_sum = 0, erase_max = 0, erase_min = ~0ull;
  for (std::uint32_t d = 0; d < ftl.dies(); ++d) {
    const std::uint64_t e = ftl.erase_count(d);
    EXPECT_GE(e, prev_erases[d]) << "die " << d;
    prev_erases[d] = e;
    erase_sum += e;
    erase_max = std::max(erase_max, e);
    erase_min = std::min(erase_min, e);
  }
  EXPECT_EQ(erase_sum, ftl.stats().blocks_erased);
  EXPECT_EQ(erase_max, ftl.stats().max_die_erases);
  EXPECT_EQ(erase_min, ftl.stats().min_die_erases);

  // MU-counting write amplification identity.
  const FtlStats& st = ftl.stats();
  if (st.mus_written > 0) {
    EXPECT_DOUBLE_EQ(st.write_amplification(),
                     static_cast<double>(st.mus_written + st.gc_relocated_mus) /
                         static_cast<double>(st.mus_written));
    EXPECT_GE(st.write_amplification(), 1.0);
  }

  // lookup / lookup_pages agree with the raw map on a sample of LBAs.
  std::vector<MuPageRead> pages;
  for (Lba lba = 0; lba < lbas; lba += 97) {
    std::set<std::uint64_t> distinct;
    for (std::uint32_t s = 0; s < spp; ++s)
      distinct.insert(ftl.mu_linear(lba, s) / spp);
    ftl.lookup_pages(lba, pages);
    EXPECT_EQ(pages.size(), distinct.size());
    std::uint64_t bytes = 0;
    for (const MuPageRead& r : pages) bytes += r.bytes;
    EXPECT_EQ(bytes, g.page_size);  // the LBA's MUs always sum to one page
    EXPECT_TRUE(ftl.lookup(lba) == pages.front().addr);
  }
}

class FtlFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FtlFuzz, RandomizedWritesPreserveInvariants) {
  const std::uint32_t mu = GetParam();
  const NandGeometry g = fuzz_geometry();
  const std::uint64_t lbas = 640;
  Ftl ftl(g, lbas, mu);
  const std::uint32_t spp = ftl.slots_per_page();
  ASSERT_EQ(spp, g.page_size / mu);

  Rng rng(0x5eed1000 + mu);
  DrainTotals totals;
  totals.erases_per_die.assign(g.dies(), 0);
  std::vector<std::uint64_t> prev_erases(g.dies(), 0);
  const std::uint32_t full_mask = spp >= 32 ? ~0u : ((1u << spp) - 1u);

  for (int op = 0; op < 6000; ++op) {
    const Lba lba = rng.next_below(lbas);
    if (spp > 1 && rng.next_bool(0.5)) {
      // Partial write: any non-empty slot subset.
      const std::uint32_t mask =
          1u + static_cast<std::uint32_t>(rng.next_below(full_mask));
      ftl.write_slots(lba, mask);
    } else {
      ftl.update(lba);
    }
    if ((op + 1) % 500 == 0) {
      drain_and_check(ftl, g, totals);
      check_invariants(ftl, g, prev_erases);
    }
  }
  drain_and_check(ftl, g, totals);
  check_invariants(ftl, g, prev_erases);

  // The fuzz must actually have exercised GC and relocation.
  const FtlStats& st = ftl.stats();
  EXPECT_GT(st.gc_collections, 0u);
  EXPECT_GT(st.gc_relocated_mus, 0u);
  EXPECT_GT(st.blocks_erased, 0u);
  EXPECT_GT(st.write_amplification(), 1.0);

  // Cumulative drain totals against the stats counters: every erase was
  // surfaced on the right die, every sealed page was surfaced exactly once,
  // and the GC page buffer read exactly the MUs GC re-packed.
  std::uint64_t drained_erases = 0;
  for (std::uint32_t d = 0; d < g.dies(); ++d) {
    EXPECT_EQ(totals.erases_per_die[d], ftl.erase_count(d)) << "die " << d;
    drained_erases += totals.erases_per_die[d];
  }
  EXPECT_EQ(drained_erases, st.blocks_erased);
  if (spp > 1) {
    EXPECT_EQ(totals.gc_read_bytes / mu, st.gc_relocated_mus);
    EXPECT_EQ(totals.gc_moves, 0u);
  } else {
    EXPECT_EQ(totals.gc_moves, st.gc_relocated_mus);
    EXPECT_EQ(totals.gc_read_bytes, 0u);
  }
  // Sealed-page conservation: host seals + merged GC seals + classic moves
  // (each a sealed single-MU page) == pages_programmed.
  EXPECT_EQ(totals.host_programs + totals.gc_page_programs + totals.gc_moves,
            st.pages_programmed);
}

INSTANTIATE_TEST_SUITE_P(MappingUnits, FtlFuzz,
                         ::testing::Values(512u, 1024u, 2048u, 4096u));

// The initial striping is a closed form with a closed-form inverse. On a
// non-power-of-two geometry (3 channels x 5 ways) whose LBA count leaves
// partial boundary blocks on some dies, the inverse must agree with the
// one built by walking every LBA's forward map, and every physical MU no
// LBA maps to (past lba_count, or in a free block) must have no owner.
TEST(FtlInitialMap, InverseMatchesBruteForceOnNonPowerOfTwoGeometry) {
  NandGeometry g;
  g.channels = 3;
  g.ways_per_channel = 5;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 4;
  // 15 dies x 12 pages + 7: dies 0..6 in stripe order hold 13 pages, so
  // their fourth block is a partial boundary block.
  const std::uint64_t lbas = 15 * 12 + 7;
  for (std::uint32_t mu : {4096u, 1024u}) {
    Ftl ftl(g, lbas, mu);
    const std::uint32_t spp = ftl.slots_per_page();
    std::vector<std::uint64_t> owner(g.total_pages() * spp, Ftl::kInvalidMu);
    for (Lba lba = 0; lba < lbas; ++lba) {
      const PhysPageAddr a = ftl.lookup(lba);
      EXPECT_EQ(a.channel, lba % 3);
      EXPECT_EQ(a.way, (lba / 3) % 5);
      EXPECT_EQ(a.page, lba / 15);
      for (std::uint32_t s = 0; s < spp; ++s) {
        const std::uint64_t linear = ftl.mu_linear(lba, s);
        ASSERT_LT(linear, owner.size());
        ASSERT_EQ(owner[linear], Ftl::kInvalidMu);
        owner[linear] = lba * spp + s;
      }
    }
    std::uint64_t unowned = 0;
    for (std::uint64_t linear = 0; linear < owner.size(); ++linear) {
      ASSERT_EQ(ftl.owner_of(linear), owner[linear])
          << "mu " << linear << " at MU " << mu;
      if (owner[linear] == Ftl::kInvalidMu) ++unowned;
    }
    EXPECT_EQ(unowned, (g.total_pages() - lbas) * spp);
  }
}

// --- Hand-computed merged-write arithmetic ------------------------------
//
// One die (1ch x 1way), 8 blocks x 2 pages, MU = 2048 (2 slots/page,
// 4 MUs/block), 4 LBAs striped onto pages 0..3 (blocks 0 and 1). Three
// writes, fully traced by hand:
//
//  1. write_slots(0, 0b01): kills lba0/slot0 (page 0 keeps slot1 alive);
//     the fresh MU opens active block 2 at page 4 slot 0. Nothing seals.
//  2. write_slots(1, 0b01): kills lba1/slot0 (page 1 keeps slot1 alive);
//     the fresh MU lands in page 4 slot 1 — a merged page holding MUs of
//     TWO different LBAs — and seals it: the first program.
//  3. update(0): kills lba0's two MUs. Slot 0 died in page 4 (slot 1 there
//     is lba1's, still live); slot 1 died in page 0, whose last live MU it
//     was — the first whole-page invalidation. Both fresh MUs fill page 5
//     and seal it: the second program.
//
// Net: 3 host writes, 4 MUs written, but only 2 pages programmed — the
// pinned counters below are exactly what a page-counting (rather than
// MU-counting) write_amplification would get wrong.
TEST(FtlPinned, ThreeWriteMergedProgramArithmetic) {
  NandGeometry g;
  g.channels = 1;
  g.ways_per_channel = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 2;
  Ftl ftl(g, 4, 2048);
  ASSERT_EQ(ftl.slots_per_page(), 2u);

  ftl.write_slots(0, 0b01);
  ftl.write_slots(1, 0b01);
  ftl.update(0);

  const FtlStats& st = ftl.stats();
  EXPECT_EQ(st.writes_mapped, 3u);
  EXPECT_EQ(st.mus_written, 4u);
  EXPECT_EQ(st.invalidated_mus, 4u);
  EXPECT_EQ(st.invalidated_pages, 1u);  // page 0, at write 3
  EXPECT_EQ(st.pages_programmed, 2u);   // pages 4 and 5
  EXPECT_EQ(st.gc_collections, 0u);
  EXPECT_EQ(st.gc_relocated_mus, 0u);
  EXPECT_EQ(st.blocks_erased, 0u);
  EXPECT_DOUBLE_EQ(st.write_amplification(), 1.0);

  // The two sealed programs, in seal order, each carrying both slots.
  std::vector<PageProgram> programs;
  ftl.drain_host_programs(programs);
  ASSERT_EQ(programs.size(), 2u);
  EXPECT_TRUE((programs[0].addr == PhysPageAddr{0, 0, 4}));
  EXPECT_EQ(programs[0].mus, 2u);
  EXPECT_TRUE((programs[1].addr == PhysPageAddr{0, 0, 5}));
  EXPECT_EQ(programs[1].mus, 2u);

  // lba0 was rewritten whole: both MUs in page 5, one full-page read.
  std::vector<MuPageRead> pages;
  ftl.lookup_pages(0, pages);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_TRUE((pages[0].addr == PhysPageAddr{0, 0, 5}));
  EXPECT_EQ(pages[0].bytes, 4096u);

  // lba1 is split: slot 0 in merged page 4, slot 1 still in page 1.
  ftl.lookup_pages(1, pages);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_TRUE((pages[0].addr == PhysPageAddr{0, 0, 4}));
  EXPECT_EQ(pages[0].bytes, 2048u);
  EXPECT_TRUE((pages[1].addr == PhysPageAddr{0, 0, 1}));
  EXPECT_EQ(pages[1].bytes, 2048u);
}

// Driving the same device on to its first relocation keeps WA exactly on
// the MU-counting identity — and strictly above the page-programs ratio a
// page-counting implementation would report.
TEST(FtlPinned, WriteAmplificationCountsMusNotPages) {
  NandGeometry g;
  g.channels = 1;
  g.ways_per_channel = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 2;
  Ftl ftl(g, 4, 2048);

  Rng rng(7);
  while (ftl.stats().gc_relocated_mus == 0)
    ftl.write_slots(rng.next_below(4), 1u + rng.next_below(3));
  const FtlStats& st = ftl.stats();
  EXPECT_GT(st.write_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(st.write_amplification(),
                   static_cast<double>(st.mus_written + st.gc_relocated_mus) /
                       static_cast<double>(st.mus_written));
  // Merged partial writes mean several MUs per sealed page: counting pages
  // would undercount host work and inflate the ratio.
  EXPECT_LT(st.pages_programmed, st.mus_written + st.gc_relocated_mus);
}

// --- Differential mapping-unit sweep (machine level) --------------------

SyntheticConfig small_synth(char wl, double write_ratio = 0.0) {
  SyntheticConfig sc = table1_workload(wl, Distribution::kUniform, 42);
  sc.file_size = 8 * kMiB;
  sc.write_ratio = write_ratio;
  return sc;
}

RunResult run_mu(PathKind kind, std::uint32_t mu, double write_ratio,
                 const RunConfig& rc) {
  MachineConfig m = default_machine(kind);
  m.mapping_unit = mu;
  SyntheticWorkload w(small_synth('C', write_ratio));
  return run_experiment(m, w, rc);
}

// Read-only streams never scatter an LBA's MUs, so every sub-page mapping
// resolves to the same single-page reads as the page-granular device: the
// whole Deterministic() tuple must match bit for bit at every MU.
TEST(DifferentialMu, ReadOnlyStreamsIdenticalAcrossMappingUnits) {
  const RunConfig rc{400, 200};
  for (PathKind kind : {PathKind::kPipette, PathKind::kBlockIo}) {
    const RunResult base = run_mu(kind, 4096, 0.0, rc);
    for (std::uint32_t mu : {512u, 1024u, 2048u}) {
      EXPECT_EQ(run_mu(kind, mu, 0.0, rc).Deterministic(), base.Deterministic())
          << to_string(kind) << " mu=" << mu;
    }
  }
}

// MU = page spelled explicitly must be the same device as the default
// page-granular mapping — including under a write mix, where the merged
// allocator and GC actually run.
TEST(DifferentialMu, ExplicitPageMuMatchesDefaultUnderWrites) {
  const RunConfig rc{400, 200};
  for (PathKind kind : {PathKind::kPipette, PathKind::kBlockIo}) {
    EXPECT_EQ(run_mu(kind, 4096, 0.3, rc).Deterministic(),
              run_mu(kind, 0, 0.3, rc).Deterministic())
        << to_string(kind);
  }
}

// Sub-page write mixes are themselves deterministic and fully served.
TEST(DifferentialMu, SubPageWriteMixReproducesBitForBit) {
  const RunConfig rc{400, 200};
  const RunResult a = run_mu(PathKind::kPipette, 512, 0.3, rc);
  const RunResult b = run_mu(PathKind::kPipette, 512, 0.3, rc);
  EXPECT_EQ(a.Deterministic(), b.Deterministic());
  EXPECT_EQ(a.failed_reads, 0u);
  // ~30% of the measured requests are writes, so only the read share lands
  // in measured_reads; all of it must be served.
  EXPECT_GT(a.measured_reads, 0u);
  EXPECT_LT(a.measured_reads, rc.requests);
}

// Written bytes survive a cold restart and come back through the sub-page
// read path intact, at every mapping unit.
TEST(DifferentialMu, SubPageReadsReturnWrittenPayload) {
  for (std::uint32_t mu : {512u, 1024u, 2048u}) {
    MachineConfig m = default_machine(PathKind::kPipette);
    m.mapping_unit = mu;
    const std::vector<FileSpec> files{{"f", 1 * kMiB, 0, 0}};
    Machine machine(m, files);
    const int fd = machine.vfs().open("f", machine.open_flags(true));

    std::vector<std::uint8_t> wrote(300);
    for (std::size_t i = 0; i < wrote.size(); ++i)
      wrote[i] = static_cast<std::uint8_t>(0x11 * mu + i);
    machine.vfs().pwrite(fd, 2 * 4096 + 700, {wrote.data(), wrote.size()});
    machine.cold_restart();  // drop host caches: the read must hit the device

    std::vector<std::uint8_t> got(wrote.size(), 0);
    machine.vfs().pread(fd, 2 * 4096 + 700, {got.data(), got.size()});
    EXPECT_EQ(std::memcmp(got.data(), wrote.data(), wrote.size()), 0)
        << "mu=" << mu;
  }
}

}  // namespace
}  // namespace pipette
