// Event queue of the DES core: a 4-ary min-heap of compact 24-byte
// (when, seq, handle) entries with out-of-line callback storage. Sifts
// compare and shuffle only the contiguous heap array, never the callbacks;
// the callback slab is recycled through a free list, so a warm queue
// schedules and pops without allocating.
//
// Events drain in exactly (when, seq) ascending order — the determinism
// contract every golden trace pins.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace pipette {

class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; requires !empty().
  SimTime min_when() const { return heap_[0].when; }

  /// Insert an event. Ordering is by (when, seq) ascending, so equal
  /// timestamps drain in submission order.
  void push(SimTime when, std::uint64_t seq, Callback cb);

  /// Remove the earliest event, writing its key to `when`/`seq` and moving
  /// its callback into `cb` (no copy); requires !empty(). The slot is
  /// recycled immediately, so the callback may push new events freely.
  void pop_min(SimTime& when, std::uint64_t& seq, Callback& cb);

  /// High-water mark of size() observed after any push (exported as
  /// `des.slab_peak`: the callback slab grows exactly with it).
  std::size_t peak_size() const { return peak_size_; }

 private:
  /// Heap entry: the full sort key inline plus the callback slot handle.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t node;
  };

  // Branch-free: heap keys are unpredictable, and a mispredicted branch
  // per comparison costs more than evaluating both halves.
  static bool before(const Entry& a, const Entry& b) {
    return (a.when < b.when) | ((a.when == b.when) & (a.seq < b.seq));
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Callback> nodes_;      // callback slab; index = stable handle
  std::vector<Entry> heap_;          // 4-ary heap of keyed entries
  std::vector<std::uint32_t> free_;  // recycled slab handles
  std::size_t peak_size_ = 0;
};

}  // namespace pipette
