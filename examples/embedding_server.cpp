// Embedding server: the paper's flagship scenario. A DLRM-style inference
// tier looks up 128-byte embedding vectors from tables on the SSD; this
// example serves the same lookup stream through conventional block I/O and
// through Pipette and prints the side-by-side cost.
//
//   $ ./examples/embedding_server [lookups]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/table.h"
#include "sim/machine.h"
#include "workload/recsys.h"

using namespace pipette;

namespace {

struct Served {
  double mean_us;
  double traffic_mib;
  double hit_ratio;
};

Served serve(PathKind kind, std::uint64_t lookups) {
  RecsysConfig rc;
  rc.total_bytes = 256ull * kMiB;  // keep the demo snappy
  RecsysWorkload workload(rc);

  MachineConfig config = realapp_machine(kind);
  config.page_cache_bytes = 128ull * kMiB;
  Machine machine(config, workload.files());
  const int fd = machine.vfs().open(workload.files()[0].name,
                                    machine.open_flags(false));

  std::vector<std::uint8_t> vec(rc.vector_size);
  // Warm both tiers with half the stream, then measure.
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const Request r = workload.next();
    machine.vfs().pread(fd, r.offset, {vec.data(), vec.size()});
  }
  const SimTime t0 = machine.sim().now();
  const std::uint64_t traffic0 = machine.io_traffic_bytes();
  for (std::uint64_t i = 0; i < lookups; ++i) {
    const Request r = workload.next();
    machine.vfs().pread(fd, r.offset, {vec.data(), vec.size()});
  }
  Served s;
  s.mean_us = static_cast<double>(machine.sim().now() - t0) / 1e3 /
              static_cast<double>(lookups);
  s.traffic_mib = to_mib(machine.io_traffic_bytes() - traffic0);
  if (PipettePath* p = machine.pipette_path()) {
    s.hit_ratio = p->fgrc().stats().lookups.ratio();
  } else {
    s.hit_ratio = machine.page_cache()->stats().lookups.ratio();
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t lookups =
      argc > 1 ? parse_unsigned("lookups", argv[1]) : 500'000;

  std::printf("Serving %llu embedding lookups (128 B vectors)...\n\n",
              static_cast<unsigned long long>(lookups));
  std::printf("%-12s %14s %16s %12s\n", "system", "mean us/lookup",
              "device MiB moved", "cache hit %");
  for (PathKind kind : {PathKind::kBlockIo, PathKind::kPipette}) {
    const Served s = serve(kind, lookups);
    std::printf("%-12s %14.2f %16.1f %12.1f\n", to_string(kind), s.mean_us,
                s.traffic_mib, s.hit_ratio * 100.0);
  }
  std::printf(
      "\nThe block path drags a 4 KiB page (plus read-ahead) through the\n"
      "kernel for every 128 B vector; Pipette moves just the vector and\n"
      "caches it at byte granularity.\n");
  return 0;
}
