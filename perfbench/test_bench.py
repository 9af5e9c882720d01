#!/usr/bin/env python3
"""The benchmark's own tests.

Run from anywhere (builds pipebench on first use):

    python3 perfbench/test_bench.py

They check BENCHMARK.json against the benchmark's contract and run every
workload briefly (--short: 1/20 of the request counts).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["fine_zipf", "block_uniform", "subpage_writes", "fleet_hash8"]
END_TO_END = ["wall_s", "setup_s", "host_req_per_s", "peak_rss_mb",
              "sim_p50_us", "sim_p999_us", "sim_kiops", "read_amp"]
PER_LAYER = [
    "sim.build_s", "sim.teardown_s", "sim.runner_s", "sim.rss_after_build_mb",
    "workload.build_s", "workload.next_ns",
    "iopath.issue_ns", "pipette.fine_reads", "pipette.block_reads",
    "des.events_per_req", "des.host_ns_per_event", "des.slab_peak",
    "hostmem.page_cache_hit_ratio", "page_cache.evictions",
    "hostmem.readahead_waste", "hostmem.warm_resident_mb",
    "pipette.fgrc_hit_ratio", "fgrc.promotions", "fgrc.tempbuf_fills",
    "fgrc.slab_evictions", "fgrc.adaptive_threshold", "fgrc.invalidations",
    "ssd.ftl_build_s", "ssd.read_buffer_hit_ratio", "ssd.pcie_busy_share",
    "ssd.pcie_wait_ns_per_op", "ssd.write_amp", "ftl.gc_collections",
    "ftl.gc_relocated_mus",
    "nand.die_busy_share", "nand.die_wait_ns_per_op", "nand.page_reads",
    "nand.page_programs", "util.gc.busy_ns", "util.gc.foreground_blocked_ns",
    "fleet.shard_run_s", "fleet.worker_util", "fleet.load_imbalance",
    "obs.trace_overhead", "ops_failed_ratio",
]
# Sim-clock metrics: a pure function of workload and seed.
SIM_CLOCK = ["sim_p50_us", "sim_p999_us", "sim_kiops", "read_amp"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--short"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_metric_names_units_directions(self):
        spec = load_spec()
        names = []
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_named_workloads_and_metrics_present(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], PER_LAYER)


class RunTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_short_runs_repeat_sim_clock_metrics(self):
        spec = load_spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 5, 0), run(w, 5, 0)
                self.check_result(a, spec["end_to_end"])
                for name in SIM_CLOCK:
                    self.assertGreater(a["metrics"][name]["value"], 0)
                    self.assertEqual(a["metrics"][name], b["metrics"][name])

    def test_held_out_seed_traced_run_verifies_clean(self):
        spec = load_spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 914_270_613, 1)
                self.check_result(r, spec["per_layer"])
                self.assertEqual(r["metrics"]["ops_failed_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
