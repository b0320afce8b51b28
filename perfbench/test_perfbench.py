#!/usr/bin/env python3
"""Tests of the benchmark itself (not of help).

    python3 perfbench/test_perfbench.py

Builds the benchmark, runs perfbench_selftest (percentile and trace-reading
arithmetic), then a short smoke run of every workload, untraced and traced:
each must be correct with no failed op, and must measure every metric this
file assigns to it, with the unit BENCHMARK.json gives.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer metrics each workload measures; run.py reports the others as 0.
WALKTHROUGH_LAYERS = (
    ["tools.world_build_us"]
    + [f"core.step_us.fig{n:02d}" for n in range(5, 13)]
    + ["core.exec_us", "core.exec_external_us", "core.open_us", "core.address_us",
       "cc.uses_us", "draw.render_us", "draw.renders_per_step",
       "shell.vm_ops_per_replay", "shell.compile_cache_hit_ratio",
       "shell.mk_recipes_per_replay", "proc.images_per_replay", "proc.add_us",
       "wm.place_us", "wm.windows_created_per_replay", "text.setall_us",
       "text.lineindex.rebuilds_per_replay", "text.lineindex.splits_per_op",
       "regexp.cache_hit_ratio", "regexp.bytes_scanned_per_replay", "regexp.stream_us"])
WIRE_LAYERS = [
    "fs.req.count", "fs.req.total_us", "fs.req.queue_us", "fs.req.lock_us",
    "fs.req.handler_us", "fs.req.encode_us", "fs.req.outbox_us", "fs.req.gap_us",
    "fs.outside_us", "fs.msgs_per_op", "fs.writev_per_msg", "fs.zero_copy_share",
    "fs.ooo_share", "fs.read_retry_share", "fs.coalesced_share",
    "fs.lock.window_acquires_per_op", "fs.lock.epoch_exclusive_per_op",
    "fs.lock.shard_wait_us", "fs.backpressure_stalls"]
OBS_LAYERS = ["obs.trace_overhead", "obs.trace_coverage", "obs.trace_dropped"]
LAYERS = {
    "walkthrough": WALKTHROUGH_LAYERS + OBS_LAYERS,
    "wire_read": WIRE_LAYERS + OBS_LAYERS,
    "wire_edit": WIRE_LAYERS + ["text.lineindex.splits_per_op"] + OBS_LAYERS,
}
# Long enough for at least 1000 ops, so p99 has ten samples beyond it (the
# walkthrough runs about a hundred replays a second).
SMOKE_SECONDS = {"walkthrough": "15", "wire_read": "1", "wire_edit": "1"}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def e2e(workload, seconds, trace):
    """Runs the benchmark binary directly; returns its full JSON line."""
    out = subprocess.run(
        [os.path.join(run.build_dir(), "perfbench_e2e"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=run.build_dir(), stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(run.build_dir()):
            raise RuntimeError("perfbench did not build")

    def test_selftest(self):
        done = subprocess.run([os.path.join(run.build_dir(), "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_every_metric_named_in_the_spec_is_per_workload(self):
        named = {m["name"] for m in spec()["per_layer"]}
        for workload, layers in LAYERS.items():
            self.assertLessEqual(set(layers), named, workload)
        self.assertEqual(set().union(*LAYERS.values()), named)

    def test_end_to_end_smoke(self):
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = e2e(workload, SMOKE_SECONDS[workload], 0)
                self.assertTrue(res["correct"], res["errors"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1000)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, units)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertGreaterEqual(res["detail"]["samples_beyond_p99"]["value"], 10)
                # op_us_p50 is printed beside the metrics, not gated (NOTES.md).
                self.assertEqual(res["detail"]["op_us_p50"]["unit"], "us")
                self.assertGreater(res["detail"]["op_us_p50"]["value"], 0)
                for diag in ("host.ref_us", "host.steal_share", "host.nproc"):
                    self.assertIn(diag, res["detail"])
                if workload != "walkthrough":
                    # Every round, beside the figures of the fastest ones.
                    for diag in ("rounds", "ops_per_s_median_round", "op_us_p50_median_round",
                                 "op_us_p99_median_round", "op_us_p99_worst_round",
                                 "ops_per_s_first_round", "ops_per_s_last_round"):
                        self.assertGreater(res["detail"][diag]["value"], 0, diag)

    def test_traced_smoke(self):
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                res = e2e(workload, "2", 1)
                self.assertTrue(res["correct"], res["errors"])
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                for name in LAYERS[workload]:
                    self.assertIn(name, got)
                    self.assertEqual(got[name], units[name], name)
                self.assertGreater(res["metrics"]["obs.trace_coverage"]["value"], 0.5)
                if workload != "walkthrough":
                    self.assertGreater(res["metrics"]["fs.req.count"]["value"], 100)

    def test_too_few_samples_is_not_correct(self):
        # Under 1000 ops p99 has fewer than ten samples beyond it.
        res = e2e("walkthrough", "2", 0)
        self.assertFalse(res["correct"])
        self.assertTrue(any("beyond" in e for e in res["errors"]), res["errors"])

    def test_run_py_prints_the_contract_line(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "wire_edit",
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(last["metrics"]), {m["name"] for m in spec()["per_layer"]})


if __name__ == "__main__":
    unittest.main()
