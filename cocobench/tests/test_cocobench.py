#!/usr/bin/env python3
"""Tests of the CoCoMac benchmark at reduced scale.

    python3 cocobench/tests/test_cocobench.py      (from the repository root)

Builds the benchmark like run.py does, runs every workload on a small model
with tracing off and on, and checks that the last stdout line is a result
carrying exactly the metrics BENCHMARK.json names, with their units. The
negative tests inject a corrupted end-state hash, a membrane potential that
is wrong the same way in every episode, a tampered seed record and a skipped
checkpoint restore, and expect each to be reported as a failed operation.
"""
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (cocobench/run.py)

WORKLOADS = ["cocomac_serial", "cocomac_threads", "cocomac_checkpoint"]
# 256 cores on 4 ranks x 4 threads, 20-tick episodes, checkpoints every 5.
SMALL = ["--cores", "256", "--ticks", "20", "--seconds", "1"]
# Printed only above host width 1, that is by cocomac_threads.
WIDTH_METRICS = {"runtime.host_width", "runtime.parallel_efficiency"}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class CocobenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.work = tempfile.mkdtemp(prefix="test-", dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def bench(self, workload, trace, *extra, seed=7):
        proc = subprocess.run(
            [self.exe, "--workload", workload, "--seed", str(seed),
             "--trace", str(trace), "--work-dir", self.work] + SMALL + list(extra),
            capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, proc.stderr

    def check_metrics(self, result, kind, extra=frozenset()):
        want = declared(kind)
        got = result["metrics"]
        self.assertEqual(set(got) - set(extra), set(want))
        for name, m in got.items():
            self.assertEqual(m["unit"], want.get(name, m["unit"]), name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_its_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, err = self.bench(workload, 0)
                self.assertTrue(result["correct"], err)
                self.assertEqual(result["failed"], 0, err)
                self.check_metrics(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_workload_prints_its_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, err = self.bench(workload, 1)
                self.assertTrue(result["correct"], err)
                threads = workload == "cocomac_threads"
                self.check_metrics(result, "per_layer",
                                   WIDTH_METRICS if threads else ())
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if threads and "runtime.host_width" in m:
                    self.assertGreater(m["runtime.host_width"], 1)
                    self.assertGreater(m["runtime.parallel_efficiency"], 0)
                self.assertGreater(m["runtime.step_s"], 0)
                self.assertGreater(m["arch.neuron_ns_per_core_tick"], 0)
                self.assertEqual(m["comm.send_calls"], m["comm.messages"])
                dispatch = (m["arch.dispatch.neuron_stoch_soa"] +
                            m["arch.dispatch.neuron_fast"] +
                            m["arch.dispatch.neuron_scalar"])
                self.assertEqual(dispatch, 256 * 20)  # every core, every tick
                if workload == "cocomac_checkpoint":
                    self.assertEqual(m["resilience.snapshots"], 3)
                    self.assertGreater(m["resilience.load_s"], 0)
                    self.assertGreater(m["obs.records"], 0)
                    self.assertGreater(m["obs.bytes"], 0)
                else:
                    self.assertEqual(m["resilience.snapshots"], 0)
                    self.assertEqual(m["obs.records"], 0)

    def test_threads_reproduce_the_serial_record(self):
        # A fresh seed: the serial run records its outcome, the threaded
        # run must then reproduce it.
        serial, err = self.bench("cocomac_serial", 0, seed=11)
        self.assertTrue(serial["correct"], err)
        threads, err = self.bench("cocomac_threads", 0, seed=11)
        self.assertTrue(threads["correct"], err)

    def test_consistently_wrong_potentials_fail_every_episode(self):
        # Every timed episode ends with the same wrong potential, so the
        # episodes agree with each other; only the reference engine's
        # outcome shows them wrong.
        result, err = self.bench("cocomac_serial", 0, "--inject", "wrong-potential")
        self.assertFalse(result["correct"])
        episodes = err.count("vs the seed's reference outcome")
        self.assertGreaterEqual(episodes, 1)
        self.assertEqual(result["failed"], episodes)

    def test_tampered_seed_record_is_a_failed_operation(self):
        # A fresh seed records its reference outcome; a later run must
        # reproduce the record, whatever build wrote it.
        first, err = self.bench("cocomac_serial", 0, seed=13)
        self.assertTrue(first["correct"], err)
        records = glob.glob(os.path.join(self.work, "records", "seed-13-*.txt"))
        self.assertEqual(len(records), 1)
        with open(records[0]) as f:
            fields = f.read().split()
        fields[-1] = str(int(fields[-1]) ^ 1)  # the end-state hash
        with open(records[0], "w") as f:
            f.write(" ".join(fields) + "\n")
        second, err = self.bench("cocomac_serial", 0, seed=13)
        self.assertFalse(second["correct"])
        self.assertEqual(second["failed"], 1)
        self.assertIn("recorded for the seed", err)

    def test_corrupted_end_state_hash_is_a_failed_operation(self):
        result, err = self.bench("cocomac_serial", 0, "--inject", "corrupt-hash")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("end_hash", err)

    def test_skipped_checkpoint_restore_is_a_failed_operation(self):
        result, err = self.bench("cocomac_checkpoint", 0, "--inject", "skip-restore")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("restore + replay", err)

    def test_bad_arguments_exit_nonzero_without_a_result(self):
        proc = subprocess.run(
            [self.exe, "--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
