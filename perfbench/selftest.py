"""Self-tests of the grid benchmark; run from the repository root:

    python3 perfbench/selftest.py

A short pass of every workload, traced and untraced, checks the result
schema against ``BENCHMARK.json``, that no operation failed, that each
workload isolates the layers it was chosen for, and that the tracer puts
every wrapped function back.  Unit checks cover slice merging and the
host-speed factor.  Kept out of ``tests/`` because the
benchmark refuses to record under the root conftest's lock watchdog.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest
from importlib import import_module
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import grid_ops  # noqa: E402
import host_speed  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402

SECONDS = "8"
SEED = "7"
_results: dict[tuple[str, str], dict] = {}


def bench(workload: str, trace: str) -> dict:
    """The last-line JSON of one short run (cached per workload/trace)."""
    key = (workload, trace)
    if key not in _results:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", SEED, "--seconds", SECONDS, "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if done.returncode != 0:
            raise AssertionError(f"{workload} trace {trace} exited "
                                 f"{done.returncode}: {done.stderr[-2000:]}")
        _results[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _results[key]


def layers(workload: str) -> dict[str, float]:
    return {n: m["value"] for n, m in bench(workload, "1")["metrics"].items()}


class Schema(unittest.TestCase):
    def test_benchmark_json_matches_the_script(self) -> None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])

    def test_every_workload_reports_every_metric_without_failures(self) -> None:
        for workload in run.WORKLOADS:
            for trace, names in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)  # fail_ratio == 0
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(names))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], names[name])
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class Slices(unittest.TestCase):
    """Slow runs give fewer, longer slices; no operation is dropped."""

    @staticmethod
    def window(done: list[tuple[float, float]], seconds: float) -> "grid_ops.Window":
        window = grid_ops.Window(dict)
        edges = int(seconds / window.SLICE_S)
        window.marks = [(window.SLICE_S * k, window.SLICE_S * k)
                        for k in range(1, edges + 1)]
        window.t1 = window.cpu1 = seconds + 0.05
        window.done = done
        return window

    def test_thin_slices_are_merged(self) -> None:
        # 8 operations of 62.5 ms per half second, below MIN_OPS each
        done = [(0.0625 * (k + 1) - 1e-9, 0.0625) for k in range(64)]
        slices = self.window(done, 4.0).slices()
        self.assertEqual(sum(s["ops"] for s in slices), 64)
        self.assertTrue(all(s["ops"] >= grid_ops.Window.MIN_OPS for s in slices))
        for s in slices:
            self.assertAlmostEqual(s["p50_ms"], 62.5)
            self.assertAlmostEqual(s["ops_per_s"], 16.0, delta=1.0)
            self.assertAlmostEqual(s["cpu_ms_per_op"], 62.5, delta=4.0)

    def test_a_single_operation_still_gives_a_slice(self) -> None:
        slices = self.window([(3.9, 3.8)], 4.0).slices()
        self.assertEqual([s["ops"] for s in slices], [1])
        self.assertAlmostEqual(slices[0]["p90_ms"], 3800.0)

    def test_no_operation_gives_no_slice(self) -> None:
        self.assertEqual(self.window([], 4.0).slices(), [])


class HostSpeedScale(unittest.TestCase):
    def test_scale_comes_from_the_samples_in_the_window(self) -> None:
        with host_speed.HostSpeed() as host:
            t0 = time.perf_counter()
            time.sleep(0.5)
            t1 = time.perf_counter()
        inside = [d for start, d in host.samples if t0 <= start < t1]
        self.assertGreater(len(inside), 5)
        self.assertAlmostEqual(host.scale(t0, t1),
                               host_speed.REFERENCE_S * len(inside) / sum(inside))
        # an interval without samples widens to the nearest ones
        last = host.samples[-1]
        self.assertAlmostEqual(host.scale(last[0] + 1.0, last[0] + 1.01),
                               host_speed.REFERENCE_S * 3 / sum(
                                   d for _, d in host.samples[-3:]))
        with self.assertRaises(RuntimeError):
            host_speed.HostSpeed().scale(t0, t1)


class Isolation(unittest.TestCase):
    """Each workload exercises its layers and bypasses the others."""

    def test_cipher_weighs_more_on_mpi_than_on_status(self) -> None:
        def share(workload: str) -> float:
            m = layers(workload)
            return m["cipher.busy_us_per_op"] / m["trace.wall_us_per_op"]

        self.assertGreater(share("mpi_pingpong"), share("status_query"))

    def test_mpi_bypasses_dispatch_and_tokens(self) -> None:
        m = layers("mpi_pingpong")
        for name, value in m.items():
            if name.startswith(("dispatch.", "tokens.")):
                self.assertEqual(value, 0, name)

    def test_wms_layer_only_on_wms_pilot(self) -> None:
        for workload in run.WORKLOADS:
            wms = [v for n, v in layers(workload).items() if n.startswith("wms.")]
            if workload == "wms_pilot":
                self.assertTrue(all(v > 0 for v in wms), wms)
            else:
                self.assertTrue(all(v == 0 for v in wms), (workload, wms))

    def test_guard_cache_misses_on_jobs_and_hits_on_wms(self) -> None:
        self.assertLess(layers("job_submit")["tokens.guard_hit_ratio"], 0.05)
        self.assertGreater(layers("wms_pilot")["tokens.guard_hit_ratio"], 0.95)

    def test_busy_time_fits_in_wall_time_with_one_caller(self) -> None:
        """With one operation in flight, layer busy time summed over all
        threads must not exceed wall time: a span that also counted the
        peer's work or a GIL wait on another thread would push it over."""
        for workload in ("status_query", "mpi_pingpong", "wms_pilot"):
            m = layers(workload)
            wall = m["trace.wall_us_per_op"]
            residual = m["trace.unattributed_us_per_op"]
            print(f"\n  {workload}: unattributed {residual:.1f} of "
                  f"{wall:.1f} us/op ({residual / wall:.0%})", file=sys.stderr)
            self.assertGreaterEqual(residual, -0.01 * wall, workload)
            self.assertGreater(m["trace.busy_us_per_op"], 0.3 * wall, workload)


class Restoration(unittest.TestCase):
    def test_traced_run_restores_every_wrapped_function(self) -> None:
        owners = []
        for spec in layer_trace.PROBES:
            module = import_module(spec.module)
            owners.append((module if spec.owner is None
                           else getattr(module, spec.owner), spec.attr))
            if spec.owner is None:
                owners += [(import_module(m), spec.attr)
                           for m in layer_trace.IMPORTERS.get(spec.attr, ())]
        before = {(id(o), a): vars(o).get(a) for o, a in owners}
        result = grid_ops.measure("status_query", 3, 0.5, 1, traced=True)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["layers"]["obs.spans_per_op"], 0)
        self.assertTrue(result["restored"])
        for owner, attr in owners:
            self.assertIs(vars(owner).get(attr), before[(id(owner), attr)],
                          f"{getattr(owner, '__name__', owner)}.{attr}")


class Refusal(unittest.TestCase):
    def test_non_default_knob_is_refused(self) -> None:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "status_query",
             "--seed", "1", "--seconds", SECONDS],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={**os.environ, "REPRO_IO": "threaded"},
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("REPRO_IO", done.stderr)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
