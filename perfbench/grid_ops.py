"""The four grid operations the benchmark times, and the process that runs one.

Each workload builds a real ``Grid(transport="tcp")`` on loopback and
drives it only through public calls.  Every caller is a closed loop: it
sends its next operation when the previous reply arrived, because the
job API is synchronous and MPI ranks and pilots wait.  Inputs (node
speeds, users, echo values, payloads, job ids) come from ``--seed``;
the grid only ever sees the generated values.  Every output is checked.

Run by ``run.py`` as a child process, one per measurement, so a traced
run never shares an interpreter with the untraced one::

    python3 perfbench/grid_ops.py --workload status_query --seed 1 \
        --seconds 10 --builds 5 --trace 0

The last stdout line is ``PERFBENCH-RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
RESULT_TAG = "PERFBENCH-RESULT "
#: Where traced runs write their spans and WMS runs their journals.
OUT_DIR = ROOT / ".perfbench-out"

perf = time.perf_counter

class Window:
    """The measured interval, sliced into half-second parts.

    A sampler thread reads the wall and process-CPU clocks once per
    slice; each finished operation is recorded with its end time, so
    every metric can be taken per slice (see :func:`quiet_quartile`).
    """

    SLICE_S = 0.5
    #: fewest operations a slice's latency quantiles are taken over
    MIN_OPS = 20

    def __init__(self, snapshot: Callable[[], dict[str, float]]):
        self._snapshot = snapshot
        self.t0 = self.t1 = self.deadline = 0.0
        self.cpu0 = self.cpu1 = 0.0
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}
        #: (wall, process CPU) at each slice edge inside the window
        self.marks: list[tuple[float, float]] = []
        #: (end time, latency) of every operation that checked out
        self.done: list[tuple[float, float]] = []
        self.failed = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None

    def open(self, seconds: float) -> None:
        self.before = self._snapshot()
        self.cpu0 = time.process_time()
        self.t0 = perf()
        # A little past the last slice edge, so that edge is always
        # sampled inside the window and every slice is whole.
        self.deadline = self.t0 + seconds + 0.1 * self.SLICE_S
        self._sampler = threading.Thread(target=self._sample, name="window-sampler")
        self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.wait(self.SLICE_S - (perf() - self.t0) % self.SLICE_S):
            self.marks.append((perf(), time.process_time()))

    def close(self) -> None:
        self.t1 = perf()
        self.cpu1 = time.process_time()
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        self.after = self._snapshot()

    def record(self, done: list[tuple[float, float]], failed: int) -> None:
        with self._lock:
            self.done.extend(done)
            self.failed += failed

    @property
    def ok(self) -> int:
        return len(self.done)

    def delta(self, key: str) -> float:
        return self.after.get(key, 0.0) - self.before.get(key, 0.0)

    def slices(self) -> list[dict[str, float]]:
        """Rate, CPU per operation and latency quantiles per slice, with
        the slice's edges on the system-wide monotonic clock.

        Every operation counts, in the slice its end time falls in.  A
        slice that holds fewer than :attr:`MIN_OPS` operations is merged
        into the next one, and a short remainder into the last, so a
        slow run yields fewer, longer slices rather than none.
        """
        edges = [(self.t0, self.cpu0)]
        edges += [m for m in self.marks if self.t0 < m[0] < self.t1]
        edges.append((self.t1, self.cpu1))
        done = sorted(self.done)
        groups: list[tuple[tuple[float, float], tuple[float, float], list[float]]] = []
        start, lat, i = edges[0], [], 0
        for edge in edges[1:]:
            while i < len(done) and done[i][0] < edge[0]:
                lat.append(done[i][1])
                i += 1
            if len(lat) >= self.MIN_OPS:
                groups.append((start, edge, lat))
                start, lat = edge, []
        lat += [x for _, x in done[i:]]
        if groups and len(lat) < self.MIN_OPS:
            first, _, merged = groups.pop()
            start, lat = first, merged + lat
        if lat:
            groups.append((start, edges[-1], lat))
        out = []
        for (a, cpu_a), (b, cpu_b), lat in groups:
            lat.sort()
            out.append({
                "start": a,
                "end": b,
                "ops": len(lat),
                "ops_per_s": len(lat) / (b - a),
                "cpu_ms_per_op": (cpu_b - cpu_a) * 1e3 / len(lat),
                "p50_ms": statistics.median(lat) * 1e3,
                "p90_ms": (statistics.quantiles(lat, n=10)[8]
                           if len(lat) > 1 else lat[0]) * 1e3,
            })
        return out


def quiet_quartile(slices: list[dict[str, float]], name: str) -> float:
    """A timing metric over ``slices``: the quartile on its better side.

    That is the figure the run reaches in its quieter quarter.  On a
    shared host, interference slows some slices and never speeds one
    up, so the better quartile moves with the code and much less with
    the neighbours; a slower build slows every slice, the better
    quartile too.
    """
    values = [s[name] for s in slices]
    if len(values) == 1:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return high if name == "ops_per_s" else low


class Workload:
    """One grid shape, one operation, and the checks on its output."""

    name = ""
    #: concurrent closed-loop callers
    callers = 1
    sites: tuple[str, ...] = ("A", "B")
    nodes = 1

    def __init__(self, seed: int, work_dir: Path):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.grid: Any = None
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        self._count_lock = threading.Lock()
        self.inputs()

    def inputs(self) -> None:
        """Derive this workload's inputs from the seed."""

    # -- set-up ----------------------------------------------------------

    def build(self, index: int) -> None:
        """CA, proxy keys, listeners, full-mesh handshakes, token plane."""
        from repro import Grid

        grid = Grid(transport="tcp")
        for site in self.sites:
            grid.add_site(site, node_speeds=self.node_speeds(site))
        grid.connect_all()
        if grid.enable_token_auth() is None:
            raise RuntimeError("token auth did not enable; check REPRO_AUTH")
        self.grid = grid
        self.prepare(index)

    def node_speeds(self, site: str) -> list[float]:
        return [1.0] * self.nodes

    def prepare(self, index: int) -> None:
        """Per-workload set-up after the mesh is up (login, WMS)."""

    def teardown(self) -> None:
        if self.grid is not None:
            self.grid.shutdown()
            self.grid = None

    # -- measurement -----------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counters read at window edges (outside the timed interval)."""
        retries = 0.0
        for proxy in self.grid.proxies.values():
            counters = proxy.observability(max_spans=0)["metrics"]["counters"]
            retries += counters.get("request.retries", 0)
        return {"retries": retries}

    def op(self, caller: int, index: int) -> bool:
        """One operation; True when its output checked out."""
        raise NotImplementedError

    def attempt(self, call: Callable[[], bool], index: int) -> bool:
        """Run one operation; it failed unless it returned True (its
        output checked out) without raising."""
        try:
            ok = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
            return False
        if not ok:
            self.fail(f"{self.name}: wrong output at op {index}")
            return False
        with self._count_lock:
            self.attempted += 1
        return True

    def fail(self, error: str) -> None:
        """Count one failed operation (or broken end-of-run invariant)."""
        with self._count_lock:
            self.attempted += 1
            self.failed += 1
            if self.first_error is None:
                self.first_error = error

    def warm_up(self, call: Callable[[int], bool], index: int, step: int,
                seconds: float) -> int:
        """Run operations until ``seconds`` passed; the next index."""
        end = perf() + seconds
        while perf() < end:
            self.attempt(lambda: call(index), index)
            index += step
        return index

    def timed_loop(self, window: Window, call: Callable[[int], bool],
                   index: int, step: int) -> None:
        """Closed loop until the window's deadline, recorded in it."""
        done: list[tuple[float, float]] = []
        failed = 0
        while True:
            start = perf()
            if start >= window.deadline:
                break
            if self.attempt(lambda: call(index), index):
                end = perf()
                done.append((end, end - start))
            else:
                failed += 1
            index += step
        window.record(done, failed)

    def run(self, window: Window, warmup_s: float, seconds: float) -> None:
        """Closed loops: warm up, then every caller runs until the deadline."""
        callers = self.callers
        warmed = threading.Barrier(callers + 1)
        go = threading.Event()

        def loop(caller: int) -> None:
            def call(index: int) -> bool:
                return self.op(caller, index)

            index = self.warm_up(call, caller, callers, warmup_s)
            warmed.wait()
            go.wait()
            self.timed_loop(window, call, index, callers)

        threads = [
            threading.Thread(target=loop, args=(c,), name=f"caller-{c}")
            for c in range(callers)
        ]
        for thread in threads:
            thread.start()
        warmed.wait(timeout=warmup_s + 60.0)
        window.open(seconds)
        go.set()
        for thread in threads:
            thread.join(timeout=seconds + 60.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        window.close()

    def final_check(self) -> Optional[str]:
        """End-of-run invariant; a message when it does not hold."""
        return None


class StatusQuery(Workload):
    """Grid.global_status from A: two cross-proxy STATUS_QUERY round trips."""

    name = "status_query"
    sites = ("A", "B", "C")
    nodes = 2

    def inputs(self) -> None:
        choices = (0.5, 1.0, 1.5, 2.0, 3.0)
        self.speeds = {
            site: [self.rng.choice(choices) for _ in range(self.nodes)]
            for site in self.sites
        }

    def node_speeds(self, site: str) -> list[float]:
        return self.speeds[site]

    def op(self, caller: int, index: int) -> bool:
        status = self.grid.global_status(via_site="A")
        if sorted(status) != list(self.sites):
            return False
        for site, rows in status.items():
            expected = [(f"{site}.n{i}", s) for i, s in enumerate(self.speeds[site])]
            got = sorted(
                (row["node"], row["cpu_speed"]) for row in rows
                if row["site"] == site
            )
            if got != expected:
                return False
        return True


class JobSubmit(Workload):
    """Token-plane echo jobs from A to B by two concurrent callers."""

    name = "job_submit"
    callers = 2

    def inputs(self) -> None:
        self.user = f"user{self.rng.randrange(10**6):06d}"
        self.password = f"pw{self.rng.getrandbits(64):016x}"
        self.values = [self.rng.randbytes(256) for _ in range(64)]

    def prepare(self, index: int) -> None:
        grid = self.grid
        grid.add_user(self.user, self.password)
        grid.grant(f"user:{self.user}", "site:*", "submit")
        self.token = grid.login(self.user, self.password, via_site="A")

    def op(self, caller: int, index: int) -> bool:
        value = self.values[index % len(self.values)]
        result = self.grid.submit_job_with_token(
            self.token, "echo", {"value": value},
            origin_site="A", target_site="B",
        )
        return result == value


class MpiPingPong(Workload):
    """Two ranks on different sites bounce 16 KiB payloads; rank 0 times."""

    name = "mpi_pingpong"
    PING, PONG, STOP = 1, 2, 3

    def inputs(self) -> None:
        self.payloads = [self.rng.randbytes(16 * 1024) for _ in range(16)]

    def run(self, window: Window, warmup_s: float, seconds: float) -> None:
        result = self.grid.run_mpi(
            self._app, nprocs=2, timeout=warmup_s + seconds + 60.0,
            args=(window, warmup_s, seconds),
        )
        for rank, exc in sorted(result.errors.items()):
            self.fail(f"rank {rank}: {exc!r}")
        if len({node.split(".")[0] for node in result.placement}) != 2:
            self.fail(f"ranks share a site: {result.placement}")

    def _app(self, comm: Any, window: Window, warmup_s: float,
             seconds: float) -> None:
        if comm.rank == 1:
            while True:
                payload, status = comm.recv(0, -1, timeout=60.0, with_status=True)
                if status.tag == self.STOP:
                    return
                comm.send(payload, 0, tag=self.PONG)

        def pingpong(index: int) -> bool:
            payload = self.payloads[index % len(self.payloads)]
            comm.send(payload, 1, tag=self.PING)
            return comm.recv(1, self.PONG, timeout=30.0) == payload

        try:
            index = self.warm_up(pingpong, 0, 1, warmup_s)
            window.open(seconds)
            self.timed_loop(window, pingpong, index, 1)
            window.close()
        finally:
            comm.send(b"", 1, tag=self.STOP)


class WmsPilot(Workload):
    """A pilot at B submits, claims and completes jobs at A's authority."""

    name = "wms_pilot"

    def inputs(self) -> None:
        self.prefix = f"job{self.rng.getrandbits(32):08x}"
        self.users = [f"u{self.rng.randrange(10**4):04d}" for _ in range(8)]
        self.works = [round(self.rng.uniform(0.5, 2.0), 3) for _ in range(64)]

    def prepare(self, index: int) -> None:
        from repro.control.wms import FileJournal

        self.journal_path = self.work_dir / f"journal-{index}.jsonl"
        self.wms = self.grid.attach_workload_manager(
            "A", journal=FileJournal(str(self.journal_path))
        )
        self.authority = self.grid.proxy_of("A").name
        self.pilot = self.grid.proxy_of("B")
        self.claimed: set[str] = set()
        self.submitted = 0

    def teardown(self) -> None:
        super().teardown()
        self.wms.close()

    def snapshot(self) -> dict[str, float]:
        counters = super().snapshot()
        counters["journal_bytes"] = float(os.path.getsize(self.journal_path))
        return counters

    def op(self, caller: int, index: int) -> bool:
        from repro.control.wms import JobSpec

        job_id = f"{self.prefix}-{index}"
        spec = JobSpec(
            job_id=job_id,
            user=self.users[index % len(self.users)],
            work=self.works[index % len(self.works)],
        )
        queued = self.pilot.wms_submit(self.authority, spec)
        self.submitted += 1
        if queued.get("state") != "pending" or queued.get("duplicate"):
            return False
        grants = self.pilot.wms_claim(self.authority)
        if len(grants) != 1 or grants[0]["job"]["job_id"] != job_id:
            return False
        if job_id in self.claimed:
            return False
        self.claimed.add(job_id)
        done = self.pilot.wms_done(self.authority, job_id, grants[0]["token"])
        return done.get("state") == "done"

    def final_check(self) -> Optional[str]:
        status = self.wms.status()
        if (status["submitted"] != self.submitted
                or status["done"] != self.submitted
                or status["dead"] or status["pending"] or status["claimed"]):
            return f"queue does not balance: {status}, {self.submitted} submitted"
        return None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (StatusQuery, JobSubmit, MpiPingPong, WmsPilot)
}


def refuse_instrumented() -> Optional[str]:
    """Why this process must not record, if lockwatch or racesan is in."""
    from repro.obs import lockwatch, racesan

    if lockwatch.active() is not None:
        return "the lock-order watchdog is installed"
    if racesan.active() is not None:
        return "the race sanitizer is installed"
    return None


def measure(name: str, seed: int, seconds: float, builds: int,
            traced: bool) -> dict[str, Any]:
    """Set up ``builds`` grids, time the last one, check every output."""
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = None
    if traced:
        from layer_trace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    workload = WORKLOADS[name](seed, work_dir)
    try:
        build_spans: list[tuple[float, float]] = []
        for index in range(builds):
            start = perf()
            workload.build(index)
            build_window = (start, perf())
            build_spans.append(build_window)
            if index < builds - 1:
                workload.teardown()
        window = Window(workload.snapshot)
        warmup_s = min(0.5, 0.2 * seconds)
        try:
            workload.run(window, warmup_s, seconds)
            broken = workload.final_check()
            if broken:
                workload.fail(broken)
        finally:
            workload.teardown()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
    lat_ms = sorted(x * 1e3 for _, x in window.done)
    slices = window.slices()
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "callers": workload.callers,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "first_error": workload.first_error,
        "window_s": window.t1 - window.t0,
        #: window edges on the system-wide monotonic clock
        "window_t0": window.t0,
        "window_t1": window.t1,
        "window_ok": window.ok,
        "window_failed": window.failed,
        "cpu_s": window.cpu1 - window.cpu0,
        "samples": len(lat_ms),
        "p99_ms": statistics.quantiles(lat_ms, n=100)[98] if len(lat_ms) > 1 else 0.0,
        "slices": slices,
        "build_spans": build_spans,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ("p50_ms", "p90_ms", "ops_per_s", "cpu_ms_per_op"):
        result[key] = quiet_quartile(slices, key) if slices else 0.0
    if tracer is not None:
        from layer_trace import layer_metrics

        ops = max(window.ok + window.failed, 1)
        result["layers"] = layer_metrics(
            tracer.summarize(window.t0, window.t1),
            tracer.summarize(*build_window),
            tracer.layers(),
            ops=ops,
            wall_s=window.t1 - window.t0,
            retries=window.delta("retries"),
            journal_bytes=window.delta("journal_bytes"),
        )
        result["restored"] = tracer.restored()
        result["spans"] = tracer.span_count()
        # The file holds an excerpt — the first second of the window —
        # because a whole traced run is over a million spans.
        trace_path = OUT_DIR / f"trace-{name}.tsv"
        tracer.write(str(trace_path), window.t0, window.t0 + 1.0)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--builds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    reason = refuse_instrumented()
    if reason is not None:
        print(f"perfbench: refusing to record: {reason}", file=sys.stderr)
        return 3
    result = measure(args.workload, args.seed, args.seconds,
                     max(1, args.builds), bool(args.trace))
    print(RESULT_TAG + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
