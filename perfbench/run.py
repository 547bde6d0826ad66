"""Grid-operations benchmark: one workload, end-to-end or per layer.

    python3 perfbench/run.py --workload status_query --seed 1 --seconds 10 --trace 0

Runs from the repository root, builds nothing (the grid is pure Python
under ``src/``) and drives a real ``Grid(transport="tcp")`` over the
loopback interface.  Workloads (see ``grid_ops.py``):

* ``status_query`` — ``Grid.global_status`` on a 3-site grid: small
  inline control round trips (codec, tunnel, reactor, spans);
* ``job_submit`` — two callers submit token-plane ``echo`` jobs A→B:
  token verify/delegate, guard-cache misses, worker pool, node worker;
* ``mpi_pingpong`` — two ranks on two sites bounce 16 KiB payloads:
  bulk record cipher, frame/value codec, multiplexer;
* ``wms_pilot`` — a pilot at B runs submit → claim → done against a
  journaling workload manager at A: pool dispatch, guard-cache hits,
  ``control.wms`` and its journal.

``--trace 0`` runs four child processes in turn with tracing off; each
builds its grid twice (``setup_s`` is the median build), warms up, and
runs closed-loop operations for a quarter of ``--seconds``.  Meanwhile a
thread here samples the shared host's speed (``host_speed.py``), and
every half-second slice and grid build is scaled to a reference host
speed by the samples taken while it ran.  Each timing metric is then
the quartile on its better side over every slice of the four
(``grid_ops.quiet_quartile``); the report also prints the figures as
timed.
``--trace 1`` spends half of ``--seconds`` on two such processes and the
other half on one process with every probe of ``layer_trace.py``
installed, and reports the per-layer split and the tracing overhead.

The benchmark refuses to record when a ``REPRO_*`` knob differs from
its default or when the lock-order watchdog or race sanitizer is
installed.  Every output is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Full results, with
the run envelope, go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from grid_ops import OUT_DIR, RESULT_TAG, ROOT, WORKLOADS, Window, quiet_quartile
from host_speed import HostSpeed

HERE = Path(__file__).resolve().parent
#: measuring processes per untraced run, and grid builds in each;
#: ``setup_s`` is the median over all the builds
PROCESSES = 4
BUILDS_PER_PROCESS = 2
#: a run must end within this many seconds, children included
RUN_BUDGET_S = 170.0

#: knob -> default; a knob that is set to anything else is refused
KNOBS = {
    "REPRO_IO": "reactor",
    "REPRO_OBS": "on",
    "REPRO_AUTH": "token",
    "REPRO_ZEROCOPY": "1",
    "REPRO_SHARDS": "",
    "REPRO_REACTOR_LOOPS": "1",
}
#: knobs that only act under the test suite's conftest: recorded, not refused
RECORDED = ("REPRO_RACESAN", "REPRO_LOCKWATCH")

#: end-to-end metric -> unit (measured with tracing off)
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "rss_mb": "MiB",
}

#: per-layer metric -> unit (from the traced run, per operation)
PER_LAYER = {
    "protocol.calls_per_op": "count",
    "protocol.busy_us_per_op": "us",
    "frames.calls_per_op": "count",
    "frames.busy_us_per_op": "us",
    "frames.bytes_per_op": "B",
    "cipher.calls_per_op": "count",
    "cipher.busy_us_per_op": "us",
    "cipher.bytes_per_op": "B",
    "tunnel.sends_per_op": "count",
    "tunnel.busy_us_per_op": "us",
    "tunnel.frames_per_send": "count",
    "reactor.wakeups_per_op": "count",
    "reactor.frames_per_wakeup": "count",
    "reactor.busy_us_per_op": "us",
    "dispatch.busy_us_per_op": "us",
    "dispatch.pool_wait_us_per_op": "us",
    "tokens.verifies_per_op": "count",
    "tokens.busy_us_per_op": "us",
    "tokens.guard_hit_ratio": "ratio",
    "proxy.requests_per_op": "count",
    "proxy.busy_us_per_op": "us",
    "proxy.reply_wait_us_per_op": "us",
    "proxy.retries_per_op": "count",
    "site.execute_us_per_op": "us",
    "mpi.busy_us_per_op": "us",
    "mpi.match_wait_us_per_op": "us",
    "wms.busy_us_per_op": "us",
    "wms.journal_us_per_op": "us",
    "wms.journal_bytes_per_op": "B",
    "obs.spans_per_op": "count",
    "obs.busy_us_per_op": "us",
    "handshake.count": "count",
    "handshake.busy_ms": "ms",
    "rsa.keygen_ms": "ms",
    "rsa.issue_ms": "ms",
    "trace.wall_us_per_op": "us",
    "trace.busy_us_per_op": "us",
    "trace.unattributed_us_per_op": "us",
    "trace.overhead_pct": "%",
}


class Refused(Exception):
    """The environment would make the numbers incomparable."""


def check_environment() -> dict[str, Optional[str]]:
    """The knob values, after refusing non-default ones.  Whether the
    lock watchdog or race sanitizer is installed is checked in each
    measuring process (``grid_ops.refuse_instrumented``)."""
    knobs = {name: os.environ.get(name) for name in (*KNOBS, *RECORDED)}
    for name, default in KNOBS.items():
        value = knobs[name]
        if value is not None and value.strip().lower() != default:
            raise Refused(f"{name}={value!r} differs from the default "
                          f"{default or '(unset)'!r}")
    return knobs


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def envelope(args: argparse.Namespace,
             knobs: dict[str, Optional[str]]) -> dict[str, Any]:
    """What every result records about the code and the host."""
    commit = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "transport": "tcp-loopback",
        "knobs": knobs,
    }


def run_child(args: argparse.Namespace, seconds: float, builds: int,
              traced: bool, deadline: float) -> dict[str, Any]:
    """One measuring process; its result dict (see ``grid_ops.measure``)."""
    kind = "traced" if traced else "untraced"
    command = [
        sys.executable, str(HERE / "grid_ops.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--builds", str(builds),
        "--trace", "1" if traced else "0",
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{kind} run timed out") from exc
    lines = [line for line in done.stdout.splitlines() if line.startswith(RESULT_TAG)]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{kind} run exited {done.returncode} without a result")
    return json.loads(lines[-1][len(RESULT_TAG):])


def run_untraced(args: argparse.Namespace, seconds: float, processes: int,
                 host: HostSpeed, deadline: float) -> dict[str, Any]:
    """The untraced measurement: ``seconds`` split over ``processes``.

    On a shared 2-vCPU host the same process ran at one speed for
    seconds and then at another, up to 1.8x apart, so a single process
    made whole runs fast or slow.  Pooling the slices of several shorter
    processes spreads a run over more of those phases, and each slice
    and grid build is scaled by the host's speed while it ran
    (``host_speed.py``).
    """
    children = [
        run_child(args, seconds / processes, BUILDS_PER_PROCESS, False, deadline)
        for _ in range(processes)
    ]
    scales = [host.scale(c["window_t0"], c["window_t1"]) for c in children]
    errors = [c["first_error"] for c in children if c["first_error"]]
    return {
        "processes": children,
        "callers": children[0]["callers"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "first_error": errors[0] if errors else None,
        "window_s": sum(c["window_s"] for c in children),
        "window_ok": sum(c["window_ok"] for c in children),
        "window_failed": sum(c["window_failed"] for c in children),
        "samples": sum(c["samples"] for c in children),
        "p99_ms": statistics.median(c["p99_ms"] for c in children),
        "scales": scales,
        "scaled_window_s": sum(c["window_s"] * k for c, k in zip(children, scales)),
        "timed_slices": [s for c in children for s in c["slices"]],
        "slices": [scaled(s, host.scale(s["start"], s["end"]))
                   for c in children for s in c["slices"]],
        "timed_setup_s": [b - a for c in children for a, b in c["build_spans"]],
        "setup_s": [(b - a) * host.scale(a, b)
                    for c in children for a, b in c["build_spans"]],
        "rss_mb": statistics.median(c["rss_mb"] for c in children),
    }


def scaled(slice_: dict[str, float], k: float) -> dict[str, float]:
    """A slice's figures on the reference host: times times ``k``, the
    rate over ``k``."""
    return {"p50_ms": slice_["p50_ms"] * k, "p90_ms": slice_["p90_ms"] * k,
            "cpu_ms_per_op": slice_["cpu_ms_per_op"] * k,
            "ops_per_s": slice_["ops_per_s"] / k}


def end_to_end(plain: dict[str, Any], as_timed: bool = False) -> dict[str, float]:
    """Timing metrics as the better quartile over every slice of every
    process (``grid_ops.quiet_quartile``); ``setup_s`` as the median
    grid build.  Scaled to the reference host unless ``as_timed``."""
    slices = plain["timed_slices" if as_timed else "slices"]
    if not slices:
        raise RuntimeError("no operation completed")
    metrics = {"setup_s": statistics.median(plain["timed_setup_s" if as_timed
                                                  else "setup_s"])}
    for name in ("p50_ms", "p90_ms", "ops_per_s", "cpu_ms_per_op"):
        metrics[name] = quiet_quartile(slices, name)
    metrics["rss_mb"] = plain["rss_mb"]
    return {name: metrics[name] for name in END_TO_END}


def per_layer(plain: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    metrics = dict(traced["layers"])
    plain_ops = plain["window_ok"] + plain["window_failed"]
    plain_us = plain["scaled_window_s"] * 1e6 / max(plain_ops, 1)
    traced_us = metrics["trace.wall_us_per_op"] * traced["scale"]
    metrics["trace.overhead_pct"] = (traced_us / plain_us - 1.0) * 100.0
    return {name: metrics[name] for name in PER_LAYER}


def _table(title: str, rows: list[tuple[str, str, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    vwidth = max(len(r[1]) for r in rows)
    lines = [title] + [f"  {n:<{width}}  {v:>{vwidth}}  {u}" for n, v, u in rows]
    return "\n".join(lines)


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def report(env: dict[str, Any], plain: dict[str, Any], e2e: dict[str, float],
           traced: Optional[dict[str, Any]], layers: Optional[dict[str, float]]) -> str:
    attempted, failed = plain["attempted"], plain["failed"]
    timed = end_to_end(plain, as_timed=True)
    rows = [(n, _fmt(v), f"{END_TO_END[n]:<4} (as timed: {_fmt(timed[n])})"
             if timed[n] != v else END_TO_END[n]) for n, v in e2e.items()]
    rows += [
        ("host_scale", " ".join(f"{k:.3f}" for k in plain["scales"]),
         "per process: reference host speed over this host's"),
        ("p99_ms", _fmt(plain["p99_ms"]),
         f"ms (as timed, report only, {plain['samples']} samples)"),
        ("fail_ratio", _fmt(failed / max(attempted, 1)),
         f"({failed} failed of {attempted} attempted)"),
        ("callers", str(plain["callers"]), "closed-loop"),
    ]
    out = [_table(f"== {env['workload']} end to end (seed {env['seed']}, "
                  f"{plain['window_s']:.3g} s over {len(plain['processes'])} "
                  f"processes, better quartile of {len(plain['slices'])} "
                  f"slices, tracing off)", rows)]
    if traced is not None and layers is not None:
        rows = [(n, _fmt(v), PER_LAYER[n]) for n, v in layers.items()]
        out.append(_table(f"== {env['workload']} per layer (traced run, "
                          f"{traced['spans']} spans, averaged per operation)", rows))
        out.append(
            "  busy {:.1f} of wall {:.1f} us/op; unattributed {:.1f} ({:.0%})".format(
                layers["trace.busy_us_per_op"], layers["trace.wall_us_per_op"],
                layers["trace.unattributed_us_per_op"],
                layers["trace.unattributed_us_per_op"] / layers["trace.wall_us_per_op"]))
        if traced["callers"] > 1:
            out.append(
                "  {} callers overlap, so busy time compares with CPU time: "
                "busy {:.1f} vs CPU {:.1f} us/op (traced run)".format(
                    traced["callers"], layers["trace.busy_us_per_op"],
                    traced["cpu_ms_per_op"] * 1e3))
    if plain.get("first_error"):
        out.append(f"  first failure: {plain['first_error']}")
    if traced is not None and traced.get("first_error"):
        out.append(f"  first failure (traced): {traced['first_error']}")
    return "\n".join(out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shortest = 2 * PROCESSES * 2 * Window.SLICE_S
    if args.seconds < shortest:
        parser.error(f"--seconds must be at least {shortest:g}: "
                     f"{PROCESSES} processes, four slices each")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        knobs = check_environment()
    except Refused as exc:
        print(f"perfbench: refusing to record: {exc}", file=sys.stderr)
        return 3
    deadline = time.monotonic() + RUN_BUDGET_S
    env = envelope(args, knobs)
    try:
        with HostSpeed() as host:
            if args.trace:
                plain = run_untraced(args, args.seconds / 2, PROCESSES // 2,
                                     host, deadline)
                traced = run_child(args, args.seconds / 2, 1, True, deadline)
                traced["scale"] = host.scale(traced["window_t0"], traced["window_t1"])
            else:
                plain = run_untraced(args, args.seconds, PROCESSES, host, deadline)
                traced = None
        e2e = end_to_end(plain)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    layers = per_layer(plain, traced) if traced is not None else None
    correct = plain["failed"] == 0 and (
        traced is None or (traced["failed"] == 0 and traced["restored"]))
    failed = plain["failed"] + (traced["failed"] if traced else 0)
    attempted = plain["attempted"] + (traced["attempted"] if traced else 0)
    metrics = layers if layers is not None else e2e
    units = PER_LAYER if layers is not None else END_TO_END
    print(report(env, plain, e2e, traced, layers))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"envelope": env, "correct": correct, "end_to_end": e2e,
              "per_layer": layers, "untraced_run": plain, "traced_run": traced}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("envelope: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
