"""The repo benchmark: certified solves and served requests.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 16 --trace 0

The program is imported from ``src/``; nothing there knows about this
benchmark.  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is the separate traced run, which
installs the span wrappers of ``tracing.py`` and reports the per-layer
metrics.  Every answer is checked (``check.py``).  The last stdout line
is the JSON result; the lines before it summarize each timing (median,
tail percentile, sample count) and, when traced, the self-time table.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Closed-loop requests per serve "pass".
BLOCK = 100
#: Open-loop offered rates (requests/s), below each workload's
#: closed-loop capacity on a 2-core machine.
RATES = {"serve-hot": 100.0, "serve-churn": 10.0}
#: Share of a traced serve run's ``--seconds`` given to the open loop: at
#: 16 s and 100/s that is the 1000 samples ``p99_ms`` needs.  The rest is
#: split between the untraced and the traced closed loop.
TRACED_OPEN_SHARE = 5 / 8
now = time.monotonic


@dataclass
class Context:
    """One run's settings, scratch directory, report lines and tally."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    env: dict
    attempted: int = 0
    failed: int = 0
    report: list[str] = field(default_factory=list)

    def tally(self, ok: bool, what: str) -> None:
        """Count one checked outcome; the first few failures are reported."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                self.report.append(f"FAILED: {what}")


# ------------------------------------------------------------------ solve-*

def spawn_setup(ctx: Context) -> float:
    """Process spawn until a first certified answer: ``solve bn 2 --no-cache``."""
    t0 = now()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "solve", "bn", "2", "--no-cache"],
        cwd=ROOT, env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # A blocking wait: ``wait(timeout=...)`` polls in steps of up to 50 ms,
    # which would quantize the measured time.
    killer = threading.Timer(120, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = now() - t0
    ctx.tally(code == 0, f"set-up solve exited {code}")
    return elapsed


def solve_passes(ctx, table, extra, seconds, tag, tracer=None):
    """Whole passes over the instance list through ``repro.cli.main``,
    until ``seconds`` have passed (at least one pass).

    Returns pass wall times, per-solve latencies, and
    ``(args, certificate path, exit code)`` per solve.
    """
    from repro.cli import main as cli_main

    walls, lats, outs = [], [], []
    deadline = now() + seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        while not walls or now() < deadline:
            k = len(walls)
            t0 = now()
            for i, args in enumerate(workloads.cli_pass(f"{ctx.seed}:{k}", table, extra)):
                stem = ctx.work / f"{tag}-{k}-{i}"
                argv = ["solve", *args]
                if args[-1] == "--checkpoint":
                    argv.append(f"{stem}.ckpt")
                argv += ["--no-cache", "--certificate", f"{stem}.json"]
                span = tracer.span("cli.solve", stem.name) if tracer else contextlib.nullcontext()
                t = now()
                try:
                    with span:
                        code = cli_main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a wrong answer
                    code = repr(exc)
                lats.append(now() - t)
                outs.append((args, Path(f"{stem}.json"), code))
            walls.append(now() - t0)
    return walls, lats, outs


def unloaded_pass(passes, table, extra) -> list[float]:
    """The seconds of each solve of one pass, each at its instance's
    fastest repeat in ``passes``.

    A shared machine only ever slows a solve, and it does so for a share
    of each run that changes from run to run, so the median pass wall
    time moves with the machine more than the fastest repeats do (see
    ``perfbench/README.md``).
    """
    _, lats, outs = passes
    fastest: dict = {}
    for (args, _, _), t in zip(outs, lats):
        fastest[tuple(args)] = min(t, fastest.get(tuple(args), t))
    return [fastest[tuple(a)] for a in workloads.cli_pass("", table, extra)]


def check_solves(ctx: Context, expect, outs) -> int:
    """Check every CLI answer; returns how many were exact."""
    import check

    specs: dict = {}
    verdicts: dict = {}
    exact = 0
    for args, path, code in outs:
        ok = is_exact = False
        if code == 0 and path.is_file():
            text = path.read_text(encoding="utf-8")
            if tuple(args[:2]) not in specs:
                specs[tuple(args[:2])] = check.cli_spec(args)
            spec = specs[tuple(args[:2])]
            key = (text, json.dumps(spec, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = check.certificate_ok(text, expect.interval(spec))
            ok, is_exact = verdicts[key]
        ctx.tally(ok, f"solve {' '.join(args)}: exit {code!r}")
        exact += is_exact
    return exact


def solve_workload(ctx: Context, table, extra=()) -> dict:
    import check

    setups = [spawn_setup(ctx) for _ in range(SETUP_REPS)]
    expect = check.Expectations()
    for args, _ in table:
        expect.interval(check.cli_spec(args))
    if not ctx.trace:
        passes = solve_passes(ctx, table, extra, ctx.seconds, "run")
        walls, lats, outs = passes
        exact = check_solves(ctx, expect, outs)
        unloaded = unloaded_pass(passes, table, extra)
        ctx.report += [
            stats.describe("setup_s", setups, "s"),
            stats.describe("pass wall time", walls, "s"),
            stats.describe("solve latency", [1e3 * x for x in lats], "ms"),
        ]
        return {
            "setup_s": median(setups),
            "pass_s": sum(unloaded),
            "throughput_rps": len(unloaded) / sum(unloaded),
            "p50_ms": 1e3 * stats.percentile(unloaded, 50),
            "exact_ratio": exact / len(outs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    import tracing

    sharded = bool(extra)
    phase = ctx.seconds / (3 if sharded else 2)
    plain = solve_passes(ctx, table, extra, phase, "plain")
    tracer = tracing.Tracer().install()
    try:
        traced = solve_passes(ctx, table, extra, phase, "traced", tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer.spans, len(traced[2]))
    untraced = sum(unloaded_pass(plain, table, extra))
    values["obs.trace_overhead_ratio"] = sum(unloaded_pass(traced, table, extra)) / untraced
    outs = plain[2] + traced[2]
    if sharded:
        serial = solve_passes(ctx, table, (), phase, "serial")
        values["dist.sharded_wall_s"] = untraced
        values["dist.serial_wall_s"] = sum(unloaded_pass(serial, table, ()))
        values["dist.overhead_ratio"] = untraced / values["dist.serial_wall_s"]
        outs += serial[2]
    check_solves(ctx, expect, outs)
    ctx.report += tracing.table(tracer.spans, len(traced[2]))
    return values


# ------------------------------------------------------------------ serve-*

def check_answers(ctx: Context, expect, records) -> int:
    """Check every served answer; returns how many were exact."""
    import check

    verdicts: dict = {}
    exact = 0
    for rec in records:
        ok = is_exact = False
        if rec.error is None:
            key = (rec.text, id(rec.spec))
            if key not in verdicts:
                verdicts[key] = check.certificate_ok(rec.text, expect.interval(rec.spec))
            ok, is_exact = verdicts[key]
        ctx.tally(ok, rec.error or f"wrong answer for {rec.spec.get('name', rec.spec)}")
        exact += is_exact
    return exact


def p99(values) -> float:
    """Nearest-rank 99th percentile, or 0 (unavailable) when fewer than
    ten samples lie beyond it."""
    t = stats.tail(values)
    return stats.percentile(values, 99) if t and t[0] >= 99 else 0.0


def serve_workload(ctx: Context) -> dict:
    import check
    import serveload

    hot = ctx.workload == "serve-hot"
    make = workloads.hot_stream if hot else workloads.churn_stream
    rate = RATES[ctx.workload]
    if ctx.trace:
        open_s = ctx.seconds * TRACED_OPEN_SHARE
        closed_s = (ctx.seconds - open_s) / 2
    else:
        open_s = closed_s = ctx.seconds / 2
    closed_specs = make(f"{ctx.seed}:closed", 20000 if hot else 3000)
    open_specs = make(f"{ctx.seed}:open", int(rate * open_s) + 1)
    expect = check.Expectations()
    for spec in workloads.HOT_POPULATION if hot else [workloads.B16_SPEC]:
        expect.interval(spec)
    warm: list = []

    def start(tag, spans=None):
        server = serveload.Server(ROOT, ctx.work, ctx.env, tag, spans)
        if hot:  # warm the cache, so every measured answer is a tier-0 hit
            warm.extend(serveload.request(server.port, s) for s in workloads.HOT_POPULATION)
        return server

    def stop(server):
        clean, rss = server.stop()
        ctx.tally(clean, "server exit code or port after SIGTERM")
        return rss

    if not ctx.trace:
        setups = []
        for k in range(SETUP_REPS):
            t0 = now()
            server = start(f"setup{k}")
            setups.append(now() - t0)
            if k < SETUP_REPS - 1:
                stop(server)
        closed, elapsed = serveload.closed_loop(server.port, closed_specs, closed_s)
        opened, lags = serveload.open_loop(server.port, open_specs, rate, open_s)
        counters = server.counters()
        rss = stop(server)
        check_answers(ctx, expect, warm)
        answers = closed + opened
        exact = check_answers(ctx, expect, answers)
        latencies = [r.end - r.due for r in opened]
        ctx.report += [
            stats.describe("setup_s", setups, "s"),
            stats.describe("open-loop latency", [1e3 * x for x in latencies], "ms"),
            stats.describe("gen_lag_ms", [1e3 * x for x in lags], "ms"),
            f"closed loop: {len(closed)} requests in {elapsed:.3f} s; "
            f"open loop: {len(opened)} requests at {rate:g}/s",
            f"dedup hits {counters.get('serve_dedup_hits', 0):g}, orbit deferrals "
            f"{counters.get('serve_orbit_deferrals', 0):g}, tier-0 answers "
            f"{sum(r.tier == 'tier-0' for r in answers)}/{len(answers)}, repeat share "
            f"{workloads.repeat_share([r.spec for r in answers]):.3f}",
        ]
        return {
            "setup_s": median(setups),
            # Every end-to-end metric is emitted on every workload; here
            # pass_s is the closed loop's time per BLOCK requests.
            "pass_s": BLOCK * elapsed / len(closed),
            "throughput_rps": len(closed) / elapsed,
            "p50_ms": 1e3 * stats.percentile(latencies, 50),
            "exact_ratio": exact / len(answers),
            "peak_rss_mb": rss,
        }

    import tracing

    plain = start("plain")
    closed_a, elapsed_a = serveload.closed_loop(plain.port, closed_specs, closed_s)
    stop(plain)
    spans_path = ctx.work / "spans.json"
    server = start("traced", spans_path)
    t0 = now()
    closed_b, elapsed_b = serveload.closed_loop(server.port, closed_specs, closed_s)
    opened, lags = serveload.open_loop(server.port, open_specs, rate, open_s)
    t1 = now()
    counters = server.counters()
    stop(server)
    index = server.cache / "index.json"
    spans = tracing.window(json.loads(spans_path.read_text(encoding="utf-8")), t0, t1)
    answers = closed_b + opened
    check_answers(ctx, expect, warm + closed_a + answers)
    n = len(answers)
    values = tracing.layer_metrics(spans, n)
    legs = [r.legs for r in answers if r.legs]
    for i, name in enumerate(("server.post_ms", "server.poll_ms", "server.result_ms")):
        values[name] = 1e3 * median(leg[i] for leg in legs)
    posted = n + (len(workloads.HOT_POPULATION) if hot else 0)  # counters include warm-up
    values["queue.dedup_hits"] = counters.get("serve_dedup_hits", 0.0) / posted
    values["queue.orbit_deferrals"] = counters.get("serve_orbit_deferrals", 0.0) / posted
    values["cache.index_kb"] = index.stat().st_size / 1024.0 if index.is_file() else 0.0
    latencies = [r.end - r.due for r in opened]
    values["p99_ms"] = 1e3 * p99(latencies)
    values["gen_lag_ms"] = 1e3 * median(lags)
    values["obs.trace_overhead_ratio"] = (len(closed_a) / elapsed_a) / (len(closed_b) / elapsed_b)
    values["workload.repeat_ratio"] = workloads.repeat_share([r.spec for r in answers])
    ctx.report += [stats.describe("open-loop latency", [1e3 * x for x in latencies], "ms")]
    ctx.report += tracing.table(spans, n)
    return values


WORKLOADS = {
    "solve-cli": lambda ctx: solve_workload(ctx, workloads.SOLVE_CLI),
    "solve-sharded": lambda ctx: solve_workload(ctx, workloads.SOLVE_SHARDED, workloads.SHARD_ARGS),
    "serve-hot": serve_workload,
    "serve-churn": serve_workload,
}


def result(ctx: Context, values: dict, units: dict) -> dict:
    """The final JSON object.  Refuses names BENCHMARK.json does not declare,
    and, untraced, any missing end-to-end metric."""
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise ValueError(f"undeclared metric names: {undeclared}")
    missing = sorted(set(units) - set(values))
    if missing and not ctx.trace:
        raise ValueError(f"missing end-to-end metrics: {missing}")
    return {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        # A layer that did not run on this workload reads 0.
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = stats.declared(ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Every temporary file, the program's own included, stays in the checkout.
    tempfile.tempdir = os.environ["TMPDIR"] = str(work)
    pythonpath = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work, env)
    try:
        values = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if ctx.trace:
        values["error_ratio"] = ctx.failed / max(1, ctx.attempted)
    print("\n".join(ctx.report))
    print(json.dumps(result(ctx, values, per_layer if ctx.trace else end_to_end)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
