"""Command-line interface: ``repro-butterfly`` (or ``python -m repro``).

Subcommands
-----------
``info N [--wraparound]``
    Structure census of the butterfly: nodes, degrees, diameter.
``expansion {bn,wn} N K [--node]``
    Certified edge (default) or node expansion at set size ``K``.
``folklore N``
    The Theorem 2.20 construction: plan and, when feasible, a built and
    verified balanced bisection of ``Bn`` with capacity below ``n``.
``solve {bn,wn,ccc,torus,mesh,fattree,fbfly} N [--dims D] [--timeout S]
[--checkpoint PATH] [--trace PATH] [--cache DIR | --no-cache]
[--certificate PATH] [--shards S [--dist-state DIR] [--dist-workers W]
[--dist-telemetry DIR]]``
    Certified ``BW`` interval by the degradation cascade
    (:func:`repro.core.fallback.solve_with_fallback`): exact solvers under
    a wall-clock budget, then the paper's closed form and construction
    for a family instance, heuristics as fallback, always a valid bound.
    For the product families ``N`` is the side (torus/mesh), radix
    (fbfly) or depth (fattree) and ``--dims`` the number of dimensions
    (default 2).  A size the family rejects is a usage error (exit 2).
    ``bisection`` is an alias.
    ``--trace`` activates :mod:`repro.obs` and writes a run timeline
    (spans, counters, winning tier, result, environment) to ``PATH``.
    ``--cache DIR`` memoizes results in a
    :class:`~repro.perf.cache.SolverCache` (default from the
    ``REPRO_CACHE_DIR`` environment variable); ``--no-cache`` disables it
    even when the variable is set.  ``--certificate PATH`` writes the
    resulting certificate (with its network spec and witness) as JSON for
    later independent re-checking with ``verify``.
    ``--shards S`` runs tier 1 as the fault-tolerant distributed sweep
    (:mod:`repro.dist`): lease-based work-stealing shards across ``W``
    worker processes coordinated through ``--dist-state DIR``.  Re-running
    the same command on ``DIR`` resumes an interrupted sweep; on a
    settled one it re-certifies without starting a worker.
    ``--dist-telemetry DIR`` traces the fleet: each worker journals a
    crash-safe span shard, merged after the sweep into
    ``DIR/timeline.json`` (critical path included).
``dist status --state DIR [--watch [--interval S] [--once]]``
    Shard table, lease holders and event journal of a coordinator
    directory.  ``--watch`` re-renders the view live — lease states,
    per-shard heartbeat progress bars, fleet event counters — reading
    the state file read-only until the sweep settles.
``verify PATH``
    Re-check a ``solve --certificate`` JSON file (or the result interval
    of a run timeline from ``solve --trace``) with the independent
    checker of :mod:`repro.verify`: first-principles witness recount,
    interval sanity, paper-claim inequalities.  Exits 1 when
    verification fails and 2 when the file holds nothing to verify.
``fuzz [--seed S] [--runs N] [--corpus DIR] [--trace PATH]``
    Seeded differential fuzz campaign (:mod:`repro.verify.fuzz`): random
    small instances through every applicable solver, cache-warm and
    cache-cold, all answers cross-checked and every witness re-verified.
    Failures are shrunk and saved to ``--corpus``; exits non-zero on any
    disagreement.
``cache {stats,clear} [--dir DIR]``
    Inspect or empty a solver cache directory.
``serve [--host H] [--port P] [--timeout S]
[--max-nodes N] [--cache DIR | --no-cache] [--telemetry DIR]
[--port-file PATH]``
    Serve certified solves over HTTP (:mod:`repro.serve`): ``POST
    /v1/solve`` takes a network spec and returns a job id, ``GET
    /v1/jobs/<id>`` polls it, ``GET /v1/results/<id>`` returns the
    ``repro-certificate/1`` JSON (``verify`` accepts it unchanged), and
    ``GET /metrics`` exposes live OpenMetrics.  In-flight requests
    dedupe by canonical fingerprint and solve one at a time in the
    drain thread; ``--cache`` shares tier-0 results across requests and
    processes; ``--telemetry DIR`` journals the server's spans (flushed
    after every job), merged to ``DIR/timeline.json`` on shutdown
    (SIGTERM/Ctrl-C).  See ``docs/serving.md``.
``stats PATH [--json] [--openmetrics PATH] [--flame PATH]``
    Validate and pretty-print (or re-emit as JSON) a run timeline: the
    one-shard timeline ``solve --trace`` / ``fuzz --trace`` write or a
    merged fleet timeline from ``solve --shards --dist-telemetry``.
    ``--openmetrics`` exports counters/gauges as a Prometheus text
    exposition; ``--flame`` exports the span tree as
    folded flame-graph stacks.
``claims [IDS...]``
    Check registered paper claims (all by default).
``lint [PATHS...]``
    Static analysis for the repo's paper-contract invariants
    (:mod:`repro.lint`; also installed standalone as ``repro-lint``).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

__all__ = ["main"]

#: ``kind`` of the run manifests older releases wrote; only refused now.
_OLD_MANIFEST_KIND = "repro-obs-manifest"


def _cmd_info(args: argparse.Namespace) -> int:
    from .topology import (
        Butterfly, degree_census, diameter, expected_diameter,
    )

    bf = Butterfly(args.n, wraparound=args.wraparound)
    print(f"{bf.name}: {bf.num_nodes} nodes, {bf.num_edges} edges, "
          f"{bf.num_levels} levels of {bf.n}")
    print(f"degrees: {degree_census(bf)}")
    d = diameter(bf) if bf.num_nodes <= 1 << 14 else None
    print(f"diameter: {d if d is not None else '(skipped, large)'} "
          f"(paper: {expected_diameter(bf)})")
    return 0


#: Families whose CLI size argument is a per-dimension parameter; they
#: additionally honor ``--dims`` (torus/mesh side, fbfly radix).
_DIMS_FAMILIES = ("torus", "mesh", "fbfly")


def _family_network(family: str, n: int, dims: int = 2):
    """Build a pristine family instance for the solve and verify commands.

    The paper indexes butterflies by their input count ``n`` (a power of
    two); as a convenience a non-power-of-two ``n`` is read as the
    dimension, so ``solve bn 3`` means the 3-dimensional butterfly B8.
    An instance of more than ``2^24`` nodes, the cap certificate and
    served specs get, is refused with ``ValueError`` before it is built.
    """
    from .topology import (
        butterfly, cube_connected_cycles, fat_tree, flattened_butterfly,
        mesh, torus, wrapped_butterfly,
    )
    from .topology.labels import is_power_of_two
    from .verify.serialize import _MAX_SPEC_NODES, spec_node_count

    if family in ("bn", "wn") and not is_power_of_two(n):
        if n >= 63:  # refused below anyway; 1 << n alone could exhaust memory
            raise ValueError(
                f"{family} {n}: dimension {n} names more than 2^63 nodes; "
                f"at most {_MAX_SPEC_NODES} are built"
            )
        n = 1 << n
    # Past 64 sides of at least 2 the count is over the cap; a smaller
    # side is refused by the torus and mesh constructors.
    sides = (n,) * min(dims, 64)
    count = spec_node_count({"family": family, "params": {
        "n": n, "sides": sides, "ary": n, "dims": dims, "depth": n,
    }})
    if count > _MAX_SPEC_NODES:
        shape = f" --dims {dims}" if family in _DIMS_FAMILIES else ""
        raise ValueError(
            f"{family} {n}{shape} names {count} nodes; at most "
            f"{_MAX_SPEC_NODES} are built"
        )
    if family == "torus":
        return torus(*sides)
    if family == "mesh":
        return mesh(*sides)
    if family == "fattree":
        return fat_tree(n)
    if family == "fbfly":
        return flattened_butterfly(n, dims)
    return {
        "bn": butterfly,
        "wn": wrapped_butterfly,
        "ccc": cube_connected_cycles,
    }[family](n)


def _cmd_expansion(args: argparse.Namespace) -> int:
    from .core import edge_expansion, node_expansion
    from .topology import Butterfly

    bf = Butterfly(args.n, wraparound=args.family == "wn")
    fn = node_expansion if args.node else edge_expansion
    print(fn(bf, args.k))
    return 0


def _cmd_folklore(args: argparse.Namespace) -> int:
    from .cuts import butterfly_bisection_below_n

    plan, cut = butterfly_bisection_below_n(args.n, materialize=not args.plan_only)
    print(f"plan: n={plan.n} j={plan.j} a={plan.a} b={plan.b} "
          f"capacity={plan.capacity} ({plan.capacity_over_n:.4f} n)")
    print(f"asymptotic limit 2(sqrt2-1) = {2 * (math.sqrt(2) - 1):.4f}")
    if cut is not None:
        print(f"built and verified: |S| = {cut.s_size} = N/2, "
              f"capacity = {cut.capacity} < n = {plan.n}"
              if cut.capacity < plan.n else
              f"built and verified: capacity = {cut.capacity}")
    return 0


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """The cache root for ``solve``: flag beats env, ``--no-cache`` beats both."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache", None) or os.environ.get("REPRO_CACHE_DIR") or None


def _usage_error(command: str, exc: ValueError) -> int:
    """Report a rejected instance size as a one-line usage error (exit 2)."""
    print(f"repro-butterfly {command}: error: {exc}", file=sys.stderr)
    return 2


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core import solve_with_fallback
    from .resilience import Budget

    try:
        net = _family_network(args.family, args.n, getattr(args, "dims", 2))
    except ValueError as exc:
        return _usage_error(args.command, exc)
    budget = Budget(args.timeout) if args.timeout is not None else None
    cache_dir = _resolve_cache_dir(args)
    dist_kwargs = {
        "shards": getattr(args, "shards", None),
        "dist_state": getattr(args, "dist_state", None),
        "dist_workers": getattr(args, "dist_workers", None),
        "dist_telemetry": getattr(args, "dist_telemetry", None),
    }
    with _run_record(args.trace) as header:
        cert = solve_with_fallback(net, budget=budget, checkpoint=args.checkpoint,
                                   cache=cache_dir, **dist_kwargs)
        header.update(
            command=["solve", args.family, str(args.n)] + (
                ["--dims", str(getattr(args, "dims", 2))]
                if args.family in _DIMS_FAMILIES else []
            ),
            budget={
                "seconds": args.timeout,
                "expired": budget.expired() if budget is not None else False,
            },
            result={
                "quantity": cert.quantity,
                "lower": cert.lower,
                "upper": cert.upper,
                "exact": cert.lower == cert.upper,
                "lower_evidence": cert.lower_evidence,
                "upper_evidence": cert.upper_evidence,
            },
        )
    print(cert)
    _maybe_write_certificate(args, net, cert)
    return 0


@contextlib.contextmanager
def _run_record(path):
    """Trace the block into a one-shard run timeline written to ``path``.

    Yields a dict the block fills with header fields (``command``,
    ``result``, ...).  The shard lives in a temporary directory, so
    nothing but ``path`` is left behind; ``path=None`` traces nothing.
    """
    header: dict = {}
    if path is None:
        yield header
        return
    import tempfile
    from pathlib import Path

    from . import obs

    with tempfile.TemporaryDirectory() as td:
        col = obs.ShardCollector(Path(td) / "run.jsonl", worker="main")
        with obs.collecting(col):
            yield header
        timeline = obs.merge_shards([col.flush()])
    notes = col.notes
    timeline.update(
        command=None, seed=None, budget=None, result=None,
        tier=notes.get("winning_tier"), notes=notes,
        telemetry=notes.get("telemetry"),
        environment=obs.capture_environment(),
    )
    timeline.update(header)
    obs.write_timeline(path, timeline)
    print(f"trace written to {path}", file=sys.stderr)


def _maybe_write_certificate(args: argparse.Namespace, net, cert) -> None:
    if getattr(args, "certificate", None):
        from .verify import write_certificate

        write_certificate(args.certificate, net, cert)
        print(f"certificate written to {args.certificate}", file=sys.stderr)


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from . import obs
    from .verify import CERTIFICATE_FORMAT, check_certificate, load_certificate

    try:
        with open(args.path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        data = {}
    if data.get("format") == CERTIFICATE_FORMAT:
        try:
            net, fields = load_certificate(args.path)
        except ValueError as exc:
            print(f"verify: REJECTED: {exc}", file=sys.stderr)
            return 1
        report = check_certificate(net, fields)
    elif data.get("kind") == obs.TIMELINE_KIND:
        # A run timeline from ``solve --trace``: validate its structure,
        # then check the recorded result interval.  Timelines carry no
        # witness, so only the network-independent checks plus the family
        # claims (via the network rebuilt from the recorded command) run.
        problems = obs.validate_timeline(data)
        if problems:
            for p in problems:
                print(f"verify: invalid timeline: {p}", file=sys.stderr)
            return 1
        result = data.get("result")
        if not (isinstance(result, dict) and {"lower", "upper"} <= result.keys()):
            print(f"verify: {args.path}: no solve result to verify",
                  file=sys.stderr)
            return 2
        try:
            net = _network_from_command(data.get("command"))
        except ValueError as exc:
            print(f"verify: REJECTED: {exc}", file=sys.stderr)
            return 1
        report = check_certificate(net, dict(result), require_witness=False)
    else:
        print(_not_a_run_record("verify", args.path, data), file=sys.stderr)
        return 2
    if report.ok:
        print(f"verify: OK: {report.subject} "
              f"({len(report.checks)} checks: {', '.join(report.checks)})")
        return 0
    print(f"verify: REJECTED: {report.subject}", file=sys.stderr)
    for p in report.problems:
        print(f"verify:   {p}", file=sys.stderr)
    return 1


def _not_a_run_record(cmd: str, path: str, data: dict) -> str:
    """The one-line refusal for a file that is no run timeline."""
    if data.get("kind") == _OLD_MANIFEST_KIND:
        return (f"{cmd}: {path}: {_OLD_MANIFEST_KIND} files are no longer "
                f"read; re-run with --trace")
    return f"{cmd}: {path} is neither a certificate nor a run timeline"


def _network_from_command(command) -> "object | None":
    """Rebuild the solved network from a run timeline's recorded command.

    ``None`` when the command names no family instance; ``ValueError``
    when it names one :func:`_family_network` refuses.
    """
    families = ("bn", "wn", "ccc", "torus", "mesh", "fattree", "fbfly")
    if (
        not isinstance(command, list) or len(command) < 3
        or command[0] != "solve" or command[1] not in families
    ):
        return None
    try:
        n = int(command[2])
        dims = (
            int(command[command.index("--dims") + 1])
            if "--dims" in command else 2
        )
    except (ValueError, IndexError):
        return None
    return _family_network(command[1], n, dims)


def _progress_bar(fraction: float | None, width: int = 12) -> str:
    """A ``[####----] 50%`` cell from a heartbeat progress fraction."""
    if fraction is None:
        return " " * (width + 7)
    fraction = min(1.0, max(0.0, float(fraction)))
    filled = int(round(fraction * width))
    return f"[{'#' * filled}{'-' * (width - filled)}] {fraction * 100:3.0f}%"


def _render_dist_status(state: dict) -> list[str]:
    """One frame of the (watchable) coordinator-status view."""
    counts = state["counts"]
    lines = [
        f"key: {state['key']}",
        f"shards: {state['shards']} "
        f"(done={counts['done']} leased={counts['leased']} "
        f"pending={counts['pending']} quarantined={counts['quarantined']})",
        f"events: {state['events']}",
        f"covered: {state['covered']} masks; settled: {state['settled']}",
    ]
    for sh in state["shard_rows"]:
        lease = f" worker={sh['worker']}" if sh["worker"] else ""
        progress = sh.get("progress")
        if progress is None and sh["status"] == "done":
            progress = 1.0
        bar = _progress_bar(progress)
        lines.append(
            f"  shard {sh['id']:>3} [{sh['lo']}, {sh['hi']}) "
            f"{sh['status']:<11} {bar}{lease} attempts={sh['attempts']}"
        )
    return lines


def _cmd_dist_status(args: argparse.Namespace) -> int:
    import time

    from .dist import ShardCoordinator

    watch = getattr(args, "watch", False)
    once = getattr(args, "once", False)
    interval = max(0.05, float(getattr(args, "interval", 1.0)))
    while True:
        # Read-only by design: peek never takes the coordinator lock's
        # write path and never mutates state, so watching a live fleet
        # cannot perturb the lease protocol.
        state = ShardCoordinator.peek(args.state)
        if state is None:
            print(f"dist: no coordinator state in {args.state}",
                  file=sys.stderr)
            return 2
        frame = _render_dist_status(state)
        if watch and not once and sys.stdout.isatty():  # pragma: no cover
            print("\x1b[2J\x1b[H", end="")
        print("\n".join(frame))
        if not watch or once or state["settled"]:
            return 0
        print("---")
        try:
            time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import obs
    from .verify import fuzz

    with _run_record(args.trace) as header:
        with obs.trace("verify.fuzz.campaign", seed=args.seed, runs=args.runs):
            report = fuzz.run_campaign(
                seed=args.seed, runs=args.runs, corpus_dir=args.corpus,
            )
        header.update(
            command=["fuzz", "--seed", str(args.seed), "--runs", str(args.runs)],
            seed=args.seed,
            result=report.to_dict(),
        )
    print(f"fuzz: seed={report.seed} runs={report.runs} "
          f"disagreements={len(report.failures)}")
    for f in report.failures:
        print(f"fuzz: FAIL run {f['run']} ({f['instance']}):", file=sys.stderr)
        for p in f["problems"]:
            print(f"fuzz:   {p}", file=sys.stderr)
        if f.get("case_id"):
            print(f"fuzz:   shrunk case: {f['case_id']}", file=sys.stderr)
    return 1 if report.failures else 0


def _format_timeline_tree(spans: list[dict]) -> list[str]:
    """Indented fleet span tree: depth from merged parent ids."""
    by_id = {s.get("id"): s for s in spans}

    def _depth(s: dict) -> int:
        d, seen = 0, set()
        while s.get("parent_id") in by_id and s["parent_id"] not in seen:
            seen.add(s["parent_id"])
            s = by_id[s["parent_id"]]
            d += 1
        return d

    lines = []
    for s in sorted(spans, key=lambda s: float(s.get("start", 0.0))):
        indent = "  " * _depth(s)
        attrs = s.get("attrs") or {}
        suffix = (
            " (" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + ")"
            if attrs else ""
        )
        mark = "  TRUNCATED" if s.get("truncated") else ""
        lines.append(
            f"  {indent}{s['name']} [{s.get('worker', '?')}]  "
            f"{float(s['duration']) * 1e3:.3f} ms{suffix}{mark}"
        )
    return lines


def _stats_timeline(args: argparse.Namespace, data: dict) -> int:
    """The ``stats`` view of a run timeline, one-shard or fleet."""
    import json

    from . import obs

    problems = obs.validate_timeline(data)
    if problems:
        for p in problems:
            print(f"stats: invalid timeline: {p}", file=sys.stderr)
        return 1
    if _stats_exports(args, data):
        return 0
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"timeline: {args.path}")
    if data.get("command"):
        print(f"command: {' '.join(data['command'])}")
    env = data.get("environment")
    if env:
        print(f"python: {env.get('python', '?')}  "
              f"git: {env.get('git_rev') or '(unknown)'}")
    if data.get("tier") is not None:
        print(f"winning tier: {data['tier']}")
    result = data.get("result")
    if isinstance(result, dict) and "disagreements" in result:
        print(f"result: fuzz seed={result.get('seed')} "
              f"runs={result.get('runs')} "
              f"disagreements={result.get('disagreements')}")
    elif isinstance(result, dict):
        print(f"result: {result.get('quantity', '?')} in "
              f"[{result.get('lower', '?')}, {result.get('upper', '?')}]"
              f"{' (exact)' if result.get('exact') else ''}")
    print(f"run: {data.get('run_id')}")
    workers = data.get("workers", [])
    print(f"workers ({len(workers)}): {', '.join(workers)}")
    if data.get("skipped_shards"):
        print(f"skipped shards: {', '.join(data['skipped_shards'])}")
    cp = data.get("critical_path", {})
    if cp.get("names"):
        chain = " > ".join(
            f"{n}[{w}]" for n, w in zip(cp["names"], cp["workers"])
        )
        print(f"critical path: {chain} "
              f"({float(cp.get('duration', 0.0)) * 1e3:.3f} ms"
              f"{', truncated' if cp.get('truncated') else ''})")
    print(f"spans ({len(data.get('spans', []))}):")
    for line in _format_timeline_tree(data.get("spans", [])):
        print(line)
    counters = data.get("counters", {})
    print(f"counters ({len(counters)}):")
    for k in sorted(counters):
        print(f"  {k} = {counters[k]}")
    gauges = data.get("gauges", {})
    if gauges:
        print(f"gauges ({len(gauges)}):")
        for k in sorted(gauges):
            print(f"  {k} = {gauges[k]}")
    events = data.get("events", [])
    if events:
        print(f"events ({len(events)}):")
        for e in events:
            print(f"  {e['t'] * 1e3:9.3f} ms  {e['name']} [{e['worker']}]")
    tele = data.get("telemetry")
    if isinstance(tele, dict):
        print(f"telemetry: run {tele.get('run_id')}, "
              f"{len(tele.get('shard_files', []))} shard files, "
              f"timeline {tele.get('timeline')}")
    return 0


def _stats_exports(args: argparse.Namespace, data: dict) -> bool:
    """Write any requested ``--openmetrics``/``--flame`` exports."""
    from . import obs

    wrote = False
    if getattr(args, "openmetrics", None):
        obs.write_openmetrics(args.openmetrics, data)
        print(f"openmetrics written to {args.openmetrics}", file=sys.stderr)
        wrote = True
    if getattr(args, "flame", None):
        obs.write_folded(args.flame, data)
        print(f"folded stacks written to {args.flame}", file=sys.stderr)
        wrote = True
    return wrote


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import obs

    try:
        data = obs.load_timeline(args.path)
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    if data.get("kind") == _OLD_MANIFEST_KIND:
        print(_not_a_run_record("stats", args.path, data), file=sys.stderr)
        return 1
    return _stats_timeline(args, data)


def _cmd_cache(args: argparse.Namespace) -> int:
    from .perf import SolverCache

    root = args.dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print("cache: no directory given (use --dir or set REPRO_CACHE_DIR)",
              file=sys.stderr)
        return 1
    cache = SolverCache(root)
    if args.action == "stats":
        s = cache.stats()
        print(f"cache: {s['root']}")
        print(f"entries: {s['entries']} "
              f"({s['profiles']} profiles, {s['certificates']} certificates)")
        print(f"payload bytes: {s['payload_bytes']}")
        return 0
    removed = cache.clear()
    print(f"cache: cleared {removed} entries from {root}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from pathlib import Path

    from .serve import JobQueue, ServeServer

    cache = None if args.no_cache else (args.cache or os.environ.get("REPRO_CACHE_DIR"))
    queue = JobQueue(cache_dir=cache)
    server = ServeServer(
        queue,
        host=args.host,
        port=args.port,
        max_nodes=args.max_nodes,
        default_timeout=args.timeout,
        telemetry=args.telemetry,
    )
    # Handlers first: a SIGTERM that lands while the server starts, or
    # right after the port file appears, must stop it cleanly, not kill it.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    server.start()
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
    print(f"serving on {server.address} (cache: {cache or 'disabled'})",
          flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
        if args.telemetry:
            print(f"telemetry timeline: {args.telemetry}/timeline.json")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from .core import REGISTRY

    ids = args.ids or list(REGISTRY)
    failed = 0
    for cid in ids:
        if cid not in REGISTRY:
            print(f"unknown claim id: {cid}", file=sys.stderr)
            failed += 1
            continue
        res = REGISTRY[cid].check()
        print(f"{'PASS' if res.passed else 'FAIL'} {cid}: {REGISTRY[cid].reference}")
        if not res.passed:
            print(f"     details: {res.details}")
            failed += 1
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    forwarded = list(args.paths)
    if args.format != "text":
        forwarded += ["--format", args.format]
    return lint_main(forwarded)


def _budget_seconds(value: str) -> float:
    """argparse type for ``solve --timeout``: seconds >= 0."""
    seconds = float(value)
    if not seconds >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be >= 0 seconds, got {value}")
    return seconds


def _request_seconds(value: str) -> float:
    """argparse type for ``serve --timeout``: seconds > 0, as a request's own."""
    seconds = float(value)
    if not seconds > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {value}")
    return seconds


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-butterfly",
        description="Bisection width and expansion of butterfly networks "
                    "(Bornstein et al.), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structure census")
    p.add_argument("n", type=int)
    p.add_argument("--wraparound", action="store_true")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("expansion", help="certified expansion")
    p.add_argument("family", choices=["bn", "wn"])
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--node", action="store_true")
    p.set_defaults(fn=_cmd_expansion)

    p = sub.add_parser("folklore", help="the sub-n bisection of Bn (Thm 2.20)")
    p.add_argument("n", type=int)
    p.add_argument("--plan-only", action="store_true")
    p.set_defaults(fn=_cmd_folklore)

    p = sub.add_parser(
        "solve", aliases=["bisection"],
        help="certified BW by the budgeted degradation cascade",
    )
    p.add_argument("family",
                   choices=["bn", "wn", "ccc", "torus", "mesh", "fattree",
                            "fbfly"])
    p.add_argument("n", type=int)
    p.add_argument("--dims", type=int, default=2, metavar="D",
                   help="dimensions for the torus/mesh/fbfly families "
                        "(default 2)")
    p.add_argument("--timeout", type=_budget_seconds, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget; expiry degrades, never fails")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="checkpoint file for the enumeration sweep")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a run timeline (spans, counters, result, "
                        "environment) to PATH")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="solver-cache directory (default: $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the solver cache even if REPRO_CACHE_DIR is set")
    p.add_argument("--certificate", default=None, metavar="PATH",
                   help="write the resulting certificate (network spec, "
                        "interval, witness) as JSON for 'verify'")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="run tier 1 as the lease-coordinated distributed "
                        "sweep with N shards (bit-identical to serial)")
    p.add_argument("--dist-state", default=None, metavar="DIR",
                   help="durable coordinator directory for --shards; the "
                        "same solve on it again resumes or re-certifies "
                        "(default: fresh temporary, non-resumable)")
    p.add_argument("--dist-workers", type=int, default=None, metavar="N",
                   help="worker processes for --shards (default 2)")
    p.add_argument("--dist-telemetry", default=None, metavar="DIR",
                   help="fleet-telemetry directory for --shards: per-worker "
                        "span shards plus a merged timeline.json; a --trace "
                        "timeline gains a telemetry pointer block")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser(
        "dist", help="inspect a distributed sweep's coordinator state",
    )
    dist_sub = p.add_subparsers(dest="dist_command", required=True)
    d = dist_sub.add_parser(
        "status", help="inspect a coordinator state directory"
    )
    d.add_argument("--state", required=True, metavar="DIR")
    d.add_argument("--watch", action="store_true",
                   help="live view: re-render lease states, per-shard "
                        "progress and fleet counters until the sweep settles")
    d.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh period for --watch (default 1.0)")
    d.add_argument("--once", action="store_true",
                   help="with --watch: render a single frame and exit "
                        "(CI smoke)")
    d.set_defaults(fn=_cmd_dist_status)

    p = sub.add_parser(
        "verify",
        help="independently re-check a certificate JSON or run timeline",
    )
    p.add_argument("path", help="certificate file from solve --certificate, "
                                "or timeline from solve --trace")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "fuzz", help="seeded differential fuzz of all solvers vs the checker"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="save shrunk failing cases to DIR (JSON, replayable)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a run timeline for the campaign to PATH")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("cache", help="inspect or clear a solver cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "serve", help="serve certified solves over HTTP (see docs/serving.md)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="listen port (0 picks a free one; see --port-file)")
    p.add_argument("--timeout", type=_request_seconds, default=None, metavar="S",
                   help="default per-request budget in seconds "
                        "(requests may set their own)")
    p.add_argument("--max-nodes", type=int, default=4096,
                   help="largest accepted instance")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="shared solver cache (default: $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the tier-0 cache")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="journal telemetry shards; merge DIR/timeline.json "
                        "on shutdown")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port to PATH once listening")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "stats",
        help="inspect a run timeline (solve --trace, fuzz --trace, "
             "solve --dist-telemetry)",
    )
    p.add_argument("path")
    p.add_argument("--json", action="store_true",
                   help="dump the validated document as JSON")
    p.add_argument("--openmetrics", default=None, metavar="PATH",
                   help="export counters/gauges as an OpenMetrics/Prometheus "
                        "text exposition to PATH")
    p.add_argument("--flame", default=None, metavar="PATH",
                   help="export the span tree as folded flame-graph stacks "
                        "to PATH (flamegraph.pl / speedscope input)")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("claims", help="check paper claims")
    p.add_argument("ids", nargs="*")
    p.set_defaults(fn=_cmd_claims)

    p = sub.add_parser("lint", help="run the repro-lint static analysis")
    p.add_argument("paths", nargs="*", default=["src", "tests"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_lint)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        # Flush here, so a closed stdout surfaces inside the try and not
        # in the interpreter's exit-time flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): end without a
        # traceback, with Python's own EPIPE status, as the Python docs'
        # SIGPIPE note does.  Point stdout at devnull so the exit-time
        # flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
