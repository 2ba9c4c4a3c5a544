"""Spans around the program's public functions, recorded from outside.

The benchmark adds no code to ``src/``.  :class:`Tracer` swaps a timing
wrapper in for each function of :data:`TARGETS` (on its class, or on
every loaded ``repro`` module that holds it, so ``from x import f``
bindings are caught too) and records one span per call: name, start,
end, parent and request id.  Times come from ``time.monotonic()``,
which is system-wide, so server and client spans share one clock.
Spans stay in memory until their owner
writes them out, once, at the end.  :func:`layer_metrics` folds spans
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict, deque

#: ``(module, attribute, span name)``; ``"Class.method"`` patches the class.
TARGETS = [
    ("repro.serve.jobs", "parse_request", "jobs.parse"),
    ("repro.serve.jobs", "solve_job", "jobs.solve"),
    ("repro.serve.queue", "JobQueue.submit", "queue.submit"),
    # The result route: job lookup plus the certificate's JSON dump.
    ("repro.serve.server", "ServeServer._get_result", "serialize.dump"),
    ("repro.resilience.supervise", "supervised_map", "supervise.map"),
    ("repro.verify.serialize", "network_from_spec", "serialize.spec_build"),
    ("repro.verify.serialize", "certificate_to_data", "serialize.cert"),
    ("repro.perf.canonical", "canonical_form", "canonical"),
    ("repro.perf.cache", "SolverCache.get_certificate", "cache.get"),
    ("repro.perf.cache", "SolverCache.get_warm_start", "cache.get"),
    ("repro.perf.cache", "SolverCache.get_profile", "cache.get"),
    ("repro.perf.cache", "SolverCache.put_certificate", "cache.put"),
    ("repro.perf.cache", "SolverCache.put_profile", "cache.put"),
    # Private, but it is the first suspect the serve-hot table must weigh.
    ("repro.perf.cache", "SolverCache._load_index", "cache.load_index"),
    ("repro.verify.checker", "check_certificate", "checker"),
    ("repro.verify.checker", "check_profile", "checker"),
    ("repro.core.fallback", "solve_with_fallback", "fallback"),
    ("repro.cuts.enumerate_exact", "cut_profile", "enumerate"),
    ("repro.cuts.layered_dp", "layered_cut_profile", "layered_dp"),
    ("repro.cuts.branch_and_bound", "bb_min_bisection", "bb"),
    ("repro.cuts.kernighan_lin", "kernighan_lin_bisection", "heuristics"),
    ("repro.cuts.fiduccia_mattheyses", "fm_bisection", "heuristics"),
    ("repro.cuts.spectral", "spectral_bisection", "heuristics"),
    ("repro.resilience.checkpoint", "CheckpointStore.save", "checkpoint.save"),
    ("repro.dist.run", "distributed_cut_profile", "dist"),
]

#: Spans of solver work: a cascade call with a cache hit and none of
#: these was closed by tier 0.
SOLVER_SPANS = {"enumerate", "layered_dp", "bb", "heuristics", "dist"}


def _annotate(attr: str, span: dict, args: tuple, kwargs: dict, result) -> None:
    """Record the per-call facts the metrics need, read off args and result."""
    if attr == "canonical_form":
        span["group"] = result.group_size
    elif attr == "SolverCache.get_certificate":
        span["hit"] = result is not None
    elif attr == "solve_with_fallback":
        span["tier"] = result.upper_evidence.split()[0]
    elif attr == "cut_profile" and result.complete:
        span["work"] = 1 << (args[0].num_nodes - 1)  # side assignments swept
    elif attr == "layered_cut_profile" and result.complete:
        # DP table cells filled, once per pin of a cyclic sweep.
        cells = sum(1 << len(layer) for layer in result.layers) * (len(result.counted) + 1)
        span["work"] = cells << len(result.layers[0]) if result.cyclic else cells
    elif attr == "bb_min_bisection":
        status = kwargs.get("status") or {}
        span["expanded"] = status.get("expansions", 0)
        span["pruned"] = status.get("pruned", 0)
    elif attr == "distributed_cut_profile":
        events = (kwargs.get("status") or {}).get("events", {})
        span["claims"] = events.get("claims", 0)
        span["reclaims"] = events.get("reclaims", 0)
    elif attr == "JobQueue.submit":
        job, deduped = result
        span["deduped"] = bool(deduped)
        span["rid"] = job.digest


class Tracer:
    """Records spans in memory; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": parent["id"] if parent else None,
            "rid": rid if rid is not None or parent is None else parent["rid"],
        }
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span["end"] = time.monotonic()

    def _wrap(self, fn, name: str, attr: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = args[0].get("spec", {}).get("edge_digest") if attr == "solve_job" else None
            with self.span(name, rid) as span:
                result = fn(*args, **kwargs)
            _annotate(attr, span, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[fn_name]
                self._patch(cls, fn_name, original, self._wrap(original, name, attr))
                continue
            original = getattr(module, fn_name)
            wrapped = self._wrap(original, name, attr)
            for key, mod in list(sys.modules.items()):
                if mod is None or not (key == "repro" or key.startswith("repro.")):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def window(spans: list[dict], t0: float, t1: float) -> list[dict]:
    """The spans that started inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s["start"] <= t1]


def _ends(spans: list[dict], now: float | None = None) -> dict:
    """End time per span id; an open span is truncated at ``now``
    (default: the latest timestamp in ``spans``)."""
    if now is None:
        now = max(
            (t for s in spans for t in (s["start"], s["end"]) if t is not None),
            default=0.0,
        )
    return {s["id"]: now if s["end"] is None else s["end"] for s in spans}


def self_times(spans: list[dict], now: float | None = None) -> dict:
    """Self seconds per span id: its duration minus the union of its
    children's intervals, each clipped to the span."""
    end = _ends(spans, now)
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    out = {}
    for s in spans:
        a, b = s["start"], end[s["id"]]
        covered, lo, hi = 0.0, None, None
        for x, y in sorted((max(a, k["start"]), min(b, end[k["id"]])) for k in kids[s["id"]]):
            if y <= x:
                continue
            if hi is not None and x <= hi:
                hi = max(hi, y)
                continue
            if hi is not None:
                covered += hi - lo
            lo, hi = x, y
        if hi is not None:
            covered += hi - lo
        out[s["id"]] = (b - a) - covered
    return out


def summarize(spans: list[dict], now: float | None = None) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls of that
    name only) and self seconds."""
    end = _ends(spans, now)
    selfs = self_times(spans, now)
    by_id = {s["id"]: s for s in spans}
    agg: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for s in spans:
        row = agg[s["name"]]
        row["calls"] += 1
        row["self"] += selfs[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            row["total"] += end[s["id"]] - s["start"]
    return agg


def _queue_waits(named: dict) -> list[float]:
    """Seconds from each fresh ``JobQueue.submit`` to its ``solve_job`` start."""
    events = sorted(
        [(s["start"], 0, s["rid"]) for s in named["queue.submit"] if not s.get("deduped", True)]
        + [(s["start"], 1, s["rid"]) for s in named["jobs.solve"]],
        key=lambda e: (e[0], e[1]),
    )
    pending: dict = defaultdict(deque)
    waits = []
    for t, kind, rid in events:
        if kind == 0:
            pending[rid].append(t)
        elif pending[rid]:
            waits.append(t - pending[rid].popleft())
    return waits


def _wins(spans: list[dict]) -> Counter:
    """Winning tier per cascade call (tier 0: a cache hit and no solver ran)."""
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    wins: Counter = Counter()
    for s in spans:
        if s["name"] != "fallback" or "tier" not in s:
            continue
        children = kids[s["id"]]
        hit = any(k["name"] == "cache.get" and k.get("hit") for k in children)
        solved = any(k["name"] in SOLVER_SPANS for k in children)
        wins["tier-0" if hit and not solved else s["tier"]] += 1
    return wins


def layer_metrics(spans: list[dict], requests: int) -> dict:
    """The per-layer metrics the spans determine.

    Times are milliseconds per request, inclusive of callees unless the
    name says ``self``; counts are per request.  ``requests`` is the
    number of CLI solves or served requests the spans cover.
    """
    agg = summarize(spans)
    end = _ends(spans)
    req = max(1, requests)
    named: dict = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def ms(name):
        return 1e3 * agg[name]["total"] / req

    def per_req(name):
        return agg[name]["calls"] / req

    def rate(name):
        done = [s for s in named[name] if "work" in s]
        busy = sum(end[s["id"]] - s["start"] for s in done)
        return sum(s["work"] for s in done) / busy if busy > 0 else 0.0

    lookups = [s["hit"] for s in named["cache.get"] if "hit" in s]
    groups = [s["group"] for s in named["canonical"]]
    expanded = sum(s.get("expanded", 0) for s in named["bb"])
    waits = _queue_waits(named)
    values = {
        "queue.submit_ms": ms("queue.submit"),
        "queue.wait_ms": 1e3 * statistics.median(waits) if waits else 0.0,
        "jobs.parse_ms": ms("jobs.parse"),
        "jobs.solve_ms": ms("jobs.solve"),
        "serialize.spec_builds_per_req": per_req("serialize.spec_build"),
        "serialize.spec_build_ms": ms("serialize.spec_build"),
        "serialize.cert_ms": ms("serialize.cert") + ms("serialize.dump"),
        "canonical.calls_per_req": per_req("canonical"),
        "canonical.ms_per_req": ms("canonical"),
        "canonical.group_size_mean": statistics.fmean(groups) if groups else 0.0,
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.index_load_ms": ms("cache.load_index"),
        "cache.lookups": len(lookups),
        "cache.hit_ratio": sum(lookups) / len(lookups) if lookups else 0.0,
        "checker.calls_per_req": per_req("checker"),
        "checker.ms_per_req": ms("checker"),
        "fallback.self_ms": 1e3 * agg["fallback"]["self"] / req,
        "enumerate.ms": ms("enumerate"),
        "enumerate.cuts_per_s": rate("enumerate"),
        "layered_dp.ms": ms("layered_dp"),
        "layered_dp.states_per_s": rate("layered_dp"),
        "bb.ms": ms("bb"),
        "bb.nodes_expanded": expanded / req,
        "bb.prune_ratio": (
            sum(s.get("pruned", 0) for s in named["bb"]) / expanded if expanded else 0.0
        ),
        "heuristics.ms": ms("heuristics"),
        "checkpoint.saves": per_req("checkpoint.save"),
        "checkpoint.save_ms": ms("checkpoint.save"),
        "supervise.overhead_ms": (
            ms("supervise.map") - ms("jobs.solve") if named["supervise.map"] else 0.0
        ),
        "dist.claims": sum(s.get("claims", 0) for s in named["dist"]) / req,
        "dist.reclaims": sum(s.get("reclaims", 0) for s in named["dist"]) / req,
    }
    wins = _wins(spans)
    for k in range(6):
        values[f"fallback.wins.tier-{k}"] = wins[f"tier-{k}"] / req
    return values


def table(spans: list[dict], requests: int) -> list[str]:
    """The self-time table, heaviest first: one line per span name."""
    agg = summarize(spans)
    req = max(1, requests)
    lines = [f"{'span':<20} {'calls/req':>10} {'self ms/req':>12} {'incl ms/req':>12}"]
    for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:<20} {row['calls'] / req:>10.3f} {1e3 * row['self'] / req:>12.4f} "
            f"{1e3 * row['total'] / req:>12.4f}"
        )
    return lines
