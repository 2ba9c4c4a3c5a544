"""Shard files, trace-context propagation, and the timeline merger."""

import itertools
import json

import pytest

from repro.obs import (
    TELEMETRY_KIND,
    TELEMETRY_VERSION,
    TIMELINE_KIND,
    ShardCollector,
    TraceContext,
    capture_environment,
    critical_path,
    load_timeline,
    merge_shards,
    new_run_id,
    read_shard,
    validate_timeline,
    write_timeline,
)


def _fake_clock(start=100.0, step=1.0):
    """Deterministic clock: ``start``, ``start + step``, ... per call."""
    counter = itertools.count()
    return lambda: start + step * next(counter)


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = TraceContext("run-1", 7)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_none_parent_roundtrip(self):
        ctx = TraceContext("run-1")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert ctx.parent_span_id is None

    @pytest.mark.parametrize("wire", [
        None, "run-1", {}, {"run_id": 3}, {"run_id": "r", "parent_span_id": "x"},
    ])
    def test_malformed_wire_reads_as_none(self, wire):
        assert TraceContext.from_wire(wire) is None

    def test_new_run_id_is_unique(self):
        assert new_run_id() != new_run_id()


class TestShardFile:
    def test_flush_roundtrip(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        col = ShardCollector(
            path, context=TraceContext("run-1", 4), worker="w0",
            clock=_fake_clock(),
        )
        with col.span("dist.claim", {"shard": 2}):
            col.incr("cuts", 10)
            col.gauge("progress", 0.5)
            col.event("claim", shard=2)
        col.flush()

        shard = read_shard(path)
        assert shard is not None
        header = shard["header"]
        assert header["kind"] == TELEMETRY_KIND
        assert header["version"] == TELEMETRY_VERSION
        assert header["run_id"] == "run-1"
        assert header["parent_span_id"] == 4
        assert header["worker"] == "w0"
        (span,) = shard["spans"]
        assert span["name"] == "dist.claim"
        assert span["attrs"] == {"shard": 2}
        assert shard["counters"] == {"cuts": 10}
        assert shard["gauges"]["progress"]["value"] == pytest.approx(0.5)
        (event,) = shard["events"]
        assert event["name"] == "claim"
        assert event["attrs"] == {"shard": 2}
        assert shard["open_spans"] == []
        assert shard["torn_lines"] == 0

    def test_open_span_leaves_durable_marker(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        col = ShardCollector(path, worker="w0", clock=_fake_clock())
        span = col.span("dist.claim", {"shard": 1})
        span.__enter__()
        col.flush()  # worker is about to be SIGKILLed: no __exit__ ever runs
        shard = read_shard(path)
        (marker,) = shard["open_spans"]
        assert marker["name"] == "dist.claim"
        assert shard["spans"] == []

    def test_flush_is_a_full_rewrite(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        col = ShardCollector(path, worker="w0", clock=_fake_clock())
        col.incr("c", 1)
        col.flush()
        col.incr("c", 2)
        col.flush()
        # Cumulative totals, not an append journal: one counter line.
        assert read_shard(path)["counters"] == {"c": 3}
        lines = path.read_text().splitlines()
        assert sum('"counter"' in ln for ln in lines) == 1

    def test_torn_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        col = ShardCollector(path, worker="w0", clock=_fake_clock())
        col.incr("c", 5)
        col.flush()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "counter", "name": "torn", "val\n')
        shard = read_shard(path)
        assert shard["counters"] == {"c": 5}
        assert shard["torn_lines"] == 1

    def test_alien_file_reads_as_no_shard(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        assert read_shard(path) is None
        assert read_shard(tmp_path / "absent.jsonl") is None


def _make_fleet(tmp_path, *, kill_w1=False):
    """A parent shard + two worker shards of one run; returns the paths.

    Fake clocks put the parent at t0=100, w0 at 110, w1 at 120, so merged
    timestamps exercise the cross-shard normalization. When ``kill_w1``,
    w1's claim span is left open at flush — the SIGKILL shape.
    """
    parent = ShardCollector(
        tmp_path / "parent.jsonl", context=TraceContext("run-1"),
        worker="parent", clock=_fake_clock(100.0),
    )
    root = parent.span("dist.run", {"shards": 2})
    root.__enter__()
    parent.flush()
    ctx = TraceContext("run-1", root.id)

    w0 = ShardCollector(
        tmp_path / "w0.jsonl", context=ctx, worker="w0",
        clock=_fake_clock(110.0),
    )
    with w0.span("dist.claim", {"shard": 0}):
        w0.incr("cuts", 100)
        w0.gauge("dist.progress", 0.4)
    w0.flush()

    w1 = ShardCollector(
        tmp_path / "w1.jsonl", context=ctx, worker="w1",
        clock=_fake_clock(120.0),
    )
    claim = w1.span("dist.claim", {"shard": 1})
    claim.__enter__()
    w1.incr("cuts", 50)
    w1.gauge("dist.progress", 0.9)
    if not kill_w1:
        claim.__exit__(None, None, None)
    w1.flush()

    root.__exit__(None, None, None)
    parent.flush()
    return sorted(tmp_path.glob("*.jsonl"))


class TestMerge:
    def test_counters_sum_across_shards(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        assert doc["counters"] == {"cuts": 150}

    def test_gauges_last_write_by_absolute_time(self, tmp_path):
        # w1 starts later (t0=120) so its write is the later absolute one.
        doc = merge_shards(_make_fleet(tmp_path))
        assert doc["gauges"] == {"dist.progress": 0.9}

    def test_worker_roots_reparent_under_parent_span(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        by_id = {s["id"]: s for s in doc["spans"]}
        (root_id,) = [s["id"] for s in doc["spans"] if s["name"] == "dist.run"]
        assert root_id.startswith("parent/")
        for worker in ("w0", "w1"):
            (claim,) = [s for s in doc["spans"]
                        if s["worker"] == worker and s["name"] == "dist.claim"]
            assert claim["parent_id"] == root_id
            assert by_id[claim["parent_id"]]["worker"] == "parent"

    def test_killed_worker_span_is_truncated_to_last_flush(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path, kill_w1=True))
        (trunc,) = [s for s in doc["spans"] if s["truncated"]]
        assert trunc["worker"] == "w1"
        assert trunc["name"] == "dist.claim"
        # Duration runs from the span's start to the shard's last flush.
        assert trunc["duration"] > 0

    def test_merge_is_deterministic_in_the_shard_set(self, tmp_path):
        paths = _make_fleet(tmp_path, kill_w1=True)
        forward = json.dumps(merge_shards(paths), sort_keys=True)
        backward = json.dumps(merge_shards(reversed(paths)), sort_keys=True)
        assert forward == backward

    def test_run_id_filter_skips_foreign_shards(self, tmp_path):
        paths = _make_fleet(tmp_path)
        alien = ShardCollector(
            tmp_path / "alien.jsonl", context=TraceContext("other-run"),
            worker="alien", clock=_fake_clock(),
        )
        alien.incr("cuts", 999)
        alien.flush()
        doc = merge_shards(sorted(tmp_path.glob("*.jsonl")), run_id="run-1")
        assert doc["counters"] == {"cuts": 150}
        assert doc["skipped_shards"] == ["alien.jsonl"]
        assert doc["run_id"] == "run-1"
        assert set(doc["workers"]) == {"parent", "w0", "w1"}

    def test_unreadable_shard_skipped_not_fatal(self, tmp_path):
        paths = _make_fleet(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        doc = merge_shards(paths + [bad])
        assert "bad.jsonl" in doc["skipped_shards"]
        assert doc["counters"] == {"cuts": 150}

    def test_merged_timeline_validates(self, tmp_path):
        for kill in (False, True):
            doc = merge_shards(_make_fleet(tmp_path, kill_w1=kill))
            assert validate_timeline(doc) == []


class TestCriticalPath:
    def test_names_the_straggler_chain(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path, kill_w1=True))
        cp = doc["critical_path"]
        assert cp["names"][0] == "dist.run"
        # w1 never finished: its truncated claim runs to its last flush,
        # making it the last-ending child — the straggler.
        assert cp["workers"][-1] == "w1"
        assert cp["truncated"] is True
        for sid in cp["span_ids"]:
            assert any(s["id"] == sid for s in doc["spans"])

    def test_empty_and_tie_break(self):
        assert critical_path([]) == {
            "span_ids": [], "names": [], "workers": [],
            "duration": 0.0, "truncated": False,
        }
        tie = [
            {"id": "a/1", "parent_id": None, "name": "a", "worker": "a",
             "start": 0.0, "duration": 5.0, "truncated": False},
            {"id": "b/1", "parent_id": None, "name": "b", "worker": "b",
             "start": 0.0, "duration": 5.0, "truncated": False},
        ]
        assert critical_path(tie)["span_ids"] == ["b/1"]


class TestTimelineFile:
    def test_write_load_roundtrip(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        path = write_timeline(tmp_path / "timeline.json", doc)
        loaded = load_timeline(path)
        assert loaded["kind"] == TIMELINE_KIND
        assert validate_timeline(loaded) == []
        assert loaded["counters"] == doc["counters"]

    def test_load_rejects_torn_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"kind": "repro-telemetry-timel')
        with pytest.raises(ValueError):
            load_timeline(path)
        with pytest.raises(ValueError):
            load_timeline(tmp_path / "absent.json")

    def test_write_is_atomic_and_replaces(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        path = tmp_path / "deep" / "timeline.json"
        write_timeline(path, doc)
        # Values JSON cannot hold (a run record's notes) degrade to strings.
        write_timeline(path, {**doc, "notes": {"path": tmp_path}})
        assert not path.with_name(path.name + ".tmp").exists()
        assert load_timeline(path)["notes"] == {"path": str(tmp_path)}

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_timeline(path)

    def test_validator_rejects_structural_damage(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        assert validate_timeline(doc) == []

        bad = json.loads(json.dumps(doc))
        bad["spans"][0]["duration"] = -1.0
        assert any("negative" in p for p in validate_timeline(bad))

        bad = json.loads(json.dumps(doc))
        bad["spans"][1]["id"] = bad["spans"][0]["id"]
        assert any("duplicated" in p for p in validate_timeline(bad))

        bad = json.loads(json.dumps(doc))
        bad["spans"][1]["parent_id"] = "nobody/99"
        assert any("does not resolve" in p for p in validate_timeline(bad))

        bad = json.loads(json.dumps(doc))
        bad["counters"]["cuts"] = "150"
        assert any("not an integer" in p for p in validate_timeline(bad))

        bad = json.loads(json.dumps(doc))
        bad["gauges"] = {"depth": "high"}
        assert any("not a number" in p for p in validate_timeline(bad))

        bad = json.loads(json.dumps(doc))
        bad["critical_path"]["span_ids"] = ["ghost/1"]
        assert any("unknown span" in p for p in validate_timeline(bad))

        assert validate_timeline([]) == ["timeline is not an object"]
        assert any("kind" in p for p in validate_timeline({"kind": "x"}))

    def test_validator_checks_the_run_record_header(self, tmp_path):
        doc = merge_shards(_make_fleet(tmp_path))
        doc.update(
            command=["solve", "bn", "3"], seed=None, tier="tier-2",
            budget={"seconds": None, "expired": False},
            result={"lower": 8, "upper": 8}, notes={"winning_tier": "tier-2"},
            telemetry=None, environment=capture_environment(),
        )
        assert validate_timeline(json.loads(json.dumps(doc, default=str))) == []

        damage = {
            "command": ("command", "solve bn 3"),
            "seed": ("seed", True),
            "tier": ("tier", 2),
            "result": ("result", [8, 8]),
            "notes": ("notes", None),
            "environment.python": ("environment", {"numpy": "2.0"}),
            "telemetry.run_id": ("telemetry", {"shard_files": []}),
            "telemetry.shard_files": ("telemetry", {"run_id": "r", "shard_files": [1]}),
        }
        for expected, (field, value) in damage.items():
            bad = {**doc, field: value}
            assert any(expected in p for p in validate_timeline(bad)), expected
