"""The lease-based shard coordinator: file-backed multi-worker state.

One computation — an exhaustive enumeration sweep sharded into half-open
mask ranges — is coordinated through a single directory:

* ``state.json`` — the shard table, written whole via temp-file +
  ``os.replace`` (the :class:`~repro.resilience.checkpoint.CheckpointStore`
  durability rule), carrying a ``key`` that fingerprints the computation
  so a stale directory can never poison a different run;
* ``lock`` — an advisory file lock serializing every read-modify-write,
  held only for the microseconds a transition takes.  ``fcntl.flock``
  locks die with their holder, so a worker SIGKILLed *inside* the
  critical section cannot wedge the coordinator.

The lease protocol (full failure matrix in ``docs/distributed.md``):

* a worker **claims** the first available shard: ``pending`` with its
  backoff ``not_before`` in the past, or ``leased`` with an expired
  lease.  Claiming an expired lease is a *reclaim*: the attempt counter
  increments and the shard is re-issued after exponential backoff, or
  **quarantined** once the counter passes the cap (a poison shard that
  kills every worker that touches it must not grind the fleet forever);
* a worker **heartbeats** while computing; a heartbeat on a lost lease
  returns ``False`` and the worker abandons the shard (its eventual
  result would be identical anyway — the sweep is deterministic — but
  abandoning keeps exactly one worker burning CPU per shard);
* a worker **completes** a shard with its pre-fold partial profile.
  Completion is idempotent and accepted even from a worker whose lease
  expired mid-compute: shard payloads are deterministic functions of the
  range, so a straggler's result equals the reclaimer's and accepting it
  only finishes the sweep sooner.  Double completions of a ``done``
  shard are dropped and counted.

Every transition is journaled into monotonically increasing event
counters (``claims``, ``reclaims``, ``expired``, ``quarantined``, …) —
the shard history the certificate provenance and the ``dist.*`` obs
counters report.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from ..resilience.checkpoint import RangeLedger

try:  # POSIX: locks die with their holder — the crash-safe path.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback below
    fcntl = None  # type: ignore[assignment]

__all__ = ["Lease", "ShardCoordinator", "SHARD_STATE_VERSION"]

SHARD_STATE_VERSION = 1

#: Seconds after which an O_EXCL fallback lock is presumed orphaned.
_STALE_LOCK_SECONDS = 30.0

_EVENT_NAMES = (
    "claims",
    "reclaims",
    "expired",
    "quarantined",
    "completions",
    "stale_completions",
    "heartbeats",
)


@dataclass(frozen=True)
class Lease:
    """One worker's exclusive, expiring right to compute one shard."""

    shard: int
    lo: int
    hi: int
    worker: str
    expires: float


class ShardCoordinator:
    """Atomic, crash-safe shard bookkeeping for one keyed computation.

    Parameters
    ----------
    root:
        State directory (created lazily).  Safe to share between any
        number of worker processes on one host.
    key:
        Computation fingerprint.  A ``state.json`` written under a
        different key reads as *no state* and is rebuilt by
        :meth:`ensure` — the same stale-file rule as
        :class:`~repro.resilience.checkpoint.CheckpointStore`.
    lease_seconds:
        How long a claim lasts between heartbeats before any other
        worker may reclaim the shard.
    max_attempts:
        Failed-lease cap per shard; one more reclaim quarantines it.
    backoff, backoff_factor, max_backoff:
        Exponential re-issue delay after reclaim number ``k``:
        ``backoff * backoff_factor**(k-1)``, capped.
    clock:
        Monotonic time source (``CLOCK_MONOTONIC`` is system-wide on
        Linux, so lease deadlines compare across processes); injectable
        for deterministic tests.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        key: str,
        *,
        lease_seconds: float = 15.0,
        max_attempts: int = 3,
        backoff: float = 0.1,
        backoff_factor: float = 2.0,
        max_backoff: float = 10.0,
        # repro-lint: disable=RL007 -- lease deadlines, not a measurement span
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.root = Path(root)
        self.key = str(key)
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.backoff = float(backoff)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff = float(max_backoff)
        self._clock = clock
        self._state_path = self.root / "state.json"
        self._lock_path = self.root / "lock"

    # ------------------------------------------------------------------ #
    # Locking and state I/O
    # ------------------------------------------------------------------ #
    @contextmanager
    def _locked(self) -> Iterator[None]:
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
            return
        # O_EXCL spin fallback (non-POSIX): breaks locks older than the
        # stale threshold, since a crashed holder cannot release one.
        excl = self._lock_path.with_suffix(".excl")  # pragma: no cover
        while True:  # pragma: no cover
            try:
                fd = os.open(excl, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    if time.time() - excl.stat().st_mtime > _STALE_LOCK_SECONDS:
                        excl.unlink(missing_ok=True)
                        continue
                except OSError:
                    continue
                time.sleep(0.005)
        try:  # pragma: no cover
            yield
        finally:  # pragma: no cover
            os.close(fd)
            excl.unlink(missing_ok=True)

    def _read(self) -> dict[str, Any] | None:
        """The live state, or ``None`` when absent, corrupt, or stale-keyed."""
        try:
            data = json.loads(self._state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("version") != SHARD_STATE_VERSION:
            return None
        if data.get("key") != self.key:
            return None
        if not isinstance(data.get("shards"), list):
            return None
        return data

    def _write(self, state: dict[str, Any]) -> None:
        tmp = self._state_path.with_name(self._state_path.name + ".tmp")
        tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self._state_path)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def ensure(self, ranges: list[tuple[int, int]]) -> dict[str, Any]:
        """Create the shard table, or adopt an existing same-key one.

        A state file keyed to a *different* computation (or torn, or from
        a different format version) is replaced rather than resumed —
        its completions describe someone else's mask space.  Returns the
        summary (see :meth:`summary`).
        """
        with self._locked():
            state = self._read()
            if state is None:
                state = {
                    "version": SHARD_STATE_VERSION,
                    "key": self.key,
                    "shards": [
                        {
                            "id": i,
                            "lo": int(lo),
                            "hi": int(hi),
                            "status": "pending",
                            "worker": None,
                            "expires": None,
                            "attempts": 0,
                            "not_before": 0.0,
                            "payload": None,
                            "progress": None,
                        }
                        for i, (lo, hi) in enumerate(ranges)
                    ],
                    "events": {name: 0 for name in _EVENT_NAMES},
                }
                self._write(state)
            return self._summarize(state)

    # ------------------------------------------------------------------ #
    # The lease protocol
    # ------------------------------------------------------------------ #
    def _expire_lost_leases(self, state: dict[str, Any], now: float) -> None:
        """Reclaim every expired lease; quarantine past the attempt cap."""
        events = state["events"]
        for sh in state["shards"]:
            if sh["status"] != "leased":
                continue
            if sh["expires"] is not None and now >= float(sh["expires"]):
                sh["attempts"] = int(sh["attempts"]) + 1
                sh["worker"] = None
                sh["expires"] = None
                sh["progress"] = None
                events["expired"] += 1
                if sh["attempts"] > self.max_attempts:
                    sh["status"] = "quarantined"
                    events["quarantined"] += 1
                else:
                    sh["status"] = "pending"
                    sh["not_before"] = now + min(
                        self.backoff
                        * self.backoff_factor ** (int(sh["attempts"]) - 1),
                        self.max_backoff,
                    )
                    events["reclaims"] += 1

    def claim(
        self, worker: str, *, include_quarantined: bool = False
    ) -> Lease | None:
        """Lease the first available shard to ``worker``, or ``None``.

        Availability = ``pending`` past its backoff, after expired leases
        held by dead or stalled workers have been reclaimed in the same
        critical section.  ``include_quarantined`` is the parent's
        serial-takeover override: quarantined shards killed every pool
        worker that touched them, but the supervising process must still
        finish them (in-process, no pool to poison) for an exact answer.
        """
        with self._locked():
            state = self._read()
            if state is None:
                return None
            now = self._clock()
            self._expire_lost_leases(state, now)
            lease = None
            for sh in state["shards"]:
                claimable = sh["status"] == "pending" and now >= float(
                    sh["not_before"]
                )
                if include_quarantined and sh["status"] == "quarantined":
                    claimable = True
                if not claimable:
                    continue
                sh["status"] = "leased"
                sh["worker"] = str(worker)
                sh["expires"] = now + self.lease_seconds
                state["events"]["claims"] += 1
                lease = Lease(
                    int(sh["id"]), int(sh["lo"]), int(sh["hi"]),
                    str(worker), float(sh["expires"]),
                )
                break
            self._write(state)
            return lease

    def heartbeat(
        self, worker: str, shard: int, *, progress: float | None = None
    ) -> bool:
        """Extend ``worker``'s lease on ``shard``; ``False`` = lease lost.

        ``progress`` (fraction of the shard's range swept, 0..1) rides
        along in the shard row so read-only observers — ``dist status
        --watch`` — can render per-shard progress without touching the
        lease protocol.  It is telemetry, not bookkeeping: reclaims
        ignore it and a lost update costs nothing.
        """
        with self._locked():
            state = self._read()
            if state is None:
                return False
            sh = self._shard(state, shard)
            if (
                sh is None
                or sh["status"] != "leased"
                or sh["worker"] != str(worker)
            ):
                return False
            sh["expires"] = self._clock() + self.lease_seconds
            if progress is not None:
                sh["progress"] = min(1.0, max(0.0, float(progress)))
            state["events"]["heartbeats"] += 1
            self._write(state)
            return True

    def complete(
        self, worker: str, shard: int, payload: dict[str, Any]
    ) -> bool:
        """Record ``shard``'s pre-fold partial result; idempotent.

        Accepted from any worker while the shard is not ``done`` — shard
        payloads are deterministic, so a straggler whose lease was
        reclaimed mid-compute delivers the same bytes the reclaimer
        would.  A completion that races a finished shard is dropped (and
        counted as stale).  Completing a quarantined shard lifts the
        quarantine: the result proves the shard was not poison after all.
        """
        with self._locked():
            state = self._read()
            if state is None:
                return False
            sh = self._shard(state, shard)
            if sh is None:
                return False
            if sh["status"] == "done":
                state["events"]["stale_completions"] += 1
                self._write(state)
                return False
            if sh["status"] != "leased" or sh["worker"] != str(worker):
                state["events"]["stale_completions"] += 1
            sh["status"] = "done"
            sh["worker"] = None
            sh["expires"] = None
            sh["progress"] = 1.0
            sh["payload"] = payload
            state["events"]["completions"] += 1
            self._write(state)
            return True

    def abandon(self, worker: str, shard: int) -> None:
        """Voluntarily release a lease (budget expiry): no attempt penalty."""
        with self._locked():
            state = self._read()
            if state is None:
                return
            sh = self._shard(state, shard)
            if (
                sh is not None
                and sh["status"] == "leased"
                and sh["worker"] == str(worker)
            ):
                sh["status"] = "pending"
                sh["worker"] = None
                sh["expires"] = None
                sh["progress"] = None
                self._write(state)

    # ------------------------------------------------------------------ #
    # Read-only views
    # ------------------------------------------------------------------ #
    @staticmethod
    def _shard(state: dict[str, Any], shard: int) -> dict[str, Any] | None:
        for sh in state["shards"]:
            if int(sh["id"]) == int(shard):
                return sh
        return None

    @staticmethod
    def _summarize(state: dict[str, Any]) -> dict[str, Any]:
        counts: dict[str, int] = {
            "pending": 0, "leased": 0, "done": 0, "quarantined": 0,
        }
        for sh in state["shards"]:
            counts[sh["status"]] = counts.get(sh["status"], 0) + 1
        ledger = RangeLedger()
        for sh in state["shards"]:
            if sh["status"] == "done":
                ledger.add(sh["lo"], sh["hi"])
        return {
            "key": state["key"],
            "shards": len(state["shards"]),
            "counts": counts,
            "events": dict(state.get("events", {})),
            "done_ledger": ledger.to_list(),
            "covered": ledger.total,
            "settled": counts["pending"] == 0
            and counts["leased"] == 0
            and counts["quarantined"] == 0,
        }

    def summary(self) -> dict[str, Any] | None:
        """Status counts, event journal and done-ledger (or ``None``)."""
        with self._locked():
            state = self._read()
        return None if state is None else self._summarize(state)

    def settled(self) -> bool:
        """Whether every shard is ``done`` (the sweep is complete)."""
        s = self.summary()
        return s is not None and s["settled"]

    def unfinished(self) -> int:
        """Shards not yet ``done`` (leased, pending or quarantined)."""
        s = self.summary()
        if s is None:
            return 0
        return s["shards"] - s["counts"]["done"]

    def completed_payloads(self) -> list[tuple[int, int, dict[str, Any]]]:
        """``(lo, hi, payload)`` of every done shard, ascending by ``lo``.

        Ascending order matters: the strict-``<`` merge rule reproduces
        the serial sweep's witness selection only when shards fold in the
        same order the serial sweep visits their masks.
        """
        with self._locked():
            state = self._read()
        if state is None:
            return []
        done = [
            (int(sh["lo"]), int(sh["hi"]), sh["payload"])
            for sh in state["shards"]
            if sh["status"] == "done" and isinstance(sh["payload"], dict)
        ]
        return sorted(done, key=lambda t: t[0])

    def shard_table(self) -> list[dict[str, Any]]:
        """A copy of the raw shard rows (for ``dist status``)."""
        with self._locked():
            state = self._read()
        if state is None:
            return []
        return [dict(sh) for sh in state["shards"]]

    @classmethod
    def peek(cls, root: str | os.PathLike) -> dict[str, Any] | None:
        """Read a state directory without knowing its key (CLI status).

        Accepts whatever key the file carries; returns the summary plus
        the raw shard rows, or ``None`` when no usable state exists.
        """
        try:
            data = json.loads(
                (Path(root) / "state.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != SHARD_STATE_VERSION
            or not isinstance(data.get("shards"), list)
        ):
            return None
        out = cls._summarize(data)
        out["shard_rows"] = [dict(sh) for sh in data["shards"]]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardCoordinator {self.root} key={self.key!r}>"
