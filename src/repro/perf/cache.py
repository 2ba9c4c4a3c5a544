"""Atomic, symmetry-aware on-disk memoization of solver results.

The cache persists two result kinds across runs, keyed by the canonical
fingerprints of :mod:`repro.perf.canonical` so that isomorphic instances
(Lemmas 2.1/2.2) share entries:

* **cut profiles** — the full :class:`~repro.cuts.enumerate_exact.CutProfile`
  of an exhaustive sweep (values + witness masks, canonical coordinates),
  stored as ``.npz`` payloads;
* **certificates** — :class:`~repro.core.results.BoundCertificate` field
  dicts (kept as plain data so this layer never imports ``core``), stored
  inline in the JSON index.  Exact certificates are returned as hits;
  inexact ones are still kept because their witness cuts seed
  branch-and-bound warm starts on later runs.

Durability rules:

* every write lands via temp-file + ``os.replace`` (atomic on POSIX), so
  a crash mid-store can strand a temp file but never a half-written index
  or payload;
* every index read-modify-write holds an ``flock`` on ``index.lock``
  (the same discipline as :mod:`repro.dist`), so concurrent writers —
  serving workers, distributed shards — serialize instead of losing each
  other's entries; reads stay lock-free because the replace is atomic;
* every read is **corruption-tolerant**: unparsable index → empty cache,
  unreadable payload → miss, and each loaded witness is re-verified
  against the live network (capacity and counted-count must match the
  stored value) so a stale or torn payload degrades to a recompute, never
  to a wrong answer;
* keys embed the solver name and a caller-supplied version (which should
  fold in :data:`repro.cuts.enumerate_exact.BATCH_CONTRACT_VERSION`), so a
  semantic solver change orphans old entries instead of reusing them.

Obs counters: ``perf.cache.hit`` / ``perf.cache.miss`` /
``perf.cache.store`` (and ``perf.cache.bypass``, emitted by callers that
run with caching disabled).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..cuts.enumerate_exact import CutProfile
from ..obs import incr
from ..topology.base import Network
from .canonical import (
    CanonicalForm,
    canonical_form,
    mask_to_side,
    permute_mask,
    unpermute_mask,
)

__all__ = ["SolverCache", "PROFILE_SOLVER", "CERTIFICATE_KIND"]

_INDEX_FORMAT = 1
PROFILE_SOLVER = "cuts.enumerate"
CERTIFICATE_KIND = "core.fallback"


def _entry_key(solver: str, version: int | str, canon: CanonicalForm) -> str:
    return f"{solver}:v{version}:{canon.key}"


class SolverCache:
    """Content-addressed store under ``root`` (created lazily on first write)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._payloads = self.root / "payloads"
        self._index_path = self.root / "index.json"
        self._lock_path = self.root / "index.lock"

    # ------------------------------------------------------------------ #
    # Index I/O (atomic, corruption-tolerant)
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _locked(self):
        """Serialize index read-modify-writes across processes.

        Readers never take the lock: ``os.replace`` makes every index
        snapshot self-consistent, and witness re-verification catches
        anything stale.  Writers must, or two processes interleaving
        load → mutate → save would silently drop each other's entries.
        Degrades to a no-op where ``fcntl`` is unavailable (the atomic
        replace still prevents torn files, only lost updates remain).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
    def _load_index(self) -> dict[str, Any]:
        try:
            with open(self._index_path, encoding="utf-8") as fh:
                idx = json.load(fh)
        except (OSError, ValueError):
            return {"format": _INDEX_FORMAT, "entries": {}}
        if not isinstance(idx, dict) or idx.get("format") != _INDEX_FORMAT:
            return {"format": _INDEX_FORMAT, "entries": {}}
        if not isinstance(idx.get("entries"), dict):
            idx["entries"] = {}
        return idx

    def _save_index(self, idx: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".index-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(idx, fh, indent=1, sort_keys=True)
            os.replace(tmp, self._index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _payload_path(self, key: str) -> Path:
        return self._payloads / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.npz"

    # ------------------------------------------------------------------ #
    # Cut profiles
    # ------------------------------------------------------------------ #
    def put_profile(
        self,
        net: Network,
        profile: CutProfile,
        *,
        solver: str = PROFILE_SOLVER,
        version: int | str = 1,
    ) -> bool:
        """Store a **complete** profile; incomplete ones are refused.

        A partial profile's entries are upper bounds tied to the budget
        that truncated it; persisting them would let a later, richer run
        mistake them for exact minima.
        """
        if not profile.complete:
            return False
        canon = canonical_form(net, profile.counted)
        key = _entry_key(solver, version, canon)
        masks = [
            permute_mask(int(m), canon.perm) for m in profile.witnesses
        ]
        path = self._payload_path(key)
        self._payloads.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self._payloads, prefix=".pay-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    values=np.asarray(profile.values, dtype=np.int64),
                    witness_hex=np.array([f"{m:x}" for m in masks]),
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._locked():
            idx = self._load_index()
            idx["entries"][key] = {
                "kind": "profile",
                "file": path.name,
                "nodes": net.num_nodes,
                "counted": int(len(profile.counted)),
            }
            self._save_index(idx)
        incr("perf.cache.store")
        return True

    def get_profile(
        self,
        net: Network,
        counted: np.ndarray | None = None,
        *,
        solver: str = PROFILE_SOLVER,
        version: int | str = 1,
    ) -> CutProfile | None:
        """Load and re-verify a profile for this instance (or ``None``).

        The stored witnesses live in canonical coordinates; they are
        rehydrated through *this* instance's canonicalizing automorphism,
        so hits work across isomorphic instances, then each witness is
        checked against the live network before anything is returned.
        """
        n = net.num_nodes
        if counted is None:
            counted = np.arange(n, dtype=np.int64)
        counted = np.unique(np.asarray(counted, dtype=np.int64))
        canon = canonical_form(net, counted)
        key = _entry_key(solver, version, canon)
        entry = self._load_index()["entries"].get(key)
        if not isinstance(entry, dict) or entry.get("kind") != "profile":
            incr("perf.cache.miss")
            return None
        try:
            with np.load(self._payloads / str(entry.get("file"))) as payload:
                values = np.asarray(payload["values"], dtype=np.int64)
                witness_hex = [str(h) for h in payload["witness_hex"]]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            incr("perf.cache.miss")
            return None
        m = len(counted)
        if values.shape != (m + 1,) or len(witness_hex) != m + 1:
            incr("perf.cache.miss")
            return None
        masks = [unpermute_mask(int(h, 16), canon.perm) for h in witness_hex]
        # Verify every witness against the live network: the right count
        # on the counted side and exactly the stored capacity.  Any
        # mismatch means corruption or a key collision — treat as a miss.
        counted_in = np.zeros(n, dtype=bool)
        counted_in[counted] = True
        for c, mask in enumerate(masks):
            side = mask_to_side(mask, n)
            if int(side[counted_in].sum()) != c or net.cut_capacity(side) != int(values[c]):
                incr("perf.cache.miss")
                return None
        incr("perf.cache.hit")
        witnesses = np.array([np.uint64(m_) for m_ in masks], dtype=np.uint64)
        return CutProfile(net, counted, values, witnesses, complete=True)

    # ------------------------------------------------------------------ #
    # Certificates
    # ------------------------------------------------------------------ #
    def put_certificate(
        self,
        net: Network,
        fields: dict[str, Any],
        *,
        witness_side: np.ndarray | None = None,
        kind: str = CERTIFICATE_KIND,
        version: int | str = 1,
    ) -> None:
        """Store certificate ``fields`` (plain data) for this instance.

        ``witness_side`` is the upper-bound witness cut's boolean side
        array, stored as a canonical-coordinate mask.  Inexact
        certificates are stored too — they are never returned as hits,
        but their witnesses seed :meth:`get_warm_start`.
        """
        canon = canonical_form(net)
        key = _entry_key(kind, version, canon)
        data = dict(fields)
        if witness_side is not None:
            mask = 0
            for v in np.flatnonzero(np.asarray(witness_side)):
                mask |= 1 << int(v)
            data["witness_mask_hex"] = f"{permute_mask(mask, canon.perm):x}"
        with self._locked():
            idx = self._load_index()
            idx["entries"][key] = {"kind": "certificate", "data": data}
            self._save_index(idx)
        incr("perf.cache.store")

    def _certificate_entry(
        self, net: Network, kind: str, version: int | str
    ) -> tuple[dict[str, Any], CanonicalForm] | None:
        canon = canonical_form(net)
        key = _entry_key(kind, version, canon)
        entry = self._load_index()["entries"].get(key)
        if not isinstance(entry, dict) or entry.get("kind") != "certificate":
            return None
        data = entry.get("data")
        if not isinstance(data, dict):
            return None
        return data, canon

    def _rehydrated_witness(
        self, net: Network, data: dict[str, Any], canon: CanonicalForm
    ) -> np.ndarray | None:
        """Witness side array in instance coordinates, verified, or ``None``."""
        hexmask = data.get("witness_mask_hex")
        if not isinstance(hexmask, str):
            return None
        try:
            mask = unpermute_mask(int(hexmask, 16), canon.perm)
        except ValueError:
            return None
        side = mask_to_side(mask, net.num_nodes)
        half = (net.num_nodes + 1) // 2
        sizes_ok = int(side.sum()) <= half and net.num_nodes - int(side.sum()) <= half
        if not sizes_ok or net.cut_capacity(side) != data.get("upper"):
            return None
        return side

    def get_certificate(
        self,
        net: Network,
        *,
        kind: str = CERTIFICATE_KIND,
        version: int | str = 1,
    ) -> dict[str, Any] | None:
        """Return a verified **exact** certificate dict, else ``None``.

        The returned dict carries ``quantity/lower/upper/lower_evidence/
        upper_evidence`` plus ``witness_side`` (a boolean array for this
        instance) when a witness was stored and re-verified.
        """
        found = self._certificate_entry(net, kind, version)
        if found is None:
            incr("perf.cache.miss")
            return None
        data, canon = found
        if data.get("lower") != data.get("upper"):
            incr("perf.cache.miss")
            return None
        out = {
            k: data.get(k)
            for k in ("quantity", "lower", "upper", "lower_evidence", "upper_evidence")
        }
        if not all(out[k] is not None for k in out):
            incr("perf.cache.miss")
            return None
        side = self._rehydrated_witness(net, data, canon)
        if "witness_mask_hex" in data and side is None:
            # Witness failed verification: the whole entry is suspect.
            incr("perf.cache.miss")
            return None
        out["witness_side"] = side
        incr("perf.cache.hit")
        return out

    def get_warm_start(
        self,
        net: Network,
        *,
        kind: str = CERTIFICATE_KIND,
        version: int | str = 1,
    ) -> np.ndarray | None:
        """Best known bisection side array for this instance, any exactness.

        Used to seed branch-and-bound incumbents; the witness is verified
        against the live network, so a bogus entry degrades to ``None``.
        """
        found = self._certificate_entry(net, kind, version)
        if found is None:
            return None
        data, canon = found
        return self._rehydrated_witness(net, data, canon)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Entry counts and payload footprint (for ``repro-butterfly cache stats``)."""
        idx = self._load_index()
        entries = idx["entries"]
        kinds: dict[str, int] = {}
        for e in entries.values():
            k = e.get("kind", "?") if isinstance(e, dict) else "?"
            kinds[k] = kinds.get(k, 0) + 1
        payload_bytes = 0
        if self._payloads.is_dir():
            payload_bytes = sum(
                p.stat().st_size for p in self._payloads.glob("*.npz")
            )
        return {
            "root": str(self.root),
            "entries": len(entries),
            "profiles": kinds.get("profile", 0),
            "certificates": kinds.get("certificate", 0),
            "payload_bytes": payload_bytes,
        }

    def clear(self) -> int:
        """Drop every entry and payload; returns the number of entries removed."""
        with self._locked():
            removed = len(self._load_index()["entries"])
            if self._payloads.is_dir():
                for p in self._payloads.glob("*.npz"):
                    try:
                        p.unlink()
                    except OSError:
                        pass
            self._save_index({"format": _INDEX_FORMAT, "entries": {}})
        return removed
