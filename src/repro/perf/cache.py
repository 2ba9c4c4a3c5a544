"""Atomic on-disk memoization of solver results.

The cache persists two result kinds across runs, keyed by the full-set
fingerprints of :mod:`repro.perf.canonical`, so identical instances and
axis-rotated tori and meshes share entries:

* **cut profiles** — the full-set :class:`~repro.cuts.enumerate_exact.CutProfile`
  of an exhaustive sweep (values + witness masks, canonical coordinates),
  stored as ``.npz`` payloads;
* **certificates** — :class:`~repro.core.results.BoundCertificate` field
  dicts (kept as plain data so this layer never imports ``core``), stored
  as small JSON files.  Exact certificates are returned as hits; inexact
  ones are still kept because their witness cuts seed branch-and-bound
  warm starts on later runs.

Layout: one file per entry, named by a hash of the entry's key, so a
lookup reads one small file and a store replaces one file however many
entries the cache holds.  A certificate lives at
``certificates/<2 hex>/<32 hex>.json`` (``format``, ``key``, ``kind``,
``data``); a profile is its payload alone, ``payloads/<32 hex>.npz``,
which stores its key beside the values and witnesses.

Durability rules:

* every write lands via temp-file + ``os.replace`` (atomic on POSIX), so
  a crash mid-store can strand a temp file but never a half-written
  entry;
* no write reads or rewrites another entry, so concurrent writers —
  serving jobs, distributed shards, separate CLI runs — need no lock: two
  writers racing on one key leave one writer's complete file, and writers
  on different keys never touch the same file;
* every read is **corruption-tolerant** and **key-checked**: a missing,
  torn or unparsable file is a miss, and so is a file that does not name
  the key being looked up (a hash-prefix collision, or a payload written
  before payloads stored their key); each loaded witness is then
  re-verified against the live network (capacity and counted-count must
  match the stored value) so a stale or forged entry degrades to a
  recompute, never to a wrong answer;
* reads never create anything on disk, the root included;
* keys embed the solver name and a caller-supplied version (which should
  fold in :data:`repro.cuts.enumerate_exact.BATCH_CONTRACT_VERSION`), so a
  semantic solver change orphans old entries instead of reusing them.
  The single ``index.json`` of earlier versions is never read; ``clear``
  deletes it.

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
from typing import Any, Callable, Iterator

import numpy as np

from ..cuts.enumerate_exact import CutProfile
from ..obs import incr
from ..topology.base import Network
from .canonical import (
    CanonicalForm,
    canonical_form,
    mask_to_side,
    permute_mask,
    side_to_mask,
    unpermute_mask,
)

__all__ = ["SolverCache", "PROFILE_SOLVER", "CERTIFICATE_KIND"]

_ENTRY_FORMAT = 1
PROFILE_SOLVER = "cuts.enumerate"
CERTIFICATE_KIND = "core.fallback"

#: Files of the single-index layout; ignored on read, deleted by ``clear``.
_LEGACY_FILES = ("index.json", "index.lock")


def _entry_key(solver: str, version: int | str, canon: CanonicalForm) -> str:
    return f"{solver}:v{version}:{canon.key}"


def _key_digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:32]


def _replace(path: Path, write: Callable[[Any], object]) -> None:
    """Write ``path`` whole: ``write(fh)`` fills a temp file, then ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class SolverCache:
    """Content-addressed store under ``root`` (created lazily on first write)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self._payloads = self.root / "payloads"
        self._certificates = self.root / "certificates"

    # ------------------------------------------------------------------ #
    # Entry files (one per key; atomic, corruption-tolerant)
    # ------------------------------------------------------------------ #
    def _payload_path(self, key: str) -> Path:
        return self._payloads / f"{_key_digest(key)}.npz"

    def _certificate_path(self, key: str) -> Path:
        digest = _key_digest(key)
        return self._certificates / digest[:2] / f"{digest}.json"

    def _load_index(self, key: str) -> dict[str, Any] | None:
        """The certificate data stored under ``key``, or ``None``.

        Reads the one entry file for ``key`` and checks that it names
        ``key``.  ``perfbench/tracing.py`` times cache lookups through
        this method by name, so the name stays.
        """
        try:
            with open(self._certificate_path(key), "rb") as fh:
                entry = json.loads(fh.read())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != _ENTRY_FORMAT
            or entry.get("key") != key
            or entry.get("kind") != "certificate"
        ):
            return None
        data = entry.get("data")
        return data if isinstance(data, dict) else None

    def _entry_files(self) -> Iterator[tuple[str, Path]]:
        """``(kind, path)`` for every entry file; temp files are skipped."""
        for path in self._payloads.glob("*.npz"):
            yield "profile", path
        for path in self._certificates.glob("*/*.json"):
            yield "certificate", path

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
        """Store a **complete** full-set profile; any other is refused.

        A partial profile's entries are upper bounds tied to the budget
        that truncated it; persisting them would let a later, richer run
        mistake them for exact minima.  A profile over a counted subset
        ``U`` is refused too: the key names the network with every node
        counted, so storing it would serve a U-profile as the full one.
        """
        n = net.num_nodes
        if not profile.complete or not np.array_equal(
            np.sort(np.asarray(profile.counted)), np.arange(n)
        ):
            return False
        canon = canonical_form(net)
        key = _entry_key(solver, version, canon)
        masks = [
            permute_mask(int(m), canon.perm) for m in profile.witnesses
        ]
        _replace(
            self._payload_path(key),
            lambda fh: np.savez(
                fh,
                key=np.array(key),
                values=np.asarray(profile.values, dtype=np.int64),
                witness_hex=np.array([f"{m:x}" for m in masks]),
            ),
        )
        incr("perf.cache.store")
        return True

    def get_profile(
        self,
        net: Network,
        *,
        solver: str = PROFILE_SOLVER,
        version: int | str = 1,
    ) -> CutProfile | None:
        """Load and re-verify the full-set profile of this instance (or ``None``).

        The stored witnesses live in canonical coordinates; they are
        rehydrated through *this* instance's canonicalizing perm, so an
        axis-rotated torus or mesh hits its twin's entry, then each
        witness is checked against the live network before anything is
        returned.
        """
        n = net.num_nodes
        counted = np.arange(n, dtype=np.int64)
        canon = canonical_form(net)
        key = _entry_key(solver, version, canon)
        try:
            with np.load(self._payload_path(key)) as payload:
                stored_key = payload["key"].item()
                values = np.asarray(payload["values"], dtype=np.int64)
                witness_hex = [str(h) for h in payload["witness_hex"]]
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            incr("perf.cache.miss")
            return None
        if (
            stored_key != key
            or values.shape != (n + 1,)
            or len(witness_hex) != n + 1
        ):
            incr("perf.cache.miss")
            return None
        try:
            masks = [unpermute_mask(int(h, 16), canon.perm) for h in witness_hex]
        except ValueError:
            incr("perf.cache.miss")
            return None
        # Verify every witness against the live network: the right count
        # on the counted side and exactly the stored capacity.  Any
        # mismatch means corruption or a key collision — treat as a miss.
        for c, mask in enumerate(masks):
            side = mask_to_side(mask, n)
            if int(side.sum()) != c or net.cut_capacity(side) != int(values[c]):
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
            mask = permute_mask(side_to_mask(witness_side), canon.perm)
            data["witness_mask_hex"] = f"{mask:x}"
        entry = {
            "format": _ENTRY_FORMAT, "key": key, "kind": "certificate", "data": data,
        }
        blob = json.dumps(entry, sort_keys=True).encode("utf-8")
        _replace(self._certificate_path(key), lambda fh: fh.write(blob))
        incr("perf.cache.store")

    def _certificate_entry(
        self, net: Network, kind: str, version: int | str
    ) -> tuple[dict[str, Any], CanonicalForm] | None:
        canon = canonical_form(net)
        data = self._load_index(_entry_key(kind, version, canon))
        return None if data is None else (data, canon)

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
        """Entry-file counts and bytes (for ``repro-butterfly cache stats``).

        Counts files without opening them; an unreadable file is counted
        here and reads as a miss.
        """
        kinds = {"profile": 0, "certificate": 0}
        payload_bytes = 0
        for kind, path in self._entry_files():
            try:
                payload_bytes += path.stat().st_size
            except OSError:  # removed since the walk listed it
                continue
            kinds[kind] += 1
        return {
            "root": str(self.root),
            "entries": kinds["profile"] + kinds["certificate"],
            "profiles": kinds["profile"],
            "certificates": kinds["certificate"],
            "payload_bytes": payload_bytes,
        }

    def clear(self) -> int:
        """Delete every entry file, and any legacy index; returns entries removed.

        Fan-out directories stay: a concurrent writer may be placing its
        temp file in one.
        """
        removed = 0
        for _, path in self._entry_files():
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
                removed += 1
        for name in _LEGACY_FILES:
            with contextlib.suppress(FileNotFoundError):
                (self.root / name).unlink()
        return removed
