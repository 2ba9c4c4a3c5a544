"""SolverCache behavior: certificates, warm starts, stats and counters."""

from __future__ import annotations

import json

import numpy as np

from repro.cuts import Cut, cut_profile, min_bisection
from repro.cuts.enumerate_exact import CutProfile
from repro.obs import collecting
from repro.core.fallback import solve_with_fallback
from repro.perf import SolverCache, canonical_form, permute_mask, side_to_mask
from repro.topology import wrapped_butterfly


def _exact_fields(value):
    return {
        "quantity": "BW(W4)",
        "lower": value,
        "upper": value,
        "lower_evidence": "tier-1 exhaustive enumeration",
        "upper_evidence": "explicit witness cut",
    }


class TestCertificates:
    def test_exact_roundtrip_with_witness(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        best = min_bisection(w4)
        cache.put_certificate(
            w4, _exact_fields(best.capacity), witness_side=best.side
        )
        got = cache.get_certificate(w4)
        assert got is not None
        assert got["lower"] == got["upper"] == best.capacity
        assert got["quantity"] == "BW(W4)"
        side = got["witness_side"]
        assert side is not None
        cut = Cut(w4, side)
        assert cut.is_bisection() and cut.capacity == best.capacity

    def test_inexact_is_not_a_hit_but_seeds_warm_start(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        best = min_bisection(w4)
        fields = _exact_fields(best.capacity)
        fields["lower"] = best.capacity - 1
        cache.put_certificate(w4, fields, witness_side=best.side)
        assert cache.get_certificate(w4) is None
        warm = cache.get_warm_start(w4)
        assert warm is not None
        assert Cut(w4, warm).capacity == best.capacity

    def test_version_mismatch_is_a_miss(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        cache.put_certificate(w4, _exact_fields(4), version=1)
        assert cache.get_certificate(w4, version=2) is None

    def test_tampered_witness_poisons_the_entry(self, w4, tmp_path):
        """A witness failing live verification invalidates the whole hit."""
        cache = SolverCache(tmp_path)
        wrong = np.zeros(w4.num_nodes, dtype=bool)
        wrong[: w4.num_nodes // 2] = True
        fields = _exact_fields(int(w4.cut_capacity(wrong)) + 1)
        cache.put_certificate(w4, fields, witness_side=wrong)
        assert cache.get_certificate(w4) is None
        assert cache.get_warm_start(w4) is None

    def test_axis_rotated_isomorph_hits_with_transported_witness(self, tmp_path):
        """A certificate stored for Torus(3,4) answers Torus(4,3): same
        canonical key, witness carried through the transpose and
        re-verified against the rotated instance."""
        from repro.topology import torus

        cache = SolverCache(tmp_path)
        a, b = torus(3, 4), torus(4, 3)
        best = min_bisection(a)
        cache.put_certificate(
            a,
            {
                "quantity": f"BW({a.name})",
                "lower": best.capacity,
                "upper": best.capacity,
                "lower_evidence": "tier-1 exhaustive enumeration",
                "upper_evidence": "explicit witness cut",
            },
            witness_side=best.side,
        )
        got = cache.get_certificate(b)
        assert got is not None
        assert got["lower"] == got["upper"] == best.capacity
        side = got["witness_side"]
        assert side is not None
        cut = Cut(b, side)
        assert cut.is_bisection() and cut.capacity == best.capacity

    def test_different_instances_do_not_collide(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        cache.put_certificate(w4, _exact_fields(4))
        other = wrapped_butterfly(8)
        assert cache.get_certificate(other) is None


class TestProfilesPolicy:
    def test_incomplete_profile_refused(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        prof = cut_profile(w4)
        partial = CutProfile(
            w4, prof.counted, prof.values, prof.witnesses, complete=False
        )
        assert cache.put_profile(w4, partial) is False
        assert cache.stats()["profiles"] == 0

    def test_counted_subset_profile_refused(self, w4, tmp_path):
        """The profile key names the full node set; a U-profile stored
        under it would later be served as the full profile."""
        cache = SolverCache(tmp_path)
        sub = cut_profile(w4, np.arange(w4.num_nodes - 1))
        assert sub.complete
        assert cache.put_profile(w4, sub) is False
        assert list(tmp_path.rglob("*")) == []
        assert cache.get_profile(w4) is None


class TestCounters:
    def test_miss_store_hit_bypass(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        with collecting() as col:
            assert cache.get_profile(w4) is None  # miss
            assert cache.put_profile(w4, cut_profile(w4))  # store
            assert cache.get_profile(w4) is not None  # hit
            solve_with_fallback(w4, cache=None)  # bypass
        assert col.counters["perf.cache.miss"] == 1
        assert col.counters["perf.cache.store"] == 1
        assert col.counters["perf.cache.hit"] == 1
        assert col.counters["perf.cache.bypass"] == 1


class TestMaintenance:
    def test_stats_and_clear(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        cache.put_profile(w4, cut_profile(w4))
        cache.put_certificate(w4, _exact_fields(4))
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["profiles"] == 1
        assert stats["certificates"] == 1
        assert stats["payload_bytes"] > 0
        assert cache.clear() == 2
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["payload_bytes"] == 0
        assert cache.get_profile(w4) is None

    def test_cold_cache_stats(self, tmp_path):
        stats = SolverCache(tmp_path / "never-written").stats()
        assert stats["entries"] == 0 and stats["payload_bytes"] == 0


def _files(root):
    """Every file under ``root``: path → (size, mtime_ns, inode)."""
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[path] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def _new_file(root, before):
    (path,) = set(_files(root)) - set(before)
    return path


class TestOneFilePerEntry:
    """Each entry is its own file: a store touches that file alone, and a
    read trusts a file only when it names the key being looked up."""

    def test_a_store_changes_only_its_own_file(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        prof = cut_profile(w4)
        for i in range(150):
            cache.put_certificate(w4, _exact_fields(4), version=i)
        for i in range(50):
            cache.put_profile(w4, prof, version=i)
        assert cache.stats()["entries"] == 200
        before = _files(tmp_path)
        cache.put_certificate(w4, _exact_fields(4), version=200)
        after = _files(tmp_path)
        assert set(after) - set(before) == {_new_file(tmp_path, before)}
        assert {p: after[p] for p in before} == before
        # Replacing an entry rewrites that entry's file and no other.
        fields = _exact_fields(4)
        fields["upper_evidence"] = "a longer, replacement upper-bound evidence"
        cache.put_certificate(w4, fields, version=7)
        again = _files(tmp_path)
        changed = [p for p in after if again[p] != after[p]]
        assert len(changed) == 1 and set(again) == set(after)
        assert cache.get_certificate(w4, version=7)["upper_evidence"] == (
            fields["upper_evidence"]
        )

    def test_entry_file_holding_another_key_is_a_miss(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        best = min_bisection(w4)
        fields = _exact_fields(best.capacity)
        cache.put_certificate(w4, fields, witness_side=best.side, version=1)
        one = _new_file(tmp_path, {})
        before = _files(tmp_path)
        cache.put_certificate(w4, fields, witness_side=best.side, version=2)
        two = _new_file(tmp_path, before)
        two.write_bytes(one.read_bytes())  # same data, but version 1's key
        assert cache.get_certificate(w4, version=2) is None
        assert cache.get_warm_start(w4, version=2) is None
        assert cache.get_certificate(w4, version=1) is not None

        prof = cut_profile(w4)
        before = _files(tmp_path)
        cache.put_profile(w4, prof, version=1)
        one = _new_file(tmp_path, before)
        before = _files(tmp_path)
        cache.put_profile(w4, prof, version=2)
        two = _new_file(tmp_path, before)
        two.write_bytes(one.read_bytes())
        assert cache.get_profile(w4, version=2) is None
        assert cache.get_profile(w4, version=1) is not None

    def test_payload_without_a_stored_key_is_a_miss(self, w4, tmp_path):
        """A payload in the format written before payloads named their
        key: right path, valid values and witnesses, still a miss."""
        cache = SolverCache(tmp_path)
        cache.put_profile(w4, cut_profile(w4))
        path = _new_file(tmp_path, {})
        with np.load(path) as payload:
            values, witness_hex = payload["values"], payload["witness_hex"]
        with open(path, "wb") as fh:
            np.savez(fh, values=values, witness_hex=witness_hex)
        assert cache.get_profile(w4) is None

    def test_unparsable_witness_is_a_miss(self, w4, tmp_path):
        """A payload that names its key but holds a witness that is no hex
        number reads as a miss, not as an error."""
        cache = SolverCache(tmp_path)
        cache.put_profile(w4, cut_profile(w4))
        path = _new_file(tmp_path, {})
        with np.load(path) as payload:
            fields = {k: payload[k] for k in payload.files}
        fields["witness_hex"] = np.array(["zz"] * len(fields["witness_hex"]))
        with open(path, "wb") as fh:
            np.savez(fh, **fields)
        assert cache.get_profile(w4) is None

    def test_legacy_index_is_ignored_and_cleared(self, w4, tmp_path):
        best = min_bisection(w4)
        canon = canonical_form(w4)
        data = dict(_exact_fields(best.capacity))
        data["witness_mask_hex"] = f"{permute_mask(side_to_mask(best.side), canon.perm):x}"
        key = f"core.fallback:v1:{canon.key}"
        (tmp_path / "index.json").write_text(json.dumps({
            "format": 1,
            "entries": {key: {"kind": "certificate", "data": data}},
        }))
        (tmp_path / "index.lock").write_text("")
        cache = SolverCache(tmp_path)
        assert cache.get_certificate(w4) is None
        assert cache.stats()["entries"] == 0
        cache.put_certificate(w4, _exact_fields(4))
        assert cache.clear() == 1
        assert _files(tmp_path) == {}

    def test_stranded_temp_file_is_no_entry(self, w4, tmp_path):
        cache = SolverCache(tmp_path)
        cache.put_certificate(w4, _exact_fields(4))
        entry = _new_file(tmp_path, {})
        (entry.parent / ".stranded.tmp").write_text("{half an entr")
        assert cache.stats()["certificates"] == 1
        assert cache.get_certificate(w4) is not None
