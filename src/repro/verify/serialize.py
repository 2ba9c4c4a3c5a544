"""JSON round-tripping of certificates with their host networks.

A certificate is only checkable against a live network, so the on-disk
form (written by ``repro-butterfly solve --certificate``, consumed by
``repro-butterfly verify``) embeds a *network spec*: the family and
parameters for the paper's topologies (so family-specific claims like
Lemma 3.2 still apply on reload), or the explicit edge list for anything
else.  Either way the spec carries the order-independent
:attr:`~repro.topology.base.Network.edge_digest`, so a spec that drifted
from the instance it describes is rejected instead of silently verifying
the wrong graph.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..topology.base import Network
from ..topology.butterfly import Butterfly
from ..topology.ccc import CubeConnectedCycles
from ..topology.fabric import FatTree
from ..topology.mesh_of_stars import MeshOfStars
from ..topology.product import FlattenedButterfly, Mesh, Torus

__all__ = [
    "CERTIFICATE_FORMAT",
    "network_spec",
    "network_from_spec",
    "spec_node_count",
    "certificate_to_data",
    "write_certificate",
    "load_certificate",
]

CERTIFICATE_FORMAT = "repro-certificate/1"


def network_spec(net: Network) -> dict[str, Any]:
    """A JSON-ready spec from which ``net`` can be rebuilt."""
    spec: dict[str, Any] = {
        "num_nodes": net.num_nodes,
        "edge_digest": net.edge_digest,
    }
    if isinstance(net, Butterfly):
        spec["family"] = "wn" if net.wraparound else "bn"
        spec["params"] = {"n": net.n}
    elif isinstance(net, CubeConnectedCycles):
        spec["family"] = "ccc"
        spec["params"] = {"n": net.n}
    elif isinstance(net, MeshOfStars):
        spec["family"] = "mos"
        spec["params"] = {"j": net.j, "k": net.k}
    elif isinstance(net, Torus):
        spec["family"] = "torus"
        spec["params"] = {"sides": list(net.sides)}
    elif isinstance(net, Mesh):
        spec["family"] = "mesh"
        spec["params"] = {"sides": list(net.sides)}
    elif isinstance(net, FlattenedButterfly):
        spec["family"] = "fbfly"
        spec["params"] = {"ary": net.ary, "dims": net.dims}
    elif isinstance(net, FatTree):
        spec["family"] = "fattree"
        spec["params"] = {"depth": net.depth}
    else:
        spec["family"] = "generic"
        spec["name"] = net.name
        spec["edges"] = [[int(u), int(v)] for u, v in net.edges]
    return spec


#: No index reaches this many nodes; node counts stop growing here.
_INDEX_LIMIT = 1 << 63

#: The largest network a spec may name: the build limit of
#: :func:`repro.cuts.butterfly_bisection.butterfly_bisection_below_n`.
_MAX_SPEC_NODES = 1 << 24


def _capped_product(factors: list[int]) -> int:
    """``prod(factors)``, or :data:`_INDEX_LIMIT` once it gets that large."""
    total = 1
    for f in factors:
        total *= f
        if abs(total) >= _INDEX_LIMIT:
            return _INDEX_LIMIT
    return total


def _spec_family(spec: Any) -> Any:
    if not isinstance(spec, dict):
        raise ValueError(
            f"malformed network spec: expected a JSON object, got {type(spec).__name__}"
        )
    return spec.get("family")


@contextlib.contextmanager
def _spec_errors() -> Iterator[None]:
    """Report a spec's missing keys and mistyped values as ``ValueError``."""
    try:
        yield
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed network spec: {type(exc).__name__}: {exc}") from exc


def spec_node_count(spec: Any) -> int:
    """The node count of the network a spec names, without building it.

    Lets a server refuse an oversized request before paying for it.
    Exact for every spec :func:`network_from_spec` accepts, except that a
    count of ``2^63`` or more is reported as about ``2^63``.  Raises
    ``ValueError`` for a malformed spec.
    """
    family = _spec_family(spec)
    with _spec_errors():
        params = spec.get("params", {})
        if family in ("bn", "wn", "ccc"):
            n = int(params["n"])
            lg = max(n, 1).bit_length() - 1  # log2 n when n is a power of two
            return n * (lg + 1) if family == "bn" else n * lg
        if family == "mos":
            j, k = int(params["j"]), int(params["k"])
            return j + j * k + k
        if family in ("torus", "mesh"):
            return _capped_product([int(s) for s in params["sides"]])
        if family == "fbfly":
            # Past 64 factors of ary >= 2 the product is capped anyway.
            return _capped_product([int(params["ary"])] * min(int(params["dims"]), 64))
        if family == "fattree":
            return _capped_product([2] * min(int(params["depth"]) + 1, 64)) - 1
        if family == "generic":
            return int(spec["num_nodes"])
    raise ValueError(f"unknown network family {family!r}")


def network_from_spec(spec: Any) -> Network:
    """Rebuild the network a spec describes, refusing drifted specs.

    Raises ``ValueError`` for every malformed or drifted spec, and for a
    spec naming more than ``2^24`` nodes, which is refused from its
    parameters before anything is built.
    """
    count = spec_node_count(spec)
    if count > _MAX_SPEC_NODES:
        raise ValueError(
            f"network spec names {count} nodes; at most {_MAX_SPEC_NODES} "
            f"are built"
        )
    family = _spec_family(spec)
    with _spec_errors():
        params = spec.get("params", {})
        if family == "bn":
            net: Network = Butterfly(int(params["n"]), wraparound=False)
        elif family == "wn":
            net = Butterfly(int(params["n"]), wraparound=True)
        elif family == "ccc":
            net = CubeConnectedCycles(int(params["n"]))
        elif family == "mos":
            net = MeshOfStars(int(params["j"]), int(params["k"]))
        elif family == "torus":
            net = Torus([int(s) for s in params["sides"]])
        elif family == "mesh":
            net = Mesh([int(s) for s in params["sides"]])
        elif family == "fbfly":
            net = FlattenedButterfly(int(params["ary"]), int(params["dims"]))
        elif family == "fattree":
            net = FatTree(int(params["depth"]))
        elif family == "generic":
            net = Network(
                list(range(int(spec["num_nodes"]))), spec["edges"],
                name=str(spec.get("name", "generic")),
            )
        else:
            raise ValueError(f"unknown network family {family!r}")
        num_nodes = int(spec.get("num_nodes", net.num_nodes))
    digest = spec.get("edge_digest")
    if digest is not None and digest != net.edge_digest:
        raise ValueError(
            f"network spec drift: rebuilt {net.name} has edge digest "
            f"{net.edge_digest[:16]}…, spec claims {str(digest)[:16]}…"
        )
    if num_nodes != net.num_nodes:
        raise ValueError(
            f"network spec drift: rebuilt {net.name} has {net.num_nodes} "
            f"nodes, spec claims {spec.get('num_nodes')}"
        )
    return net


def _side_to_bits(side: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in np.asarray(side).astype(bool))


def _bits_to_side(bits: str) -> np.ndarray:
    return np.array([c == "1" for c in bits], dtype=bool)


def certificate_to_data(net: Network, cert: Any) -> dict[str, Any]:
    """JSON-ready form of a certificate (BoundCertificate or field dict)."""
    witness = getattr(cert, "witness", None) if not isinstance(cert, dict) else (
        cert.get("witness") or cert.get("witness_side")
    )
    side = getattr(witness, "side", witness)
    get = cert.get if isinstance(cert, dict) else lambda k, d=None: getattr(cert, k, d)
    return {
        "format": CERTIFICATE_FORMAT,
        "quantity": str(get("quantity")),
        "lower": get("lower"),
        "upper": get("upper"),
        "lower_evidence": str(get("lower_evidence", "")),
        "upper_evidence": str(get("upper_evidence", "")),
        "witness": None if side is None else _side_to_bits(side),
        "network": network_spec(net),
    }


def write_certificate(path: str | Path, net: Network, cert: Any) -> Path:
    """Atomically write a certificate JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = certificate_to_data(net, cert)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".cert-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_certificate(path: str | Path) -> tuple[Network, dict[str, Any]]:
    """Load a certificate file: ``(rebuilt network, certificate fields)``.

    The returned fields dict is checker-ready: the witness (when present)
    is rehydrated to a boolean ``witness_side`` array.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != CERTIFICATE_FORMAT:
        raise ValueError(
            f"{path}: not a {CERTIFICATE_FORMAT} file "
            f"(format = {data.get('format') if isinstance(data, dict) else '?'})"
        )
    net = network_from_spec(data.get("network", {}))
    fields: dict[str, Any] = {
        k: data.get(k)
        for k in ("quantity", "lower", "upper", "lower_evidence", "upper_evidence")
    }
    bits = data.get("witness")
    fields["witness_side"] = None if bits is None else _bits_to_side(str(bits))
    return net, fields
