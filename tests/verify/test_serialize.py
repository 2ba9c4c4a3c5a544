"""Certificate JSON round-trips and drift rejection."""

import json

import numpy as np
import pytest

from repro.core import solve_with_fallback
from repro.topology import (
    butterfly,
    cube_connected_cycles,
    fat_tree,
    flattened_butterfly,
    mesh,
    mesh_of_stars,
    torus,
    wrapped_butterfly,
)
from repro.topology.base import Network
from repro.verify import (
    CERTIFICATE_FORMAT,
    check_certificate,
    load_certificate,
    network_from_spec,
    network_spec,
    spec_node_count,
    write_certificate,
)


@pytest.mark.parametrize(
    "net",
    [
        butterfly(4),
        wrapped_butterfly(4),
        cube_connected_cycles(4),
        mesh_of_stars(2, 3),
        Network(list(range(4)), [(0, 1), (1, 2), (2, 3)], name="path4"),
    ],
    ids=lambda net: net.name,
)
def test_network_spec_round_trip(net):
    rebuilt = network_from_spec(network_spec(net))
    assert rebuilt.num_nodes == net.num_nodes
    assert rebuilt.edge_digest == net.edge_digest


def test_drifted_spec_is_rejected():
    spec = network_spec(butterfly(4))
    spec["edge_digest"] = "0" * len(spec["edge_digest"])
    with pytest.raises(ValueError, match="drift"):
        network_from_spec(spec)


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError, match="unknown network family"):
        network_from_spec({"family": "klein-bottle", "num_nodes": 4})


def test_certificate_round_trip_still_verifies(tmp_path):
    net = butterfly(4)
    cert = solve_with_fallback(net)
    path = write_certificate(tmp_path / "b4.json", net, cert)
    loaded_net, fields = load_certificate(path)
    assert fields["quantity"] == cert.quantity
    assert fields["lower"] == cert.lower and fields["upper"] == cert.upper
    np.testing.assert_array_equal(fields["witness_side"], cert.witness.side)
    assert check_certificate(loaded_net, fields).ok


def test_tampered_file_is_rejected_by_the_checker(tmp_path):
    net = butterfly(4)
    path = write_certificate(tmp_path / "b4.json", net, solve_with_fallback(net))
    data = json.loads(path.read_text())
    data["lower"] -= 1
    data["upper"] -= 1
    path.write_text(json.dumps(data))
    loaded_net, fields = load_certificate(path)
    assert not check_certificate(loaded_net, fields).ok


def test_wrong_format_marker_is_rejected(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something/else"}))
    with pytest.raises(ValueError, match=CERTIFICATE_FORMAT):
        load_certificate(path)


_COUNT_CASES = (
    [butterfly(n) for n in (2, 4, 8, 16)]
    + [wrapped_butterfly(n) for n in (4, 8, 16)]
    + [cube_connected_cycles(n) for n in (4, 8, 16)]
    + [mesh_of_stars(j, k) for j, k in ((1, 1), (2, 3), (4, 2))]
    + [torus(3, 4), torus(3, 3, 3), mesh(2, 5), mesh(4, 4)]
    + [flattened_butterfly(a, d) for a, d in ((2, 1), (3, 2), (4, 3))]
    + [fat_tree(d) for d in (1, 2, 4)]
    + [Network(list(range(4)), [(0, 1), (1, 2), (2, 3)], name="path4")]
)


@pytest.mark.parametrize("net", _COUNT_CASES, ids=lambda net: net.name)
def test_spec_node_count_matches_the_built_network(net):
    spec = network_spec(net)
    assert spec_node_count(spec) == network_from_spec(spec).num_nodes == net.num_nodes


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "fbfly", "params": {"ary": 2, "dims": 10**12}},
        {"family": "fattree", "params": {"depth": 10**12}},
        {"family": "torus", "params": {"sides": [10**9] * 1000}},
    ],
    ids=["fbfly", "fattree", "torus"],
)
def test_spec_node_count_stops_at_the_index_limit(spec):
    assert spec_node_count(spec) >= (1 << 63) - 1


_MALFORMED_PARAMS = [
    [],
    {"family": "bn", "params": {}},
    {"family": "bn", "params": []},
    {"family": "bn", "params": {"n": None}},
    {"family": "torus", "params": {"sides": 5}},
]


@pytest.mark.parametrize(
    "spec",
    _MALFORMED_PARAMS + [
        {"family": "generic", "num_nodes": 3},
        {"family": "generic", "num_nodes": 2, "edges": [{"a": 1}]},
        {"family": "generic", "num_nodes": 2, "edges": [[0, 10**30]]},
    ],
)
def test_malformed_specs_raise_value_error(spec):
    with pytest.raises(ValueError, match="malformed"):
        network_from_spec(spec)


@pytest.mark.parametrize("spec", _MALFORMED_PARAMS)
def test_malformed_params_cannot_be_counted(spec):
    with pytest.raises(ValueError, match="malformed"):
        spec_node_count(spec)
