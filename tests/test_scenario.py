"""Scenario construction, validation, partitioning, and config round-trips."""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from aerolink import scenario as sc
from aerolink.cli import main


def test_default_scenario_reference_values():
    s = sc.build_default_scenario(seed=7, ue_altitude_m=25.0)
    assert s.n_uavs == 8
    assert s.n_si == 7
    assert s.channel.alpha_a2a == 2.05
    assert s.channel.alpha_a2g == 2.32
    # 20 dBm budget in watts
    assert s.p_max_w == pytest.approx(10.0 ** ((20.0 - 30.0) / 10.0), rel=1e-15)
    assert s.p_max_w == pytest.approx(0.1, rel=1e-15)
    # 30 dBm sources, -30 dBm thresholds
    assert np.allclose(s.si_powers_w, 1.0, rtol=1e-15)
    assert np.allclose(s.i_max_w, 1.0e-6, rtol=1e-12)
    # endpoints per the reference layout
    assert np.array_equal(s.positions[s.source], [0.0, 0.0, 15.0])
    assert np.array_equal(s.positions[s.destination], [200.0, 0.0, 25.0])
    # UAVs evenly spaced at 30 m altitude
    uavs = s.uav_positions
    assert np.allclose(uavs[:, 0], 200.0 * np.arange(1, 9) / 9.0)
    assert np.all(uavs[:, 1] == 0.0)
    assert np.all(uavs[:, 2] == 30.0)
    # weights: endpoints 1, relays 1e-2
    assert s.weights[s.source] == 1.0 and s.weights[s.destination] == 1.0
    assert np.all(s.weights[1:-1] == 1.0e-2)


def test_default_scenario_seed_determinism():
    a = sc.build_default_scenario(seed=7)
    b = sc.build_default_scenario(seed=7)
    assert a == b
    c = sc.build_default_scenario(seed=8)
    assert not np.array_equal(a.positions, c.positions)


def test_si_positions_inside_region():
    s = sc.build_default_scenario(seed=123)
    sis = s.positions[list(s.si_indices)]
    assert np.all(sis[:, 0] >= 0.0) and np.all(sis[:, 0] <= 200.0)
    assert np.all(sis[:, 1] >= -100.0) and np.all(sis[:, 1] <= 100.0)
    assert np.all(sis[:, 2] == 20.0)


def test_dbm_watt_conversions():
    assert sc.dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert sc.dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)
    assert sc.dbm_to_watts(-30.0) == pytest.approx(1.0e-6, rel=1e-12)
    for dbm in (-50.0, -10.0, 0.0, 17.5, 20.0, 30.0):
        assert sc.watts_to_dbm(sc.dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)
    with pytest.raises(ValueError):
        sc.watts_to_dbm(0.0)


def test_free_space_offset_value():
    # independent evaluation of the unit-distance free-space loss at 2 GHz
    expected = 10.0 * math.log10((4.0 * math.pi * 2.0e9 / 3.0e8) ** 2)
    got = sc.free_space_offset_db(2.0e9)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(38.4620, abs=5e-4)


def test_validate_default_ok():
    assert sc.validate(sc.build_default_scenario()) == []


def _with_entry(s, name, index, value):
    """``s`` with entry ``index`` of its array field ``name`` set to ``value``."""
    a = getattr(s, name).copy()
    a[index] = value
    return dataclasses.replace(s, **{name: a})


def _with_class(s, index, node_class):
    classes = list(s.classes)
    classes[index] = node_class
    return dataclasses.replace(s, classes=tuple(classes))


# one construction per rule of ``validate``, from the seed-7 default (8 UAVs,
# 7 sources), with the rule's message
_BROKEN_RULES = [
    ("two-base-stations", lambda s: _with_class(s, 1, sc.NodeClass.BASE_STATION),
     "scenario must contain exactly one base station"),
    ("two-terminals", lambda s: _with_class(s, 1, sc.NodeClass.USER_EQUIPMENT),
     "scenario must contain exactly one user terminal"),
    ("no-uav", lambda s: sc.build_default_scenario(n_uavs=0),
     "scenario must contain at least one relay UAV"),
    # a source among the primary nodes, a UAV after the terminal
    ("source-among-relays",
     lambda s: dataclasses.replace(s, classes=(s.classes[:1] + s.classes[10:11] + s.classes[2:10]
                                               + s.classes[1:2] + s.classes[11:])),
     "node order must be base station, UAVs, user terminal, then sources"),
    ("nan-coordinate", lambda s: _with_entry(s, "positions", (3, 0), float("nan")),
     "all coordinates must be finite"),
    ("negative-altitude", lambda s: s.with_ue_altitude(-5.0), "altitudes must be >= 0"),
    ("coincident-uavs", lambda s: s.with_uav_positions(np.repeat(s.uav_positions[:1], 8, 0)),
     "two nodes share a position; links would be degenerate"),
    ("zero-power", lambda s: s.with_node_powers(np.zeros(10)),
     "transmit powers must be positive"),
    ("infinite-budget", lambda s: dataclasses.replace(s, p_max_w=float("inf")),
     "power budget p_max must be positive and finite"),
    ("over-budget", lambda s: s.with_node_powers(np.full(10, 2.0 * s.p_max_w)),
     "transmit powers must not exceed the power budget p_max"),
    ("negative-source-power", lambda s: _with_entry(s, "si_powers_w", 2, -1.0),
     "interference source powers must be positive and finite"),
    ("nan-threshold", lambda s: s.with_i_max_dbm(float("nan")),
     "interference thresholds must be positive and finite"),
    ("nan-weight", lambda s: _with_entry(s, "weights", 4, float("nan")),
     "weights must be finite"),
    ("source-weight", lambda s: _with_entry(s, "weights", 0, 0.5),
     "source weight must be 1"),
    ("destination-weight", lambda s: _with_entry(s, "weights", 9, 0.0),
     "destination weight must be 1"),
    ("uav-weight", lambda s: _with_entry(s, "weights", 2, 1.5),
     "UAV weights must lie in (0, 1]"),
    ("unreachable", lambda s: dataclasses.replace(s, topology=s.topology[:-1]),
     "destination unreachable over the topology"),
    ("no-sources-and-no-proximity",
     lambda s: dataclasses.replace(sc.build_default_scenario(n_si=0),
                                   safety=sc.SafetyParams(chi=0.0)),
     "a scenario without interference sources needs chi > 0"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in _BROKEN_RULES],
                         ids=[case[0] for case in _BROKEN_RULES])
def test_construction_refuses_each_rule(build, message):
    s = sc.build_default_scenario(7)
    with pytest.raises(ValueError, match=r"^invalid scenario: (.+; )?" + re.escape(message)):
        build(s)


# an entry that is no edge between two distinct primary nodes, or that
# repeats an edge of the seed-7 chain (10 primary nodes), with its error
_MALFORMED_EDGES = [
    ([1, 2, 3], "topology entry [1, 2, 3] is not a pair"),
    ([2.9, 3], "topology edge [2.9, 3] index must be an integer, got 2.9"),
    ([True, 3], "topology edge [True, 3] index must be an integer, got True"),
    (["2", 3], "topology edge ['2', 3] index must be an integer, got '2'"),
    ([4, 12], "topology edge (4, 12) references a non-primary node"),
    ([3, 3], "topology edge (3, 3) is a self loop"),
    ([5, 4], "topology edge (4, 5) is duplicated"),
]


@pytest.mark.parametrize("entry, message", _MALFORMED_EDGES,
                         ids=["triple", "fraction", "bool", "string", "non-primary",
                              "self-loop", "reversed-duplicate"])
def test_a_malformed_topology_fails_when_the_scenario_is_built(tmp_path, capsys,
                                                                entry, message):
    s = sc.build_default_scenario(7)
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(s, topology=s.topology + (entry,))
    cfg = sc.scenario_to_config(s)
    cfg["topology"].append(entry)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [50.0]}),
                    encoding="utf-8")
    out = tmp_path / "out"
    for argv in (["run"], ["sweep", "--sweep", str(spec)]):
        assert main(argv + ["--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()


def test_partition_counts():
    s = sc.build_default_scenario(ue_aerial=False)
    p = sc.partition(s)
    assert len(p.aerial) == 8 and len(p.ground) == 9
    assert s.source in p.ground and s.destination in p.ground

    s2 = sc.build_default_scenario(ue_aerial=True)
    p2 = sc.partition(s2)
    assert len(p2.aerial) == 9 and len(p2.ground) == 8
    assert s2.destination in p2.aerial

    s3 = sc.build_default_scenario(n_si=0, n_uavs=3, ue_aerial=False)
    p3 = sc.partition(s3)
    assert p3.ground == frozenset({s3.source, s3.destination})


def test_config_round_trip_exact():
    s = sc.build_default_scenario(seed=11, ue_altitude_m=40.0, ue_aerial=True)
    again = sc.scenario_from_config(sc.scenario_to_config(s))
    assert again == s
    # and the serialized form is a fixed point
    c1 = json.dumps(sc.scenario_to_config(s), sort_keys=True)
    c2 = json.dumps(sc.scenario_to_config(again), sort_keys=True)
    assert c1 == c2


def test_scenarios_differing_in_any_field_are_unequal():
    s = sc.build_default_scenario(seed=7)
    changed = {
        "classes": (sc.NodeClass.BASE_STATION,) * 2 + s.classes[2:],
        "positions": s.positions + 1.0,
        "node_powers_w": s.node_powers_w / 2.0,
        "si_powers_w": s.si_powers_w / 2.0,
        "p_max_w": s.p_max_w * 2.0,
        "i_max_w": s.i_max_w / 2.0,
        "channel": sc.ChannelParams(alpha_a2a=2.0),
        "safety": sc.SafetyParams(chi=0.5),
        "weights": np.concatenate([[1.0], s.weights[1:-1] / 2.0, [1.0]]),
        "topology": ((1, 0),) + s.topology[1:],
        "ue_aerial": True,
        "seed": 8,
    }
    assert set(changed) == {f.name for f in dataclasses.fields(s)}
    assert dataclasses.replace(s) == s
    # the node order rule fixes the classes by the array shapes, so a
    # scenario whose classes alone differ cannot be built: set them on a copy
    other = copy.copy(s)
    object.__setattr__(other, "classes", changed.pop("classes"))
    assert other != s
    for name, value in changed.items():
        assert dataclasses.replace(s, **{name: value}) != s, name


def test_config_file_round_trip(tmp_path):
    s = sc.build_default_scenario(seed=3)
    path = str(tmp_path / "scenario.json")
    sc.save_scenario(s, path)
    assert sc.load_scenario(path) == s


def test_config_count_based_generation_matches_builder():
    ref = sc.build_default_scenario(seed=7, ue_altitude_m=25.0)
    cfg = {
        "schema-version": 1,
        "seed": 7,
        "nodes": {
            "bs": {"position_m": [0.0, 0.0, 15.0]},
            "ue": {"position_m": [200.0, 0.0, 25.0], "aerial": False},
            "uavs": {"count": 8, "initial_altitude_m": 30.0},
            "sis": {"count": 7},
        },
        "channel": {},
        "safety": {},
        "powers": {"p_max_dbm": 20.0, "si_dbm": 30.0, "i_max_dbm": -30.0},
        "weights": [1.0] + [0.01] * 8 + [1.0],
        "topology": "line",
    }
    got = sc.scenario_from_config(cfg)
    # every field: layout, node and source powers, thresholds, weights,
    # topology, ue_aerial and seed
    assert got == ref
    assert got.channel == sc.ChannelParams()
    assert got.safety == sc.SafetyParams()


def test_config_rejects_wrong_schema_version():
    cfg = sc.scenario_to_config(sc.build_default_scenario())
    cfg["schema-version"] = 2
    with pytest.raises(ValueError, match="schema-version"):
        sc.scenario_from_config(cfg)


def test_config_rejects_missing_key():
    cfg = sc.scenario_to_config(sc.build_default_scenario())
    del cfg["powers"]
    with pytest.raises(ValueError, match="powers"):
        sc.scenario_from_config(cfg)


# a required key left out of a nested section used to escape as a bare
# KeyError ("malformed nodes section: 'position_m'"); (keys, message)
_MISSING_KEYS = [
    (("nodes", "uavs"), "nodes is missing required key 'uavs'"),
    (("nodes", "bs", "position_m"), "nodes.bs is missing required key 'position_m'"),
    (("nodes", "ue", "position_m"), "nodes.ue is missing required key 'position_m'"),
    (("powers", "p_max_dbm"), "powers is missing required key 'p_max_dbm'"),
]


@pytest.mark.parametrize("keys, message", _MISSING_KEYS,
                         ids=[".".join(keys) for keys, _ in _MISSING_KEYS])
def test_a_missing_required_key_is_named_with_its_section(keys, message):
    cfg = sc.scenario_to_config(sc.build_default_scenario())
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    del section[keys[-1]]
    with pytest.raises(ValueError, match=re.escape(message)):
        sc.scenario_from_config(cfg)


def test_the_library_refuses_an_unknown_top_level_key(tmp_path):
    # the CLI refused it; load_scenario and scenario_from_config took it.
    # The optimizer section the CLI reads is known.
    cfg = sc.scenario_to_config(sc.build_default_scenario())
    cfg["optimizer"] = {"max_iterations": 3}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert sc.load_scenario(str(path)) == sc.build_default_scenario()
    cfg["wieghts"] = [1.0]
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("unknown key 'wieghts' in config")):
        sc.load_scenario(str(path))


# the builder reads its own count-based config, so its mistakes are the
# reader's: (builder arguments, message)
_BAD_BUILDS = [
    ({"n_si": -1}, "nodes.sis.count must be >= 0, got -1"),
    ({"seed": None}, "drawing interference sources by count needs a seed"),
]


@pytest.mark.parametrize("kwargs, message", _BAD_BUILDS,
                         ids=["negative-sources", "unseeded-sources"])
def test_the_builder_reports_the_readers_message(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sc.build_default_scenario(**kwargs)


def test_an_empty_uav_list_is_no_relays():
    cfg = sc.scenario_to_config(sc.build_default_scenario())
    cfg["nodes"]["uavs"] = {"positions_m": []}
    del cfg["powers"]["node_dbm"]
    cfg["weights"] = [1.0, 1.0]
    cfg["topology"] = "line"
    with pytest.raises(ValueError, match="scenario must contain at least one relay UAV"):
        sc.scenario_from_config(cfg)


def test_functional_updates_do_not_touch_others():
    s = sc.build_default_scenario()
    moved = s.with_uav_positions(s.uav_positions + 1.0)
    assert np.array_equal(moved.positions[s.source], s.positions[s.source])
    assert np.array_equal(moved.positions[s.destination], s.positions[s.destination])
    assert np.array_equal(moved.positions[list(s.si_indices)],
                          s.positions[list(s.si_indices)])
    assert np.array_equal(s.uav_positions + 1.0, moved.uav_positions)
    # original untouched
    assert np.array_equal(s.positions, sc.build_default_scenario().positions)


def test_a_built_scenarios_arrays_are_read_only():
    # construction is the only check a scenario gets: an in-place write
    # that would break a rule (here: a negative altitude) is refused
    s = sc.build_default_scenario(3, n_uavs=4, n_si=3)
    with pytest.raises(ValueError, match="read-only"):
        s.positions[1, 2] = -5.0
    for name in ("node_powers_w", "si_powers_w", "i_max_w", "weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0] = -1.0
    assert sc.validate(s) == []
    assert s == sc.build_default_scenario(3, n_uavs=4, n_si=3)
    # the functional updates write into copies
    moved = s.with_uav_positions(s.uav_positions + 1.0).with_ue_altitude(40.0)
    assert not moved.positions.flags.writeable
