"""End-to-end command line checks: run, sweep, gradcheck, exit codes, files."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from aerolink import cli
from aerolink.cli import cmd_run, main
from aerolink.optimizer import OptimizerConfig, TerminationReason
from aerolink.scenario import build_default_scenario, scenario_from_config, scenario_to_config


def _write_config(path, n_uavs=4, n_si=3, seed=3, **optimizer):
    cfg = scenario_to_config(build_default_scenario(seed=seed, n_uavs=n_uavs,
                                                    n_si=n_si))
    optimizer.setdefault("epsilon", 200.0)
    optimizer.setdefault("max_iterations", 20)
    cfg["optimizer"] = optimizer
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------- run


def test_run_writes_the_three_artifacts(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "history.csv", "summary.json", "trajectory.json"]

    header, rows = _read_csv(out / "history.csv")
    assert header[:3] == ["iteration", "R_bits_per_s", "lambda2"]
    assert header[3:6] == ["uav1_x", "uav1_y", "uav1_z"]
    assert "uav4_power_w" in header
    assert header[-1] == "min_interference_margin_w"
    assert [r[0] for r in rows] == [str(k) for k in range(len(rows))]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] in {t.value for t in TerminationReason}
    assert summary["iterations"] == len(rows) - 1
    assert summary["final_flow_bits_per_s"] == float(rows[-1][1])
    assert summary["initial_flow_bits_per_s"] == float(rows[0][1])
    assert summary["seed"] == 3
    assert summary["interference_ok"] is True

    traj = json.loads((out / "trajectory.json").read_text())
    assert traj["mask"] == "xyz"
    assert len(traj["uav_positions_m"]) == len(rows)
    assert len(traj["si_m"]) == 3
    assert np.asarray(traj["uav_positions_m"][0]).shape == (4, 3)


def test_run_outputs_use_lf_and_no_leftover_temps(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=5)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    raw = (out / "history.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
    for name in ("history.csv", "trajectory.json", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_history_floats_round_trip_exactly(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=6)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "history.csv")
    for row in rows[:2]:
        for cell in row[1:]:
            x = float(cell)
            assert f"{x:.17g}" == cell


def test_bad_config_exits_one_and_writes_nothing(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 1
    assert not out.exists()

    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(out)]) == 1
    assert not out.exists()

    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    del cfg["channel"]
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(incomplete), "--out", str(out)]) == 1
    assert not out.exists()

    # a dBm value too large for a float overflows while the config is read
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg["powers"]["p_max_dbm"] = 5000.0
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(huge), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["p_max_dbm", "si_dbm", "i_max_dbm", "weights"])
def test_non_finite_config_value_exits_one(tmp_path, field):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    if field == "weights":
        cfg["weights"][1] = float("nan")
    elif field == "p_max_dbm":
        cfg["powers"]["p_max_dbm"] = float("nan")
    else:
        cfg["powers"][field][0] = float("nan")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("section,field", [
    ("channel", "alpha_a2a"), ("channel", "alpha_a2g"), ("channel", "eta_a2a_db"),
    ("channel", "eta_a2g_db"), ("channel", "carrier_hz"), ("channel", "bandwidth_hz"),
    ("safety", "chi"), ("safety", "zeta"), ("safety", "kappa"), ("safety", "y0"),
    ("safety", "r_int_m"),
])
def test_non_finite_radio_parameter_exits_one(tmp_path, section, field):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg[section][field] = float("nan")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["dt", "max_step_m", "min_altitude_m", "fd_step_m",
                                   "epsilon"])
def test_non_finite_optimizer_setting_exits_one(tmp_path, capsys, field, value):
    # NaN passes a ``<= 0`` check; each of these used to run on (or fail
    # mid-run with a misleading message) instead of failing at load
    cfg_path = tmp_path / "config.json"
    if field == "epsilon":
        _write_config(cfg_path, epsilon=value, max_iterations=3)
    else:
        _write_config(cfg_path, max_iterations=3, trajectory={field: value})
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("max_backtracks", -3), ("min_altitude_m", -1.0)])
def test_negative_trajectory_setting_exits_one(tmp_path, capsys, field, value):
    # a negative max_backtracks used to run as 0 and a negative altitude
    # floor as given, both exiting 0
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=3, trajectory={field: value})
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def _set_key(cfg, keys, value):
    for key in keys[:-1]:
        cfg = cfg.setdefault(key, {})
    cfg[keys[-1]] = value


# each of these used to run on, read as something else, or (a mask that is
# no string) crash with a traceback
_MISTYPED = [
    (("optimizer", "trajectory", "backtracking"), "false"),
    (("optimizer", "trajectory", "max_backtracks"), 2.7),
    (("optimizer", "trajectory", "max_backtracks"), True),
    (("optimizer", "trajectory", "mask"), 5),
    (("optimizer", "max_iterations"), 10.9),
    (("optimizer", "fading"), {"kind": "rayleigh", "seed": 2.5}),
    (("seed",), 7.9),
    (("nodes", "uavs"), {"count": 3.9}),
    (("nodes", "ue", "aerial"), "false"),
    (("optimizer", "max_iteration"), 10),
    (("optimizer", "trajectory", "step"), 1.0),
    (("optimizer", "fading", "sigma"), 1.0),
    (("channel", "alpha"), 2.0),
    (("safety", "r_int"), 5.0),
    (("powers", "i_max_dmb"), -50.0),
    (("nodes", "relays"), {}),
    (("nodes", "bs", "altitude_m"), 15.0),
    (("nodes", "ue", "aerial_ue"), True),
    (("nodes", "uavs", "initial_altitude"), 30.0),
    (("nodes", "sis", "counts"), 2),
    (("nodes", "sis", "region_m", "z"), [0.0, 50.0]),
    (("optimiser",), {"max_iterations": 3}),
    (("Seed",), 7),
    # a float is read from a JSON number only: true and numeric strings used to load
    (("powers", "i_max_dbm"), True),
    (("powers", "p_max_dbm"), "20"),
    (("powers", "node_dbm"), [20.0, 20.0, "20", 20.0, 20.0]),
    (("powers", "si_dbm"), [30.0, False]),
    (("weights",), [True, 0.01, 0.01, 0.01, True]),
    (("channel", "alpha_a2a"), True),
    (("channel", "carrier_hz"), "2e9"),
    (("safety", "chi"), "1"),
    (("optimizer", "trajectory", "dt"), "1.0"),
    (("nodes", "bs", "position_m"), [0.0, "0", 15.0]),
    (("nodes", "ue", "position_m"), [200.0, 0.0, True]),
    (("nodes", "uavs", "positions_m"), [["50", 0.0, 30.0], [100.0, 0.0, 30.0],
                                        [150.0, 0.0, 30.0]]),
    (("nodes", "sis", "positions_m"), [[10.0, 5.0, 20.0], [60.0, -5.0, "20"]]),
    (("nodes",), {"bs": {"position_m": [0.0, 0.0, 15.0]},
                  "ue": {"position_m": [200.0, 0.0, 25.0]},
                  "uavs": {"count": 3, "initial_altitude_m": "30"}, "sis": {"count": 2}}),
    (("nodes", "sis"), {"count": 2, "region_m": {"altitude": True}}),
]
# a node position that is no [x, y, z] triple used to crash with a traceback
# (a number) or fail with numpy's message, which names no key; so did a
# node_dbm that is a number, or a source power list that is null.  (keys,
# value, id suffix)
_MISSHAPEN = [(("nodes", node, "position_m"), value, tag)
              for node in ("bs", "ue")
              for value, tag in ((5, "number"), ([1.0, 2.0], "pair"), ([1, 2, 3, 4], "four"),
                                 ([[0, 0, 15]], "nested"))]
_MISSHAPEN += [(("nodes", "sis", "positions_m"), [[]], "nested-empty")]
_MISSHAPEN += [(("powers", "node_dbm"), 20.0, "number")]
_MISSHAPEN += [(("powers", key), None, "null") for key in ("si_dbm", "i_max_dbm")]


# a negative node count used to escape as numpy's "negative dimensions are not
# allowed", which names no key.  (keys, value, the key the message names)
_NEGATIVE_COUNTS = [(("nodes", node), {"count": -1}, f"nodes.{node}.count")
                    for node in ("sis", "uavs")]


@pytest.mark.parametrize("keys, value, name", _NEGATIVE_COUNTS,
                         ids=[name for _, _, name in _NEGATIVE_COUNTS])
def test_a_negative_node_count_exits_one_naming_its_key(tmp_path, capsys, keys, value, name):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    _set_key(cfg, keys, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert f"config error: {name} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# a source region axis that is no [low, high] pair with low <= high used to
# fail with numpy's or Python's message, which names no key.  (axis, value)
_BAD_REGIONS = [("x", [0.0]), ("x", 5.0), ("x", [200.0, 0.0]), ("y", [0.0, 1.0, 2.0])]


@pytest.mark.parametrize("axis, value", _BAD_REGIONS,
                         ids=[f"{axis}-{value}" for axis, value in _BAD_REGIONS])
def test_a_malformed_source_region_exits_one_naming_its_key(tmp_path, capsys, axis, value):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg["nodes"]["sis"] = {"count": 2, "region_m": {axis: value}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    # the full dotted name: "x" alone also occurs in numpy's "expected"
    assert f"config error: nodes.sis.region_m.{axis} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys, value", _MISTYPED + [case[:2] for case in _MISSHAPEN]
                         + [case[:2] for case in _NEGATIVE_COUNTS],
                         ids=[".".join(keys) for keys, _ in _MISTYPED]
                         + [".".join(keys) + "-" + tag for keys, _, tag in _MISSHAPEN]
                         + [".".join(keys) + "-negative-count" for keys, _, _ in _NEGATIVE_COUNTS])
def test_mistyped_or_unknown_config_key_exits_one(tmp_path, capsys, keys, value):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg["optimizer"] = {"epsilon": 200.0, "max_iterations": 3}
    _set_key(cfg, keys, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and keys[-1] in err
    assert not out.exists()


def test_unknown_config_key_fails_a_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iteration=10)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [50.0]}),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                 "--out", str(out)]) == 1
    assert "config error: unknown key 'max_iteration' in optimizer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "gradcheck"])
def test_an_unknown_top_level_key_fails_a_sweep_and_a_gradcheck(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg = _write_config(cfg_path, max_iterations=3)
    cfg["optimiser"] = cfg.pop("optimizer")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [50.0]}),
                    encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--config", str(cfg_path)]
    if command == "sweep":
        argv += ["--sweep", str(spec), "--out", str(out)]
    assert main([command] + argv) == 1
    assert "config error: unknown key 'optimiser' in config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", [["50"], [True], [10.0, "60"]])
def test_sweep_values_must_be_json_numbers(tmp_path, capsys, values):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=3)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": values}),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                 "--out", str(out)]) == 1
    assert "config error: sweep values must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_sweep_spec_key_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=3)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [50.0],
                                "mask": ["xy"]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                 "--out", str(out)]) == 1
    assert "config error: unknown key 'mask' in sweep spec" in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_optimizer_section_is_the_default_config():
    assert cli._optimizer_config({}) == OptimizerConfig()


def test_the_readme_config_example_loads():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("### Config file", 1)[1]
    cfg = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    scenario_from_config(cfg)
    cli._optimizer_config(cfg)


def test_source_positions_must_be_triples(tmp_path):
    # three [x, y] pairs would reshape into two 3-D sources
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg["nodes"]["sis"] = {"positions_m": [[10.0, 5.0], [60.0, -5.0], [120.0, 30.0]]}
    cfg["powers"]["si_dbm"] = 30.0
    cfg["powers"]["i_max_dbm"] = -30.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cmd_run(str(cfg_path), str(out)) == 1
    assert not out.exists()


def test_seed_override_redraws_counted_sources(tmp_path):
    cfg = scenario_to_config(build_default_scenario(n_uavs=3, n_si=2))
    cfg["nodes"]["sis"] = {"count": 2, "region_m": {"x": [0.0, 200.0],
                                                    "y": [-100.0, 100.0]}}
    cfg["optimizer"] = {"epsilon": 200.0, "max_iterations": 10}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    outs = []
    for tag, seed in (("s5", 5), ("s5b", 5), ("s9", 9)):
        out = tmp_path / tag
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
        outs.append(json.loads((out / "summary.json").read_text()))
    assert outs[0] == outs[1]
    assert outs[0]["seed"] == 5 and outs[2]["seed"] == 9
    assert outs[0]["final_flow_bits_per_s"] != outs[2]["final_flow_bits_per_s"]


def test_mask_override_freezes_the_left_out_axis(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=8)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--mask", "xz"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    traj = json.loads((out / "trajectory.json").read_text())
    assert summary["mask"] == traj["mask"] == "xz"
    pos = np.asarray(traj["uav_positions_m"])
    assert np.array_equal(pos[:, :, 1], np.tile(pos[0, :, 1], (pos.shape[0], 1)))
    assert not np.array_equal(pos[:, :, 0], np.tile(pos[0, :, 0], (pos.shape[0], 1)))


# -------------------------------------------------------------------- sweep


def test_sweep_grid_and_replay(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg = _write_config(cfg_path, max_iterations=10)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({
        "variable": "interference_threshold_dbm",
        "values": [-40.0, -30.0],
        "masks": ["xy", "xyz"],
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep_path),
                 "--out", str(out)]) == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["sweep_value", "axis_mask", "final_flow_bits_per_s",
                      "iterations", "terminated"]
    assert [(r[0], r[1]) for r in rows] == [
        ("-40", "xy"), ("-40", "xyz"), ("-30", "xy"), ("-30", "xyz")]
    assert all(r[4] in {t.value for t in TerminationReason} for r in rows)

    # one grid point replayed through `run` lands on the same flow bit for bit
    cfg["powers"]["i_max_dbm"] = [-40.0] * 3
    replay_cfg = tmp_path / "replay.json"
    replay_cfg.write_text(json.dumps(cfg), encoding="utf-8")
    rout = tmp_path / "rout"
    assert main(["run", "--config", str(replay_cfg), "--out", str(rout),
                 "--mask", "xy"]) == 0
    summary = json.loads((rout / "summary.json").read_text())
    assert summary["final_flow_bits_per_s"] == float(rows[0][2])
    assert summary["iterations"] == int(rows[0][3])


def test_parallel_sweep_matches_serial(tmp_path):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=6)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({
        "variable": "ue_altitude_m", "values": [50.0, 150.0],
    }), encoding="utf-8")
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep_path),
                 "--out", str(serial)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep_path),
                 "--out", str(parallel), "--jobs", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_sweep_spec_validation(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    out = tmp_path / "out"

    def attempt(spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return main(["sweep", "--config", str(cfg_path), "--sweep", str(path),
                     "--out", str(out)])

    assert attempt({"variable": "carrier_hz", "values": [1.0]}) == 1
    assert attempt({"variable": "ue_altitude_m", "values": []}) == 1
    assert attempt({"variable": "ue_altitude_m", "values": [0.0, 100.0, 50.0]}) == 1
    assert attempt({"variable": "ue_altitude_m", "values": [0.0, 50.0],
                    "masks": ["zz"]}) == 1
    # values that make an invalid scenario fail at load, not mid-sweep, naming the value
    capsys.readouterr()
    for variable, values, bad in (("interference_threshold_dbm", [float("nan")], "nan"),
                                  ("interference_threshold_dbm", [-50.0, float("inf")], "inf"),
                                  ("ue_altitude_m", [-5.0, 10.0], "-5.0"),
                                  ("interference_threshold_dbm", [5000.0], "5000.0")):
        assert attempt({"variable": variable, "values": values}) == 1
        assert f"config error: {variable} = {bad}: " in capsys.readouterr().err
    assert not out.exists()


def test_sweep_pool_has_one_worker_per_chunk(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, max_iterations=3)

    def sweep(values, *jobs):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": values}),
                        encoding="utf-8")
        out = tmp_path / f"out-{len(values)}-{'-'.join(jobs) or 'serial'}"
        assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                     "--out", str(out), *jobs]) == 0
        return (out / "sweep.csv").read_bytes()

    # 3 points under --jobs 20: 3 chunks, so 3 workers, not 20
    assert sweep([50.0, 100.0, 150.0], "--jobs", "20") == sweep([50.0, 100.0, 150.0])
    # one point is one chunk, run without a pool
    assert sweep([50.0], "--jobs", "4") == sweep([50.0])
    assert sizes == [3]


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_passes_in_the_default_mode(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    assert main(["gradcheck", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split() == ["uav", "axis", "analytic", "finite-diff", "rel_err"]
    assert len(lines) == 1 + 4 * 3 + 1  # header, one per coordinate, verdict
    assert lines[-1].startswith("OK: max relative error")


def test_gradcheck_flags_the_normalized_heuristic(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path, laplacian_mode="normalized-weighted")
    assert main(["gradcheck", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "FAIL" in err and "exceeds" in err


def test_gradcheck_reports_and_checks_only_the_masked_axes(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    _write_config(cfg_path)
    assert main(["gradcheck", "--config", str(cfg_path), "--mask", "xy"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    rows = [ln.split() for ln in lines[1:-1]]
    assert len(rows) == 4 * 2
    assert [r[1] for r in rows] == ["x", "y"] * 4
    assert lines[-1].startswith("OK: max relative error")
