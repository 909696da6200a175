"""Command line front end: run, sweep, gradcheck.

``aerolink run`` executes one alternating optimization and writes
history.csv, trajectory.json and summary.json into the output directory.
``aerolink sweep`` repeats runs over a swept scenario variable and axis
masks, writing sweep.csv.  ``aerolink gradcheck`` compares analytic and
finite-difference connectivity gradients and fails loudly on disagreement.

Exit codes: 0 success, 1 unusable config, 2 runtime failure, 3 gradient
check exceedance.  All files are written atomically (temp file + rename)
after the computation finishes, so a crashed run leaves no partial output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import scenario as scen
from .channel import build_state
from .optimizer import OptimizerConfig, RunHistory, run
from .power import _require_chain
from .spectral import connectivity_bundle
from .trajectory import AxisMask, GradientMode, lambda2_gradient

GRADCHECK_TOL = 1.0e-4


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


# -- config plumbing ----------------------------------------------------


# what reading a malformed config raises (a huge dBm value overflows a float)
_CONFIG_ERRORS = (OSError, ValueError, KeyError, TypeError, OverflowError)


def _load_config(path: str):
    """The JSON value in ``path``; ``scenario_from_config`` checks a config's keys."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _optimizer_config(cfg: dict, mask: str | None = None) -> OptimizerConfig:
    opt = cfg.get("optimizer", {})
    if mask is not None:
        opt = {**opt, "trajectory": {**opt.get("trajectory", {}), "mask": mask}}
    return scen._read_section(OptimizerConfig, opt, "optimizer")


def _scenario_from_args(cfg: dict, seed: int | None) -> scen.Scenario:
    return scen.scenario_from_config(cfg if seed is None else {**cfg, "seed": int(seed)})


def _load_run(config_path: str, seed: int | None, mask: str | None, chain: bool):
    """(scenario, optimizer config) of a config file; None after a config error.
    ``chain``: a topology that is not a chain is a config error."""
    try:
        cfg = _load_config(config_path)
        scenario = _scenario_from_args(cfg, seed)
        if chain:
            _require_chain(scenario.topology, scenario.n_primary)
        return scenario, _optimizer_config(cfg, mask)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


# -- run ----------------------------------------------------------------


def _history_csv(history: RunHistory, n_uavs: int) -> str:
    cols = ["iteration", "R_bits_per_s", "lambda2"]
    for k in range(1, n_uavs + 1):
        cols += [f"uav{k}_x", f"uav{k}_y", f"uav{k}_z"]
    cols += [f"uav{k}_power_w" for k in range(1, n_uavs + 1)]
    cols.append("min_interference_margin_w")
    lines = [",".join(cols)]
    for rec in history.records:
        row = [str(rec.iteration), _fmt(rec.flow_bits_per_s), _fmt(rec.lambda2)]
        for k in range(n_uavs):
            row += [_fmt(v) for v in rec.uav_positions[k]]
        row += [_fmt(p) for p in rec.powers_w[1:n_uavs + 1]]
        row.append(_fmt(rec.min_interference_margin_w))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _trajectory_json(history: RunHistory, scenario: scen.Scenario, mask: AxisMask) -> dict:
    return {
        "schema-version": scen.SCHEMA_VERSION,
        "mask": mask.value,
        "bs_m": scenario.positions[scenario.source].tolist(),
        "ue_m": scenario.positions[scenario.destination].tolist(),
        "si_m": scenario.positions[list(scenario.si_indices)].tolist(),
        "iterations": [rec.iteration for rec in history.records],
        "uav_positions_m": [rec.uav_positions.tolist() for rec in history.records],
    }


def _summary_json(history: RunHistory, scenario: scen.Scenario,
                  config: OptimizerConfig) -> dict:
    first, last = history.records[0], history.records[-1]
    return {
        "schema-version": scen.SCHEMA_VERSION,
        "seed": scenario.seed,
        "mask": config.trajectory.mask.value,
        "epsilon_bits_per_s": config.epsilon,
        "iterations": last.iteration,
        "termination": history.termination.value,
        "initial_flow_bits_per_s": first.flow_bits_per_s,
        "final_flow_bits_per_s": last.flow_bits_per_s,
        "final_lambda2": last.lambda2,
        "interference_ok": last.interference_ok,
    }


def cmd_run(config_path: str, out_dir: str,
            seed: int | None = None, mask: str | None = None) -> int:
    loaded = _load_run(config_path, seed, mask, chain=True)
    if loaded is None:
        return 1
    scenario, config = loaded
    try:
        history = run(scenario, config)
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "history.csv"),
                    _history_csv(history, scenario.n_uavs))
        _write_json(os.path.join(out_dir, "trajectory.json"),
                    _trajectory_json(history, scenario, config.trajectory.mask))
        _write_json(os.path.join(out_dir, "summary.json"),
                    _summary_json(history, scenario, config))
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    return 0


# -- sweep --------------------------------------------------------------

# each sweep variable: the scenario update it drives, and its default values
_SWEEPS = {
    "interference_threshold_dbm": (scen.Scenario.with_i_max_dbm,
                                   [float(v) for v in range(-50, -9, 5)]),
    "ue_altitude_m": (scen.Scenario.with_ue_altitude, [float(v) for v in range(0, 501, 50)]),
}


def _apply_sweep_value(scenario: scen.Scenario, variable: str, value: float):
    """``scenario`` with ``variable`` (a key of ``_SWEEPS``) at ``value``; a
    value that makes it invalid raises an error naming the variable and value."""
    try:
        return _SWEEPS[variable][0](scenario, float(value))
    except (ValueError, OverflowError) as exc:  # a huge dBm value overflows
        raise ValueError(f"{variable} = {value}: {exc}") from exc


def _sweep_chunk(batch):
    """(final flow, iterations, termination) of (scenario, config) points,
    advanced as one batch; only these go back from a worker."""
    histories = run([point[0] for point in batch], [point[1] for point in batch])
    return [(h.records[-1].flow_bits_per_s, h.records[-1].iteration, h.termination.value)
            for h in histories]


def cmd_sweep(config_path: str, sweep_path: str, out_dir: str,
              seed: int | None = None, jobs: int = 1) -> int:
    try:
        cfg = _load_config(config_path)
        spec = scen._known_keys(_load_config(sweep_path), ("variable", "values", "masks"),
                                "sweep spec", ("variable",))
        variable = spec["variable"]
        if not isinstance(variable, str) or variable not in _SWEEPS:
            raise ValueError(f"unknown sweep variable {variable!r}; "
                             f"expected one of {', '.join(_SWEEPS)}")
        values = [scen._json_float(v, "sweep values")
                  for v in spec.get("values", _SWEEPS[variable][1])]
        masks = [AxisMask.from_string(m).value for m in spec.get("masks", ["xyz"])]
        if not values:
            raise ValueError("sweep values list is empty")
        diffs = np.diff(values)
        if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")
        # build every value's scenario and the masks' configs up front, so
        # a bad sweep emits nothing
        base = _scenario_from_args(cfg, seed)
        _require_chain(base.topology, base.n_primary)
        scenarios = {value: _apply_sweep_value(base, variable, value) for value in values}
        configs = {mask: _optimizer_config(cfg, mask) for mask in masks}
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    grid = [(value, mask) for value in values for mask in masks]
    try:
        # one batch of every grid point; --jobs K runs it as K contiguous
        # chunks (at most one per point), one worker each, so the first
        # failing point's error is still the one raised
        batch = [(scenarios[value], configs[mask]) for value, mask in grid]
        bounds = np.linspace(0, len(batch), min(max(jobs, 1), len(batch)) + 1).astype(int)
        chunks = [batch[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        if len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                rows = [row for chunk in pool.map(_sweep_chunk, chunks) for row in chunk]
        else:
            rows = _sweep_chunk(batch)
        lines = ["sweep_value,axis_mask,final_flow_bits_per_s,iterations,terminated"]
        for (value, mask), (flow, iterations, terminated) in zip(grid, rows):
            lines.append(",".join([_fmt(value), mask, _fmt(flow), str(iterations), terminated]))
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    return 0


# -- gradcheck ----------------------------------------------------------


def gradcheck_rows(scenario: scen.Scenario, config: OptimizerConfig) -> list:
    """Analytic vs finite-difference gradient, one row per UAV coordinate on
    the trajectory mask's axes."""
    state = build_state(scenario, config.fading)
    bundle = connectivity_bundle(state, mode=config.laplacian_mode)
    analytic = lambda2_gradient(state, bundle, GradientMode.ANALYTIC).d_lambda2
    fd = lambda2_gradient(state, bundle, GradientMode.FINITE_DIFFERENCE,
                          config.trajectory.fd_step_m).d_lambda2
    axes = list(config.trajectory.mask.axes)
    analytic, fd = analytic[:, axes], fd[:, axes]
    scale = max(float(np.abs(analytic).max()), float(np.abs(fd).max()), 1.0e-300)
    rows = []
    for uidx, node in enumerate(scenario.uav_indices):
        for col, axis in enumerate(axes):
            a, f = float(analytic[uidx, col]), float(fd[uidx, col])
            rel = abs(a - f) / max(abs(a), abs(f), 1.0e-9 * scale)
            rows.append({"uav": node, "axis": "xyz"[axis],
                         "analytic": a, "fd": f, "rel_err": rel})
    return rows


def cmd_gradcheck(config_path: str, seed: int | None = None,
                  mask: str | None = None) -> int:
    loaded = _load_run(config_path, seed, mask, chain=False)
    if loaded is None:
        return 1
    scenario, config = loaded
    try:
        rows = gradcheck_rows(scenario, config)
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"gradcheck failed: {exc}", file=sys.stderr)
        return 2
    print(f"{'uav':>4} {'axis':>4} {'analytic':>24} {'finite-diff':>24} {'rel_err':>12}")
    worst = None
    for r in rows:
        print(f"{r['uav']:>4} {r['axis']:>4} {r['analytic']:>24.16e} "
              f"{r['fd']:>24.16e} {r['rel_err']:>12.3e}")
        if worst is None or r["rel_err"] > worst["rel_err"]:
            worst = r
    if worst and worst["rel_err"] > GRADCHECK_TOL:
        print(f"FAIL: uav {worst['uav']} axis {worst['axis']} relative error "
              f"{worst['rel_err']:.3e} exceeds {GRADCHECK_TOL:.0e}", file=sys.stderr)
        return 3
    print(f"OK: max relative error "
          f"{max(r['rel_err'] for r in rows):.3e} <= {GRADCHECK_TOL:.0e}")
    return 0


# -- entry point --------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aerolink",
        description="UAV relay chain optimization: trajectories, powers, flow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one optimization run")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--mask", default=None, choices=["xy", "xz", "yz", "xyz"],
                       help="axis mask override")

    p_sweep = sub.add_parser("sweep", help="grid of runs over one swept variable")
    p_sweep.add_argument("--config", required=True, help="scenario config JSON")
    p_sweep.add_argument("--sweep", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_grad.add_argument("--config", required=True, help="scenario config JSON")
    p_grad.add_argument("--seed", type=int, default=None, help="override config seed")
    p_grad.add_argument("--mask", default=None, choices=["xy", "xz", "yz", "xyz"],
                        help="axis mask override: report and check only these axes")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed, args.mask)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.sweep, args.out, args.seed, args.jobs)
    return cmd_gradcheck(args.config, args.seed, args.mask)


if __name__ == "__main__":
    sys.exit(main())
