"""The benchmark's workloads: inputs made from a seed, timed solves, checks.

- ``pinned-run``: ``optimizer.run`` on ``build_default_scenario(seed)`` with
  the analytic gradient, mask xyz, epsilon 1e-12 and 500 iterations.
- ``fd-ascent``: the same deployment in finite-difference gradient mode,
  200 iterations at epsilon 1e-12.
- ``threshold-sweep``: ``aerolink sweep --jobs 2`` through ``cli.main`` over
  the interference threshold -50..-10 dBm x masks xy/xz/yz/xyz, each point
  25 iterations at epsilon 1e-12.  With the config defaults (epsilon 1.0,
  500 iterations) the work depends on the seed: 3048 iterations at seed 7,
  several times that at most other seeds, whose points run to 500.

Every input is a config JSON written from ``scenario_to_config`` of the
seed's default deployment, so the program sees only the generated inputs.
Each solve (or sweep point) is one attempted operation; it fails when an
output check fails or the call raises.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import aerolink.cli as cli
import aerolink.optimizer as optimizer
from aerolink.scenario import (build_default_scenario, scenario_from_config,
                               scenario_to_config, validate)

import setup_probe
from tracer import Tracer

WORKLOADS = ("pinned-run", "fd-ascent", "threshold-sweep")
SWEEP_VALUES = [float(v) for v in range(-50, -9, 5)]
SWEEP_MASKS = ["xy", "xz", "yz", "xyz"]
SWEEP_JOBS = 2
SWEEP_ITERATIONS = 25
NUDGE_M = 1.0e-9            # fragility probe: UAV start positions moved by +-1 nm
SETUP_REPEATS = 11
LOAD_REPEATS = 5
TERMINATIONS = {"converged", "max-iterations", "stalled"}


def _optimizer_section(workload: str, smoke: bool) -> dict:
    if workload == "pinned-run":
        return {"epsilon": 1e-12, "max_iterations": 5 if smoke else 500,
                "trajectory": {"mask": "xyz", "gradient_mode": "analytic"}}
    if workload == "fd-ascent":
        return {"epsilon": 1e-12, "max_iterations": 3 if smoke else 200,
                "trajectory": {"mask": "xyz", "gradient_mode": "finite-difference"}}
    # fixed work per point, so the sweep's solve_s does not hinge on the seed
    return {"epsilon": 1e-12, "max_iterations": 5 if smoke else SWEEP_ITERATIONS}


def make_config(workload: str, seed: int, smoke: bool) -> dict:
    cfg = scenario_to_config(build_default_scenario(seed))
    cfg["optimizer"] = _optimizer_section(workload, smoke)
    return cfg


def sweep_spec(smoke: bool, values=None) -> dict:
    return {"variable": "interference_threshold_dbm",
            "values": values or ([-50.0, -10.0] if smoke else SWEEP_VALUES),
            "masks": ["xy", "xyz"] if smoke else SWEEP_MASKS}


def nudged(cfg: dict, offset_m: float) -> dict:
    """Copy of a config with every UAV start coordinate moved by ``offset_m``."""
    out = json.loads(json.dumps(cfg))
    uavs = out["nodes"]["uavs"]
    uavs["positions_m"] = (np.asarray(uavs["positions_m"]) + offset_m).tolist()
    return out


def summarize(samples) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "max": values[-1]}
    if n >= 11:
        q = 100.0 * (n - 10) / n
        out[f"p{q:g}"] = float(np.percentile(values, q))
    return out


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class Bench:
    """One benchmark run of one workload: inputs, operations and their checks."""

    def __init__(self, root: str, workdir: str, workload: str, seed: int,
                 smoke: bool, references: dict):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        size = "smoke" if smoke else "full"
        self.reference = references.get(workload, {}).get(size, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.flow_rel_err = 0.0
        self.cfg = make_config(workload, seed, smoke)
        self.config_path = _write_json(os.path.join(workdir, "config.json"), self.cfg)

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, problems, n_ops: int = 1, n_failed: int | None = None) -> None:
        self.attempted += n_ops
        self.failed += (n_ops if problems else 0) if n_failed is None else n_failed
        self.problems.extend(problems)

    # -- set-up -------------------------------------------------------------

    def setup_seconds(self) -> list:
        """Import + config load + validation, each in a fresh interpreter."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = os.path.join(self.root, "perfbench", "setup_probe.py")
        out = []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run([sys.executable, probe, self.config_path], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            out.append(float(done.stdout.strip().splitlines()[-1]))
        return out

    def load_seconds(self) -> list:
        out = []
        for _ in range(LOAD_REPEATS):
            t0 = perf_counter()
            scenario = scenario_from_config(self.cfg)
            validate(scenario)
            out.append(perf_counter() - t0)
        return out

    # -- single runs ----------------------------------------------------------

    def load_run(self):
        scenario, config = setup_probe.load(self.config_path)
        if scenario != build_default_scenario(self.seed):
            self._count(["config round trip changed the default scenario"])
        return scenario, config

    def check_history(self, history, ref) -> list:
        """Invariants of criterion 5, then the reference flows if given."""
        problems = []
        lams = history.lambda2s
        flows = history.flows
        if not np.all(np.diff(lams) >= 0.0):
            problems.append("lambda2 decreased")
        if not all(r.interference_ok for r in history.records[1:]):
            problems.append("a solved record breaks an interference threshold")
        if not np.all(np.isfinite(flows)) or np.any(flows <= 0.0):
            problems.append("non-finite or non-positive flow")
        if ref is None:
            return problems
        got = {"initial_flow": float(flows[0]), "final_flow": float(flows[-1])}
        for key, rel in (("initial_flow", ref.get("initial_rel", 0.0)),
                         ("final_flow", ref.get("final_rel", 0.0))):
            err = abs(got[key] - ref[key]) / abs(ref[key])
            self.flow_rel_err = max(self.flow_rel_err, err)
            if err > rel:
                problems.append(f"{key} {got[key]!r} differs from {ref[key]!r} "
                                f"by {err:.3e} (limit {rel:.0e})")
        if history.iterations != ref["iterations"]:
            problems.append(f"{history.iterations} iterations, expected {ref['iterations']}")
        if history.termination.value != ref["termination"]:
            problems.append(f"terminated {history.termination.value}, "
                            f"expected {ref['termination']}")
        return problems

    def solve(self, scenario, config, ref):
        """One timed optimizer.run checked against ``ref``; (seconds, history) or None."""
        try:
            t0 = perf_counter()
            history = optimizer.run(scenario, config)
            seconds = perf_counter() - t0
        except Exception:  # noqa: BLE001 - a crashing solve is a failed operation
            traceback.print_exc(file=sys.stderr)
            self._count(["optimizer.run raised"])
            return None
        self._count(self.check_history(history, ref))
        return seconds, history

    @staticmethod
    def as_base(history) -> dict:
        """A finished run as the reference its reruns must reproduce exactly."""
        return {"initial_flow": float(history.flows[0]),
                "final_flow": float(history.flows[-1]),
                "iterations": history.iterations,
                "termination": history.termination.value}

    # -- sweeps -------------------------------------------------------------

    def sweep(self, jobs: int, tag: str, cfg=None, values=None):
        """One ``aerolink sweep`` through cli.main; returns (seconds, rc, csv text)."""
        out_dir = os.path.join(self.workdir, tag)
        cfg_path = self.config_path
        if cfg is not None:
            cfg_path = _write_json(os.path.join(self.workdir, f"{tag}-config.json"), cfg)
        spec_path = _write_json(os.path.join(self.workdir, f"{tag}-sweep.json"),
                                sweep_spec(self.smoke, values))
        argv = ["sweep", "--config", cfg_path, "--sweep", spec_path,
                "--out", out_dir, "--jobs", str(jobs)]
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - reported as rc 2, like the CLI boundary
            traceback.print_exc(file=sys.stderr)
            rc = 2
        seconds = perf_counter() - t0
        path = os.path.join(out_dir, "sweep.csv")
        text = ""
        if rc == 0 and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return seconds, rc, text

    def check_sweep(self, rc: int, text: str, values=None, expect=None) -> list:
        """Count one operation per grid point; returns the parsed rows."""
        spec = sweep_spec(self.smoke, values)
        grid = [(float(v), m) for v in spec["values"] for m in spec["masks"]]
        if expect is None and self.reference is not None and values is None:
            expect = self.reference["sweep_csv"]
        max_iter = self.cfg["optimizer"]["max_iterations"]
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if rc != 0 or len(rows) != len(grid):
            self._count([f"sweep rc {rc} with {len(rows)} of {len(grid)} rows"],
                        len(grid))
            return []
        ref_lines = expect.splitlines()[1:] if expect is not None else None
        problems, bad = [], 0
        parsed = []
        for k, (row, (value, mask)) in enumerate(zip(rows, grid)):
            ok = True
            try:
                flow, iters = float(row[2]), int(row[3])
                ok = (len(row) == 5 and float(row[0]) == value and row[1] == mask
                      and math.isfinite(flow) and flow > 0.0
                      and 1 <= iters <= max_iter and row[4] in TERMINATIONS)
            except (ValueError, IndexError):
                ok, flow, iters = False, math.nan, 0
            if ref_lines is not None:
                ref = ref_lines[k].split(",")
                err = abs(flow - float(ref[2])) / abs(float(ref[2]))
                self.flow_rel_err = max(self.flow_rel_err, err)
                ok = ok and lines[k + 1] == ref_lines[k]
            if not ok:
                bad += 1
                problems.append(f"sweep row {value:g} dBm {mask}: {lines[k + 1]!r}")
            parsed.append((value, mask, flow, iters))
        if expect is not None and text != expect:
            problems.append("sweep.csv differs from the reference bytes")
            bad = max(bad, 1)
        self._count(problems, len(grid), bad)
        return parsed


# -- timed (untraced) runs -----------------------------------------------------


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics from back-to-back solves within ``seconds``.

    A further solve starts only while the last one would still end in time,
    so a run takes about ``seconds`` (at least one solve, however long).
    """
    setup = bench.setup_seconds()
    solve, per_iter = [], []
    started = perf_counter()

    def more() -> bool:
        return not solve or perf_counter() - started + solve[-1] <= seconds

    if bench.workload == "threshold-sweep":
        while more():
            wall, rc, text = bench.sweep(SWEEP_JOBS, f"sweep-{len(solve)}")
            rows = bench.check_sweep(rc, text)
            if not rows:
                break
            solve.append(wall)
            per_iter.append(1e3 * wall / sum(r[3] for r in rows))
    else:
        scenario, config = bench.load_run()
        ref = bench.reference
        while more():
            done = bench.solve(scenario, config, ref)
            if done is None:
                break
            wall, history = done
            ref = ref or Bench.as_base(history)
            solve.append(wall)
            per_iter.append(1e3 * wall / history.iterations)
    if not solve:
        raise RuntimeError("no solve completed: " + "; ".join(bench.problems))
    return {"setup_s": summarize(setup), "solve_s": summarize(solve),
            "iteration_ms": summarize(per_iter)}


# -- traced runs -------------------------------------------------------------


def _spread(flows, iterations) -> tuple:
    mid = statistics.median(flows)
    return (max(flows) - min(flows)) / abs(mid), max(iterations) - min(iterations)


def _traced_run(bench: Bench, tracer: Tracer) -> tuple:
    scenario, config = bench.load_run()
    done = bench.solve(scenario, config, bench.reference)
    if done is None:
        raise RuntimeError("untraced solve failed")
    untraced, history = done
    with tracer:
        traced = bench.solve(scenario, config, bench.reference or Bench.as_base(history))
    if traced is None:
        raise RuntimeError("traced solve failed")
    flows, iters, probe = [history.flows[-1]], [history.iterations], []
    for offset in (NUDGE_M, -NUDGE_M):
        moved = setup_probe.build_scenario(nudged(bench.cfg, offset))
        nudge = bench.solve(moved, config, None)
        if nudge is not None:
            flows.append(nudge[1].flows[-1])
            iters.append(nudge[1].iterations)
    probe.append({"point": bench.workload, "final_flows": [float(f) for f in flows],
                  "iterations": iters})
    extra = {"cli.jobs_speedup": 1.0, "cli.point_s": untraced, "cli.straggler_s": untraced}
    return untraced, traced[0], extra, probe, [_spread(flows, iters)]


def _traced_sweep(bench: Bench, tracer: Tracer) -> tuple:
    wall_j2, rc, text_j2 = bench.sweep(SWEEP_JOBS, "jobs2")
    rows = bench.check_sweep(rc, text_j2)
    expect = text_j2 if bench.reference is None else None

    # serial sweep, timing each point through the one name cli calls
    points = []
    original = cli.run

    def timed_run(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            points.append(perf_counter() - t0)

    cli.run = timed_run
    try:
        wall_j1, rc, text = bench.sweep(1, "jobs1")
    finally:
        cli.run = original
    bench.check_sweep(rc, text, expect=expect)

    # the pool forks its workers with the wrappers installed
    with tracer:
        traced, rc, text = bench.sweep(SWEEP_JOBS, "traced")
    if rc == 0 and not tracer.merge_spool():
        raise RuntimeError("sweep workers left no trace: they were not forked")
    bench.check_sweep(rc, text, expect=expect)

    first = float(sweep_spec(bench.smoke)["values"][0])
    runs = {mask: ([flow], [iters]) for value, mask, flow, iters in rows if value == first}
    for k, offset in enumerate((NUDGE_M, -NUDGE_M)):
        _, rc, text = bench.sweep(SWEEP_JOBS, f"nudge{k}", nudged(bench.cfg, offset),
                                  values=[first])
        for value, mask, flow, iters in bench.check_sweep(rc, text, values=[first]):
            if mask in runs:
                runs[mask][0].append(flow)
                runs[mask][1].append(iters)
    probe = [{"point": f"{first:g} dBm {m}", "final_flows": f, "iterations": i}
             for m, (f, i) in runs.items()]
    spreads = [_spread(f, i) for f, i in runs.values()] or [(0.0, 0)]
    extra = {"cli.jobs_speedup": wall_j1 / wall_j2,
             "cli.point_s": statistics.median(points) if points else 0.0,
             "cli.straggler_s": max(points, default=0.0)}
    return wall_j2, traced, extra, probe, spreads


def trace(bench: Bench, span_path: str) -> tuple:
    """Per-layer metrics from one traced solve, plus the fragility probe.

    Self times must account for the traced solve: their sum over the
    modules is divided by the traced solve_s, times 2 for the sweep, whose
    points run in two workers while cli.main waits.
    """
    spool = os.path.join(bench.workdir, "spool")
    os.makedirs(spool)
    tracer = Tracer(spool)
    if bench.workload == "threshold-sweep":
        untraced, traced, extra, probe, spreads = _traced_sweep(bench, tracer)
        capacity = SWEEP_JOBS * traced
    else:
        untraced, traced, extra, probe, spreads = _traced_run(bench, tracer)
        capacity = traced
    tracer.write_spans(span_path)
    metrics = tracer.layer_metrics()
    metrics.update(extra)
    metrics["scenario.load_s"] = statistics.median(bench.load_seconds())
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.self_coverage"] = sum(tracer.module_self().values()) / capacity
    metrics["fragility.flow_spread_rel"] = max(s[0] for s in spreads)
    metrics["fragility.iterations_spread"] = max(s[1] for s in spreads)
    metrics["check.flow_rel_err"] = bench.flow_rel_err
    details = {"untraced_solve_s": untraced, "traced_solve_s": traced,
               "fragility": probe, "spans": len(tracer.spans)}
    return metrics, details
