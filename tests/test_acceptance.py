"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every criterion prints a single verdict line before asserting, so a plain
pytest run always shows the scoreboard.  Reference values below were frozen
from the first verified run on this platform; trend assertions (monotone
curves, interior maximum, mask dominance) do not depend on them.
"""

import json
import time

import numpy as np
import pytest

import aerolink.channel as ch
import aerolink.flow as fl
import aerolink.spectral as sp
from aerolink.cli import gradcheck_rows, main
from aerolink.optimizer import OptimizerConfig, run
from aerolink.power import power_caps, solve_maxmin, verify_interference
from aerolink.scenario import build_default_scenario, scenario_to_config

from conftest import (make_capacity_network_adjacency, make_connected_graph,
                      make_line_scenario)

# frozen reference values (first verified run, default deployment, seed 7,
# epsilon 1e-12, 500 iterations)
PINNED_INITIAL_FLOW = 1645.0783538540115
PINNED_FINAL_FLOW = 4228.798552538322
PINNED_THRESHOLD_FLOWS = {
    "xy": [3395.3355701786527] + [3395.3598513610496] * 8,
    "xz": [4191.282726611231] + [4191.2827572279875] * 8,
    "yz": [1797.0308890576273] + [1797.0312472076948] * 8,
    "xyz": [4228.797910540183] + [4228.798552538322] * 8,
}
PINNED_ALTITUDE_FLOWS = [
    3509.1400595727496, 5111.997801446338, 6561.842748166157,
    7347.041279162776, 7565.42748883965, 7352.750932705107,
    6887.810372114459, 6266.990659578284, 5405.590481113516,
    4064.4093089896733, 3324.627361102955,
]
PINNED_BEST_ALTITUDE_M = 200.0


def _verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{name}: {tag}{suffix}")
    return ok


def _pinned_config(tmp_path, full_length):
    cfg = scenario_to_config(build_default_scenario())
    if full_length:
        cfg["optimizer"] = {"epsilon": 1e-12, "max_iterations": 500}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _read_sweep(out_dir):
    lines = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = []
    for line in lines:
        value, mask, flow, iters, term = line.split(",")
        rows.append((float(value), mask, float(flow), int(iters), term))
    return rows


def test_criterion_1_max_flow_equals_exhaustive_min_cut():
    rng = np.random.default_rng(210)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        a = make_capacity_network_adjacency(rng)
        n = a.shape[0]
        net = fl.from_adjacency(a, 0, n - 1)
        value, _ = fl.max_flow(net)
        brute = fl.brute_force_min_cut(net).value
        worst = max(worst, abs(value - brute) / max(1.0, brute))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert _verdict("criterion 1, max flow vs exhaustive min cut", ok,
                    f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(200)
    cfg = OptimizerConfig()
    t0 = time.monotonic()
    worst = 0.0
    degenerate = 0
    for _ in range(50):
        s = make_line_scenario(rng)
        if sp.connectivity_bundle(ch.build_state(s)).degenerate:
            degenerate += 1
            continue
        worst = max(worst, max(r["rel_err"] for r in gradcheck_rows(s, cfg)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and degenerate == 0 and elapsed <= 30.0
    assert _verdict("criterion 2, connectivity gradient fidelity", ok,
                    f"worst rel err {worst:.3e} over 50 scenarios, {elapsed:.1f}s")


def test_criterion_3_weighted_cheeger_inequalities():
    rng = np.random.default_rng(220)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        m = make_connected_graph(rng, n=n)
        w = rng.uniform(0.2, 2.0, size=n)
        rep = sp.cheeger_bruteforce(m, weights=w)
        guard = 1e-12 * max(1.0, rep.constant)  # pure float roundoff
        if rep.lower_bound > rep.constant + guard:
            violations += 1
        if rep.constant > rep.upper_bound + guard:
            violations += 1
    ok = violations == 0
    assert _verdict("criterion 3, weighted Cheeger bounds", ok,
                    f"{violations} violations over 100 graphs")


def test_criterion_4_power_solver_matches_all_at_caps_closed_form():
    rng = np.random.default_rng(230)
    worst = 0.0
    margin_floor = 0.0
    all_passed = True
    for _ in range(100):
        s = make_line_scenario(rng)
        state = ch.build_state(s)
        sol = solve_maxmin(state)
        caps = power_caps(state)
        at_caps = ch.build_state(s.with_node_powers(caps))
        closed = min(ch.edge_rate(i, j, at_caps) for i, j in s.topology)
        worst = max(worst, abs(sol.eta - closed) / max(1.0, closed))
        report = verify_interference(ch.ChannelState(s, state.fading, powers=sol.powers_w))
        all_passed &= report.passed
        if s.n_si:
            margin_floor = min(margin_floor,
                               report.min_margin_w / s.i_max_w.max())
    ok = worst <= 1e-6 and all_passed and margin_floor >= -1e-12
    assert _verdict("criterion 4, max-min power vs closed form", ok,
                    f"worst rel err {worst:.3e}, "
                    f"worst margin {margin_floor:.1e} of threshold")


def test_criterion_5_connectivity_ascends_through_a_full_run():
    s = build_default_scenario()
    h = run(s, OptimizerConfig(epsilon=1e-12, max_iterations=500))
    lams = h.lambda2s
    monotone = bool(np.all(np.diff(lams) >= 0.0))
    protected = all(r.interference_ok for r in h.records[1:])
    initial_ok = h.flows[0] == pytest.approx(PINNED_INITIAL_FLOW, rel=1e-9)
    final_ok = h.flows[-1] == pytest.approx(PINNED_FINAL_FLOW, rel=1e-6)
    ok = (monotone and protected and len(h.records) == 501
          and initial_ok and final_ok)
    assert _verdict("criterion 5, monotone connectivity ascent", ok,
                    f"500 iterations, flow {h.flows[0]:.1f} -> {h.flows[-1]:.1f}")


def test_criterion_6_flow_vs_interference_threshold(tmp_path):
    t0 = time.monotonic()
    cfg_path = _pinned_config(tmp_path, full_length=True)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({
        "variable": "interference_threshold_dbm",
        "masks": ["xy", "xz", "yz", "xyz"],
    }), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep_path),
               "--out", str(out)])
    elapsed = time.monotonic() - t0

    flows = {mask: [] for mask in ("xy", "xz", "yz", "xyz")}
    for _, mask, flow, _, _ in _read_sweep(out):
        flows[mask].append(flow)
    monotone = all(all(b >= a for a, b in zip(f, f[1:]))
                   for f in flows.values())
    dominant = all(flows["xyz"][-1] >= flows[m][-1] for m in ("xy", "xz", "yz"))
    pinned = all(flows[m] == pytest.approx(PINNED_THRESHOLD_FLOWS[m], rel=1e-6)
                 for m in flows)
    ok = (rc == 0 and all(len(f) == 9 for f in flows.values())
          and monotone and dominant and pinned and elapsed <= 300.0)
    assert _verdict("criterion 6, flow vs interference threshold", ok,
                    f"monotone per mask {monotone}, 3D dominates {dominant}, "
                    f"{elapsed:.0f}s")


def test_criterion_7_flow_vs_ue_altitude(tmp_path):
    cfg_path = _pinned_config(tmp_path, full_length=True)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"variable": "ue_altitude_m"}),
                          encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--sweep", str(sweep_path),
               "--out", str(out)])
    rows = _read_sweep(out)
    alts = [r[0] for r in rows]
    flows = [r[2] for r in rows]
    k = int(np.argmax(flows))
    interior = 0 < k < len(flows) - 1
    rises = all(b > a for a, b in zip(flows[:k + 1], flows[1:k + 1]))
    falls = all(b < a for a, b in zip(flows[k:], flows[k + 1:]))
    best_alt_ok = alts[k] == PINNED_BEST_ALTITUDE_M
    pinned = flows == pytest.approx(PINNED_ALTITUDE_FLOWS, rel=1e-6)
    ok = rc == 0 and interior and rises and falls and best_alt_ok and pinned
    assert _verdict("criterion 7, flow vs destination altitude", ok,
                    f"peak {max(flows):.1f} bit/s at {alts[k]:.0f} m")


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    cfg_path = _pinned_config(tmp_path, full_length=False)
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = main(["run", "--config", str(cfg_path), "--out", str(a), "--seed", "7"])
    rc2 = main(["run", "--config", str(cfg_path), "--out", str(b), "--seed", "7"])
    same = all((a / name).read_bytes() == (b / name).read_bytes()
               for name in ("history.csv", "trajectory.json", "summary.json"))
    ok = rc1 == 0 and rc2 == 0 and same
    assert _verdict("criterion 8, deterministic reruns", ok,
                    "history.csv byte-identical" if same else "outputs differ")


def test_criterion_9_eigensolver_contract():
    rng = np.random.default_rng(240)
    worst_res = 0.0
    worst_orth = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g = rng.normal(size=(n, n))
        m = g + g.T
        vals, vecs = sp.eig_sym(m)
        scale = max(1.0, float(np.abs(vals).max()))
        worst_res = max(worst_res,
                        float(np.abs(m @ vecs - vecs * vals[None, :]).max()) / scale)
        worst_orth = max(worst_orth,
                         float(np.abs(vecs.T @ vecs - np.eye(n)).max()))
    ok = worst_res <= 1e-10 and worst_orth <= 1e-10
    assert _verdict("criterion 9, eigensolver residual and orthonormality", ok,
                    f"residual {worst_res:.2e}, orthonormality {worst_orth:.2e}")
