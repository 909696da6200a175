#!/usr/bin/env python3
"""Byte-compare aerolink's outputs between the working tree and a git ref.

    python3 scripts/compare_outputs.py <git-ref>

Exports <ref> with ``git archive`` into a temporary directory (``TMPDIR``
chooses where; removed afterwards), then runs the same commands on the
working tree and on the ref, from the same generated configs:

- ``aerolink run`` (history.csv, summary.json, trajectory.json) on the
  pinned config (seed 7, epsilon 1e-12, 500 analytic iterations) and the
  fd-ascent config (200 finite-difference iterations), each in both
  Laplacian modes, and on the seed-7 config with every threshold at
  -50 dBm (100 analytic iterations, whose powers move on some iterations
  and not on others), on the seed-7 config with empty ``channel`` and
  ``safety`` sections (50 iterations, every other setting its default),
  on the seed-7 config with Rayleigh fading (seed 3) under mask xz, on the
  seed-7 config with the finite-difference gradient under Rayleigh fading
  (seed 3; epsilon 1e-12, 40 iterations: the one run whose
  finite-difference stacks copy rows from a state without unit gains), and
  on the seed-7 config with dt 1e4 and at most 3 halvings (60 iterations
  allowed; its first 5 steps are accepted unhalved, and the sixth halves
  3 times, stalls and ends the run as stalled), and on the seed-23 config
  with every threshold at -55 dBm (``run-binding``: epsilon 1e-12, 100
  analytic iterations; a node is capped on every record and the powers
  move on every iteration, the regime the interference caps are about),
  and on a config that gives its UAVs and sources by ``count``, the
  sources drawn from a ``region_m``, with no ``node_dbm``, one ``si_dbm``
  and one ``i_max_dbm`` number for every source and ``"topology": "line"``
  (``run-count-based``: 50 iterations);
- ``aerolink sweep`` (sweep.csv): the interference threshold over masks
  xy, xz, yz and xyz with ``--jobs 1`` and ``--jobs 2``, the UE altitude
  over masks xy and xyz, and a 40-iteration finite-difference threshold
  sweep;
- ``aerolink gradcheck`` in both Laplacian modes (exit codes 0 and 3), and
  on the seed-7 config with edge (0, 2) added to the chain, a topology
  that is not a chain (``run`` and ``sweep`` refuse it; the gradient does
  not need a chain);
- every demo under ``demos/``.

Each command's stdout, stderr and exit code are compared as well.  Prints
every file that differs or exists on one side only; exits 1 if any does,
0 if all are identical.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
MODES = ("combinatorial-weighted", "normalized-weighted")


def _configs(workdir: str) -> dict:
    """Config and sweep-spec files, written once with the working tree's code."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from aerolink.scenario import build_default_scenario, scenario_to_config

    base = scenario_to_config(build_default_scenario(SEED))
    files = {}

    def write(name, obj):
        files[name] = path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    for mode in MODES:
        for name, iterations, gradient in (("pinned", 500, "analytic"),
                                           ("fd-ascent", 200, "finite-difference")):
            write(f"{name}-{mode}", dict(base, optimizer={
                "epsilon": 1e-12, "max_iterations": iterations, "laplacian_mode": mode,
                "trajectory": {"mask": "xyz", "gradient_mode": gradient}}))
        write(f"default-{mode}", dict(base, optimizer={"laplacian_mode": mode}))
    write("capped", dict(base, powers=dict(
        base["powers"], i_max_dbm=[-50.0] * len(base["powers"]["i_max_dbm"])), optimizer={
        "epsilon": 1e-12, "max_iterations": 100, "trajectory": {"gradient_mode": "analytic"}}))
    write("defaults", dict(base, channel={}, safety={}, optimizer={"max_iterations": 50}))
    write("rayleigh", dict(base, optimizer={
        "max_iterations": 50, "fading": {"kind": "rayleigh", "seed": 3},
        "trajectory": {"mask": "xz"}}))
    write("fd-rayleigh", dict(base, optimizer={
        "epsilon": 1e-12, "max_iterations": 40, "fading": {"kind": "rayleigh", "seed": 3},
        "trajectory": {"gradient_mode": "finite-difference"}}))
    write("stall", dict(base, optimizer={
        "epsilon": 1e-12, "max_iterations": 60,
        "trajectory": {"dt": 1e4, "max_backtracks": 3}}))
    seed23 = scenario_to_config(build_default_scenario(23))
    write("binding", dict(seed23, powers=dict(
        seed23["powers"], i_max_dbm=[-55.0] * len(seed23["powers"]["i_max_dbm"])), optimizer={
        "epsilon": 1e-12, "max_iterations": 100, "trajectory": {"gradient_mode": "analytic"}}))
    write("count-based", {
        "schema-version": 1, "seed": SEED,
        "nodes": {"bs": {"position_m": [0.0, 0.0, 15.0]},
                  "ue": {"position_m": [200.0, 0.0, 25.0]},
                  "uavs": {"count": 6, "initial_altitude_m": 35.0},
                  "sis": {"count": 5, "region_m": {"x": [20.0, 180.0], "y": [-80.0, 80.0],
                                                   "altitude": 15.0}}},
        "channel": {}, "safety": {},
        "powers": {"p_max_dbm": 20.0, "si_dbm": 30.0, "i_max_dbm": -35.0},
        "weights": [1.0] + [1.0e-2] * 6 + [1.0], "topology": "line",
        "optimizer": {"max_iterations": 50}})
    write("shortcut", dict(base, topology=base["topology"] + [[0, 2]]))
    write("fd-sweep", dict(base, optimizer={
        "epsilon": 1e-12, "max_iterations": 40,
        "trajectory": {"gradient_mode": "finite-difference"}}))
    write("threshold", {"variable": "interference_threshold_dbm",
                        "masks": ["xy", "xz", "yz", "xyz"]})
    write("altitude", {"variable": "ue_altitude_m", "masks": ["xy", "xyz"]})
    write("threshold-xy-xyz", {"variable": "interference_threshold_dbm",
                               "masks": ["xy", "xyz"]})
    return files


def _commands(files: dict) -> list:
    """(output name, argv after ``python3``, whether it takes ``--out``)."""
    cli = ["-m", "aerolink.cli"]
    out = []
    for mode in MODES:
        for name in ("pinned", "fd-ascent"):
            config = files[f"{name}-{mode}"]
            out.append((f"run-{name}-{mode}", cli + ["run", "--config", config], True))
        out.append((f"gradcheck-{mode}",
                    cli + ["gradcheck", "--config", files[f"default-{mode}"]], False))
    out.append(("gradcheck-shortcut", cli + ["gradcheck", "--config", files["shortcut"]],
                False))
    for name in ("capped", "defaults", "rayleigh", "fd-rayleigh", "stall", "binding",
                 "count-based"):
        out.append((f"run-{name}", cli + ["run", "--config", files[name]], True))
    default = files[f"default-{MODES[0]}"]
    for jobs in (1, 2):
        out.append((f"sweep-threshold-jobs{jobs}",
                    cli + ["sweep", "--config", default, "--sweep", files["threshold"],
                           "--jobs", str(jobs)], True))
    out.append(("sweep-altitude",
                cli + ["sweep", "--config", default, "--sweep", files["altitude"]], True))
    out.append(("sweep-fd", cli + ["sweep", "--config", files["fd-sweep"],
                                   "--sweep", files["threshold-xy-xyz"]], True))
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            out.append((f"demo-{demo[:-3]}", [os.path.join("demos", demo)], False))
    return out


def _produce(tree: str, commands: list, dest: str) -> None:
    """Run every command from ``tree``'s checkout; outputs go under ``dest``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, argv, takes_out in commands:
        target = os.path.join(dest, name)
        os.makedirs(target)
        extra = ["--out", os.path.join(target, "files")] if takes_out else []
        done = subprocess.run([sys.executable] + argv + extra, cwd=tree, env=env,
                              capture_output=True, text=True)
        for suffix, text in (("stdout", done.stdout), ("stderr", done.stderr),
                             ("exit_code", f"{done.returncode}\n")):
            with open(os.path.join(target, suffix + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(text)


def _files(top: str) -> dict:
    found = {}
    for folder, _, names in os.walk(top):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = fh.read()
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: compare_outputs.py <git-ref>", file=sys.stderr)
        return 2
    ref = args[0]
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                                 capture_output=True, check=True).stdout
        ref_tree = os.path.join(work, "ref")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(ref_tree, filter="data")
        commands = _commands(_configs(work))
        for side, tree in (("tree", ROOT), ("ref", ref_tree)):
            print(f"writing the outputs of the {side} ...", flush=True)
            _produce(tree, commands, os.path.join(work, "out", side))
        new, old = (_files(os.path.join(work, "out", side)) for side in ("tree", "ref"))

    differ = sorted(name for name in new.keys() & old.keys() if new[name] != old[name])
    only = sorted(new.keys() ^ old.keys())
    for name in differ:
        print(f"DIFFERS: {name}")
    for name in only:
        print(f"ONE SIDE ONLY: {name} ({'tree' if name in new else ref})")
    same = len(new.keys() & old.keys()) - len(differ)
    print(f"{same} of {len(new.keys() | old.keys())} files byte-identical "
          f"(working tree vs {ref}, {len(commands)} commands)")
    return 1 if differ or only else 0


if __name__ == "__main__":
    sys.exit(main())
