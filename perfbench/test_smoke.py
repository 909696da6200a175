"""Smoke test of the benchmark at a tiny run length (a few iterations).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass at the recorded smoke references and trip on a
perturbed one, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pinned-run", "fd-ascent", "threshold-sweep")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_metric_table():
    spec = _spec()
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as fh:
        table = json.load(fh)["per_layer"]
    assert spec["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                 for m in table]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(m["on"] and set(m["on"]) <= set(WORKLOADS) for m in table)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    spec = _spec()
    named = spec["per_layer"] if trace else spec["end_to_end"]
    result = _result(_bench(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0.0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_perturbed_reference_trips_the_output_check(workload, tmp_path):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    ref = refs[workload]["smoke"]["7"]
    if workload == "threshold-sweep":
        head, first, rest = ref["sweep_csv"].split("\n", 2)
        cells = first.split(",")
        cells[2] = repr(float(cells[2]) * (1.0 + 1e-5))
        ref["sweep_csv"] = "\n".join([head, ",".join(cells), rest])
    else:
        ref["final_flow"] *= 1.0 + 1e-5
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs), encoding="utf-8")
    result = _result(_bench(workload, 0, "--references", str(path)))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("pinned-run", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
