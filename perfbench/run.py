"""aerolink benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload pinned-run --seed 7 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics (setup_s, solve_s,
iteration_ms, peak_rss_mb), ``--trace 1`` the per-layer metrics; both
lists, with units, are in BENCHMARK.json, and perfbench/metrics.json says
which end-to-end metric and workloads each per-layer metric should move.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Human-readable lines
before it give each timing's median, tail and sample count, the machine
(nproc, Python, numpy, BLAS) and any failed check.  A full record of the
run goes to .perfbench/results/.

The process and the sweep's workers run with one BLAS/OpenMP thread, so
two workers do not oversubscribe two cores.  Load is one closed loop: the
next solve starts when the previous one returned.

``--smoke`` shrinks every workload to a few iterations (for the smoke
test); ``--references`` points the output checks at another reference file.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pinned-run", "fd-ascent", "threshold-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--references", default=os.path.join(HERE, "references.json"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aerolink", "__init__.py")):
        print(f"perfbench: no aerolink package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    with open(args.references, "r", encoding="utf-8") as fh:
        references = json.load(fh)
    out_dir = os.path.join(ROOT, ".perfbench")
    results = os.path.join(out_dir, "results")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(workdir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    named = units("per_layer" if args.trace else "end_to_end")
    try:
        bench = workloads.Bench(ROOT, workdir, args.workload, args.seed,
                                args.smoke, references)
        if args.trace:
            values, details = workloads.trace(
                bench, os.path.join(results, tag + ".spans.jsonl"))
            if set(values) != set(named):
                raise RuntimeError(f"per-layer metrics {sorted(set(values) ^ set(named))} "
                                   "differ from BENCHMARK.json")
            for key in ("untraced_solve_s", "traced_solve_s", "spans"):
                print(f"{key}: {details[key]}")
            for point in details["fragility"]:
                print(f"fragility {point['point']}: flows {point['final_flows']} "
                      f"iterations {point['iterations']}")
        else:
            details = workloads.measure(bench, args.seconds)
            values = {k: v["median"] for k, v in details.items()}
            values["peak_rss_mb"] = peak_rss_mb(args.workload == "threshold-sweep")
            for key, summary in details.items():
                rest = ", ".join(f"{k} {v:.6g}" for k, v in summary.items() if k != "n")
                print(f"{key} ({named[key]}): {rest} over n={summary['n']} samples")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in named.items()},
    }
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details, "machine": env,
                   "problems": bench.problems, "args": vars(args)}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
