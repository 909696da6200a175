"""Set-up of one workload: import aerolink, parse the config JSON, validate.

``load`` turns a workload config file into the validated ``Scenario`` and
``OptimizerConfig`` that a solve starts from, using only aerolink's public
API.  Run as a script, the module times that whole set-up in a fresh
interpreter (imports included) and prints the seconds on stdout:

    python3 perfbench/setup_probe.py CONFIG.json
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402


def optimizer_config(section: dict):
    """OptimizerConfig from a config's ``optimizer`` section (defaults elsewhere)."""
    from aerolink.optimizer import OptimizerConfig
    from aerolink.trajectory import AxisMask, GradientMode, TrajectoryConfig

    traj = section.get("trajectory", {})
    tconf = TrajectoryConfig(
        mask=AxisMask.from_string(traj.get("mask", "xyz")),
        gradient_mode=GradientMode(traj.get("gradient_mode", "analytic")),
    )
    return OptimizerConfig(epsilon=float(section.get("epsilon", 1.0)),
                           max_iterations=int(section.get("max_iterations", 500)),
                           trajectory=tconf)


def build_scenario(cfg: dict):
    """Validated Scenario from a parsed config dict."""
    from aerolink.scenario import scenario_from_config, validate

    scenario = scenario_from_config(cfg)
    problems = validate(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))
    return scenario


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return build_scenario(cfg), optimizer_config(cfg.get("optimizer", {}))


if __name__ == "__main__":
    import sys

    import aerolink  # noqa: F401 - the import is part of what is timed

    load(sys.argv[1])
    print(repr(time.perf_counter() - _T0))
