"""Spans and counters around aerolink's public functions, from outside.

aerolink's modules import each other's functions with ``from .x import y``,
so a call is routed through the *calling* module's namespace.  ``Tracer``
rebinds every such name (``aerolink.optimizer.lambda2_gradient``,
``aerolink.trajectory.connectivity_bundle``, ``aerolink.spectral.fiedler_pair``
and so on) to a wrapper that records a span, and restores the originals on
``uninstall``.  Nothing under ``src/`` changes.  A name a later version of
the package no longer has is skipped, and the metrics built on it read 0.

Three kinds of hook:

- span: (id, name, start, end, parent id) kept in memory and written out
  by ``write_spans``; the span's self time is its duration minus the time
  its child spans cover;
- leaf: a hot function called hundreds of times per iteration; only its
  call count and total time are kept, and that time still counts as child
  time of the enclosing span;
- count: a call or property access that is only counted.

A sweep run with ``--jobs 2`` forks its workers while the wrappers are
installed, so each worker traces its own points.  Given a ``spool_dir``, a
worker writes what it recorded to one file per point (and starts afresh),
and ``merge_spool`` adds those files into the parent's tracer.  Span times
come from ``perf_counter``, one system-wide monotonic clock, so spans from
different processes can be compared.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import pickle
from collections import defaultdict
from time import perf_counter

import aerolink.channel as channel
import aerolink.cli as cli
import aerolink.optimizer as optimizer
import aerolink.power as power
import aerolink.spectral as spectral
import aerolink.trajectory as trajectory
from aerolink.scenario import Scenario

# (namespace the call goes through, attribute, span name, kind)
_FUNCTIONS = (
    (cli, "main", "cli.main", "span"),
    (cli, "run", "optimizer.run", "span"),
    (optimizer, "run", "optimizer.run", "span"),
    (optimizer, "lambda2_gradient", "trajectory.lambda2_gradient", "span"),
    (optimizer, "step", "trajectory.step", "span"),
    (optimizer, "connectivity_bundle", "spectral.connectivity_bundle", "span"),
    (trajectory, "connectivity_bundle", "spectral.connectivity_bundle", "span"),
    (optimizer, "build_matrices", "spectral.build_matrices", "span"),
    (spectral, "build_matrices", "spectral.build_matrices", "span"),
    (spectral, "fiedler_pair", "spectral.fiedler_pair", "span"),
    (optimizer, "solve_maxmin", "power.solve_maxmin", "span"),
    (optimizer, "verify_interference", "power.verify_interference", "span"),
    (optimizer, "from_adjacency", "flow.from_adjacency", "span"),
    (optimizer, "max_flow", "flow.max_flow", "span"),
    (trajectory, "rate_spatial_gradient", "channel.rate_spatial_gradient", "leaf"),
    (channel, "sir", "channel.sir", "count"),
    (power, "sir", "channel.sir", "count"),
)
# Scenario properties that rescan ``classes`` on every access
_CLASS_SCANS = ("n_primary", "n_si", "n_uavs", "uav_indices", "si_indices")
_MODULES = ("cli", "optimizer", "trajectory", "spectral", "channel", "power", "flow")


_TALLIES = ("step_evals", "steps_accepted", "halvings", "fd_fallbacks",
            "run_iterations", "run_stalls")
_TABLES = ("total", "self_time", "calls", "counts")


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    def __init__(self, spool_dir: str | None = None):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self._stack = []                     # open frames: [id, name, child seconds]
        self._next_id = 0
        self._saved = []
        self._spooled = 0
        self._reset()

    def _reset(self) -> None:
        self.spans = []                      # (pid, id, name, start, end, parent id)
        self.total = defaultdict(float)      # inclusive seconds per span name
        self.self_time = defaultdict(float)  # self seconds per span name
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.solves = []                     # (scenario, fading, eta) per power solve
        self.step_evals = 0                  # connectivity_bundle calls inside step
        self.steps_accepted = 0              # steps that did not stall
        self.halvings = 0
        self.fd_fallbacks = 0
        self.run_iterations = 0
        self.run_stalls = 0

    # -- worker spooling ----------------------------------------------------

    def _spool(self) -> None:
        """Write this worker's records since the last spool, then start afresh."""
        state = {name: getattr(self, name) for name in _TALLIES + _TABLES}
        state.update(spans=self.spans, solves=self.solves)
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._spooled}.pkl")
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(state, fh)
        os.replace(path + ".tmp", path)
        self._spooled += 1
        self._reset()

    def merge_spool(self) -> int:
        """Add every worker file in ``spool_dir``; returns how many there were."""
        names = sorted(n for n in os.listdir(self.spool_dir) if n.endswith(".pkl"))
        for name in names:
            with open(os.path.join(self.spool_dir, name), "rb") as fh:
                state = pickle.load(fh)
            for key in _TALLIES:
                setattr(self, key, getattr(self, key) + state[key])
            for key in _TABLES:
                table = getattr(self, key)
                for k, v in state[key].items():
                    table[k] += v
            self.spans.extend(state["spans"])
            self.solves.extend(state["solves"])
        self._adopt_worker_time()
        return len(names)

    def _adopt_worker_time(self) -> None:
        """Take the time a worker ran a child out of its parent span's self time."""
        spans_of = {(s[0], s[1]) for s in self.spans}
        children = defaultdict(list)
        for pid, _, _, start, end, parent in self.spans:
            if pid != self.pid and parent is not None and (pid, parent) not in spans_of:
                children[parent].append((start, end))
        for pid, sid, name, *_ in self.spans:
            if pid == self.pid and sid in children:
                self.self_time[name] -= union_seconds(children[sid])

    # -- recording --------------------------------------------------------

    def open(self, name: str):
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent, perf_counter()

    def close(self, frame, parent, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        name = frame[1]
        self.spans.append((os.getpid(), frame[0], name, start, end, parent))
        self.total[name] += duration
        self.self_time[name] += duration - frame[2]
        self.calls[name] += 1

    def _span(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            frame, parent, start = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame, parent, start)
            if hook is not None:
                hook(result, args, kwargs)
            return result
        return wrapper

    def _leaf(self, fn, name):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                if self._stack:
                    self._stack[-1][2] += duration
                self.total[name] += duration
                self.self_time[name] += duration
                self.calls[name] += 1
        return wrapper

    def _count(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- result hooks -----------------------------------------------------

    def _hooks(self):
        def bound(fn, args, kwargs):
            ba = inspect.signature(fn).bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments

        def on_gradient(fn):
            def hook(result, args, kwargs):
                asked = bound(fn, args, kwargs).get("gradient_mode")
                if asked is not None and getattr(result, "mode_used", asked) is not asked:
                    self.fd_fallbacks += 1
            return hook

        def on_step(result, args, kwargs):
            self.halvings += int(getattr(result, "halvings", 0))
            if not getattr(result, "stalled", False):
                self.steps_accepted += 1

        def on_bundle(result, args, kwargs):
            if self._stack and self._stack[-1][1] == "trajectory.step":
                self.step_evals += 1

        def on_solve(fn):
            def hook(result, args, kwargs):
                arguments = bound(fn, args, kwargs)
                self.solves.append((arguments.get("scenario"), arguments.get("fading"),
                                    float(getattr(result, "eta", math.nan))))
            return hook

        def on_run(result, args, kwargs):
            records = getattr(result, "records", ())
            if records:
                self.run_iterations += int(records[-1].iteration)
                self.run_stalls += sum(1 for r in records if getattr(r, "stalled", False))
            if self.spool_dir is not None and os.getpid() != self.pid:
                self._spool()

        return {
            "trajectory.lambda2_gradient": on_gradient,
            "trajectory.step": lambda fn: on_step,
            "spectral.connectivity_bundle": lambda fn: on_bundle,
            "power.solve_maxmin": on_solve,
            "optimizer.run": lambda fn: on_run,
        }

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for module, attr, name, kind in _FUNCTIONS:
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            if kind == "span":
                make = hooks.get(name)
                wrapped = self._span(fn, name, make(fn) if make else None)
            elif kind == "leaf":
                wrapped = self._leaf(fn, name)
            else:
                wrapped = self._count(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)
        init = getattr(channel, "ChannelState", None)
        if init is not None:
            self._saved.append((init, "__init__", init.__init__))
            init.__init__ = self._span(init.__init__, "channel.ChannelState", None)
        for attr in _CLASS_SCANS:
            prop = Scenario.__dict__.get(attr)
            if isinstance(prop, property):
                self._saved.append((Scenario, attr, prop))
                setattr(Scenario, attr,
                        property(self._count(prop.fget, "scenario.class_scans")))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def eta_at_caps(self) -> int:
        """Power solves whose eta equals the all-at-caps minimum edge rate.

        Evaluated after tracing, with the untraced functions, so it costs
        the traced solve nothing.
        """
        hits = 0
        for scenario, fading, eta in self.solves:
            if scenario is None:
                continue
            at_caps = scenario.with_node_powers(power.power_caps(scenario, fading))
            floor = min(channel.edge_rate(i, j, at_caps, fading)
                        for i, j in scenario.topology)
            hits += eta == floor
        return hits

    def module_self(self) -> dict:
        out = {m: 0.0 for m in _MODULES}
        for name, seconds in self.self_time.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + seconds
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values named as in perfbench/metrics.json."""
        t, c = self.total, self.calls
        step_evals = self.step_evals
        solves = len(self.solves)
        own = self.module_self()
        metrics = {
            "optimizer.iterations": self.run_iterations,
            "optimizer.stalls": self.run_stalls,
            "trajectory.gradient_s": t["trajectory.lambda2_gradient"],
            "trajectory.gradient_calls": c["trajectory.lambda2_gradient"],
            "trajectory.fd_fallbacks": self.fd_fallbacks,
            "trajectory.step_s": t["trajectory.step"],
            "trajectory.step_lambda2_evals": step_evals,
            "trajectory.halvings": self.halvings,
            "trajectory.accept_ratio": (self.steps_accepted / step_evals
                                        if step_evals else 0.0),
            "spectral.bundle_calls": c["spectral.connectivity_bundle"],
            "spectral.bundle_s": t["spectral.connectivity_bundle"],
            "spectral.build_matrices_s": t["spectral.build_matrices"],
            "spectral.eigh_s": t["spectral.fiedler_pair"],
            "channel.state_builds": c["channel.ChannelState"],
            "channel.state_s": t["channel.ChannelState"],
            "channel.sir_calls": self.counts["channel.sir"],
            "channel.rate_gradient_calls": c["channel.rate_spatial_gradient"],
            "channel.rate_gradient_s": t["channel.rate_spatial_gradient"],
            "scenario.class_scans": self.counts["scenario.class_scans"],
            "power.solve_calls": solves,
            "power.solve_s": t["power.solve_maxmin"],
            "power.verify_s": t["power.verify_interference"],
            "power.eta_at_caps_ratio": self.eta_at_caps() / solves if solves else 0.0,
            "flow.max_flow_calls": c["flow.max_flow"],
            "flow.max_flow_s": t["flow.max_flow"],
        }
        for module in _MODULES:
            metrics[f"{module}.self_s"] = own[module]
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
