"""Scenario definition: node layout, radio parameters, and config file I/O.

A scenario is the full description of one relay deployment: a base station,
a chain of relay UAVs, a user terminal, and a set of fixed interference
sources that the relays must coexist with.  All geometry is in meters, all
powers are watts internally (dBm at the config-file boundary), frequencies
in Hz.

``scenario_from_config`` is the one reader of a config: it states each rule
of the format once (known and required keys, [x, y, z] triples, dBm lists,
source regions), and ``build_default_scenario`` builds through it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import typing
from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8

SCHEMA_VERSION = 1

# the top-level keys of a scenario config; all but the first two are required,
# and a config may also carry the CLI's ``optimizer`` section
CONFIG_KEYS = ("schema-version", "seed", "nodes", "channel", "safety", "powers", "weights",
               "topology")


class NodeClass(Enum):
    BASE_STATION = "bs"
    RELAY_UAV = "uav"
    USER_EQUIPMENT = "ue"
    INTERFERENCE_SOURCE = "si"


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_w) + 30.0


def free_space_offset_db(carrier_hz: float) -> float:
    """Distance-independent path loss offset of a unit-distance free-space link."""
    if carrier_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return 10.0 * math.log10((4.0 * math.pi * carrier_hz / SPEED_OF_LIGHT_M_S) ** 2)


def _require_finite(params, names=None) -> None:
    """Reject a NaN or infinite float field (a None offset means "derive it"),
    of the fields ``names`` or of every field."""
    for name in names or [f.name for f in dataclasses.fields(params)]:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Log-distance path loss parameters per link class plus system bandwidth.

    ``alpha_*`` are path loss exponents, ``eta_*`` the dB offsets at 1 m.
    Air-to-air links see less clutter than air-to-ground ones, hence the
    separate exponents.
    """

    alpha_a2a: float = 2.05
    alpha_a2g: float = 2.32
    eta_a2a_db: float | None = None  # None: free-space offset at carrier_hz
    eta_a2g_db: float | None = None
    carrier_hz: float = 2.0e9
    bandwidth_hz: float = 1.0e4

    def __post_init__(self):
        _require_finite(self)
        if self.alpha_a2a < 1.0 or self.alpha_a2g < 1.0:
            raise ValueError("path loss exponent must be >= 1")
        if self.carrier_hz <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth must be positive")

    def eta_db(self, a2a: bool) -> float:
        given = self.eta_a2a_db if a2a else self.eta_a2g_db
        if given is not None:
            return given
        return free_space_offset_db(self.carrier_hz)


@dataclass(frozen=True)
class SafetyParams:
    """Smoothed proximity penalty: a sigmoid step on distance / r_int.

    chi scales the penalty's weight in the SIR denominator, zeta is the step
    height, kappa the steepness, y0 the residual level far from the wall.
    """

    chi: float = 1.0
    zeta: float = 1.0
    kappa: float = 10.0
    y0: float = 1.0e-3
    r_int_m: float = 5.0

    def __post_init__(self):
        _require_finite(self)
        if self.chi < 0.0:
            raise ValueError("chi must be >= 0")
        if self.zeta <= 0.0:
            raise ValueError("zeta must be positive")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.y0 <= 0.0:
            raise ValueError("y0 must be positive")
        if self.r_int_m <= 0.0:
            raise ValueError("r_int must be positive")


@dataclass(frozen=True)
class AerialPartition:
    """Split of all node indices into aerial and ground sets."""

    aerial: frozenset
    ground: frozenset


@dataclass(frozen=True, eq=False)
class Scenario:
    """One relay deployment.

    Node order is fixed: index 0 is the base station, 1..n_uavs the relay
    UAVs, n_uavs+1 the user terminal; interference sources follow.  The
    relayed traffic flows over ``topology`` edges; the default is the chain
    0-1-...-(n_primary-1).  Each edge is a pair of distinct primary node
    indices, listed once in one orientation (``_edges``).  Construction
    enforces every rule: the array shapes, the edges and each rule of
    ``validate``, with its message.  So any built scenario (from a config, a
    ``with_*`` update or ``dataclasses.replace``) is valid, and nothing
    downstream checks it again.
    """

    classes: tuple
    positions: np.ndarray          # (n_total, 3) meters
    node_powers_w: np.ndarray      # (n_primary,) transmit powers
    si_powers_w: np.ndarray        # (n_si,)
    p_max_w: float
    i_max_w: np.ndarray            # (n_si,) allowed received interference
    channel: ChannelParams
    safety: SafetyParams
    weights: np.ndarray            # (n_primary,) node importance weights
    topology: tuple
    ue_aerial: bool = False
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "positions", _own(self.positions, (self.n_total, 3)))
        object.__setattr__(self, "node_powers_w", _own(self.node_powers_w, (self.n_primary,)))
        object.__setattr__(self, "si_powers_w", _own(self.si_powers_w, (self.n_si,)))
        object.__setattr__(self, "i_max_w", _own(self.i_max_w, (self.n_si,)))
        object.__setattr__(self, "weights", _own(self.weights, (self.n_primary,)))
        object.__setattr__(self, "topology", _edges(self.topology, self.n_primary))
        problems = validate(self)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    # -- index helpers -------------------------------------------------
    # ``classes`` never changes on an instance and the functional updates
    # build fresh ones, so the class counts are computed once and cached

    @property
    def n_total(self) -> int:
        return len(self.classes)

    @functools.cached_property
    def n_primary(self) -> int:
        return self.n_total - self.n_si

    @functools.cached_property
    def n_uavs(self) -> int:
        return sum(1 for c in self.classes if c is NodeClass.RELAY_UAV)

    @functools.cached_property
    def n_si(self) -> int:
        return sum(1 for c in self.classes if c is NodeClass.INTERFERENCE_SOURCE)

    @property
    def source(self) -> int:
        return 0

    @property
    def destination(self) -> int:
        return self.n_primary - 1

    @functools.cached_property
    def uav_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.classes) if c is NodeClass.RELAY_UAV)

    @functools.cached_property
    def si_indices(self) -> tuple:
        return tuple(i for i, c in enumerate(self.classes) if c is NodeClass.INTERFERENCE_SOURCE)

    @functools.cached_property
    def _partition(self) -> AerialPartition:
        # ``partition``'s split, made once: every channel state reads it
        aerial = set(self.uav_indices)
        ground = {self.source} | set(self.si_indices)
        if self.ue_aerial:
            aerial.add(self.destination)
        else:
            ground.add(self.destination)
        return AerialPartition(aerial=frozenset(aerial), ground=frozenset(ground))

    @property
    def uav_positions(self) -> np.ndarray:
        return self.positions[list(self.uav_indices)].copy()

    # -- functional updates --------------------------------------------

    def with_uav_positions(self, uav_positions: np.ndarray) -> "Scenario":
        pos = self.positions.copy()
        upd = np.asarray(uav_positions, dtype=float)
        if upd.shape != (self.n_uavs, 3):
            raise ValueError("expected one 3D position per UAV")
        pos[list(self.uav_indices)] = upd
        return dataclasses.replace(self, positions=pos)

    def with_node_powers(self, powers_w: np.ndarray) -> "Scenario":
        return dataclasses.replace(self, node_powers_w=np.asarray(powers_w, dtype=float))

    def with_i_max_dbm(self, i_max_dbm: float) -> "Scenario":
        val = dbm_to_watts(i_max_dbm)
        return dataclasses.replace(self, i_max_w=np.full(self.n_si, val))

    def with_ue_altitude(self, altitude_m: float) -> "Scenario":
        pos = self.positions.copy()
        pos[self.destination, 2] = float(altitude_m)
        return dataclasses.replace(self, positions=pos)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


def _own(a, shape) -> np.ndarray:
    """A read-only copy: construction is the only check a scenario gets."""
    out = np.array(a, dtype=float)
    if out.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _edges(topology, n_primary: int) -> tuple:
    """The topology as (i, j) int pairs, in order and orientation.  Each
    entry must be a pair of distinct primary node indices (each an integral
    number, as ``_json_int`` reads one) that no earlier entry joins in
    either orientation."""
    edges, seen = [], set()
    for e in topology:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError(f"topology entry {e!r} is not a pair")
        i, j = edge = tuple(_json_int(v, f"topology edge {e} index") for v in e)
        if not (0 <= i < n_primary and 0 <= j < n_primary):
            raise ValueError(f"topology edge {edge} references a non-primary node")
        if i == j:
            raise ValueError(f"topology edge {edge} is a self loop")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"topology edge {key} is duplicated")
        seen.add(key)
        edges.append(edge)
    return tuple(edges)


def partition(scenario: Scenario) -> AerialPartition:
    """Aerial vs ground node split; the UE side is chosen by ``ue_aerial``."""
    return scenario._partition


def _node_classes(n_uavs: int, n_si: int) -> tuple:
    """Base station, relay UAVs, user terminal, then interference sources."""
    return ((NodeClass.BASE_STATION,)
            + (NodeClass.RELAY_UAV,) * n_uavs
            + (NodeClass.USER_EQUIPMENT,)
            + (NodeClass.INTERFERENCE_SOURCE,) * n_si)


def build_default_scenario(seed: int = 7,
                           ue_altitude_m: float = 25.0,
                           n_uavs: int = 8,
                           n_si: int = 7,
                           ue_aerial: bool = False,
                           p_max_dbm: float = 20.0,
                           si_power_dbm: float = 30.0,
                           i_max_dbm: float = -30.0) -> Scenario:
    """Reference deployment: BS at the origin, UE 200 m away, relays in between.

    Built by ``scenario_from_config`` from a count-based config: the UAVs
    start evenly spaced on the BS-UE segment at 30 m altitude, and the
    interference sources are drawn from ``seed`` (x,y uniform over [0,200] x
    [-100,100] in one (n_si, 2) draw, all at 20 m altitude).
    """
    return scenario_from_config({
        "schema-version": SCHEMA_VERSION,
        "seed": seed,
        "nodes": {
            "bs": {"position_m": [0.0, 0.0, 15.0]},
            "ue": {"position_m": [200.0, 0.0, ue_altitude_m], "aerial": ue_aerial},
            "uavs": {"count": n_uavs, "initial_altitude_m": 30.0},
            "sis": {"count": n_si},
        },
        "channel": {},
        "safety": {},
        "powers": {"p_max_dbm": p_max_dbm, "si_dbm": si_power_dbm, "i_max_dbm": i_max_dbm},
        "weights": [1.0] + [1.0e-2] * n_uavs + [1.0],
        "topology": "line",
    })


def validate(scenario: Scenario) -> list:
    """The problems of a scenario, one human-readable message per broken rule.
    These are the rules ``Scenario.__post_init__`` enforces, so any built
    ``Scenario`` returns [].  Broken class rules are reported alone: the
    others index the nodes by their order."""
    errs = []
    cls = scenario.classes
    if cls.count(NodeClass.BASE_STATION) != 1:
        errs.append("scenario must contain exactly one base station")
    if cls.count(NodeClass.USER_EQUIPMENT) != 1:
        errs.append("scenario must contain exactly one user terminal")
    if scenario.n_uavs < 1:
        errs.append("scenario must contain at least one relay UAV")
    if cls != _node_classes(scenario.n_uavs, scenario.n_si):
        errs.append("node order must be base station, UAVs, user terminal, then sources")
    if errs:
        return errs

    pos = scenario.positions
    if not np.all(np.isfinite(pos)):
        errs.append("all coordinates must be finite")
    else:
        if np.any(pos[:, 2] < 0.0):
            errs.append("altitudes must be >= 0")
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        iu = np.triu_indices(scenario.n_total, k=1)
        if np.any(d[iu] == 0.0):
            errs.append("two nodes share a position; links would be degenerate")

    if not np.all(np.isfinite(scenario.node_powers_w)) or np.any(scenario.node_powers_w <= 0.0):
        errs.append("transmit powers must be positive")
    elif not np.isfinite(scenario.p_max_w) or scenario.p_max_w <= 0.0:
        errs.append("power budget p_max must be positive and finite")
    elif np.any(scenario.node_powers_w > scenario.p_max_w * (1.0 + 1e-12)):
        errs.append("transmit powers must not exceed the power budget p_max")
    if not np.all(np.isfinite(scenario.si_powers_w)) or np.any(scenario.si_powers_w <= 0.0):
        errs.append("interference source powers must be positive and finite")
    if not np.all(np.isfinite(scenario.i_max_w)) or np.any(scenario.i_max_w <= 0.0):
        errs.append("interference thresholds must be positive and finite")

    w = scenario.weights
    if not np.all(np.isfinite(w)):
        errs.append("weights must be finite")
    if w[scenario.source] != 1.0:
        errs.append("source weight must be 1")
    if w[scenario.destination] != 1.0:
        errs.append("destination weight must be 1")
    if np.any(w[1:-1] <= 0.0) or np.any(w[1:-1] > 1.0):
        errs.append("UAV weights must lie in (0, 1]")

    # reachability of the terminal over topology edges
    adj = [[] for _ in range(scenario.n_primary)]
    for i, j in scenario.topology:
        adj[i].append(j)
        adj[j].append(i)
    reach = {scenario.source}
    stack = [scenario.source]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in reach:
                reach.add(v)
                stack.append(v)
    if scenario.destination not in reach:
        errs.append("destination unreachable over the topology")
    return errs


# -- config file I/O ----------------------------------------------------

def _json_int(value, name: str) -> int:
    """An integral number as an int (3.0 reads as 3); a bool is not one."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _json_count(value, name: str) -> int:
    """A ``_json_int`` that is not negative."""
    count = _json_int(value, name)
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")
    return count


def _json_float(value, name: str, array: bool = False):
    """A JSON number as a float, or with ``array`` a number or nested lists
    of numbers as a float array; a bool or a string is not a number."""
    for item in np.asarray(value, dtype=object).flat:
        if isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise ValueError(f"{name} must be a number, got {item!r}")
    return np.asarray(value, dtype=float) if array else float(value)


def _json_bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be true or false, got {value!r}")


def _known_keys(section, keys, name: str, required=()) -> dict:
    """``section``, checked to be a JSON object whose every key is in ``keys``
    and that has every key in ``required``."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {name}")
    for key in required:
        if key not in section:
            raise ValueError(f"{name} is missing required key {key!r}")
    return section


def _read_section(cls, section, name: str):
    """The frozen config dataclass ``cls`` read from its JSON object ``section``.

    A key the section omits takes the field's default; a key that is no
    field is an error.  Each value is read by its field's type: a nested
    config dataclass by this reader, an Enum by its ``from_string`` where it
    has one and by value otherwise, a bool from true/false only, an int from
    an integral number only, a float (a ``float | None`` keeps a null) from
    a number only; any other value as given.
    """
    hints = typing.get_type_hints(cls)
    types = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    _known_keys(section, types, name)
    return cls(**{key: _read_value(types[key], value, f"{name}.{key}")
                  for key, value in section.items()})


def _read_value(hint, value, name: str):
    if dataclasses.is_dataclass(hint):
        return _read_section(hint, value, name)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return getattr(hint, "from_string", hint)(value)
    if hint is bool:
        return _json_bool(value, name)
    if hint is int:
        return _json_int(value, name)
    if hint is float or (hint == float | None and value is not None):
        return _json_float(value, name)
    return value


def _triples(value, name: str) -> np.ndarray:
    """``value``, a list of [x, y, z] triples, as an (n, 3) array; a flat []
    lists none."""
    out = _json_float(value, name, array=True)
    if out.shape == (0,):
        out = out.reshape(0, 3)
    if out.ndim != 2 or out.shape[1] != 3:
        raise ValueError(f"{name} must be one [x, y, z] triple per node")
    return out


def _interval(value, name: str) -> np.ndarray:
    """``value``, a finite [low, high] pair with low <= high, as an array."""
    out = _json_float(value, name, array=True)
    if out.shape != (2,) or not -math.inf < out[0] <= out[1] < math.inf:
        raise ValueError(f"{name} must be a finite [low, high] pair with low <= high")
    return out


def _dbm_w(value, name: str, n: int, what: str, broadcast: bool = True) -> np.ndarray:
    """``value`` in watts: a list of ``n`` dBm numbers, one ``what``, or with
    ``broadcast`` one dBm number for all ``n``."""
    if broadcast and np.isscalar(value):
        value = [value] * n
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{name} must list one {what}")
    return np.array([dbm_to_watts(_json_float(p, name)) for p in value])


def scenario_to_config(scenario: Scenario) -> dict:
    uavs = scenario.uav_positions
    sis = scenario.positions[list(scenario.si_indices)]
    return {
        "schema-version": SCHEMA_VERSION,
        "seed": scenario.seed,
        "nodes": {
            "bs": {"position_m": scenario.positions[scenario.source].tolist()},
            "ue": {"position_m": scenario.positions[scenario.destination].tolist(),
                   "aerial": scenario.ue_aerial},
            "uavs": {"positions_m": uavs.tolist()},
            "sis": {"positions_m": sis.tolist()},
        },
        "channel": dataclasses.asdict(scenario.channel),
        "safety": dataclasses.asdict(scenario.safety),
        "powers": {
            "p_max_dbm": watts_to_dbm(scenario.p_max_w),
            "node_dbm": [watts_to_dbm(p) for p in scenario.node_powers_w],
            "si_dbm": [watts_to_dbm(p) for p in scenario.si_powers_w],
            "i_max_dbm": [watts_to_dbm(p) for p in scenario.i_max_w],
        },
        "weights": scenario.weights.tolist(),
        "topology": [list(e) for e in scenario.topology],
    }


def scenario_from_config(cfg: dict) -> Scenario:
    """The ``Scenario`` of a config; this reader states every rule of the
    format.  The top level also takes the ``optimizer`` section the CLI reads.

    Each node group is its explicit ``positions_m``, or ``count`` nodes: the
    UAVs evenly spaced on the BS-UE segment at ``initial_altitude_m``, the
    sources with x and y uniform over ``region_m`` in one (count, 2) draw from
    the seed, by default [0,200] x [-100,100] at 20 m altitude.
    """
    _known_keys(cfg, CONFIG_KEYS + ("optimizer",), "config", CONFIG_KEYS[2:])
    version = cfg.get("schema-version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema-version {version!r}; expected {SCHEMA_VERSION}")
    seed = cfg.get("seed")
    if seed is not None:
        seed = _json_int(seed, "seed")

    nodes = _known_keys(cfg["nodes"], ("bs", "ue", "uavs", "sis"), "nodes", ("bs", "ue", "uavs"))
    bs_section = _known_keys(nodes["bs"], ("position_m",), "nodes.bs", ("position_m",))
    ue_section = _known_keys(nodes["ue"], ("position_m", "aerial"), "nodes.ue", ("position_m",))
    bs = _triples([bs_section["position_m"]], "nodes.bs.position_m")
    ue = _triples([ue_section["position_m"]], "nodes.ue.position_m")
    ue_aerial = _json_bool(ue_section.get("aerial", False), "nodes.ue.aerial")

    uav_section = _known_keys(nodes["uavs"], ("positions_m", "count", "initial_altitude_m"),
                              "nodes.uavs")
    if "positions_m" in uav_section:
        uavs = _triples(uav_section["positions_m"], "nodes.uavs.positions_m")
    else:
        count = _json_count(uav_section.get("count", 0), "nodes.uavs.count")
        altitude = _json_float(uav_section.get("initial_altitude_m", 30.0),
                               "nodes.uavs.initial_altitude_m")
        frac = np.arange(1, count + 1)[:, None] / (count + 1)
        uavs = np.column_stack([bs[0, :2] + frac * (ue[0, :2] - bs[0, :2]),
                                np.full(count, altitude)])

    si_section = _known_keys(nodes.get("sis", {}), ("positions_m", "count", "region_m"),
                             "nodes.sis")
    region = _known_keys(si_section.get("region_m", {}), ("x", "y", "altitude"),
                         "nodes.sis.region_m")
    x = _interval(region.get("x", [0.0, 200.0]), "nodes.sis.region_m.x")
    y = _interval(region.get("y", [-100.0, 100.0]), "nodes.sis.region_m.y")
    alt = _json_float(region.get("altitude", 20.0), "nodes.sis.region_m.altitude")
    if "positions_m" in si_section:
        sis = _triples(si_section["positions_m"], "nodes.sis.positions_m")
    else:
        count = _json_count(si_section.get("count", 0), "nodes.sis.count")
        if count and seed is None:
            raise ValueError("drawing interference sources by count needs a seed")
        xy = np.zeros((0, 2))
        if count:
            xy = np.random.default_rng(seed).uniform([x[0], y[0]], [x[1], y[1]], (count, 2))
        sis = np.column_stack([xy, np.full(count, alt)])
    n_uavs, n_si = uavs.shape[0], sis.shape[0]
    n_primary = n_uavs + 2

    channel = _read_section(ChannelParams, cfg["channel"], "channel")
    safety = _read_section(SafetyParams, cfg["safety"], "safety")

    pw = _known_keys(cfg["powers"], ("p_max_dbm", "node_dbm", "si_dbm", "i_max_dbm"),
                     "powers", ("p_max_dbm",))
    p_max_dbm = _json_float(pw["p_max_dbm"], "powers.p_max_dbm")
    node_powers = _dbm_w(pw.get("node_dbm", [p_max_dbm] * n_primary), "powers.node_dbm",
                         n_primary, "power per primary node", broadcast=False)
    si_powers_w = _dbm_w(pw.get("si_dbm", []), "powers.si_dbm", n_si,
                         "power per interference source")
    i_max_w = _dbm_w(pw.get("i_max_dbm", -30.0), "powers.i_max_dbm", n_si,
                     "threshold per interference source")

    weights = _json_float(cfg["weights"], "weights", array=True)
    if weights.shape != (n_primary,):
        raise ValueError("weights must list one value per primary node")

    topology = cfg["topology"]
    if topology == "line":
        topology = [(i, i + 1) for i in range(n_primary - 1)]

    return Scenario(
        classes=_node_classes(n_uavs, n_si),
        positions=np.vstack([bs, uavs, ue, sis]),
        node_powers_w=node_powers,
        si_powers_w=si_powers_w,
        p_max_w=dbm_to_watts(p_max_dbm),
        i_max_w=i_max_w,
        channel=channel,
        safety=safety,
        weights=weights,
        topology=topology,
        ue_aerial=ue_aerial,
        seed=seed,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    return scenario_from_config(cfg)


def save_scenario(scenario: Scenario, path: str) -> None:
    text = json.dumps(scenario_to_config(scenario), indent=2)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)
