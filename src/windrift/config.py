"""Config-file parsing and validation for the windrift CLI.

Configs are JSON documents. Each subcommand accepts exactly the keys it
reads, plus `master_seed` and `output_dir` (which `--seed` and `--out`
override for every subcommand):

  simulate, rates  env, geometry, population, dt, total_time, replicas,
                   sample_stride; rates also fit, green_kubo_cutoff, and
                   simulate burn_in, which only bench/job.py reads
  fields           material, fields, c_light
  design           device, anyon, c_light, r_unit_m, design_g_coupling
  selftest         (nothing else)

A `fixed` population takes `n_v` and `n_a`; `boltzmann` and `mean` take
`f0`. Every block goes through one reader, `_read`, which refuses a block
that is not a JSON object and any key outside the block's table, and
checks each number against the table's rule (finite; integer, > 0 or
>= 0 where the consumer needs it). Every diagnostic names the key.

The parser also resolves what the runs would otherwise derive: the step
count, the fit-window and Green-Kubo defaults, and the field grid. Each
subcommand's config class holds exactly the fields its run reads.
Parsing the same document twice yields equal configs; together with the
master seed this makes runs fully reproducible.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .design import DeviceSpec
from .ensemble import TorusGeometry
from .langevin import (ThermalEnv, _check_fit_start, _cutoff_lag,
                       _default_fit_window, _fit_window)
from .materials import MaterialParams, derive_scales


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; message names the key."""


# A simulate or rates lane holds at most LANE_STEP_BYTES per recorded step
# at its peak, replica 0's sampled trajectory (3 doubles per sample)
# included (18 doubles at sample_stride 1, 10 at 5: two draw buffers, the
# increments, the sampled windings, the trajectory and the estimators'
# transforms). A run whose lane would exceed LANE_BYTES is refused before
# it allocates, the same on every host: at most 119,304,647 steps.
LANE_STEP_BYTES = 18 * 8
LANE_BYTES = 16 << 30


@dataclass(frozen=True)
class PopulationSpec:
    """How walker counts are chosen for each replica.

    mode "fixed": n_v = n_a given explicitly.
    mode "boltzmann": Poisson draw per replica with free energy f0.
    mode "mean": deterministic even-rounded Boltzmann mean with f0.
    """

    mode: str
    n_v: Optional[int] = None
    n_a: Optional[int] = None
    f0: Optional[float] = None


@dataclass(frozen=True)
class FieldTableSpec:
    """Grid and kinematics of the exported field table (grid resolved)."""

    r_min: float
    r_max: float
    n_points: int
    speed: float
    angle_deg: float


@dataclass(frozen=True)
class AnyonSpec:
    l_prime: float
    rho_min: float


@dataclass(frozen=True)
class RunConfig:
    """Validated, resolved run description: selftest's, and every other's
    base; no config class holds a field its run does not read."""

    subcommand: str
    master_seed: int
    output_dir: str


@dataclass(frozen=True)
class EnsembleConfig(RunConfig):
    env: ThermalEnv
    geometry: TorusGeometry
    population: PopulationSpec
    dt: float
    total_time: float
    n_steps: int
    replicas: int
    sample_stride: int


@dataclass(frozen=True)
class SimulateConfig(EnsembleConfig):
    burn_in: float


@dataclass(frozen=True)
class RatesConfig(EnsembleConfig):
    fit_t_min: float
    fit_t_max: float
    green_kubo_cutoff: float


@dataclass(frozen=True)
class FieldsConfig(RunConfig):
    material: MaterialParams
    field_table: FieldTableSpec
    c_light: float


@dataclass(frozen=True)
class DesignConfig(RunConfig):
    device: DeviceSpec
    anyon: Optional[AnyonSpec]
    c_light: float
    r_unit_m: float
    design_g_coupling: float


# Block tables: key -> (rule, default). A rule is ">0", ">=0", "int>0",
# "int>=0" or "real" for a number, "text" for a string, or a nested table
# for a block; a table may also be a function of the block that returns
# its table. Default REQUIRED: the key must be given; None: it may be
# left out and reads None.
REQUIRED = object()

_ENV = {"mass": (">0", REQUIRED), "eta": (">0", REQUIRED),
        "temperature": (">=0", REQUIRED)}
_GEOMETRY = {"l_x": (">0", REQUIRED), "l_y": (">0", REQUIRED)}
_POPULATION = {
    "fixed": {"mode": ("text", "fixed"), "n_v": ("int>=0", REQUIRED),
              "n_a": ("int>=0", REQUIRED)},
    "boltzmann": {"mode": ("text", REQUIRED), "f0": (">=0", REQUIRED)},
}
_POPULATION["mean"] = _POPULATION["boltzmann"]
_FIT = {"t_min": (">0", None), "t_max": (">0", None)}
_MATERIAL = dict({key: (">0", REQUIRED) for key in (
    "zeta", "a_coeff", "b_coeff", "g_coupling", "sigma", "d_thickness")},
    l_tr=(">0", None))
_FIELDS = {"r_min": (">0", None), "r_max": (">0", None),
           "n_points": ("int>0", 200), "speed": (">0", 1.0),
           "angle_deg": ("real", 45.0)}
_DEVICE = {"r_eff": (">0", REQUIRED), "n1": ("int>=0", REQUIRED),
           "n2": ("int>0", REQUIRED), "l_x": (">0", REQUIRED),
           "l_y": (">0", REQUIRED), "epsilon_line": (">=0", REQUIRED),
           "temperature": (">0", REQUIRED)}
_ANYON = {"l_prime": (">0", REQUIRED), "rho_min": (">0", REQUIRED)}


def _population_table(block: dict) -> dict:
    mode = block.get("mode", "fixed")
    if not isinstance(mode, str) or mode not in _POPULATION:
        raise ConfigError(f"'population.mode' must be fixed|boltzmann|mean, "
                          f"got {mode!r}")
    return _POPULATION[mode]


_COMMON = {"master_seed": ("int>=0", 0),
           "output_dir": ("text", "windrift_out")}
_ENSEMBLE = dict(
    _COMMON, env=(_ENV, REQUIRED), geometry=(_GEOMETRY, REQUIRED),
    population=(_population_table, REQUIRED), dt=(">0", REQUIRED),
    total_time=(">0", REQUIRED), replicas=("int>0", 20),
    sample_stride=("int>0", 10))


def _number(value, name: str, rule: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}' must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"'{name}' must be finite, got {value!r}")
    integer = rule.startswith("int")
    if integer and int(value) != value:
        raise ConfigError(f"'{name}' must be an integer, got {value!r}")
    if rule.endswith(">0") and not value > 0:
        raise ConfigError(f"'{name}' must be strictly positive, "
                          f"got {value!r}")
    if rule.endswith(">=0") and value < 0:
        raise ConfigError(f"'{name}' must be >= 0, got {value!r}")
    return int(value) if integer else float(value)


def _value(value, name: str, rule):
    if rule == "text":
        if not isinstance(value, str):
            raise ConfigError(f"'{name}' must be a string, got {value!r}")
        return value
    if isinstance(rule, str):
        return _number(value, name, rule)
    return _read(value, name + ".", rule)


def _read(block, where: str, table) -> dict:
    """Read one block by its table; every config value passes through here.

    Refuses a block that is not a JSON object and keys outside the table;
    returns {key: checked value} with defaults filled in.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"'{where[:-1]}' must be a JSON object, "
                          f"got {block!r}")
    if callable(table):
        table = table(block)
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown key '{where}{sorted(unknown)[0]}'")
    out = {}
    for key, (rule, default) in table.items():
        if key in block:
            out[key] = _value(block[key], where + key, rule)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key '{where}{key}'")
        else:
            out[key] = None if default is None else _value(default,
                                                           where + key, rule)
    return out


def _check_rate_windows(env: ThermalEnv, dt: float, n_steps: int,
                        sample_stride: int, t_min: float, t_max: float,
                        cutoff: float):
    """Reject before the run what rate_from_msd/rate_from_green_kubo would
    refuse after it: their own rules, applied to the run's series shapes."""
    # alpha is sampled n_steps // stride times after t = 0
    for key, rule, args in (
            ("fit.t_min", _check_fit_start, (t_min, env.gamma)),
            ("fit.t_max", _fit_window, (t_min, t_max, sample_stride * dt,
                                        n_steps // sample_stride + 1)),
            ("green_kubo_cutoff", _cutoff_lag, (cutoff, dt, n_steps))):
        try:
            rule(*args)
        except ValueError as err:
            raise ConfigError(f"'{key}': {err}") from err


def _simulation(v: dict, subcommand: str) -> dict:
    env = ThermalEnv(**v["env"])
    if v["geometry"]["l_x"] < v["geometry"]["l_y"]:
        raise ConfigError("'geometry.l_x' must be >= 'geometry.l_y'")
    pop = v["population"]
    if pop["mode"] == "fixed" and pop["n_v"] != pop["n_a"]:
        raise ConfigError("'population.n_v' must equal 'population.n_a' "
                          "(neutral ensemble)")
    if pop["mode"] != "fixed" and env.temperature == 0.0:
        raise ConfigError(f"'env.temperature' must be > 0 for population "
                          f"mode '{pop['mode']}': its counts follow the "
                          f"Boltzmann weight e^(-f0/T)")
    dt, total_time, stride = v["dt"], v["total_time"], v["sample_stride"]
    if total_time < dt:
        raise ConfigError("'total_time' must be at least one step 'dt'")
    n_steps = int(round(total_time / dt))
    if n_steps * LANE_STEP_BYTES > LANE_BYTES:
        raise ConfigError(
            f"'total_time' of {n_steps} steps of 'dt' would need "
            f"{n_steps * LANE_STEP_BYTES / 2**30:.3g} GiB per lane, over the "
            f"{LANE_BYTES >> 30} GiB budget ({LANE_BYTES // LANE_STEP_BYTES} "
            f"steps)")
    run = dict(env=env, geometry=TorusGeometry(**v["geometry"]),
               population=PopulationSpec(**pop), dt=dt,
               total_time=total_time, n_steps=n_steps,
               replicas=v["replicas"], sample_stride=stride)
    if subcommand == "simulate":
        return dict(run, burn_in=v["burn_in"])
    if n_steps < stride:
        raise ConfigError(f"'sample_stride' ({stride}) exceeds the "
                          f"{n_steps} steps of 'total_time'; "
                          f"rates need at least one sample after t=0")
    fit = v["fit"]      # set values are > 0
    default_min, default_max = _default_fit_window(env.gamma, total_time)
    t_min, t_max = fit["t_min"] or default_min, fit["t_max"] or default_max
    cutoff = v["green_kubo_cutoff"] or 20.0 / env.gamma
    _check_rate_windows(env, dt, n_steps, stride, t_min, t_max, cutoff)
    return dict(run, fit_t_min=t_min, fit_t_max=t_max,
                green_kubo_cutoff=cutoff)


def _fields(v: dict, subcommand: str) -> dict:
    """Resolve the grid: r_min defaults to xi, r_max to 5 delta."""
    material = MaterialParams(**v["material"])
    scales = derive_scales(material, c_light=v["c_light"])
    grid = dict(v["fields"], r_min=v["fields"]["r_min"] or scales.xi,
                r_max=v["fields"]["r_max"] or 5.0 * scales.delta)  # set: > 0
    if grid["r_min"] >= grid["r_max"]:
        raise ConfigError("'fields.r_min' must be below 'fields.r_max'")
    return dict(material=material, field_table=FieldTableSpec(**grid),
                c_light=v["c_light"])


def _design(v: dict, subcommand: str) -> dict:
    if v["device"]["n2"] <= v["device"]["n1"]:
        raise ConfigError("'device.n2' must exceed 'device.n1'")
    anyon = v["anyon"] and AnyonSpec(**v["anyon"])
    if anyon and anyon.l_prime <= anyon.rho_min:
        raise ConfigError("'anyon.l_prime' must exceed 'anyon.rho_min'")
    return dict(device=DeviceSpec(**v["device"]), anyon=anyon,
                c_light=v["c_light"], r_unit_m=v["r_unit_m"],
                design_g_coupling=v["design_g_coupling"])


_SUBCOMMANDS = {    # subcommand -> (config class, key table, resolver)
    # no simulate run reads burn_in; it stays only for bench/job.py
    "simulate": (SimulateConfig, dict(_ENSEMBLE, burn_in=(">=0", 0.0)),
                 _simulation),
    "rates": (RatesConfig, dict(_ENSEMBLE, fit=(_FIT, {}),
                                green_kubo_cutoff=(">0", None)), _simulation),
    "fields": (FieldsConfig, dict(_COMMON, material=(_MATERIAL, REQUIRED),
                                  fields=(_FIELDS, {}), c_light=(">0", 1.0)),
               _fields),
    "design": (DesignConfig, dict(
        _COMMON, device=(_DEVICE, REQUIRED), anyon=(_ANYON, None),
        c_light=(">0", 1.0), r_unit_m=(">0", 1.0),
        design_g_coupling=(">0", 1.0)), _design),
    "selftest": (RunConfig, _COMMON, lambda v, subcommand: {}),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse and validate a JSON config document for the given subcommand.

    Raises ConfigError naming the offending key on any problem.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; expected one "
                          f"of {SUBCOMMANDS}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON config: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    config_class, table, resolve = _SUBCOMMANDS[subcommand]
    for key, (rule, default) in table.items():
        if default is REQUIRED and not isinstance(rule, str) \
                and key not in doc:
            raise ConfigError(f"subcommand '{subcommand}' requires the "
                              f"'{key}' block")
    values = _read(doc, "", table)
    if values["master_seed"] >= 1 << 64:    # a Philox key word (rng.substream)
        raise ConfigError(f"'master_seed' must be below 2**64, got "
                          f"{values['master_seed']}")
    return config_class(subcommand=subcommand,
                        master_seed=values["master_seed"],
                        output_dir=values["output_dir"],
                        **resolve(values, subcommand))
