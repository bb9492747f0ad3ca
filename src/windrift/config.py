"""Config-file parsing and validation for the windrift CLI.

Configs are JSON documents. Parsing is strict: unknown keys are errors
(no silently ignored typos), every numeric value is range-checked against
the preconditions of the module that will consume it, and the diagnostic
always names the offending key. Parsing the same document twice yields
equal RunConfig objects; together with the master seed this makes runs
fully reproducible.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .design import DeviceSpec
from .ensemble import TorusGeometry
from .langevin import (ThermalEnv, _check_fit_start, _cutoff_lag,
                       _fit_lags)
from .materials import MaterialParams

SUBCOMMANDS = ("simulate", "rates", "fields", "design", "selftest")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration; message names the key."""


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
    """Grid and kinematics of the exported field table."""

    r_min: Optional[float]    # None -> xi
    r_max: Optional[float]    # None -> 5 delta
    n_points: int
    speed: float
    angle_deg: float


@dataclass(frozen=True)
class AnyonSpec:
    l_prime: float
    rho_min: float


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved run description."""

    subcommand: str
    env: Optional[ThermalEnv]
    geometry: Optional[TorusGeometry]
    population: Optional[PopulationSpec]
    material: Optional[MaterialParams]
    device: Optional[DeviceSpec]
    dt: float
    total_time: float
    burn_in: float
    replicas: int
    master_seed: int
    output_dir: str
    sample_stride: int
    fit_t_min: Optional[float]
    fit_t_max: Optional[float]
    gk_cutoff: Optional[float]
    c_light: float
    field_table: Optional[FieldTableSpec]
    anyon: Optional[AnyonSpec]
    r_unit_m: float
    design_g_coupling: float

    @property
    def f0(self) -> Optional[float]:
        return self.population.f0 if self.population else None


_TOP_KEYS = {
    "env", "geometry", "population", "material", "device", "fields", "fit",
    "anyon", "dt", "total_time", "burn_in", "replicas", "master_seed",
    "output_dir", "sample_stride", "green_kubo_cutoff", "c_light",
    "r_unit_m", "design_g_coupling",
}


def _check_keys(block: dict, allowed, where: str):
    unknown = set(block) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown key '{where}{name}'")


def _number(block: dict, key: str, where: str, *, default=None,
            positive=False, nonnegative=False, integer=False):
    if key not in block:
        if default is None:
            raise ConfigError(f"missing required key '{where}{key}'")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}{key}' must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:       # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"'{where}{key}' must be finite, got {value!r}")
    if integer and int(value) != value:
        raise ConfigError(f"'{where}{key}' must be an integer, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"'{where}{key}' must be strictly positive, "
                          f"got {value!r}")
    if nonnegative and value < 0:
        raise ConfigError(f"'{where}{key}' must be >= 0, got {value!r}")
    return int(value) if integer else float(value)


def _parse_env(block: dict) -> ThermalEnv:
    _check_keys(block, ("mass", "eta", "temperature"), "env.")
    return ThermalEnv(
        mass=_number(block, "mass", "env.", positive=True),
        eta=_number(block, "eta", "env.", positive=True),
        temperature=_number(block, "temperature", "env.", nonnegative=True),
    )


def _parse_geometry(block: dict) -> TorusGeometry:
    _check_keys(block, ("l_x", "l_y", "d"), "geometry.")
    geo = dict(
        l_x=_number(block, "l_x", "geometry.", positive=True),
        l_y=_number(block, "l_y", "geometry.", positive=True),
        d=_number(block, "d", "geometry.", default=1.0, positive=True),
    )
    if geo["l_x"] < geo["l_y"]:
        raise ConfigError("'geometry.l_x' must be >= 'geometry.l_y'")
    return TorusGeometry(**geo)


def _parse_population(block: dict) -> PopulationSpec:
    _check_keys(block, ("mode", "n_v", "n_a", "f0"), "population.")
    mode = block.get("mode", "fixed")
    if mode not in ("fixed", "boltzmann", "mean"):
        raise ConfigError(f"'population.mode' must be fixed|boltzmann|mean, "
                          f"got {mode!r}")
    if mode == "fixed":
        n_v = _number(block, "n_v", "population.", integer=True,
                      nonnegative=True)
        n_a = _number(block, "n_a", "population.", integer=True,
                      nonnegative=True)
        if n_v != n_a:
            raise ConfigError("'population.n_v' must equal 'population.n_a' "
                              "(neutral ensemble)")
        return PopulationSpec(mode=mode, n_v=n_v, n_a=n_a)
    f0 = _number(block, "f0", "population.", nonnegative=True)
    return PopulationSpec(mode=mode, f0=f0)


def _parse_material(block: dict) -> MaterialParams:
    keys = ("zeta", "a_coeff", "b_coeff", "g_coupling", "sigma",
            "d_thickness", "l_tr")
    _check_keys(block, keys, "material.")
    kwargs = {k: _number(block, k, "material.", positive=True)
              for k in keys[:-1]}
    if "l_tr" in block:
        kwargs["l_tr"] = _number(block, "l_tr", "material.", positive=True)
    return MaterialParams(**kwargs)


def _parse_device(block: dict) -> DeviceSpec:
    keys = ("r_eff", "n1", "n2", "l_x", "l_y", "epsilon_line", "temperature")
    _check_keys(block, keys, "device.")
    return DeviceSpec(
        r_eff=_number(block, "r_eff", "device.", positive=True),
        n1=_number(block, "n1", "device.", integer=True, nonnegative=True),
        n2=_number(block, "n2", "device.", integer=True, positive=True),
        l_x=_number(block, "l_x", "device.", positive=True),
        l_y=_number(block, "l_y", "device.", positive=True),
        epsilon_line=_number(block, "epsilon_line", "device.",
                             nonnegative=True),
        temperature=_number(block, "temperature", "device.", positive=True),
    )


def _parse_fields(block: dict) -> FieldTableSpec:
    _check_keys(block, ("r_min", "r_max", "n_points", "speed", "angle_deg"),
                "fields.")
    r_min = (_number(block, "r_min", "fields.", positive=True)
             if "r_min" in block else None)
    r_max = (_number(block, "r_max", "fields.", positive=True)
             if "r_max" in block else None)
    return FieldTableSpec(
        r_min=r_min,
        r_max=r_max,
        n_points=_number(block, "n_points", "fields.", default=200,
                         integer=True, positive=True),
        speed=_number(block, "speed", "fields.", default=1.0, positive=True),
        angle_deg=_number(block, "angle_deg", "fields.", default=45.0),
    )


def _check_rate_windows(env: ThermalEnv, dt: float, n_steps: int,
                        sample_stride: int, t_min: float, t_max: float,
                        cutoff: float):
    """Reject before the run what rate_from_msd/rate_from_green_kubo would
    refuse after it: their own rules, applied to the run's series shapes."""
    # alpha is sampled n_steps // stride times after t = 0
    for key, rule, args in (
            ("fit.t_min", _check_fit_start, (t_min, env.gamma)),
            ("fit.t_max", _fit_lags, (t_min, t_max, sample_stride * dt,
                                      n_steps // sample_stride + 1)),
            ("green_kubo_cutoff", _cutoff_lag, (cutoff, dt, n_steps))):
        try:
            rule(*args)
        except ValueError as err:
            raise ConfigError(f"'{key}': {err}") from err


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
    _check_keys(doc, _TOP_KEYS, "")

    needs_sim = subcommand in ("simulate", "rates")
    for key, needed in (("env", needs_sim), ("geometry", needs_sim),
                        ("population", needs_sim),
                        ("material", subcommand == "fields"),
                        ("device", subcommand == "design")):
        if needed and key not in doc:
            raise ConfigError(f"subcommand '{subcommand}' requires the "
                              f"'{key}' block")

    try:
        env = _parse_env(doc["env"]) if "env" in doc else None
        geometry = _parse_geometry(doc["geometry"]) if "geometry" in doc else None
        population = (_parse_population(doc["population"])
                      if "population" in doc else None)
        material = _parse_material(doc["material"]) if "material" in doc else None
        device = _parse_device(doc["device"]) if "device" in doc else None
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err

    dt = _number(doc, "dt", "", default=0.01 if not needs_sim else None,
                 positive=True)
    total_time = _number(doc, "total_time", "",
                         default=1.0 if not needs_sim else None,
                         positive=True)
    if needs_sim and total_time < dt:
        raise ConfigError("'total_time' must be at least one step 'dt'")
    n_steps = int(round(total_time / dt))
    sample_stride = _number(doc, "sample_stride", "", default=10,
                            integer=True, positive=True)
    if subcommand == "rates" and n_steps < sample_stride:
        raise ConfigError(f"'sample_stride' ({sample_stride}) exceeds the "
                          f"{n_steps} steps of 'total_time'; "
                          f"rates need at least one sample after t=0")

    fit_t_min = fit_t_max = None
    if "fit" in doc:
        _check_keys(doc["fit"], ("t_min", "t_max"), "fit.")
        if "t_min" in doc["fit"]:
            fit_t_min = _number(doc["fit"], "t_min", "fit.", positive=True)
        if "t_max" in doc["fit"]:
            fit_t_max = _number(doc["fit"], "t_max", "fit.", positive=True)
    if fit_t_min is None and env is not None:
        fit_t_min = 10.0 / env.gamma          # documented default
    if fit_t_max is None and needs_sim:
        fit_t_max = total_time / 2.0          # documented default
    gk_cutoff = (_number(doc, "green_kubo_cutoff", "", positive=True)
                 if "green_kubo_cutoff" in doc
                 else (20.0 / env.gamma if env is not None else None))
    if subcommand == "rates":
        _check_rate_windows(env, dt, n_steps, sample_stride, fit_t_min,
                            fit_t_max, gk_cutoff)

    master_seed = _number(doc, "master_seed", "", default=0, integer=True,
                          nonnegative=True)
    if master_seed >= 1 << 64:          # a Philox key word (rng.substream)
        raise ConfigError(f"'master_seed' must be below 2**64, got "
                          f"{master_seed}")

    anyon = None
    if "anyon" in doc:
        _check_keys(doc["anyon"], ("l_prime", "rho_min"), "anyon.")
        anyon = AnyonSpec(
            l_prime=_number(doc["anyon"], "l_prime", "anyon.", positive=True),
            rho_min=_number(doc["anyon"], "rho_min", "anyon.", positive=True))
        if anyon.l_prime <= anyon.rho_min:
            raise ConfigError("'anyon.l_prime' must exceed 'anyon.rho_min'")

    return RunConfig(
        subcommand=subcommand,
        env=env,
        geometry=geometry,
        population=population,
        material=material,
        device=device,
        dt=dt,
        total_time=total_time,
        burn_in=_number(doc, "burn_in", "", default=0.0, nonnegative=True),
        replicas=_number(doc, "replicas", "", default=20, integer=True,
                         positive=True),
        master_seed=master_seed,
        output_dir=str(doc.get("output_dir", "windrift_out")),
        sample_stride=sample_stride,
        fit_t_min=fit_t_min,
        fit_t_max=fit_t_max,
        gk_cutoff=gk_cutoff,
        c_light=_number(doc, "c_light", "", default=1.0, positive=True),
        field_table=(_parse_fields(doc["fields"]) if "fields" in doc
                     else (_parse_fields({}) if subcommand == "fields"
                           else None)),
        anyon=anyon,
        r_unit_m=_number(doc, "r_unit_m", "", default=1.0, positive=True),
        design_g_coupling=_number(doc, "design_g_coupling", "", default=1.0,
                                  positive=True),
    )
