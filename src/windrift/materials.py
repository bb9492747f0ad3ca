"""Ginzburg-Landau material parameters and the derived scales.

Everything downstream (field profiles, vortex mass/viscosity, the rate
calculator) consumes the quantities computed here. Order-of-magnitude
relations are implemented with coefficient exactly 1 and labelled as
estimates; units are any self-consistent set with hbar = 1.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np


@dataclass(frozen=True)
class MaterialParams:
    """Ginzburg-Landau coefficients of the superconducting film.

    zeta        gradient coefficient (energy * length^2)
    a_coeff     quadratic coefficient (energy)
    b_coeff     quartic coefficient (energy * length^3)
    g_coupling  gauge coupling g = 2e/c
    sigma       normal-state conductivity
    d_thickness film thickness (length)
    l_tr        electron mean-free path (length), optional diagnostic
    """

    zeta: float
    a_coeff: float
    b_coeff: float
    g_coupling: float
    sigma: float
    d_thickness: float
    l_tr: Optional[float] = None

    def __post_init__(self):
        for name in ("zeta", "a_coeff", "b_coeff", "g_coupling", "sigma",
                     "d_thickness"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"MaterialParams.{name} must be strictly "
                                 f"positive, got {value!r}")
        if self.l_tr is not None and not (np.isfinite(self.l_tr)
                                          and self.l_tr > 0.0):
            raise ValueError(f"MaterialParams.l_tr must be strictly positive "
                             f"when given, got {self.l_tr!r}")


@dataclass(frozen=True)
class DerivedScales:
    """Length, field, and transport scales derived from MaterialParams.

    delta, xi, psi0 are exact consequences of the GL coefficients; mass,
    eta, h_c2 carry coefficient-1 estimate conventions. The trailing block
    (g_coupling .. c_light) echoes the inputs the field formulas need.
    """

    delta: float            # magnetic penetration depth
    xi: float               # coherence length
    psi0: float             # condensate amplitude
    kappa: float            # delta/xi
    flux_quantum: float     # 2*pi/g
    h_c2: float             # flux_quantum/xi^2 (estimate)
    mass: float             # vortex mass d/(e^2 xi^2) (estimate)
    eta: float              # viscosity d*sigma*h_c2/(e*c) (estimate)
    gamma: float            # eta/mass
    g_coupling: float
    sigma: float
    d_thickness: float
    e_charge: float         # g*c/2
    c_light: float
    estimate_fields: tuple = field(
        default=("h_c2", "mass", "eta", "gamma"), repr=False)


def derive_scales(params: MaterialParams, c_light: float = 1.0) -> DerivedScales:
    """Compute every derived scale from the GL parameters.

    Parameters
    ----------
    params : MaterialParams
    c_light : float
        Speed of light in the chosen unit system (default 1). The Cooper
        pair charge follows from the coupling via e = g*c/2.

    Returns
    -------
    DerivedScales
    """
    if not (np.isfinite(c_light) and c_light > 0.0):
        raise ValueError(f"c_light must be strictly positive, got {c_light!r}")
    psi0 = np.sqrt(params.a_coeff / (2.0 * params.b_coeff))
    xi = np.sqrt(params.zeta / (2.0 * params.a_coeff))
    delta = 1.0 / np.sqrt(2.0 * params.g_coupling**2 * params.zeta * psi0**2)
    e_charge = params.g_coupling * c_light / 2.0
    flux_quantum = 2.0 * np.pi / params.g_coupling
    h_c2 = flux_quantum / xi**2
    mass = params.d_thickness / (e_charge**2 * xi**2)
    eta = params.d_thickness * params.sigma * h_c2 / (e_charge * c_light)
    return DerivedScales(
        delta=delta,
        xi=xi,
        psi0=psi0,
        kappa=delta / xi,
        flux_quantum=flux_quantum,
        h_c2=h_c2,
        mass=mass,
        eta=eta,
        gamma=eta / mass,
        g_coupling=params.g_coupling,
        sigma=params.sigma,
        d_thickness=params.d_thickness,
        e_charge=e_charge,
        c_light=c_light,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Verdicts on the validity regime of the model.

    dirty_limit is True/False when l_tr was supplied, the string "unknown"
    otherwise. Ratios are reported raw so callers can apply their own
    margins.
    """

    extreme_type_ii: bool
    dirty_limit: Union[bool, str]
    type_ii_ratio: float            # g^2 zeta^2 / b
    dirty_ratio: Optional[float]    # l_tr / xi, None when l_tr missing


TYPE_II_MARGIN = 100.0     # extreme type II: g^2 zeta^2 <= b / margin
DIRTY_MARGIN = 10.0        # dirty limit: l_tr <= xi / margin


def classify_regime(params: MaterialParams, scales: DerivedScales
                    ) -> RegimeReport:
    """Check the extreme type-II (kappa >= ~10) and dirty-limit conditions."""
    type_ii_ratio = (params.g_coupling * params.zeta)**2 / params.b_coeff
    extreme = bool(type_ii_ratio <= 1.0 / TYPE_II_MARGIN)
    if params.l_tr is None:
        dirty: Union[bool, str] = "unknown"
        dirty_ratio = None
    else:
        dirty_ratio = params.l_tr / scales.xi
        dirty = bool(dirty_ratio <= 1.0 / DIRTY_MARGIN)
    return RegimeReport(
        extreme_type_ii=extreme,
        dirty_limit=dirty,
        type_ii_ratio=type_ii_ratio,
        dirty_ratio=dirty_ratio,
    )
