"""Vortex field profiles outside the core and the energy-integral estimates.

A static vortex carries B_z(r) = K0(r/delta)/(g delta^2). A vortex moving
with velocity v drags an electric field with two pieces: a convective term
-(v x e_z) B / c and a gradient term delta^2 (v_y d_x - v_x d_y) grad(B) / c
fixed by div E = 0. All gradients here are analytic (K0' = -K1 identities);
finite differences appear only in the residual checks, which exist to
validate the analytic forms.

Radial cutoffs: the profiles hold outside the core, so nothing is ever
evaluated at r < xi by the energy integrals, and r = 0 is rejected.
"""

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_k
from .materials import DerivedScales


def static_b(r, scales: DerivedScales):
    """Magnetic field B_z(r) of a static vortex at the origin, r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("static_b requires r > 0 (core not modeled)")
    g, delta = scales.g_coupling, scales.delta
    return bessel_k(0, r / delta) / (g * delta**2)


def b_radial_derivatives(r, scales: DerivedScales):
    """(B, B', B'') of the static profile, all analytic.

    Uses K0'(z) = -K1(z) and K1'(z) = -K0(z) - K1(z)/z.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("profile derivatives require r > 0")
    g, delta = scales.g_coupling, scales.delta
    u = r / delta
    k0 = bessel_k(0, u)
    k1 = bessel_k(1, u)
    b = k0 / (g * delta**2)
    b1 = -k1 / (g * delta**3)
    b2 = (k0 + k1 / u) / (g * delta**4)
    return b, b1, b2


def moving_vortex_e(r, v, scales: DerivedScales, c_light: float):
    """Electric field of a vortex moving through the origin with velocity v.

    Parameters
    ----------
    r : array_like, shape (..., 2)
        Evaluation point(s) relative to the vortex center; |r| > 0.
    v : array_like, shape (2,)
        Vortex velocity in the film plane.
    c_light : float
        Speed of light.

    Returns
    -------
    ndarray, shape (..., 2)
        (E_x, E_y). Linear in v; divergence-free by construction.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    x, y = r[..., 0], r[..., 1]
    rad = np.hypot(x, y)
    if np.any(rad <= 0.0):
        raise ValueError("moving_vortex_e requires |r| > 0 (core not modeled)")
    b, b1, _ = b_radial_derivatives(rad, scales)
    delta = scales.delta

    # Hessian of B, with B'' = B/delta^2 - B'/r so that no ~1/r^2 terms cancel
    r2, b_d, b1_r = rad**2, b / delta**2, b1 / rad
    cos_2phi = (x - y) * (x + y) / r2          # x - y is exact near x = y
    hxx = b_d * x * x / r2 - b1_r * cos_2phi
    hyy = b_d * y * y / r2 + b1_r * cos_2phi
    hxy = (b_d - 2.0 * b1_r) * x * y / r2

    vx, vy = v[0], v[1]
    ex = -vy * b / c_light + (delta**2 / c_light) * (vy * hxx - vx * hxy)
    ey = vx * b / c_light + (delta**2 / c_light) * (vy * hxy - vx * hyy)
    return np.stack([ex, ey], axis=-1)


def e_squared_angle_average(r, speed, scales: DerivedScales, c_light: float):
    """Angular mean of |E|^2 at radius r for vortex speed |v| = speed.

    Closed form: (delta^4 v^2 / 2 c^2) [B''^2 + (B'/r)^2]. The convective
    term's B^2 cancels exactly against the cross term in the angular mean
    once delta^2 nabla^2 B = B is used.
    """
    _, b1, b2 = b_radial_derivatives(r, scales)
    r = np.asarray(r, dtype=float)
    pref = scales.delta**4 * speed**2 / (2.0 * c_light**2)
    return pref * (b2**2 + (b1 / r)**2)


@dataclass(frozen=True)
class EnergyIntegral:
    """Electric-field energy in a radial shell and the derived estimates."""

    r_min: float
    r_max: float
    energy: float             # (d/8pi) * int |E|^2 dx dy over the shell
    mass_estimate: float      # 2 * energy / v^2
    viscosity_estimate: float  # sigma * int |E|^2 d^3x / v^2


def field_energy(r_min: float, r_max: float, v: float,
                 scales: DerivedScales, c_light: float,
                 d: float) -> EnergyIntegral:
    """Shell energy of the moving-vortex electric field, by adaptive quadrature.

    Parameters
    ----------
    r_min, r_max : float
        Radial cutoffs, 0 < r_min < r_max. Callers use r_min ~ xi to cut
        the 1/r^4 core divergence.
    v : float
        Vortex speed, > 0.
    d : float
        Film thickness (volume element is d * 2 pi r dr).
    """
    if not (0.0 < r_min < r_max):
        raise ValueError(f"require 0 < r_min < r_max, got ({r_min}, {r_max})")
    if v <= 0.0:
        raise ValueError("vortex speed must be positive")

    def integrand_log(s):
        r = np.exp(s)
        return (d / 4.0) * r**2 * e_squared_angle_average(
            r, v, scales, c_light)

    import scipy.integrate   # on first use, as bessel_k loads scipy.special
    # log substitution flattens the 1/r^3 integrand near the lower cutoff
    energy, _ = scipy.integrate.quad(integrand_log, np.log(r_min),
                                     np.log(r_max), epsabs=0.0,
                                     epsrel=1e-10, limit=400)
    return EnergyIntegral(
        r_min=r_min,
        r_max=r_max,
        energy=energy,
        mass_estimate=2.0 * energy / v**2,
        viscosity_estimate=8.0 * np.pi * scales.sigma * energy / v**2,
    )


def helmholtz_residual(r: float, scales: DerivedScales, h: float) -> float:
    """|delta^2 nabla^2 B - B| for the static profile.

    The radial Laplacian B'' + B'/r is built from 2nd-order central
    differences with step h (requires r > 2h); the residual is then pure
    discretization error, O(h^2).
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if r <= 2.0 * h:
        raise ValueError(f"r = {r} too small for the stencil (need r > 2h)")
    bp = static_b(r + h, scales)
    b0 = static_b(r, scales)
    bm = static_b(r - h, scales)
    lap = (bp - 2.0 * b0 + bm) / h**2 + (bp - bm) / (2.0 * h * r)
    return float(abs(scales.delta**2 * lap - b0))


def e_divergence_residual(point, v, scales: DerivedScales, c_light: float,
                          h: float) -> float:
    """|d_x E_x + d_y E_y| by central differences (E is analytically solenoidal)."""
    point = np.asarray(point, dtype=float)
    ex_p = moving_vortex_e(point + [h, 0.0], v, scales, c_light)[0]
    ex_m = moving_vortex_e(point - [h, 0.0], v, scales, c_light)[0]
    ey_p = moving_vortex_e(point + [0.0, h], v, scales, c_light)[1]
    ey_m = moving_vortex_e(point - [0.0, h], v, scales, c_light)[1]
    return float(abs((ex_p - ex_m) / (2.0 * h) + (ey_p - ey_m) / (2.0 * h)))


def field_table(scales: DerivedScales, r_values, speed: float,
                c_light: float, angle: float = np.pi / 4):
    """Tabulate the profiles for export: columns r, B, E_x, E_y, E^2.

    Points sit on the ray at `angle` from the +x axis; the vortex moves
    along +x with the given speed.
    """
    r_values = np.asarray(r_values, dtype=float)
    points = np.stack([r_values * np.cos(angle),
                       r_values * np.sin(angle)], axis=-1)
    e = moving_vortex_e(points, [speed, 0.0], scales, c_light)
    b = static_b(r_values, scales)
    e2 = e[..., 0]**2 + e[..., 1]**2
    return np.column_stack([r_values, b, e[..., 0], e[..., 1], e2])
