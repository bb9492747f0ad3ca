import numpy as np
import pytest

from windrift import (MaterialParams, derive_scales, e_divergence_residual,
                      e_squared_angle_average, field_energy, field_table,
                      helmholtz_residual, moving_vortex_e, static_b)
from windrift.fields import b_radial_derivatives

from oracles import e_squared_numeric_angle_average, faraday_residual

C = 1.0


def unit_scales():
    """delta = 1, xi = 0.01, g = 1 material (kappa = 100)."""
    return derive_scales(MaterialParams(zeta=1.0, a_coeff=5000.0,
                                        b_coeff=5000.0, g_coupling=1.0,
                                        sigma=1.0, d_thickness=1.0))


# frozen spot value: K0(1) from the quadrature oracle
K0_AT_1 = 0.4210244382407083


class TestStaticB:
    def test_reference_value(self):
        scales = unit_scales()
        assert static_b(1.0, scales) == pytest.approx(K0_AT_1, rel=1e-12)

    def test_exponential_screening(self):
        scales = unit_scales()
        assert static_b(10.0, scales) < 1e-4 * static_b(1.0, scales)

    def test_profile_depends_on_scaled_radius_only(self):
        a = unit_scales()
        b = derive_scales(MaterialParams(zeta=1.0, a_coeff=5000.0,
                                         b_coeff=5000.0, g_coupling=2.0,
                                         sigma=1.0, d_thickness=1.0))
        u = 0.7
        lhs = static_b(u * a.delta, a) * a.g_coupling * a.delta**2
        rhs = static_b(u * b.delta, b) * b.g_coupling * b.delta**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_core(self):
        with pytest.raises(ValueError):
            static_b(0.0, unit_scales())


class TestMovingVortexE:
    def test_zero_velocity_gives_zero_field(self):
        e = moving_vortex_e([0.3, 0.4], [0.0, 0.0], unit_scales(), C)
        assert np.all(e == 0.0)

    def test_rotational_covariance(self):
        scales = unit_scales()
        phi = 0.83
        rot = np.array([[np.cos(phi), -np.sin(phi)],
                        [np.sin(phi), np.cos(phi)]])
        r = np.array([0.05, 0.02])
        v = np.array([0.3, -0.1])
        e_then_rotate = rot @ moving_vortex_e(r, v, scales, C)
        rotate_then_e = moving_vortex_e(rot @ r, rot @ v, scales, C)
        assert np.allclose(e_then_rotate, rotate_then_e, rtol=1e-12)

    def test_far_field_inverse_quartic(self):
        # log-log slope of E^2 between xi and delta/10 (kappa = 100)
        scales = unit_scales()
        r = np.geomspace(0.01, 0.1, 25)
        pts = np.stack([r / np.sqrt(2), r / np.sqrt(2)], axis=-1)
        e = moving_vortex_e(pts, [0.2, 0.0], scales, C)
        e2 = e[:, 0]**2 + e[:, 1]**2
        slope = np.polyfit(np.log(r), np.log(e2), 1)[0]
        assert -4.1 <= slope <= -3.9

    def test_amplitude_matches_small_r_asymptote(self):
        # |E|^2 -> v^2/(g^2 c^2 r^4) deep inside the screening length
        scales = unit_scales()
        v = 0.2
        r = 0.01
        e = moving_vortex_e([r, 0.0], [v, 0.0], scales, C)
        target = v**2 / (scales.g_coupling**2 * C**2 * r**4)
        assert e[0]**2 + e[1]**2 == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("delta_over_r", [1e2, 1e3, 1e4])
    def test_45_degree_ray_without_cancellation(self, delta_over_r):
        # with v along x on the 45-degree ray, B'' + B'/r = B/delta^2 makes
        # the gradient term -v B / (2c), so E_y = v B / (2c) exactly; at
        # r << delta it is what remains of terms ~(delta/r)^2 larger
        scales = derive_scales(MaterialParams(        # kappa 200, delta 100
            zeta=0.5, a_coeff=1.0, b_coeff=50.0, g_coupling=0.1, sigma=1.0,
            d_thickness=1.0))
        p = scales.delta / delta_over_r / np.sqrt(2.0)
        v = 0.3
        e_y = moving_vortex_e([p, p], [v, 0.0], scales, C)[1]
        b = static_b(np.hypot(p, p), scales)
        assert e_y == pytest.approx(v * b / (2.0 * C), rel=1e-13, abs=0.0)

    def test_rejects_core(self):
        with pytest.raises(ValueError):
            moving_vortex_e([0.0, 0.0], [1.0, 0.0], unit_scales(), C)


class TestResiduals:
    def test_divergence_free_over_working_range(self):
        scales = unit_scales()
        v = [0.3, 0.2]
        for r in np.geomspace(2 * scales.xi, 5 * scales.delta, 12):
            point = np.array([r, r]) / np.sqrt(2)
            e = moving_vortex_e(point, v, scales, C)
            e_mag = np.hypot(e[0], e[1])
            resid = e_divergence_residual(point, v, scales, C, h=r / 1000.0)
            assert resid <= 1e-4 * e_mag / r

    def test_faraday_consistency(self):
        # same tolerance structure as the divergence check: 1e-4 c |E| / r
        scales = unit_scales()
        v = [0.1, -0.25]
        for r in np.geomspace(2 * scales.xi, 5 * scales.delta, 8):
            point = np.array([r * 0.6, r * 0.8])
            resid = faraday_residual(point, v, scales, C, h=r / 1000.0)
            e = moving_vortex_e(point, v, scales, C)
            e_mag = np.hypot(e[0], e[1])
            assert resid <= 1e-4 * C * e_mag / r

    def test_helmholtz_residual_at_delta(self):
        scales = unit_scales()
        r = scales.delta
        resid = helmholtz_residual(r, scales, h=r / 1000.0)
        assert resid < 1e-4 * abs(static_b(r, scales))

    def test_helmholtz_contract_over_range(self):
        scales = unit_scales()
        for r in np.geomspace(2 * scales.xi, 5 * scales.delta, 12):
            resid = helmholtz_residual(r, scales, h=r / 2000.0)
            assert resid <= 1e-4 * abs(static_b(r, scales))

    def test_helmholtz_analytic_identity(self):
        # exact derivatives satisfy delta^2 (B'' + B'/r) = B to round-off
        scales = unit_scales()
        for r in (0.02, 0.5, 2.0):
            b, b1, b2 = b_radial_derivatives(r, scales)
            resid = abs(scales.delta**2 * (b2 + b1 / r) - b)
            assert resid <= 1e-12 * abs(static_b(r, scales))

    def test_helmholtz_second_order_stencil(self):
        scales = unit_scales()
        r = scales.delta
        ratio = (helmholtz_residual(r, scales, h=r / 500.0)
                 / helmholtz_residual(r, scales, h=r / 1000.0))
        assert 3.5 <= ratio <= 4.5

    def test_helmholtz_rejects_tight_stencil(self):
        scales = unit_scales()
        with pytest.raises(ValueError):
            helmholtz_residual(0.02, scales, h=0.011)


class TestEnergyIntegral:
    def test_angle_average_against_brute_force(self):
        scales = unit_scales()
        for r in (0.02, 0.1, 0.9):
            closed = e_squared_angle_average(r, 0.3, scales, C)
            numeric = e_squared_numeric_angle_average(r, 0.3, scales, C)
            assert closed == pytest.approx(numeric, rel=1e-10)

    def test_core_cutoff_dominates(self):
        # halving r_min roughly quadruples the energy (1/r^4 integrand)
        scales = unit_scales()
        full = field_energy(0.01, 1.0, 0.3, scales, C, d=1.0)
        half = field_energy(0.005, 1.0, 0.3, scales, C, d=1.0)
        assert half.energy / full.energy == pytest.approx(4.0, rel=0.05)

    def test_velocity_scaling(self):
        scales = unit_scales()
        slow = field_energy(0.01, 1.0, 0.2, scales, C, d=1.0)
        fast = field_energy(0.01, 1.0, 0.4, scales, C, d=1.0)
        assert fast.energy == pytest.approx(4.0 * slow.energy, rel=1e-9)
        assert fast.mass_estimate == pytest.approx(slow.mass_estimate,
                                                   rel=1e-9)

    def test_mass_estimate_coefficient(self):
        # the quadrature fixes the coefficient left open by the ~ relation:
        # mass = d/(4 g^2 c^2 xi^2) (1 + O(xi^2/delta^2)) = (1/16) d/(e^2 xi^2)
        scales = unit_scales()
        out = field_energy(scales.xi, scales.delta, 0.3, scales, C, d=1.0)
        order_of_mag = 1.0 / (scales.e_charge**2 * scales.xi**2)
        assert out.mass_estimate / order_of_mag == pytest.approx(1.0 / 16.0,
                                                                 rel=0.01)
        assert order_of_mag / 20.0 < out.mass_estimate < 20.0 * order_of_mag

    def test_mass_proportional_to_thickness(self):
        scales = unit_scales()
        one = field_energy(0.01, 1.0, 0.3, scales, C, d=1.0)
        two = field_energy(0.01, 1.0, 0.3, scales, C, d=2.0)
        assert two.mass_estimate == pytest.approx(2.0 * one.mass_estimate,
                                                  rel=1e-12)

    def test_viscosity_matches_dissipation_form(self):
        # eta_est = sigma * int E^2 d^3x / v^2 = 8 pi sigma energy / v^2
        scales = unit_scales()
        out = field_energy(0.01, 1.0, 0.3, scales, C, d=1.0)
        assert out.viscosity_estimate == pytest.approx(
            8.0 * np.pi * scales.sigma * out.energy / 0.3**2, rel=1e-12)

    def test_additivity(self):
        scales = unit_scales()
        ab = field_energy(0.01, 0.1, 0.3, scales, C, d=1.0).energy
        bc = field_energy(0.1, 1.0, 0.3, scales, C, d=1.0).energy
        ac = field_energy(0.01, 1.0, 0.3, scales, C, d=1.0).energy
        assert ab + bc == pytest.approx(ac, rel=1e-8)

    def test_monotone_in_inner_cutoff(self):
        scales = unit_scales()
        inner = field_energy(0.01, 1.0, 0.3, scales, C, d=1.0).energy
        outer = field_energy(0.02, 1.0, 0.3, scales, C, d=1.0).energy
        assert inner > outer

    def test_rejects_bad_cutoffs(self):
        scales = unit_scales()
        with pytest.raises(ValueError):
            field_energy(0.5, 0.1, 0.3, scales, C, d=1.0)
        with pytest.raises(ValueError):
            field_energy(0.0, 0.1, 0.3, scales, C, d=1.0)


def test_field_table_schema():
    scales = unit_scales()
    table = field_table(scales, np.geomspace(0.01, 1.0, 7), 0.3, C)
    assert table.shape == (7, 5)
    r, b, ex, ey, e2 = table.T
    assert np.all(np.diff(r) > 0)
    assert np.allclose(e2, ex**2 + ey**2, rtol=1e-12)
    assert np.allclose(b, static_b(r, scales), rtol=1e-12)
