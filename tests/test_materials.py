import numpy as np
import pytest

from windrift import MaterialParams, classify_regime, derive_scales


def make_params(**overrides):
    base = dict(zeta=0.5, a_coeff=1.0, b_coeff=50.0, g_coupling=0.1,
                sigma=1.0, d_thickness=1.0)
    base.update(overrides)
    return MaterialParams(**base)


def test_reference_scales_by_direct_substitution():
    # psi0 = sqrt(a/2b), xi = sqrt(zeta/2a), delta = (2 g^2 zeta psi0^2)^-1/2
    scales = derive_scales(make_params())
    assert scales.psi0 == pytest.approx(0.1, rel=1e-12)
    assert scales.xi == pytest.approx(0.5, rel=1e-12)
    assert scales.delta == pytest.approx(100.0, rel=1e-12)
    assert scales.kappa == pytest.approx(200.0, rel=1e-12)


def test_flux_quantum_is_two_pi_over_g():
    scales = derive_scales(make_params(g_coupling=2.0))
    assert scales.flux_quantum == pytest.approx(np.pi, rel=1e-15)


def test_unit_coefficient_mass():
    # d=1, xi=0.5, e=1 (g=2 at c=1) -> mass = d/(e^2 xi^2) = 4
    scales = derive_scales(make_params(g_coupling=2.0))
    assert scales.e_charge == pytest.approx(1.0)
    assert scales.mass == pytest.approx(4.0, rel=1e-12)


def test_kappa_two_ways_agree():
    params = make_params()
    scales = derive_scales(params)
    analytic = np.sqrt(2.0 * params.b_coeff
                       / (params.g_coupling * params.zeta) ** 2)
    assert scales.delta / scales.xi == pytest.approx(analytic, rel=1e-12)


def test_mass_and_eta_scale_linearly_with_thickness():
    thin = derive_scales(make_params(d_thickness=1.0))
    thick = derive_scales(make_params(d_thickness=2.0))
    assert thick.mass == pytest.approx(2.0 * thin.mass, rel=1e-12)
    assert thick.eta == pytest.approx(2.0 * thin.eta, rel=1e-12)
    assert thick.gamma == pytest.approx(thin.gamma, rel=1e-12)


def test_gamma_tracks_conductivity():
    lo = derive_scales(make_params(sigma=1.0))
    hi = derive_scales(make_params(sigma=3.0))
    assert hi.gamma == pytest.approx(3.0 * lo.gamma, rel=1e-12)


def test_regime_report_type_ii():
    params = make_params()
    report = classify_regime(params, derive_scales(params))
    assert report.extreme_type_ii is True
    assert report.type_ii_ratio == pytest.approx(5e-5, rel=1e-12)


def test_regime_report_dirty_limit():
    params = make_params(l_tr=0.5 / 100.0)   # xi/100
    report = classify_regime(params, derive_scales(params))
    assert report.dirty_limit is True
    assert report.dirty_ratio == pytest.approx(0.01, rel=1e-12)


def test_regime_report_unknown_without_mean_free_path():
    params = make_params()
    report = classify_regime(params, derive_scales(params))
    assert report.dirty_limit == "unknown"
    assert report.dirty_ratio is None


def test_regime_margins_configurable():
    params = make_params(l_tr=0.1)           # xi/5: not below xi/DIRTY_MARGIN
    scales = derive_scales(params)
    assert classify_regime(params, scales).dirty_limit is False


@pytest.mark.parametrize("field", ["zeta", "a_coeff", "b_coeff",
                                   "g_coupling", "sigma", "d_thickness"])
def test_nonpositive_parameter_rejected_naming_field(field):
    with pytest.raises(ValueError, match=field):
        make_params(**{field: -1.0})


def test_nonpositive_l_tr_rejected():
    with pytest.raises(ValueError, match="l_tr"):
        make_params(l_tr=0.0)
