import numpy as np
import pytest

from windrift.bessel import UNDERFLOW_CUTOFF, bessel_k

from oracles import bessel_k_quadrature

# frozen from the quadrature oracle (see oracles.bessel_k_quadrature)
K0_AT_1 = 0.4210244382407083
K1_AT_1 = 0.6019072301972347


def test_spot_values_match_oracle_freeze():
    assert bessel_k(0, 1.0) == pytest.approx(K0_AT_1, rel=1e-12)
    assert bessel_k(1, 1.0) == pytest.approx(K1_AT_1, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1])
def test_relative_error_against_quadrature_oracle(order):
    zs = np.geomspace(1e-4, 30.0, 120)
    values = bessel_k(order, zs)
    for z, v in zip(zs, values):
        ref = bessel_k_quadrature(order, float(z))
        assert abs(v - ref) <= 1e-9 * abs(ref), f"z={z}: {v} vs {ref}"


def test_k0_logarithmic_at_small_argument():
    # K0(z) + ln z stays bounded as z -> 0+ (limit is ln 2 - gamma_E)
    value = bessel_k(0, 1e-6) + np.log(1e-6)
    assert abs(value) < 1.0
    assert value == pytest.approx(0.11593151565841242, abs=1e-8)


def test_crossover_continuity():
    # scipy's K0 switches expansions at z=2; both sides meet tightly
    below = bessel_k(0, 2.0 - 1e-12)
    above = bessel_k(0, 2.0 + 1e-12)
    assert below == pytest.approx(above, rel=1e-10)


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1, -3.0)
    with pytest.raises(ValueError):
        bessel_k(2, 1.0)


def test_underflow_returns_zero_with_warning():
    with pytest.warns(RuntimeWarning):
        value = bessel_k(0, UNDERFLOW_CUTOFF + 1.0)
    assert value == 0.0


def test_array_input_roundtrip():
    zs = np.array([0.5, 1.0, 5.0, 25.0])
    out = bessel_k(1, zs)
    assert out.shape == zs.shape
    assert out[0] > out[1] > out[2] > out[3] > 0.0


def test_array_straddling_underflow_cutoff():
    zs = np.array([1.0, UNDERFLOW_CUTOFF - 1.0, UNDERFLOW_CUTOFF,
                   UNDERFLOW_CUTOFF + 1.0, 2.0 * UNDERFLOW_CUTOFF])
    for order in (0, 1):
        with pytest.warns(RuntimeWarning) as record:
            out = bessel_k(order, zs)
        assert len(record) == 1
        assert isinstance(out, np.ndarray) and out.shape == zs.shape
        above = zs > UNDERFLOW_CUTOFF
        assert np.all(out[above] == 0.0)
        assert np.all(out[~above] > 0.0)


def test_zero_dimensional_input_returns_float():
    value = bessel_k(1, np.float64(1.0))
    assert type(value) is float
    assert type(bessel_k(0, np.array(1.0))) is float
    assert value == pytest.approx(K1_AT_1, rel=1e-12)
