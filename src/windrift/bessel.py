"""Modified Bessel functions K0 and K1 (Macdonald functions).

A checked front end to scipy.special.k0/k1. Both underflow past z ~ 700;
there the result is exactly 0.0 with a RuntimeWarning, not a subnormal
number that has lost its digits.

Importing windrift loads the scipy package alone (about 15 ms, which
makes scipy.__version__ readable); scipy.special (about 0.3 s) is
imported by the first bessel_k call, so the simulation and estimator
paths never load it. The plain import in the function works on every
scipy version, whether or not it loads submodules on attribute access.
"""

import warnings

import numpy as np
import scipy

# K(z) ~ sqrt(pi/2z) e^-z; below ~1e-304 doubles go subnormal and lose digits
UNDERFLOW_CUTOFF = 700.0


def bessel_k(order, z):
    """K_order(z) for order 0 or 1 and z > 0 (float or array_like).

    Returns a float for scalar input and an array otherwise. Arguments
    beyond UNDERFLOW_CUTOFF return exactly 0.0 and emit a RuntimeWarning.
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0):
        raise ValueError("bessel_k requires z > 0")

    import scipy.special
    kernel = scipy.special.k0 if order == 0 else scipy.special.k1
    out = np.atleast_1d(kernel(z_arr))
    under = np.atleast_1d(z_arr > UNDERFLOW_CUTOFF)
    if np.any(under):
        warnings.warn(
            f"bessel_k underflow: K_{order}(z) ~ e^-z is below double range "
            f"for z > {UNDERFLOW_CUTOFF}; returning 0.0",
            RuntimeWarning,
            stacklevel=2,
        )
        out[under] = 0.0
    return float(out[0]) if z_arr.ndim == 0 else out
