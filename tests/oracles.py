"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: the Bessel oracle
integrates the defining representation with adaptive quadrature, the
Langevin oracles are closed-form solutions, the winding oracles are
direct random-walk constructions, and the exponential fit is scipy's
curve_fit. The exceptions are step_ensemble and recurrence_loop, the
step-by-step references that the engines must match bit for bit
(run_replica) or to rounding (the blocked recurrence), arma_longdouble,
the recurrence in long double, running_windings, the running sum that
the stride sums must match to rounding,
innovations_increments, the collective engine's increments one step at
a time from the closed-form covariances, lag_products_whole_row, the
one-transform lag products that short rows must still match bit for bit,
and msd_all_origin and msd_fit_rates, the MSD from the lag products and
its line fit, which the one-transform slope contraction must match to
rounding. traced_peak measures rather than predicts.
"""

import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.optimize import curve_fit
from scipy.signal import lfilter


def bessel_k_quadrature(order: int, z: float) -> float:
    """K_n(z) = int_0^inf exp(-z cosh t) cosh(n t) dt by adaptive quadrature."""
    def integrand(t):
        return np.exp(-z * np.cosh(t)) * np.cosh(order * t)

    # integrand decays like exp(-(z/2) e^t); cut where it underflows
    upper = np.log(2.0 * 800.0 / z) if z < 1.0 else 30.0
    value, _ = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-13,
                    limit=400)
    return value


def free_langevin_noise_free(pos0, vel0, gamma, t):
    """Closed-form noise-free trajectory: v = v0 e^-gt, x = x0 + v0 (1-e^-gt)/g.

    (1 - e^-gt) is evaluated via expm1 so the oracle itself stays accurate
    at small gt.
    """
    pos0 = np.asarray(pos0, dtype=float)
    vel0 = np.asarray(vel0, dtype=float)
    return (pos0 + vel0 * -np.expm1(-gamma * t) / gamma,
            vel0 * np.exp(-gamma * t))


def winding_variance(env, n_walkers, length, tau):
    """Exact Var[alpha(tau)] of n walkers started stationary: the closed form

    (2 n T / (eta l^2)) (tau - (1 - e^-gamma tau) / gamma)

    for the winding across a loop of circumference l.
    """
    gamma = env.gamma
    return (2.0 * n_walkers * env.temperature / (env.eta * length**2)
            * (tau + np.expm1(-gamma * tau) / gamma))


def recurrence_loop(u, decay):
    """v[0] = u[0], then v[i] = u[i] + decay * v[i-1] one row at a time."""
    v = np.array(u, dtype=float)
    for i in range(1, len(v)):
        v[i] = v[i] + decay * v[i - 1]
    return v


def arma_longdouble(u, decay, theta, head):
    """D_i = decay D_(i-1) + u_i + theta u_(i-1) / head_(i-1) down axis 0
    of u, with head_i = 1 beyond head, in long double: the MA sums
    directly, then scipy's lfilter for the recurrence."""
    e = np.asarray(u, dtype=np.longdouble)
    h = np.ones(len(e) - 1, dtype=np.longdouble)
    h[:len(head)] = head[:len(h)]
    w = e.copy()
    w[1:] += theta * e[:-1] / h[:, None]
    return lfilter(np.ones(1, dtype=np.longdouble),
                   np.array([1.0, -decay], dtype=np.longdouble), w, axis=0)


def running_windings(inc):
    """The (2, N + 1) windings of (2, N) increments at every step from
    t = 0: one running sum over every step."""
    full = np.zeros((2, inc.shape[1] + 1))
    np.cumsum(inc, axis=1, out=full[:, 1:])
    return full


def _initial_rate_guess(c, dt):
    """Decay-rate seed for curve_fit: first 1/e crossing, else one sample
    interval."""
    below = np.nonzero(c < c[0] / np.e)[0]
    if below.size and below[0] > 0:
        return 1.0 / (below[0] * dt)
    return 1.0 / dt


def curve_fit_exponential(tau, c, p0):
    """curve_fit of amp * exp(-rate * tau) to c from p0: (popt, perr)."""
    popt, pcov = curve_fit(lambda t, amp, rate: amp * np.exp(-rate * t),
                           tau, c, p0=p0, maxfev=10000)
    return popt, np.sqrt(np.diag(pcov))


def synthetic_brownian_alpha(rate, dt, n_steps, rng):
    """Winding series whose MSD grows as 2*rate*t exactly (white increments)."""
    increments = rng.normal(0.0, np.sqrt(2.0 * rate * dt), size=n_steps)
    return np.concatenate([[0.0], np.cumsum(increments)]), increments


def lag_products_loop(rows, max_lag):
    """Unbiased lag products sum_j x[j] x[j+k] / (n-k) by an explicit loop."""
    out = []
    for row in rows:
        n = len(row)
        out.append([sum(row[j] * row[j + k] for j in range(n - k)) / (n - k)
                    for k in range(max_lag + 1)])
    return np.array(out)


def lag_products_whole_row(rows, max_lag):
    """Unbiased lag products as the inverse FFT of each whole row's |F|^2,
    zero-padded to a power of two >= n + max_lag."""
    n = rows.shape[1]
    size = 1 << int(n + max_lag - 1).bit_length()
    padded = np.zeros(size)
    out = np.empty((len(rows), max_lag + 1))
    for i, row in enumerate(rows):
        padded[:n] = row
        f = np.fft.rfft(padded)
        out[i] = np.fft.irfft(f.real**2 + f.imag**2, size)[:max_lag + 1]
    out /= n - np.arange(max_lag + 1)
    return out


def five_smooth_at_least(m):
    """The smallest 2^a 3^b 5^c >= m, by trial division of m, m + 1, ..."""
    k = m
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes that tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def green_kubo_rates_longdouble(rows, dt, max_lag):
    """Per-row Green-Kubo rates dt (C(0)/2 + sum_{1<=k<=max_lag} C(k)) of
    C(k) = sum_j (x[j]/dt)(x[j+k]/dt) / (n-k), one dot product per lag,
    all in np.longdouble."""
    out = []
    for row in np.asarray(rows, dtype=np.longdouble):
        n = len(row)
        sums = [np.dot(row[:n - k], row[k:]) for k in range(max_lag + 1)]
        rate = sums[0] / (2 * n) + sum(sums[k] / (n - k)
                                       for k in range(1, max_lag + 1))
        out.append(rate / np.longdouble(dt))
    return np.array(out)


def msd_all_origin(rows, lags):
    """All-origin mean squared displacement at increasing lags >= 1,
    (R, n) -> (R, len(lags)), from the lag products. On centred rows
    (Kneller et al., Comput. Phys. Commun. 91, 191 (1995)), MSD(L) =
    (sum_{j<n-L} x_j^2 + sum_{j>=L} x_j^2) / (n-L) - 2 lagprod(L)."""
    from windrift.langevin import _lag_products
    x = rows - rows.mean(axis=1, keepdims=True)
    n = x.shape[1]
    squares = np.cumsum(x * x, axis=1)
    tail = squares[:, -1:] - squares[:, lags - 1]
    return ((squares[:, n - 1 - lags] + tail) / (n - lags)
            - 2.0 * _lag_products(x, lags[-1])[:, lags])


def slope_weights(tau):
    """a with half the least-squares slope of y against tau = a . y:
    a = t / (2 sum t^2), t the centred tau."""
    t = tau - np.mean(tau)
    return t / (2.0 * np.sum(t * t))


def msd_fit_rates(rows, spacing, lags):
    """Half the closed-form least-squares slope sum(t y) / sum(t^2) of each
    row's msd_all_origin against lag time, t and y centred: (R, n) -> (R,)."""
    t = lags * spacing
    t -= t.mean()
    return (np.array([np.sum(t * (msd - msd.mean()))
                      for msd in msd_all_origin(rows, lags)])
            / (2.0 * np.sum(t * t)))


def msd_loop(rows, lags):
    """All-origin MSD mean_j (x[j+L] - x[j])^2 by an explicit loop over lags."""
    return np.array([[np.mean((row[lag:] - row[:-lag]) ** 2) for lag in lags]
                     for row in rows])


def e_squared_numeric_angle_average(r, speed, scales, c_light, n_angles=512):
    """Angle-average |E|^2 by brute-force trapezoid over the circle."""
    from windrift.fields import moving_vortex_e
    phi = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    e = moving_vortex_e(pts, [speed, 0.0], scales, c_light)
    return float(np.mean(e[:, 0] ** 2 + e[:, 1] ** 2))


def _step_walkers(state, prop, rng):
    """One stepwise propagator step of every walker's velocity, in place;
    returns the step's (n, 2) pre-wrap displacements."""
    noise = rng.standard_normal((len(state.charges), 2, 2))
    n1 = noise[..., 0]
    n2 = noise[..., 1]
    dxy = prop.drift * state.vel + prop.c1 * n1 + prop.c2 * n2
    state.vel = prop.decay * state.vel + prop.sigma_v * n1
    return dxy


def step_ensemble(state, geometry, dt, env, rng):
    """Stepwise reference for run_replica: advance every walker by one dt.

    Applies the exact OUPropagator recurrence walker by walker and adds
    the pre-wrap displacements to the winding accumulators. Noise layout
    per step: standard normals of shape (n, 2, 2) indexed
    [walker, axis, role], role 0 driving the velocity and role 1 the extra
    position noise. The chunked engine must reproduce this bit for bit.
    """
    from windrift.langevin import OUPropagator
    if len(state.charges):
        dxy = _step_walkers(state, OUPropagator.build(env, dt), rng)
        state.pos = (state.pos + dxy) % [geometry.l_x, geometry.l_y]
        state.alpha_x = (state.alpha_x
                         + (state.charges * dxy[:, 1]).sum() / geometry.l_y)
        state.alpha_y = (state.alpha_y
                         + (state.charges * dxy[:, 0]).sum() / geometry.l_x)
    return state


def running_sum_positions(state, dt, env, rng, n_steps):
    """Unwrapped positions from state.pos on, after each of n_steps
    stepwise steps, (n_steps + 1, n, 2): one cumsum over the whole series
    of displacements headed by state.pos."""
    from windrift.langevin import OUPropagator
    prop = OUPropagator.build(env, dt)
    series = [state.pos] + [_step_walkers(state, prop, rng)
                            for _ in range(n_steps)]
    return np.cumsum(series, axis=0)


def increment_covariances(gamma, dt, lags):
    """Covariances c_k of one free walker's displacements over steps k
    apart, at unit diffusion T/eta = 1 and step h = dt, from the closed
    form: c_0 = 2 (h - (1 - e^-gamma h)/gamma), c_k = (1 - e^-gamma h)^2
    e^-gamma h (k - 1) / gamma for k >= 1. h - (1 - e^-gamma h)/gamma is
    (x + expm1(-x))/gamma at x = gamma h, summed as its Taylor series
    x^2/2 - x^3/6 + ... below x = 0.1, where the difference cancels."""
    x = gamma * dt
    if x < 0.1:
        excess, term, k = 0.0, -x, 1
        while abs(term) > 1e-20 * x * x:
            k += 1
            term *= -x / k
            excess += term
    else:
        excess = x + np.expm1(-x)
    lags = np.asarray(lags)
    return np.where(lags == 0, 2.0 * excess / gamma,
                    np.expm1(-x) ** 2 * np.exp(-x * (np.abs(lags) - 1))
                    / gamma)


def innovations_increments(z, gamma, dt):
    """Displacements at unit diffusion from standard normals z, one step
    at a time by the innovations recursion of their ARMA(1,1) law
    (Brockwell & Davis, Time Series: Theory and Methods, 2nd ed., 1991,
    section 5.3): D_1 = sqrt(c_0) z_1, then D^_(i+1) = phi D_i +
    (theta/r_(i-1)) (D_i - D^_i) and D_(i+1) = D^_(i+1) + sqrt(s2 r_i)
    z_(i+1), with r_i = 1 + theta^2 - theta^2/r_(i-1) from r_0 = c_0/s2.
    theta and s2 factor the lag-0 and lag-1 covariances of D_i - phi
    D_(i-1), read from increment_covariances."""
    phi = np.exp(-gamma * dt)
    c0, c1 = increment_covariances(gamma, dt, [0, 1])
    lag0 = c0 * (1.0 + phi * phi) - 2.0 * phi * c1
    lag1 = c1 - phi * c0
    rho = lag1 / lag0
    theta = (1.0 - np.sqrt(1.0 - 4.0 * rho * rho)) / (2.0 * rho)
    s2 = lag0 / (1.0 + theta * theta)
    out = np.empty(len(z))
    r, predicted = c0 / s2, 0.0
    for i, zi in enumerate(z):
        if i:
            predicted = (phi * out[i - 1]
                         + theta / r * (out[i - 1] - predicted))
            r = 1.0 + theta * theta - theta * theta / r
        out[i] = predicted + np.sqrt(s2 * r) * zi
    return out


def faraday_residual(point, v, scales, c_light, h):
    """|(-v . grad B) + c (curl E)_z| with the curl by central differences.

    The convected time derivative of B must match Faraday's law for the
    constructed E field.
    """
    from windrift.fields import b_radial_derivatives, moving_vortex_e
    point = np.asarray(point, dtype=float)
    v = np.asarray(v, dtype=float)
    x, y = point
    rad = np.hypot(x, y)
    _, b1, _ = b_radial_derivatives(rad, scales)
    dbdt = -(v[0] * b1 * x / rad + v[1] * b1 * y / rad)

    ey_xp = moving_vortex_e(point + [h, 0.0], v, scales, c_light)[1]
    ey_xm = moving_vortex_e(point - [h, 0.0], v, scales, c_light)[1]
    ex_yp = moving_vortex_e(point + [0.0, h], v, scales, c_light)[0]
    ex_ym = moving_vortex_e(point - [0.0, h], v, scales, c_light)[0]
    curl_z = (ey_xp - ey_xm) / (2.0 * h) - (ex_yp - ex_ym) / (2.0 * h)
    return float(abs(dbdt + c_light * curl_z))
