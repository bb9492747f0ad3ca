#!/usr/bin/env python3
"""The core experiment: how fast does vortex diffusion scramble the winding?

An ensemble of vortices and antivortices random-walks on the torus; every
crossing of the short loop nudges the winding accumulator alpha_x. The
accumulator diffuses, and its diffusion rate Gamma_x is the decay rate of
the stored topological state. Three estimates must agree:

  MSD         slope of <[alpha_x(t) - alpha_x(0)]^2> / 2
  Green-Kubo  integrated autocorrelation of d(alpha_x)/dt / 2
  analytic    T (N_v + N_a) / (eta l_y^2)

The punchline is the absence of volume enhancement: doubling the torus at
fixed temperature quadruples the vortex count yet leaves Gamma unchanged.

Only the windings are needed, so the ensembles run on the collective
engine run_winding, which propagates the charge-weighted sums exactly.
"""

import numpy as np

from windrift import (ThermalEnv, TorusGeometry, analytic_rate,
                      collective_normals, even_mean_population,
                      rate_from_green_kubo, rate_from_msd, run_winding,
                      substream)

env = ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)
# each estimate prints its standard error; at 192 replicas the aspect
# ratio's is about 0.1
dt, total_time, replicas = 0.1, 3000.0, 192
n_steps = int(total_time / dt)
window, cutoff = (5.0, 80.0), 10.0


def measure(geometry, n_v, n_a, seed):
    rows = [run_winding(env, geometry, n_v, n_a, dt, n_steps,
                        normals=collective_normals(substream(seed, r),
                                                   n_v + n_a, n_steps),
                        sample_stride=5)
            for r in range(replicas)]
    times = rows[0].times
    alphas = np.stack([r.alpha[0] for r in rows])
    incs = np.stack([r.inc[0] for r in rows])
    msd = rate_from_msd(times, alphas, window, gamma=env.gamma)
    gk = rate_from_green_kubo(incs, dt, cutoff)
    return msd, gk


print("Ensemble: 100 vortices + 100 antivortices on a 10 x 10 torus")
geo = TorusGeometry(l_x=10.0, l_y=10.0)
msd, gk = measure(geo, 100, 100, seed=1)
analytic = analytic_rate(env, geo, 100, 100)
print(f"  Gamma (MSD)        = {msd.gamma_rate:.4f} +- {msd.stderr:.4f}")
print(f"  Gamma (Green-Kubo) = {gk.gamma_rate:.4f} +- {gk.stderr:.4f}")
print(f"  Gamma (analytic)   = {analytic:.4f}")

print("\nNo volume enhancement: same areal density, growing torus")
print(f"  {'side':>6} {'walkers':>8} {'Gamma_msd':>17} {'analytic':>9}")
for i, side in enumerate((8.0, 12.0, 16.0)):
    geometry = TorusGeometry(l_x=side, l_y=side)
    n_v, n_a = even_mean_population(env, geometry, f0=0.0)
    # a seed per torus: a shared one would draw the same normals, scaled
    # by sqrt(N)/l, and make the column equal by construction
    msd, _ = measure(geometry, n_v, n_a, seed=2 + i)
    ana = analytic_rate(env, geometry, n_v, n_a)
    print(f"  {side:6.0f} {n_v + n_a:8d} {msd.gamma_rate:8.4f} +- "
          f"{msd.stderr:.4f} {ana:9.4f}")
print("  (the count grows with the area; the rate does not)")

print("\nAspect-ratio law: Gamma_x/Gamma_y = (l_x/l_y)^2")
geo = TorusGeometry(l_x=20.0, l_y=10.0)
rows = [run_winding(env, geo, 100, 100, dt, n_steps,
                    normals=collective_normals(substream(3, r), 200, n_steps),
                    sample_stride=5) for r in range(replicas)]
times = rows[0].times
gx = rate_from_msd(times, np.stack([r.alpha[0] for r in rows]), window,
                   gamma=env.gamma)
gy = rate_from_msd(times, np.stack([r.alpha[1] for r in rows]), window,
                   gamma=env.gamma)
ratio = gx.gamma_rate / gy.gamma_rate
# the x and y windings come from independent noise, so errors add in quadrature
ratio_err = ratio * np.hypot(gx.stderr / gx.gamma_rate,
                             gy.stderr / gy.gamma_rate)
print(f"  Gamma_x = {gx.gamma_rate:.4f}, Gamma_y = {gy.gamma_rate:.4f}, "
      f"ratio = {ratio:.2f} +- {ratio_err:.2f} (law: 4)")
