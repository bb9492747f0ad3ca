#!/usr/bin/env python3
"""Velocity statistics of a single thermal vortex.

Runs the exact-propagator Langevin engine and checks the three facts the
rate calculation rests on: equipartition of the velocity variance, the
exponential velocity autocorrelation with rate gamma = eta/M, and the
Einstein relation D = T/eta for the position spread.
"""

import numpy as np

from windrift import (ThermalEnv, TorusGeometry, einstein_diffusion_check,
                      run_replica, velocity_autocorrelation)

env = ThermalEnv(mass=2.0, eta=3.0, temperature=4.0)
print(f"Thermal environment: M = {env.mass}, eta = {env.eta}, "
      f"T = {env.temperature}  ->  gamma = {env.gamma}")

geo = TorusGeometry(l_x=200.0, l_y=200.0)   # large box: wrapping irrelevant
dt, n_steps = 0.01, 400_000
res = run_replica(env, geo, 25, 25, dt, n_steps, master_seed=42, stream_id=0,
                  burn_in_steps=int(30 / env.gamma / dt),
                  velocity_series_walkers=6, position_stride=50)

print(f"\nRun: 50 walkers, {n_steps} steps of dt = {dt} after burn-in.")

vy2 = res.chunk_vy2_sums.sum() / ((res.n_v + res.n_a) * n_steps)
print("\n1. Equipartition")
print(f"   <v_y^2> measured = {vy2:.4f}")
print(f"   T/M              = {env.temperature / env.mass:.4f}")

print("\n2. Velocity autocorrelation (exponential with rate gamma)")
tau, c, fit = velocity_autocorrelation(res.vel_series.T, dt,
                                       max_lag=int(4 / env.gamma / dt))
print(f"   fitted amplitude = {fit.amplitude:.4f} +- {fit.amplitude_err:.4f}"
      f"   (T/M = {env.temperature / env.mass})")
print(f"   fitted rate      = {fit.rate:.4f} +- {fit.rate_err:.4f}"
      f"   (gamma = {env.gamma})")
for k in (0, len(tau) // 4, len(tau) // 2):
    print(f"   C(tau={tau[k]:5.2f}) = {c[k]: .4f}   "
          f"model {fit.amplitude * np.exp(-fit.rate * tau[k]): .4f}")

print("\n3. Einstein relation for the positions")
check = einstein_diffusion_check(res.positions, dt * 50, env)
print(f"   D measured = {check.d_measured:.4f}")
print(f"   T/eta      = {check.d_expected:.4f}")
print(f"   ratio      = {check.ratio:.4f} +- {check.ratio_err:.4f}")
