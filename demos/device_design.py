#!/usr/bin/env python3
"""Back-of-the-envelope numbers for a toroidal superconducting memory.

Sizes the read/write transition of the giant-atom levels, the thermal
suppression of the solid-torus device, the tiny ground-state loop current,
and the storage time a surface-film device would have.
"""

import math

from windrift import (DeviceSpec, ThermalEnv, TorusGeometry,
                      anyon_prefactor_log, equivalence_class,
                      level_splitting, loop_current_scale, predicted_rate,
                      solid_torus_suppression)

print("Giant-atom level splittings (levels n = 0 -> 1):")
print(f"  {'R [cm]':>7} {'lambda [mm]':>12} {'energy [J]':>12}")
for r_cm in (1.0, 2.0, 5.0):
    dev = DeviceSpec(r_eff=r_cm / 100.0, n1=0, n2=1, l_x=0.05, l_y=0.001,
                     epsilon_line=0.0, temperature=1.0)
    split = level_splitting(dev)    # r_eff in meters
    print(f"  {r_cm:7.1f} {split.wavelength_si_m * 1e3:12.4f} "
          f"{split.energy_si_joule:12.3e}")
print("  millimeter-range wavelengths: the read/write cavity is desk-sized")

print("\nWinding parity classes (only parities are locally observable):")
for pair in [(0, 0), (1, 0), (2, 0), (3, 1)]:
    print(f"  n = {pair}: {equivalence_class(*pair)}")

print("\nSolid-torus suppression exp(-eps * l_y / T):")
print(f"  {'eps*l_y/T':>10} {'factor':>12}")
for barrier in (1.0, 5.0, 20.0):
    dev = DeviceSpec(r_eff=0.02, n1=0, n2=1, l_x=0.05, l_y=barrier,
                     epsilon_line=1.0, temperature=1.0)
    print(f"  {barrier:10.1f} {solid_torus_suppression(dev):12.3e}")
print("  the rate dies exponentially with the cross-section: thicker wins")

print("\nLoop current scale of a one-quantum state (estimate):")
out = loop_current_scale(l_x=0.05, l_y=0.001, flux_quantum=2 * math.pi,
                         c_light=1.0)
print(f"  self-inductance ~ {out.inductance:.4e}, current ~ "
      f"{out.current:.4e} ({out.label})")

print("\nSurface-film storage time from the diffusion rate:")
env = ThermalEnv(mass=1.0, eta=2.0, temperature=1.0)
geo = TorusGeometry(l_x=10.0, l_y=10.0)
print(f"  {'F0/T':>6} {'Gamma':>12} {'storage time':>14}")
for f0 in (0.0, 5.0, 15.0, 30.0):
    rate = predicted_rate(env, geo, f0)
    print(f"  {f0:6.1f} {rate:12.4e} {1.0 / rate:14.4e}")
print("  raising the vortex free energy (thicker film) buys e-folds")

print("\nAnyon-platform prefactor is only logarithmic in sample size:")
for size in (1e3, 1e6):
    print(f"  L'/rho_min = {size:.0e}: ln = "
          f"{anyon_prefactor_log(size, 1.0):.2f}")
