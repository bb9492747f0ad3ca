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

Each torus is one `rates` run of the command line's lane runner
(windrift.cli.run), which reduces every replica in its lane, so memory
does not grow with the replica count.
"""

import json
import tempfile

import numpy as np

from windrift.cli import run
from windrift.config import parse_config

# each estimate prints its standard error; at 192 replicas the aspect
# ratio's is about 0.1
RUN = {"env": {"mass": 1.0, "eta": 2.0, "temperature": 1.0},
       "dt": 0.1, "total_time": 3000.0, "replicas": 192, "sample_stride": 5,
       "fit": {"t_min": 5.0, "t_max": 80.0}, "green_kubo_cutoff": 10.0}


def rates(l_x, l_y, population, seed):
    """The summary of one rates run on an l_x x l_y torus."""
    config = parse_config(json.dumps(dict(
        RUN, geometry={"l_x": l_x, "l_y": l_y}, population=population,
        master_seed=seed)), "rates")
    with tempfile.TemporaryDirectory() as out:
        return run(config, lanes=2, output_dir=out)


FIXED = {"mode": "fixed", "n_v": 100, "n_a": 100}

print("Ensemble: 100 vortices + 100 antivortices on a 10 x 10 torus")
x = rates(10.0, 10.0, FIXED, seed=1)["rates"]["x"]
msd, gk = x["msd"], x["green_kubo"]
print(f"  Gamma (MSD)        = {msd['gamma']:.4f} +- {msd['stderr']:.4f}")
print(f"  Gamma (Green-Kubo) = {gk['gamma']:.4f} +- {gk['stderr']:.4f}")
print(f"  Gamma (analytic)   = {x['analytic']['gamma']:.4f}")

print("\nNo volume enhancement: same areal density, growing torus")
print(f"  {'side':>6} {'walkers':>8} {'Gamma_msd':>17} {'analytic':>9}")
for i, side in enumerate((8.0, 12.0, 16.0)):
    # a seed per torus: a shared one would draw the same normals, scaled
    # by sqrt(N)/l, and make the column equal by construction
    summary = rates(side, side, {"mode": "mean", "f0": 0.0}, seed=2 + i)
    x = summary["rates"]["x"]
    print(f"  {side:6.0f} {int(summary['population']['mean_total']):8d} "
          f"{x['msd']['gamma']:8.4f} +- {x['msd']['stderr']:.4f} "
          f"{x['analytic']['gamma']:9.4f}")
print("  (the count grows with the area; the rate does not)")

print("\nAspect-ratio law: Gamma_x/Gamma_y = (l_x/l_y)^2")
aspect = rates(20.0, 10.0, FIXED, seed=3)["rates"]
gx, gy = aspect["x"]["msd"], aspect["y"]["msd"]
ratio = gx["gamma"] / gy["gamma"]
# the x and y windings come from independent noise, so errors add in quadrature
ratio_err = ratio * np.hypot(gx["stderr"] / gx["gamma"],
                             gy["stderr"] / gy["gamma"])
print(f"  Gamma_x = {gx['gamma']:.4f}, Gamma_y = {gy['gamma']:.4f}, "
      f"ratio = {ratio:.2f} +- {ratio_err:.2f} (law: 4)")
