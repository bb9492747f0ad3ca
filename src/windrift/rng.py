"""Counter-based random streams for reproducible parallel runs.

Every stream is a Philox generator keyed by (master_seed, stream_id). The
key fully determines the stream, so replicas can run in any order, on any
number of workers, and reproduce bit-identical noise. Within a stream,
draws follow a fixed documented order, which callers must preserve.
Replica r of a `rates` or `simulate` run uses the stream
(master_seed, r), which holds, in order:

1. the Boltzmann population draw, in that mode only: one Poisson total,
   then one uniform tie-break coin if the total is odd;
2. the engine's draws. The collective engine (ensemble.run_winding)
   spends one flat array of normals (ensemble.collective_normals): the
   recorded steps' normals axis-major, first those driving alpha_x (the
   y displacement), then those driving alpha_y; its start is exactly
   stationary, so it draws no burn-in (rates refuses a burn_in key, and
   simulate's draws nothing), and an empty ensemble draws nothing. Each
   lane's helper thread draws that array one replica ahead of the lane,
   claiming replicas in any order, since no stream depends on another.
   The per-walker engine (ensemble.run_replica) draws the positions (walker,
   axis), the stationary velocities (walker, axis), then per step
   (walker, axis, role); the steps' normals are drawn on one helper
   thread, chunk after chunk, which keeps this order.
"""

import numpy as np


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one replica (or other independent unit of work). Both
    key words must be integers in [0, 2**64), the range of a Philox key."""
    if not all(isinstance(k, (int, np.integer)) and 0 <= k < 1 << 64
               for k in (master_seed, stream_id)):
        raise ValueError(f"master_seed {master_seed} and stream_id "
                         f"{stream_id} must be integers in [0, 2**64)")
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
