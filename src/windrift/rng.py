"""Counter-based random streams for reproducible parallel runs.

Every stream is a Philox generator keyed by (master_seed, stream_id). The
key fully determines the stream, so replicas can run in any order, on any
number of workers, and reproduce bit-identical noise. Within a stream,
draws follow a fixed documented order (step-major, then walker index, then
axis, then noise role), which callers must preserve.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Generator for one replica (or other independent unit of work)."""
    key = np.array([master_seed & _MASK64, stream_id & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
