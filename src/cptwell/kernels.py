"""The flag that `bench/provenance.py` reads to label a run's backend.

There is no jit backend, so it is False.  The library does not import this
module.
"""

HAS_NUMBA = False
