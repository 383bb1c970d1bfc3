"""One cold set-up of a workload, timed in a fresh interpreter.

Set-up is the import of numpy and cptwell plus one warm-up call per branch the
workload uses (with numba present, that includes the JIT compile).  Prints one
JSON object {"setup_s": ..., "yardstick_s": ...}, the second the calibration
yardstick timed in this process right after set-up, so that the caller can
scale the set-up time to the nominal machine speed.
Usage: python3 bench/setup_probe.py WORKLOAD
"""

import json
import sys
import time

import provenance


def main(argv):
    provenance.pin_blas_threads()
    t0 = time.perf_counter()
    provenance.use_checkout_source()
    import workloads

    workloads.warm_up(argv[0])
    setup_s = time.perf_counter() - t0
    import calibration

    yardstick_s = calibration.yardstick_seconds(calibration.SAMPLES)
    print(json.dumps({"setup_s": setup_s, "yardstick_s": yardstick_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
