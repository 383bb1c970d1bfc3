"""Benchmark of cptwell: closed-loop workloads, a correctness oracle, per-layer traces.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``window_sweep``, ``ep_scan`` or ``operator_chain`` (see
``workloads.py`` for what each drives and why).  The seed fixes the inputs;
the library sees only the generated inputs.  Every operation's answer is
checked by ``oracle.py`` and, once per round, a repeated identical request
must reproduce its output byte for byte.

With ``--trace 0`` the run measures the end-to-end metrics for S seconds:

* ``ops_per_s``: operations per (scaled) second of call time, the median
  over rounds;
* ``latency_p50_ms`` and ``latency_tail_ms``: per-operation latency at the
  median and at the workload's tail percentile (the result file records the
  percentile and how many samples lie beyond it, at least ten);
* ``success_fraction``: operations that returned and passed the oracle over
  operations attempted, i.e. 1 - failed_fraction;
* ``setup_s``: the median of several cold set-ups in fresh interpreters;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` whole rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds, and
``trace.overhead_fraction`` is 1 - traced/untraced ``ops_per_s``.

``ops_per_s``, the latencies and the set-up time are scaled to a nominal
machine speed with the yardstick of ``calibration.py``, which keeps them
steady on a shared machine whose speed drifts; the result file also records
the raw wall-clock ``ops_per_s``, p50 and tail, and per-layer times are raw
wall-clock seconds.  Only complete rounds enter the metrics.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
``failed`` counts every operation that did not return a right answer: wrong
answers, crashes and refusals (a documented numerical error, CLI exit status
2).  ``correct`` is false when any answer was wrong or a crash occurred; a
refusal alone leaves it true.  The full result, with provenance and every failure, goes to
``bench/out/BENCH_<workload>[.trace].json``.
"""

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import provenance

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 15
TAIL_FALLBACKS = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class Phase:
    """Latencies and failures of one measured phase.

    Each operation keeps its wall-clock latency and the yardstick time measured
    around it; the scaled figures divide the one by the other and multiply by
    the nominal yardstick time of ``calibration``.
    """

    def __init__(self):
        self.rounds = []  # complete rounds as [(wall seconds, yardstick seconds)]
        self.busy_s = 0.0  # summed wall latency of every op, unfinished round included
        self.attempted = 0
        self.failures = []
        self.wrong = 0  # failures that were wrong answers rather than refusals
        self.cells = []

    def _rounds(self, scaled):
        import calibration

        if not scaled:
            return [[dt for dt, _ in done] for done in self.rounds]
        return [[dt * calibration.NOMINAL_S / y for dt, y in done] for done in self.rounds]

    def latencies(self, scaled=True):
        return [dt for r in self._rounds(scaled) for dt in r]

    def ops_per_s(self, scaled=True):
        return statistics.median(len(r) / sum(r) for r in self._rounds(scaled))

    def yardstick_ms(self):
        return 1e3 * statistics.median(y for done in self.rounds for _, y in done)


def op_stream(name, seed):
    """Rounds of the workload, each with the index of the op to repeat."""
    import numpy as np
    import workloads

    pick = np.random.default_rng([seed, 1])
    for ops in workloads.rounds(name, seed):
        yield ops, int(pick.integers(len(ops)))


def run_op(op, tracer):
    """(latency in seconds, result, problem or None, whether the library refused)."""
    import oracle
    import workloads
    from cptwell.errors import NumericalError

    traced = tracer.span(tracer.ROOT_SPAN) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with traced:
            result = workloads.execute(op)
    except NumericalError as exc:  # a documented refusal: counted, the loop goes on
        return time.perf_counter() - t0, None, f"refused: {exc}", True
    except Exception as exc:  # a crash is a wrong answer: counted, the loop goes on
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}", False
    dt = time.perf_counter() - t0
    refused = oracle.refusal(op, result)
    if refused is not None:
        return dt, result, f"refused: {refused}", True
    try:
        return dt, result, oracle.check(op, result), False
    except Exception as exc:  # malformed output fails the check
        return dt, result, f"unreadable output ({type(exc).__name__}: {exc})", False


def run_round(stream, deadline, phase, tracer=None):
    """Run the next round into ``phase``; False once the deadline has passed.

    A round cut by the deadline is dropped, except the first, which always
    completes so that every phase has at least one round to measure.
    """
    import calibration
    import oracle
    import workloads

    ops, repeat_at = next(stream)
    per_op = -(-calibration.SAMPLES // len(ops))
    before = calibration.yardstick_seconds(per_op)
    done = []
    for i, op in enumerate(ops):
        if phase.rounds and time.perf_counter() >= deadline:
            return False
        dt, result, problem, refused = run_op(op, tracer)
        after = calibration.yardstick_seconds(per_op)
        phase.attempted += 1
        if problem is None and i == repeat_at:
            # Only a digest of the first output stays alive during the repeat,
            # so the repeat does not raise the peak memory.
            first = hashlib.sha256(oracle.fingerprint(result)).digest()
            result = None
            with tracer.paused() if tracer else contextlib.nullcontext():
                again = workloads.execute(op)
            if hashlib.sha256(oracle.fingerprint(again)).digest() != first:
                problem = "a repeated identical request gave different output"
        if problem is not None:
            phase.failures.append(f"{op}: {problem}")
            phase.wrong += not refused
        done.append((dt, 0.5 * (before + after)))
        before = after
        phase.busy_s += dt
        phase.cells += op.cells()
    phase.rounds.append(done)
    return time.perf_counter() < deadline


def measure(stream, seconds):
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while run_round(stream, deadline, phase):
        pass
    return phase


def tail(latencies, preferred):
    """(percentile, value) at ``preferred``, or the highest fallback with enough samples beyond."""
    import numpy as np

    for pct in (preferred,) + TAIL_FALLBACKS:
        if len(latencies) * (1.0 - pct / 100.0) >= MIN_BEYOND or pct == TAIL_FALLBACKS[-1]:
            return pct, float(np.percentile(latencies, pct))


def setup_seconds(name):
    """Median of cold set-ups, each scaled by the yardstick timed in its own process."""
    import calibration

    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=170, check=True,
            cwd=provenance.ROOT,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"] * calibration.NOMINAL_S / probe["yardstick_s"])
    return statistics.median(samples)


def end_to_end(workload, phase):
    latencies, raw = phase.latencies(), phase.latencies(scaled=False)
    pct, tail_s = tail(latencies, workload.tail_percentile)
    success = 1.0 - len(phase.failures) / phase.attempted
    metrics = {
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "success_fraction": (success, "fraction"),
        "setup_s": (setup_seconds(workload.name), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(1 for dt in latencies if dt > tail_s)
    info = {
        "tail_percentile": pct,
        "samples": len(latencies),
        "samples_beyond_tail": beyond,
        "yardstick_ms": phase.yardstick_ms(),
        "raw_ops_per_s": phase.ops_per_s(scaled=False),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_latency_tail_ms": 1e3 * tail(raw, pct)[1],
    }
    return metrics, info


def per_layer(stream, seconds):
    """Per-layer metrics; rounds alternate untraced and traced so both see the same machine."""
    import reference
    import tracing

    untraced, traced = Phase(), Phase()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_round(stream, math.inf, untraced)
        with tracer.installed():
            run_round(stream, math.inf, traced, tracer)
        if time.perf_counter() >= deadline:
            break
    metrics = tracing.layer_metrics(tracer, traced.busy_s)
    metrics.update(reference.lapack_times(traced.cells))
    overhead = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
    metrics["trace.overhead_fraction"] = (overhead, "fraction")
    return metrics, untraced, traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("window_sweep", "ep_scan", "operator_chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    provenance.pin_blas_threads()
    try:
        provenance.use_checkout_source()
    except provenance.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.warm_up(workload.name)
    stream = op_stream(workload.name, args.seed)
    if args.trace:
        metrics, untraced, traced = per_layer(stream, args.seconds)
        phases = [untraced, traced]
        info = {"untraced_ops_per_s": untraced.ops_per_s(), "traced_ops_per_s": traced.ops_per_s()}
    else:
        phase = measure(stream, args.seconds)
        metrics, info = end_to_end(workload, phase)
        phases = [phase]
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    wrong = sum(p.wrong for p in phases)

    facts = provenance.provenance(args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:.6g} {unit}")
    print(f"{'failed_fraction':56s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(facts))
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": facts,
        "attempted": attempted,
        "failed": len(failures),
        "failed_fraction": len(failures) / attempted,
        "wrong_answers": wrong,
        "failures": failures[:100],
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace.json" if args.trace else ".json"
    (OUT_DIR / f"BENCH_{workload.name}{suffix}").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
