"""Per-layer spans recorded from outside the library.

``Tracer.installed()`` wraps the public functions named in ``LAYERS`` and puts
each wrapper into every ``cptwell`` module namespace that holds the original
function (the defining module, the package namespace and every module that
imported the name), so internal calls are seen too.  On exit every wrapped
name is restored.  No library file changes.

A span is (name, start, end, parent); spans nest because the loop is single
threaded.  A span's self time is its duration minus the part of its interval
that its child spans cover, so self times add up to the traced wall time with
nothing counted twice.  Solver counts are read from the values the wrapped
functions receive and return.
"""

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

LAYERS = {
    "hamiltonian": ("build", "symmetrize", "dense"),
    "spectra": ("spectrum_of", "eigen_real", "eigen_general", "scan_domain"),
    # charpoly_terms is reached only through spectra.char_poly, which no workload
    # calls (newton_roots evaluates the recurrence inline), so its metrics read 0
    # unless a later change routes the measured paths through it.
    "kernels": ("bisect_spectrum", "tridiag_solve_shifted", "newton_roots", "charpoly_terms"),
    "dieudonne": ("kernel_basis", "residual", "spectral_dyads"),
    "quasihermitian": (
        "biorthogonalize",
        "decompose_inverse_pseudometric",
        "assemble_charge_spectral",
        "closed_form_operators",
        "symmetry_report",
    ),
    "continuum": ("convergence_study",),
    "cli": ("main", "render"),
}
# kernel_basis is reported per route, the route it took named as in its docstring.
KERNEL_ROUTES = ("dense", "dyad")


def span_names():
    """Every per-layer span name, in report order."""
    names = []
    for module, functions in LAYERS.items():
        for function in functions:
            if (module, function) == ("dieudonne", "kernel_basis"):
                names += [f"{module}.{function}.{route}" for route in KERNEL_ROUTES]
            else:
                names.append(f"{module}.{function}")
    return names


def _kernel_basis_route(args, kwargs):
    from cptwell import dieudonne

    h = args[0] if args else kwargs["h"]
    route = kwargs.get("route", args[1] if len(args) > 1 else None)
    if route is None:
        route = "dense" if h.n <= dieudonne.DENSE_ROUTE_MAX else "dyad"
    return f"dieudonne.kernel_basis.{route}"


def _count_newton(counts, args, kwargs, result):
    _, ok, info = result
    counts["newton.iterations"] += int(info[:, 1].sum())
    counts["newton.attempts"] += int(info[:, 2].sum())
    counts["newton.roots"] += int(np.count_nonzero(ok))


def _count_bisect(counts, args, kwargs, result):
    n, iters = args[0].shape[0], args[4]
    counts["bisect.sturm_steps"] += int(iters) * n * n


def _count_eigen_real(counts, args, kwargs, result):
    if kwargs.get("want_vectors", args[1] if len(args) > 1 else False):
        counts["eigen_real.vectors"] += int(result[1].shape[1])


COUNTERS = {
    "kernels.newton_roots": _count_newton,
    "kernels.bisect_spectrum": _count_bisect,
    "spectra.eigen_real": _count_eigen_real,
}
LABELS = {"dieudonne.kernel_basis": _kernel_basis_route}


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    # The span the benchmark loop opens around each operation.
    ROOT_SPAN = "bench.op"

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, failed]
        self.counts = {
            key: 0
            for key in (
                "newton.iterations", "newton.attempts", "newton.roots",
                "bisect.sturm_steps", "eigen_real.vectors",
            )
        }
        self.recording = False
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, failed):
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = failed

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body (when recording)."""
        if not self.recording:
            yield
            return
        index = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(index, failed)

    @contextlib.contextmanager
    def paused(self):
        """Run the body without recording, e.g. a repeated request."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, name, fn):
        label = LABELS.get(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(label(args, kwargs) if label else name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the body; restore every wrapped name after."""
        try:
            for module, functions in LAYERS.items():
                mod = importlib.import_module(f"cptwell.{module}")
                for function in functions:
                    original = getattr(mod, function, None)
                    if callable(original):
                        self._install(original, self._wrap(f"{module}.{function}", original))
            self.recording = True
            yield self
        finally:
            self.recording = False
            while self._patched:
                namespace, attr, original = self._patched.pop()
                setattr(namespace, attr, original)

    def _install(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cptwell" or mod_name.startswith("cptwell.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced phase; ``wall_s`` is its summed op time."""
    spans = tracer.spans
    selfs = self_times(spans)
    stats = {name: [0, 0.0, 0.0, 0] for name in span_names()}
    for (name, start, end, _, failed), self_s in zip(spans, selfs):
        if name in stats:
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
            entry[3] += int(failed)
    metrics = {}
    for name, (calls, total, self_s, failed) in stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.failed"] = (failed, "count")

    index = {i: span[0] for i, span in enumerate(spans)}
    routed = sum(
        1 for span in spans
        if span[0] == "spectra.eigen_general" and index.get(span[3]) == "spectra.spectrum_of"
    )
    spectrum_calls = stats["spectra.spectrum_of"][0]
    counts = tracer.counts
    metrics["spectra.general_share"] = (routed / spectrum_calls if spectrum_calls else 0.0, "fraction")
    metrics["kernels.newton_roots.iterations"] = (counts["newton.iterations"], "count")
    metrics["kernels.newton_roots.attempts"] = (counts["newton.attempts"], "count")
    attempts = counts["newton.attempts"]
    metrics["kernels.newton_roots.roots_per_attempt"] = (
        counts["newton.roots"] / attempts if attempts else 0.0, "ratio"
    )
    vectors = counts["eigen_real.vectors"]
    solves = stats["kernels.tridiag_solve_shifted"][0]
    metrics["kernels.tridiag_solve_shifted.solves_per_vector"] = (
        solves / vectors if vectors else 0.0, "ratio"
    )
    metrics["kernels.bisect_spectrum.sturm_steps"] = (counts["bisect.sturm_steps"], "computed_count")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.self_sum_s"] = (float(sum(selfs)), "s")
    return metrics
