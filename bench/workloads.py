"""The three benchmark workloads: seeded operation streams and how to run them.

Each workload is a closed loop with one client: the next operation starts when
the previous one has returned.  Operations come in rounds.  Every round of a
workload has the same composition (the same sizes and request kinds) and draws
only the couplings and the order from the seed, so a run's cost does not
depend on which seed it was given, and a run that ends between rounds can drop
the unfinished round without skewing the mix.

Why each workload:

* ``window_sweep``: spectra of cells inside the reality window, the traffic of
  the acceptance sweeps.  It runs only the real branch (symmetrize, Sturm
  bisection) and never the general branch, eigenvectors or dense operators.
* ``ep_scan``: product-grid scans straddling the window edge, the traffic of
  ``cptwell scan``.  Nearly half of the cells leave the window and take the
  general branch (Newton on the characteristic polynomial), where most of the
  time goes and where classification near exceptional points is fragile.
* ``operator_chain``: CLI requests for metric, charge, verify, pseudometrics
  and continuum, on both sides of the dense/dyad route switch at n = 32 and up
  to n = 64.  It runs eigenvectors (inverse iteration), both pseudometric
  routes, the dense operator products and JSON rendering.
"""

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import cptwell
import cptwell.cli

# Couplings of window_sweep cells: the open square |lambda|, |mu| < 1, kept
# 0.02 away from the exceptional points on its boundary.
WINDOW = 0.98
# ep_scan: grid values outside the window lie in 1 < |v| <= EDGE_MAX.
EDGE_MAX = 1.2
EP_SCAN_SIZES = (4, 5, 6, 8, 10)
EP_SCAN_AXIS = 4
# operator_chain couplings stay where the biorthogonal construction is well
# conditioned, so that every request is expected to succeed.
OPERATOR_COUPLING = 0.9


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is ``spectrum``, ``scan`` or a CLI subcommand.  ``lam_grid`` and
    ``mu_grid`` are set for scans only; ``levels`` for ``continuum`` only.
    """

    kind: str
    n: int
    lam: float = 0.0
    mu: float = 0.0
    lam_grid: tuple = ()
    mu_grid: tuple = ()
    levels: int = 1

    def argv(self):
        """CLI arguments of an operator request (floats as round-trip reprs)."""
        argv = [self.kind, "-N", str(self.n), f"--lambda={self.lam!r}"]
        if self.kind == "continuum":
            return argv + [f"--levels={self.levels}"]
        return argv + [f"--mu={self.mu!r}"]

    def cells(self):
        """Every (n, lambda, mu) whose spectrum this operation depends on."""
        if self.kind == "scan":
            return [(self.n, la, m) for la in self.lam_grid for m in self.mu_grid]
        if self.kind == "continuum":
            return [(self.n // d, self.lam, self.lam) for d in (8, 4, 2, 1)]
        return [(self.n, self.lam, self.mu)]


def _window_round(rng):
    ops = []
    for n in rng.permutation(np.arange(2, 65)):
        lam, other = rng.uniform(-WINDOW, WINDOW, 2)
        mu = (lam, -lam, other)[rng.integers(3)]
        ops.append(Op("spectrum", int(n), float(lam), float(mu)))
    return ops


def _edge_axis(rng):
    """EP_SCAN_AXIS sorted values: one just outside the window, the rest inside."""
    inside = rng.uniform(-1.0, 1.0, EP_SCAN_AXIS - 1)
    outside = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, EDGE_MAX)
    return tuple(float(v) for v in sorted([*inside, outside]))


def _ep_scan_round(rng):
    return [
        Op("scan", int(n), lam_grid=_edge_axis(rng), mu_grid=_edge_axis(rng))
        for n in rng.permutation(EP_SCAN_SIZES)
    ]


# One round of operator_chain as (subcommand, n, line): line +1 is mu = lambda,
# -1 is mu = -lambda and 0 an independent mu.  Listed in rising cost: eight
# cheap requests, four of about the same cost (n = 64 metric, charge and
# continuum) and eight heavy ones.  Every round has the same 20 requests, so
# over any number of rounds the median falls in the middle of the block of
# four and the 90th percentile inside the block of three similar pseudometrics
# requests (n = 32 and twice n = 48), never between blocks of different cost.
OPERATOR_ROUND = (
    ("verify", 8, +1), ("verify", 64, +1), ("charge", 8, +1), ("metric", 8, +1),
    ("metric", 8, -1), ("pseudometrics", 8, 0), ("metric", 24, -1), ("charge", 24, +1),
    ("metric", 64, +1), ("metric", 64, -1), ("charge", 64, +1), ("continuum", 64, +1),
    ("pseudometrics", 24, 0), ("continuum", 128, +1), ("pseudometrics", 40, 0),
    ("continuum", 160, +1), ("pseudometrics", 32, 0), ("pseudometrics", 48, 0),
    ("pseudometrics", 48, 0), ("pseudometrics", 64, 0),
)


def _operator_round(rng):
    ops = []
    for k in rng.permutation(len(OPERATOR_ROUND)):
        kind, n, line = OPERATOR_ROUND[k]
        lam, other = rng.uniform(-OPERATOR_COUPLING, OPERATOR_COUPLING, 2)
        mu = other if line == 0 else line * lam
        levels = int(rng.integers(1, 4))
        ops.append(Op(kind, n, float(lam), float(mu), levels=levels))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    tail_percentile: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("window_sweep", _window_round, 95.0),
        Workload("ep_scan", _ep_scan_round, 90.0),
        Workload("operator_chain", _operator_round, 90.0),
    )
}


def rounds(name, seed):
    """Endless stream of rounds (lists of Op) of one workload, fixed by the seed."""
    rng = np.random.default_rng(seed)
    make = WORKLOADS[name].make_round
    while True:
        yield make(rng)


def run_cli(argv):
    """One in-process CLI request; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cptwell.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def execute(op):
    """Run one operation through the library's public entry points."""
    if op.kind == "spectrum":
        return cptwell.spectrum_of(cptwell.build(op.n, (op.lam, op.mu)))
    if op.kind == "scan":
        return cptwell.scan_domain(op.n, op.lam_grid, op.mu_grid)
    return run_cli(op.argv())


# One small call per branch each workload uses, so that lazy set-up (and, with
# numba, the JIT compile of every kernel signature) is done before timing.
_WARM_UP = {
    "window_sweep": [Op("spectrum", 8, 0.5, 0.3)],
    "ep_scan": [Op("scan", 4, lam_grid=(0.5, 1.1), mu_grid=(0.3,))],
    "operator_chain": [
        Op("metric", 4, 0.5, 0.5), Op("metric", 4, 0.5, -0.5),
        Op("charge", 4, 0.5, 0.5), Op("verify", 4, 0.5, 0.5),
        Op("pseudometrics", 4, 0.5, 0.3), Op("pseudometrics", 33, 0.5, 0.3),
        Op("continuum", 16, 0.3, 0.3),
    ],
}


def warm_up(name):
    for op in _WARM_UP[name]:
        execute(op)
