"""Command-line interface: deterministic JSON/CSV access to every module.

Subcommands:

* ``spectrum``      eigenvalues and reality classification of one H(lambda, mu)
* ``scan``          reality domain over a coupling grid (line or product grid)
* ``pseudometrics`` basis of all symmetric solutions of H^T X = X H
* ``metric``        closed-form metric Theta on the mu = +/-lambda lines, |lambda| < 1
* ``charge``        spectral charge vs closed form on the mu = +/-lambda lines, |lambda| < 1
* ``verify``        residual report of the closed-form triple on the mu = +/-lambda lines
* ``continuum``     scaled-level convergence study over a size ladder

Exit status: 0 success; 1 validation/usage error; 2 numerical failure.
Each subcommand reads its request from the parsed argparse namespace and
builds its JSON payload and its CSV rows here, from the library's result
dataclasses, which have no serialization or row layout of their own.
Identical invocations produce byte-identical output: fixed key order, fixed
row order, floats via shortest round-trip repr, booleans as lowercase
true/false, and no timestamps.  JSON text is exactly what
``json.dumps(payload, indent=2)`` gives for the payload with every numpy
array replaced by its ``tolist()``: json.dumps lays it out, except its float
arrays, which are rendered together from one token table (see ``render``).
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

# continuum, dieudonne and quasihermitian are imported inside the subcommands
# that use them, so that `spectrum` and `scan` start without loading them.
from . import spectra
from .errors import CptwellError, NumericalError, ValidationError
from .hamiltonian import build

FORMATS = ("json", "csv")
LINES = ("mu=lambda", "mu=-lambda")
CONTINUUM_DEFAULT_SIZE = 160
# Largest number of points one --grid axis may hold; a product scan solves the
# square of it.
MAX_GRID_POINTS = 10_000
# Largest matrix-entry count one request may allocate: n**3 for pseudometrics
# (n basis elements of n x n), n**2 for every other subcommand.  2**24 allows
# pseudometrics up to n = 256 and the rest up to n = 4096.
MAX_ENTRIES = 2**24


class _UsageError(Exception):
    """Raised by the parser instead of argparse's SystemExit(2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def parse_grid(spec):
    """Grid values lo + k*step covering [lo, hi], from a lo:hi:step string."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"grid must be three numbers lo:hi:step, got {spec!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(step)):
        raise ValidationError(f"grid bounds must be finite, got {spec!r}")
    if step <= 0.0:
        raise ValidationError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValidationError(f"grid upper bound {hi} is below lower bound {lo}")
    steps = np.floor((hi - lo) / step + 1e-9)
    if not steps < MAX_GRID_POINTS:
        raise ValidationError(
            f"grid {spec!r} has {steps + 1:.3g} points; at most {MAX_GRID_POINTS} are allowed"
        )
    return tuple(lo + k * step for k in range(int(steps) + 1))


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on first use and reused for every call.

    Reuse is safe: parse_args returns a fresh Namespace each time, and
    _Parser.error raises instead of leaving state behind.
    """
    parser = _Parser(
        prog="cptwell",
        description="Discrete square well with boundary couplings: spectra, "
        "reality domain, pseudometrics, metric/charge construction, "
        "hermitization, continuum limit.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, size_default=None, with_couplings=True, with_tol=False):
        if size_default is None:
            p.add_argument("-N", "--size", dest="n", type=int, required=True,
                           help="matrix dimension n")
        else:
            p.add_argument("-N", "--size", dest="n", type=int, default=size_default,
                           help=f"matrix dimension n (default {size_default})")
        if with_couplings:
            p.add_argument("--lambda", dest="lam", type=float, required=True,
                           help="left boundary coupling")
            p.add_argument("--mu", dest="mu", type=float, default=None,
                           help="right boundary coupling (default: lambda)")
        if with_tol:
            p.add_argument("--tol", dest="tol", type=float, default=None,
                           help="absolute reality tolerance override")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="json",
                       help="output format (default json)")
        p.add_argument("--output", dest="output", default=None,
                       help="write to this path instead of stdout")

    p = sub.add_parser("spectrum", help="eigenvalues of one H(lambda, mu)")
    common(p, with_tol=True)

    p = sub.add_parser("scan", help="reality classification over a coupling grid")
    common(p, with_couplings=False, with_tol=True)
    p.add_argument("--grid", dest="grid_spec", required=True,
                   help="coupling grid lo:hi:step")
    p.add_argument("--line", dest="line", choices=LINES, default=None,
                   help="restrict to a coupling line (default: full product grid)")

    p = sub.add_parser("pseudometrics", help="basis of solutions of H^T X = X H")
    common(p)

    p = sub.add_parser("metric", help="closed-form metric Theta on mu = +/-lambda")
    common(p)

    p = sub.add_parser("charge", help="spectral charge vs closed form on mu = +/-lambda")
    common(p)

    p = sub.add_parser("verify", help="closed-form triple residual report on mu = +/-lambda")
    common(p)

    p = sub.add_parser("continuum", help="scaled-level convergence study")
    common(p, size_default=CONTINUUM_DEFAULT_SIZE, with_couplings=False)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="boundary coupling held fixed along the ladder (default 0)")
    p.add_argument("--levels", dest="levels", type=int, default=1,
                   help="number of lowest levels to track (default 1)")

    return parser


def _config_from(ns):
    """The parsed namespace, after the checks that argparse cannot make.

    A subcommand is given, 2 <= n and n fits MAX_ENTRIES; mu defaults to
    lambda, and --grid is parsed into ``ns.grid``.
    """
    command = ns.command
    if command is None:
        raise ValidationError("a subcommand is required (see --help)")
    n = ns.n
    if n < 2:
        raise ValidationError(f"size must be at least 2, got {n}")
    power = 3 if command == "pseudometrics" else 2
    if n**power > MAX_ENTRIES:
        raise ValidationError(
            f"size {n} needs {n**power:,} matrix entries for {command}; "
            f"at most {MAX_ENTRIES:,} are allowed"
        )
    if "mu" in vars(ns) and ns.mu is None:
        ns.mu = ns.lam
    if command == "scan":
        ns.grid = parse_grid(ns.grid_spec)
    return ns


def _cmd_spectrum(cfg):
    h = build(cfg.n, (cfg.lam, cfg.mu))
    spec = spectra.spectrum_of(h, reality_tol=cfg.tol)
    real, imag = spec.values.real.tolist(), spec.values.imag.tolist()
    payload = {
        "n": cfg.n,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "values": [{"re": x, "im": y} for x, y in zip(real, imag)],
        "all_real": bool(spec.all_real),
        "min_gap": float(spec.min_gap),
    }
    rows = ((k + 1, x, y) for k, (x, y) in enumerate(zip(real, imag)))
    return payload, ("k", "re", "im"), rows


def _cmd_scan(cfg):
    grid = np.array(cfg.grid)
    if cfg.line is None:
        scan = spectra.scan_domain(cfg.n, grid, grid, reality_tol=cfg.tol)
    else:
        sign = 1 if cfg.line == "mu=lambda" else -1
        scan = spectra.scan_line(cfg.n, grid, sign, reality_tol=cfg.tol)
    header = ("lambda", "mu", "all_real", "complex_pairs", "min_gap")
    rows = list(zip(scan.lam.tolist(), scan.mu.tolist(), scan.all_real.tolist(),
                    scan.complex_pairs.tolist(), scan.min_gap.tolist()))
    payload = {
        "n": cfg.n,
        "grid": cfg.grid_spec,
        "line": cfg.line,
        "cells": [dict(zip(header, row)) for row in rows],
        "diagnostics": list(scan.diagnostics),
    }
    return payload, header, rows


def _cmd_pseudometrics(cfg):
    from . import dieudonne

    h = build(cfg.n, (cfg.lam, cfg.mu))
    basis = dieudonne.kernel_basis(h)
    residuals = basis.residuals.tolist()
    payload = {
        "n": cfg.n,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "dimension": basis.dimension,
        "independence": basis.independence,
        "elements": [
            {"matrix": x, "residual": r} for x, r in zip(basis.basis, residuals)
        ],
    }
    rows = (
        (e, i, j, value, res)
        for e, (x, res) in enumerate(zip(basis.basis, residuals))
        for i, row in enumerate(x.tolist())
        for j, value in enumerate(row)
    )
    return payload, ("element", "row", "col", "value", "residual"), rows


def _require_line(cfg):
    """The closed form's variant: ``exchange`` on mu = lambda, ``weighted`` on mu = -lambda."""
    if cfg.mu == cfg.lam:
        return "exchange"
    if cfg.mu == -cfg.lam:
        return "weighted"
    raise ValidationError(
        f"this subcommand needs mu = +lambda or mu = -lambda; got lambda={cfg.lam}, mu={cfg.mu}"
    )


def _require_window(cfg):
    """Refuse |lambda| >= 1, where no positive metric exists, as a NumericalError."""
    if not abs(cfg.lam) < 1.0:
        raise NumericalError(f"no positive metric at lambda={cfg.lam}, outside |lambda| < 1")


def _cmd_metric(cfg):
    from . import dieudonne, quasihermitian

    variant = _require_line(cfg)
    h = build(cfg.n, (cfg.lam, cfg.mu))
    _require_window(cfg)
    theta = quasihermitian.closed_form_operators(cfg.n, cfg.lam, variant).theta
    smallest = quasihermitian._smallest_eigenvalue(theta)
    payload = {
        "n": cfg.n,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "pseudometric": variant,
        "theta": theta,
        "smallest_eigenvalue": smallest,
        "positive": bool(smallest > 0.0),
        "residual_theta": dieudonne.residual(h, theta),
    }
    rows = (
        (i, j, value)
        for i, row in enumerate(theta.tolist())
        for j, value in enumerate(row)
    )
    return payload, ("row", "col", "value"), rows


def _cmd_charge(cfg):
    from . import dieudonne, quasihermitian

    variant = _require_line(cfg)
    h = build(cfg.n, (cfg.lam, cfg.mu))
    _require_window(cfg)
    triple = quasihermitian.closed_form_operators(cfg.n, cfg.lam, variant)
    system = quasihermitian.biorthogonalize(h)
    nu = quasihermitian.decompose_inverse_pseudometric(triple.p, system)
    asm = quasihermitian.assemble_charge_spectral(system, nu)
    payload = {
        "n": cfg.n,
        "lambda": cfg.lam,
        "mu": cfg.mu,
        "max_difference": dieudonne._entry_norm(asm.c - triple.c),
        "residual_involution_closed": quasihermitian._involution_defect(triple.c),
        "residual_involution_spectral": asm.involution,
        "nu": asm.nu,
        "kappa_sq": asm.kappa_sq,
        "c_spectral": asm.c,
        "c_closed": triple.c,
    }
    rows = (
        (i, j, spectral, closed)
        for i, (row_s, row_c) in enumerate(zip(asm.c.tolist(), triple.c.tolist()))
        for j, (spectral, closed) in enumerate(zip(row_s, row_c))
    )
    return payload, ("row", "col", "spectral", "closed"), rows


def _cmd_verify(cfg):
    from . import quasihermitian

    variant = _require_line(cfg)
    h = build(cfg.n, (cfg.lam, cfg.mu))
    triple = quasihermitian.closed_form_operators(cfg.n, cfg.lam, variant)
    report = quasihermitian.symmetry_report(h, triple)
    fields = {name: float(value) for name, value in vars(report).items()}
    payload = {"n": cfg.n, "lambda": cfg.lam, "mu": cfg.mu, **fields}
    return payload, ("quantity", "value"), fields.items()


def _cmd_continuum(cfg):
    from . import continuum

    if cfg.n % 8 != 0 or cfg.n < 16:
        raise ValidationError(
            f"continuum needs a ladder top divisible by 8 and at least 16, got {cfg.n}"
        )
    sizes = (cfg.n // 8, cfg.n // 4, cfg.n // 2, cfg.n)
    study = continuum.convergence_study(sizes, cfg.lam, cfg.levels)
    # Lists, not arrays: the float-array path costs more than it saves on
    # rows this short.  NaN orders (no estimate) print as null.
    scaled = study.scaled_levels.tolist()
    orders = [_nan_to_none(row) for row in study.orders]
    payload = {
        "sizes": list(study.sizes),
        "lambda": study.lam,
        "scaled_levels": scaled,
        "differences": study.differences.tolist(),
        "orders": orders,
        "estimated_order": _nan_to_none(study.estimated_order),
    }
    rows = (
        (n, k + 1, level, orders[k][i - 2] if i >= 2 else None)
        for i, (n, levels) in enumerate(zip(study.sizes, scaled))
        for k, level in enumerate(levels)
    )
    return payload, ("n", "k", "scaled_energy", "richardson_order"), rows


def _nan_to_none(values):
    return [None if math.isnan(v) else v for v in values.tolist()]


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "pseudometrics": _cmd_pseudometrics,
    "metric": _cmd_metric,
    "charge": _cmd_charge,
    "verify": _cmd_verify,
    "continuum": _cmd_continuum,
}


_INDENT = "  "
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.lru_cache(maxsize=64)
def _layout(shape, level):
    """Bracket and separator text of an array of this shape at nesting level.

    json follows each entry with one of ndim + 1 separators, chosen by how
    many innermost axes the entry closes: none (a comma), some (close them,
    a comma, reopen them) or all (the last entry).  Returns the opening
    brackets, the separator of entries that close no axis, and the flat
    indices and separators of the entries that close at least one.
    """
    ndim = len(shape)
    inner = ["\n" + _INDENT * (level + k) for k in range(ndim + 1)]
    opening = ["".join("[" + inner[k + 1] for k in range(j, ndim)) for j in range(ndim + 1)]
    seps = np.empty(ndim + 1, dtype=object)
    for c in range(ndim + 1):
        close = "".join(inner[ndim - 1 - k] + "]" for k in range(c))
        seps[c] = close if c == ndim else close + "," + inner[ndim - c] + opening[ndim - c]
    closes = np.zeros(shape, dtype=np.int8)
    for c in range(1, ndim + 1):
        closes[(Ellipsis,) + (-1,) * c] += 1
    closes = closes.reshape(-1)
    ends = np.flatnonzero(closes)
    end_seps = seps[closes[ends]]
    # Cached and shared by every caller.
    ends.flags.writeable = end_seps.flags.writeable = False
    return opening[0], seps[0], ends, end_seps


def _float_arrays(arrays, skeleton):
    """The pieces of the JSON text: ``skeleton``'s texts, with the arrays between.

    Each (a, level) in ``arrays`` is rendered between two consecutive
    skeleton texts as json.dumps(a.tolist(), indent=2) renders it at that
    nesting level.  For float arrays with at least one entry, all from one
    payload, which share one token table: one np.unique runs over the
    non-zero bit patterns of every array (+0.0 has a fixed token; -0.0 has
    its sign bit set and keeps its own), and float.__repr__ runs once per
    distinct value of the payload.  The whole token table is joined once to
    each separator that follows most entries of some array (one per ndim and
    level).  Each array is then laid out by one gather from its slice of the
    shared codes and a fix-up of the entries that close an axis.  The pieces
    come back as one list, so the payload-wide codes are freed before render
    joins the output, once.
    """
    flat = [np.asarray(a, dtype=np.float64).reshape(-1) for a, _ in arrays]
    bits = np.concatenate(flat).view(np.int64)
    nonzero = bits != 0
    distinct, inverse = np.unique(bits[nonzero], return_inverse=True)
    values = distinct.view(np.float64)
    texts = ["0.0", *map(float.__repr__, values.tolist())]
    if not np.isfinite(values).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    tokens = np.array(texts, dtype=object)
    codes = np.zeros(bits.shape, dtype=np.intp)
    codes[nonzero] = inverse + 1

    layouts = [_layout(a.shape, level) for a, level in arrays]
    bounds = np.cumsum([0, *(a.size for a, _ in arrays)]).tolist()
    owns = [codes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    tables = {sep: tokens + sep for sep in {layout[1] for layout in layouts}}

    out = []
    for before, (opening, sep, ends, end_seps), own in zip(skeleton, layouts, owns):
        pieces = tables[sep][own]
        pieces[ends] = tokens[own[ends]] + end_seps
        out += (before, opening)
        out += pieces.tolist()
    out.append(skeleton[-1])
    return out


# render's stand-in for a float array; it refuses a payload that holds it.
_PLACEHOLDER = "\x00cptwell float array\x00"
_PLACEHOLDER_TEXT = json.dumps(_PLACEHOLDER)


def render(payload, header, rows, fmt):
    """Serialize one subcommand result to its final output text.

    JSON is ``json.dumps(payload, indent=2)``, whose ``default`` hook sets
    each float array with ndim >= 1 and at least one entry aside behind a
    placeholder string and gives any other numpy array its ``tolist()``.
    _float_arrays then renders the set-aside arrays together, from one token
    table, so a value shared by several arrays is formatted once, and puts
    their pieces in place of the placeholders, so that the output is joined
    once; an array's nesting level is the indent of the line that holds its
    placeholder, over 2.  ``rows`` is an iterable of CSV records, consumed
    only for CSV output.
    """
    if fmt == "json":
        arrays = []

        def park(obj):
            if not isinstance(obj, np.ndarray):
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            if obj.dtype.kind == "f" and obj.ndim and obj.size:
                arrays.append(obj)
                return _PLACEHOLDER
            return obj.tolist()

        # Payloads are built fresh, without cycles: skip json's per-container check.
        text = json.dumps(payload, indent=2, default=park, check_circular=False)
        pieces = text.split(_PLACEHOLDER_TEXT)
        if len(pieces) != len(arrays) + 1:
            raise ValueError(f"a payload string collides with the placeholder {_PLACEHOLDER!r}")
        if arrays:
            lines = [before[before.rfind("\n") + 1:] for before in pieces[:-1]]
            levels = [(len(line) - len(line.lstrip(" "))) // 2 for line in lines]
            pieces = _float_arrays(list(zip(arrays, levels)), pieces)
        pieces.append("\n")
        return "".join(pieces)
    # No CSV field needs quoting: each is a number, a bool, None or a fixed name.
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            ("true" if v else "false") if type(v) is bool else "" if v is None else str(v)
            for v in row
        ))
    lines.append("")
    return "\n".join(lines)


def dispatch(cfg):
    """Run one validated config and return the rendered output text."""
    payload, header, rows = _COMMANDS[cfg.command](cfg)
    return render(payload, header, rows, cfg.fmt)


# Options whose value may start with '-'.  argparse takes only '-1' or '-.5'
# style tokens for negative numbers, so '--lambda -1.5e-1' or
# '--grid -1:1:0.5' would otherwise read as a missing value.
SIGNED_OPTIONS = frozenset({"--grid", "--lambda", "--mu", "--tol"})


def _absorb_signed_values(argv):
    """Join each 'OPTION VALUE' of SIGNED_OPTIONS into 'OPTION=VALUE'."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in SIGNED_OPTIONS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _config_from(parser.parse_args(_absorb_signed_values(argv)))
        text = dispatch(cfg)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"cptwell: invalid request: {exc}", file=sys.stderr)
        return 1
    except CptwellError as exc:
        print(f"cptwell: computation failed: {exc}", file=sys.stderr)
        return 2
    if cfg.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cptwell: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
