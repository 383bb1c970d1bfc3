"""One sha256 over a fixed set of in-process ``cptwell`` invocations.

Usage::

    python tools/cli_digest.py SRC_DIR

SRC_DIR is the directory that holds the ``cptwell`` package (``src`` in a
checkout).  The script imports the package from there, runs
``cptwell.cli.main`` on every invocation of ``invocations()`` with warnings
set to "always", and prints the number of invocations and one sha256 over
(argv, exit code, stdout, stderr) of all of them, plus the text an
``--output`` request wrote.  Then it prints one line per subcommand (the
first argument; ``(none)`` for the bare call) with its number of invocations
and a sha256 over its records alone.  Run it on two checkouts on one machine:
equal digests mean that both print the same bytes for every invocation, and
equal subcommand digests that the subcommand kept its bytes.  An exception
that escapes ``cptwell.cli.main`` is hashed as "Type: message" in place of
the exit code; after its lines the script then names each such invocation
on stderr and exits 1.

The set covers every subcommand in JSON and CSV, n from 2 to 160, couplings
inside and outside the window (0.999999, +-1, 1e308 and more), scan grids
with failing cells, and refusals.  ``--help`` is left out: its text depends
on the Python version.  SRC_DIR's absolute path is replaced by ``SRC`` in
stderr, so that a warning's file name does not tell two checkouts apart.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

SIZES = ("2", "3", "4", "7", "8", "16", "33", "64", "160")
COUPLINGS = ("0", "0.3", "-0.41", "0.999999", "0.999999999999", "1", "-1", "1.2",
             "-2.5", "1e308")
FORMATS = ("json", "csv")
# Off both coupling lines for every coupling above.
OFF_LINE_MU = "0.27"
OUTPUT = "{output}"


def _couplings(lam, mus):
    """--lambda and --mu arguments: mu omitted, on mu = -lambda, or off the lines."""
    for mu in mus:
        if mu is None:
            yield ("--lambda", lam)
        elif mu == "neg":
            yield ("--lambda", lam, "--mu", lam[1:] if lam.startswith("-") else "-" + lam)
        else:
            yield ("--lambda", lam, "--mu", mu)


def _requests(command, sizes, mus):
    for n, lam in product(sizes, COUPLINGS):
        for couplings in _couplings(lam, mus):
            yield (command, "-N", n, *couplings)


def invocations():
    """The fixed invocation set, as argv tuples (``{output}`` marks a file path)."""
    requests = [
        *_requests("spectrum", ("2", "3", "4", "8", "33", "160"), (None, "neg", OFF_LINE_MU)),
        *_requests("pseudometrics", ("2", "3", "5", "8", "17", "40"), (None, OFF_LINE_MU)),
        *_requests("metric", SIZES, (None, "neg", OFF_LINE_MU)),
        *_requests("charge", SIZES, (None, "neg", OFF_LINE_MU)),
        *_requests("verify", SIZES, (None, "neg", OFF_LINE_MU)),
    ]
    grids = ("-1.2:1.2:0.4", "0:1.2:0.3", "0.999999:1.000001:0.000001",
             "1e300:1e300:1", "-1e308:1e308:1e308")
    for n, grid in product(("2", "3", "4", "8", "16"), grids):
        for line in ((), ("--line", "mu=lambda"), ("--line", "mu=-lambda")):
            requests.append(("scan", "-N", n, "--grid", grid, *line))
    requests += [
        ("pseudometrics", "-N", "64", "--lambda", "0.41", "--mu", "-0.27"),
        ("pseudometrics", "-N", "64", "--lambda", "2.0"),
        ("spectrum", "-N", "5", "--lambda", "1.3", "--tol", "0.5"),
        ("spectrum", "-N", "5", "--lambda", "-1.5e-1", "--tol", "0"),
        ("scan", "-N", "4", "--grid", "-1.2:1.2:0.1", "--tol", "1e-3"),
        # Every cell fails: the Gershgorin radius overflows the float range.
        ("scan", "-N", "3", "--grid", "1.5e308:1.7e308:1e307"),
    ]
    for n, lam, levels in product(("8", "16", "20", "24", "64", "160"),
                                  ("0", "0.3", "-0.5", "0.999999", "1", "1.5"),
                                  ("1", "2", "3")):
        requests.append(("continuum", "-N", n, "--lambda", lam, "--levels", levels))
    requests.append(("continuum",))
    out = [(*argv, "--format", fmt) for argv in requests for fmt in FORMATS]
    out += [
        (*argv, "--output", OUTPUT)
        for argv in (("spectrum", "-N", "4", "--lambda", "0.3"),
                     ("scan", "-N", "3", "--grid", "0:1:0.5", "--format", "csv"),
                     ("verify", "-N", "6", "--lambda", "0.7"),
                     ("continuum", "-N", "32", "--levels", "2", "--format", "csv"))
    ]
    out += [
        (),
        ("frobnicate",),
        ("spectrum",),
        ("spectrum", "-N", "3"),
        ("spectrum", "-N", "x", "--lambda", "0"),
        ("spectrum", "-N", "1", "--lambda", "0"),
        ("spectrum", "-N", "3", "--lambda", "nan"),
        ("spectrum", "-N", "3", "--lambda", "inf"),
        ("spectrum", "-N", "3", "--lambda", "0", "--frazzle"),
        ("spectrum", "-N", "3", "--lambda", "0", "--format", "xml"),
        ("spectrum", "-N", "3", "--lambda", "0", "--tol", "-1"),
        ("spectrum", "-N", "3", "--lambda", "0", "--tol", "nan"),
        ("spectrum", "-N", "3", "--lambda"),
        ("spectrum", "-N", "100000", "--lambda", "0.3"),
        ("pseudometrics", "-N", "257", "--lambda", "0.3"),
        ("pseudometrics", "-N", "256", "--lambda", "0.3", "--mu", "nan"),
        ("scan", "-N", "3"),
        ("scan", "-N", "3", "--grid", "bogus"),
        ("scan", "-N", "3", "--grid", "0:1"),
        ("scan", "-N", "3", "--grid", "1:0:0.5"),
        ("scan", "-N", "3", "--grid", "0:1:0"),
        ("scan", "-N", "3", "--grid", "0:1e9:1e-9"),
        ("scan", "-N", "3", "--grid", "0:inf:1"),
        ("scan", "-N", "3", "--grid", "0:1:0.5", "--line", "mu=2lambda"),
        ("scan", "-N", "3", "--grid", "0:1:0.5", "--lambda", "0.3"),
        ("metric", "-N", "4", "--lambda", "0.5", "--mu", "0.5000001"),
        ("charge", "-N", "4", "--lambda", "0.5", "--mu", "-0.5"),
        ("verify", "-N", "4", "--lambda", "0.5", "--mu", "-0.5"),
        ("continuum", "-N", "16", "--levels", "0"),
        ("continuum", "-N", "16", "--levels", "3", "--lambda", "0.5", "--mu", "0.5"),
        ("continuum", "-N", "4104"),
    ]
    return out


def run(main, argv, output):
    """(exit code or exception, stdout, stderr, written file) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main([output if a == OUTPUT else a for a in argv])
        except (Exception, SystemExit) as exc:  # a crash is recorded, not raised
            rc = f"{type(exc).__name__}: {exc}"
    written = None
    if OUTPUT in argv and os.path.exists(output):
        with open(output, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(output)
    return rc, out.getvalue(), err.getvalue(), written


def main(args):
    if len(args) != 1:
        print("usage: python tools/cli_digest.py SRC_DIR", file=sys.stderr)
        return 1
    src = os.path.abspath(args[0])
    sys.path.insert(0, src)
    from cptwell import cli

    digest = hashlib.sha256()
    counts = Counter()
    parts = defaultdict(hashlib.sha256)
    argvs = invocations()
    crashed = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always")
        output = os.path.join(tmp, "out.txt")
        for argv in argvs:
            rc, out, err, written = run(cli.main, argv, output)
            if isinstance(rc, str):
                crashed.append((argv, rc))
            record = [list(argv), rc, out, err.replace(src, "SRC"), written]
            line = json.dumps(record).encode() + b"\n"
            digest.update(line)
            command = argv[0] if argv else "(none)"
            counts[command] += 1
            parts[command].update(line)
    print(f"{len(argvs)} invocations sha256 {digest.hexdigest()}")
    for command in sorted(parts):
        print(f"  {command} {counts[command]} invocations sha256 {parts[command].hexdigest()}")
    for argv, rc in crashed:
        print(f"crashed: {' '.join(argv) or '(none)'}: {rc}", file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
