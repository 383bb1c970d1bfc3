"""The package namespace: what ``import cptwell`` loads, and the public names.

The spectrum core is imported with the package; the operator layer
(continuum, dieudonne, quasihermitian) is imported on first access through
the package's module-level ``__getattr__``.  Oracles: ``sys.modules`` of a
fresh interpreter, and each public name's defining module.  Last, the public
entry points on extreme input: each call answers finite or raises a
``CptwellError``, with no warning.
"""

import ast
import importlib
import inspect
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cptwell

OPERATOR_MODULES = ("cptwell.continuum", "cptwell.dieudonne", "cptwell.quasihermitian")
SPECTRUM_CORE = {"cptwell", "cptwell.errors", "cptwell.hamiltonian", "cptwell.spectra"}


def fresh_modules(statement):
    """The cptwell modules a fresh interpreter holds after running ``statement``."""
    package_root = os.path.dirname(os.path.dirname(cptwell.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    code = f"{statement}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('cptwell')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


class TestImportFootprint:
    def test_the_package_and_the_cli_load_no_operator_module(self):
        loaded = fresh_modules("import cptwell, cptwell.cli")
        assert {"cptwell", "cptwell.cli", "cptwell.spectra"} <= loaded
        assert loaded.isdisjoint(OPERATOR_MODULES)

    def test_the_package_loads_exactly_the_spectrum_core(self):
        assert fresh_modules("import cptwell") == SPECTRUM_CORE

    def test_the_package_and_the_cli_do_not_load_the_kernels_module(self):
        # kernels.py holds only a flag for the benchmark harness.
        assert "cptwell.kernels" not in fresh_modules("import cptwell, cptwell.cli")

    def test_an_operator_module_loads_on_first_access(self):
        loaded = fresh_modules("import cptwell\nassert cptwell.continuum.convergence_study")
        assert "cptwell.continuum" in loaded
        assert loaded.isdisjoint({"cptwell.dieudonne", "cptwell.quasihermitian"})

    def test_an_operator_name_loads_its_module_on_first_access(self):
        loaded = fresh_modules("import cptwell\ncptwell.kernel_basis")
        assert "cptwell.dieudonne" in loaded
        assert loaded.isdisjoint({"cptwell.continuum", "cptwell.quasihermitian"})


class TestPublicNames:
    def test_all_is_the_sorted_imported_and_operator_names_with_the_version_last(self):
        # The oracle reads the package source: the names its imports bind.
        tree = ast.parse(inspect.getsource(cptwell))
        eager = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        lazy = {name for names in cptwell._OPERATOR_NAMES.values() for name in names}
        assert cptwell.__all__ == sorted(eager | lazy) + ["__version__"]
        assert len(cptwell.__all__) == len(set(cptwell.__all__)) == 42
        # The second real-branch solver is gone: eigenvectors come from biorthogonalize.
        assert {"SymmetrizedForm", "eigen_real", "symmetrize"}.isdisjoint(dir(cptwell))

    def test_every_public_name_is_its_defining_module_s_object(self):
        for name in cptwell.__all__:
            if name == "__version__":
                continue
            obj = getattr(cptwell, name)
            assert obj.__module__.startswith("cptwell."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_the_operator_modules_are_reachable_as_attributes(self):
        for module in OPERATOR_MODULES:
            assert getattr(cptwell, module.split(".")[1]) is importlib.import_module(module)

    def test_dir_covers_the_public_names(self):
        assert set(cptwell.__all__) <= set(dir(cptwell))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from cptwell import *", namespace)
        assert set(cptwell.__all__) <= namespace.keys()

    def test_an_unknown_name_is_an_attribute_error(self):
        assert not hasattr(cptwell, "no_such_name")

    def test_a_name_rebound_in_its_module_is_seen_through_the_package(self, monkeypatch):
        # Operator-layer names are looked up on every access, not stored in
        # the package, so a wrapper installed in the module reaches package
        # callers and is gone once the module's binding is restored.
        from cptwell import quasihermitian

        original = quasihermitian.biorthogonalize
        monkeypatch.setattr(quasihermitian, "biorthogonalize", len)
        assert cptwell.biorthogonalize is len
        monkeypatch.undo()
        assert cptwell.biorthogonalize is original
        assert "biorthogonalize" not in vars(cptwell)

    def test_the_spectral_dyads_live_with_the_biorthogonal_system(self):
        from cptwell import dieudonne, quasihermitian

        assert cptwell.spectral_dyads is quasihermitian.spectral_dyads
        assert not hasattr(dieudonne, "spectral_dyads")


def finite_parts(result):
    """The arrays of a result of the entry points below."""
    if isinstance(result, complex):
        return [np.array(result)]
    if isinstance(result, cptwell.Spectrum):
        return [result.values]
    if isinstance(result, cptwell.PseudometricBasis):
        return result.basis
    if isinstance(result, cptwell.BiorthogonalSystem):
        return [result.values, result.right, result.left, result.overlaps]
    return list(result)


class TestExtremeInput:
    COUPLINGS = (0.3, -(1.0 - 1e-12), 1.0, -2.5, 1e200, 1.7e308, 5e-324)

    def test_every_entry_point_answers_finite_or_raises_a_cptwell_error(self):
        # Exhaustive over the grid.  Without their checks, char_poly returns
        # NaN with RuntimeWarnings on 351 of its 441 calls, and scan_line takes
        # a complex sign equal to +-1 and returns a complex mu with
        # ComplexWarnings.
        entry_points = (
            cptwell.spectrum_of,
            cptwell.eigen_general,
            cptwell.kernel_basis,
            cptwell.biorthogonalize,
            cptwell.spectral_dyads,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, lam, mu in itertools.product((2, 3, 7), self.COUPLINGS, self.COUPLINGS):
                h = cptwell.build(n, (lam, mu))
                calls = [lambda f=f: f(h) for f in entry_points]
                calls += [lambda e=e: cptwell.char_poly(h, e) for e in (2, 1e200, -3.5 + 1e180j)]
                for call in calls:
                    try:
                        result = call()
                    except cptwell.CptwellError:
                        continue
                    assert all(np.isfinite(a).all() for a in finite_parts(result)), (n, lam, mu)
            for sign in (1 + 0j, np.complex128(-1)):
                with pytest.raises(cptwell.ValidationError):
                    cptwell.scan_line(4, [0.5, 1.5], sign)
