"""The package namespace: what ``import cptwell`` loads, and the public names.

The spectrum core is imported with the package; the operator layer
(continuum, dieudonne, quasihermitian) is imported on first access through
the package's module-level ``__getattr__``.  Oracles: ``sys.modules`` of a
fresh interpreter, and each public name's defining module.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys

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
        assert len(cptwell.__all__) == len(set(cptwell.__all__)) == 48

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
