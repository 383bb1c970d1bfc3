"""Tests of the benchmark itself: inputs, oracle, tracer and self-time arithmetic.

Run with ``python3 -m pytest bench`` from the root of the checkout.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import provenance

provenance.use_checkout_source()

import cptwell  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def first_rounds(name, seed, count=3):
    return list(islice(workloads.rounds(name, seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    assert first_rounds(name, 7) == first_rounds(name, 7)
    assert first_rounds(name, 7) != first_rounds(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_composition(name):
    kinds = [sorted((op.kind, op.n) for op in ops) for ops in first_rounds(name, 3, 4)]
    assert all(k == kinds[0] for k in kinds)


def test_ep_scan_grids_straddle_the_window_edge():
    for ops in first_rounds("ep_scan", 5):
        for op in ops:
            for axis in (op.lam_grid, op.mu_grid):
                outside = [v for v in axis if abs(v) > 1.0]
                assert len(outside) == 1 and abs(outside[0]) <= workloads.EDGE_MAX


def spectrum_op(n=12, lam=0.4, mu=-0.3):
    op = workloads.Op("spectrum", n, lam, mu)
    return op, workloads.execute(op)


def test_oracle_accepts_correct_answers():
    for name in workloads.WORKLOADS:
        for op in first_rounds(name, 11, 1)[0][:4]:
            assert oracle.check(op, workloads.execute(op)) is None, op


def test_oracle_flags_a_perturbed_eigenvalue():
    op, spec = spectrum_op()
    values = spec.values.copy()
    values[3] += 1e-4
    wrong = dataclasses.replace(spec, values=values)
    assert "differ from eigvals" in oracle.check(op, wrong)


def test_oracle_flags_a_flipped_all_real():
    op, spec = spectrum_op()
    assert "all_real" in oracle.check(op, dataclasses.replace(spec, all_real=False))


def test_oracle_flags_a_wrong_scan_classification():
    op = workloads.Op("scan", 6, lam_grid=(0.2, 1.1), mu_grid=(0.5,))
    scan = workloads.execute(op)
    assert oracle.check(op, scan) is None
    pairs = scan.complex_pairs.copy()
    pairs[1] += 1
    assert "complex_pairs" in oracle.check(op, dataclasses.replace(scan, complex_pairs=pairs))


def cli_answer(op, edit):
    rc, out, err = workloads.execute(op)
    payload = json.loads(out)
    edit(payload)
    return rc, json.dumps(payload), err


def test_oracle_flags_a_metric_that_does_not_intertwine():
    op = workloads.Op("metric", 6, 0.3, 0.3)

    def bump(payload):
        payload["theta"][0][1] += 1e-3
        payload["theta"][1][0] += 1e-3

    assert oracle.check(op, cli_answer(op, bump)) is not None


def test_oracle_flags_a_charge_that_is_not_an_involution():
    op = workloads.Op("charge", 6, 0.3, 0.3)

    def scale(payload):
        payload["c_spectral"] = [[1.01 * v for v in row] for row in payload["c_spectral"]]

    assert oracle.check(op, cli_answer(op, scale)) is not None


def test_oracle_flags_a_short_pseudometric_basis():
    op = workloads.Op("pseudometrics", 6, 0.3, -0.2)

    def drop(payload):
        payload["elements"].pop()

    assert "dimension" in oracle.check(op, cli_answer(op, drop))


def test_oracle_flags_wrong_continuum_levels():
    op = workloads.Op("continuum", 32, 0.3, 0.3, levels=2)

    def shift(payload):
        payload["scaled_levels"][2][1] *= 1.0 + 1e-6

    assert "continuum" in oracle.check(op, cli_answer(op, shift))


def test_fingerprint_tells_different_outputs_apart():
    op, spec = spectrum_op()
    assert oracle.fingerprint(spec) == oracle.fingerprint(workloads.execute(op))
    other = dataclasses.replace(spec, min_gap=spec.min_gap * (1.0 + 1e-15))
    assert oracle.fingerprint(spec) != oracle.fingerprint(other)


def cptwell_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "cptwell" or name.startswith("cptwell.")
    }


def test_every_wrapped_name_is_restored():
    before = cptwell_namespaces()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cptwell.spectrum_of is not before["cptwell"]["spectrum_of"]
        assert cptwell.spectra.eigen_real is not before["cptwell.spectra"]["eigen_real"]
        workloads.execute(workloads.Op("scan", 4, lam_grid=(0.5, 1.1), mu_grid=(0.2,)))
    after = cptwell_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr}"
    names = {span[0] for span in tracer.spans}
    assert {"spectra.eigen_general", "kernels.newton_roots", "hamiltonian.build"} <= names


def test_names_are_restored_when_the_traced_body_raises():
    before = cptwell.build
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("stop")
    assert cptwell.build is before and cptwell.spectra.build is before


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] with children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]; a malformed overlap [3, 6] must not be counted twice.
    spans = [
        ["root", 0.0, 10.0, -1, False],
        ["a", 1.0, 4.0, 0, False],
        ["b", 5.0, 9.0, 0, True],
        ["c", 6.0, 8.0, 2, False],
        ["d", 3.0, 6.0, 0, False],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 2.0, 3.0])
    assert tracing.self_times(spans[:4]) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    assert sum(tracing.self_times(spans[:4])) == pytest.approx(10.0)


def test_layer_metrics_count_calls_failures_and_routes():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["bench.op", 0.0, 10.0, -1, False],
        ["spectra.spectrum_of", 1.0, 9.0, 0, False],
        ["hamiltonian.symmetrize", 1.0, 2.0, 1, True],
        ["spectra.eigen_general", 2.0, 8.0, 1, False],
        ["dieudonne.kernel_basis.dyad", 9.0, 9.5, 0, False],
    ]
    m = tracing.layer_metrics(tracer, 10.0)
    assert m["spectra.spectrum_of.calls"] == (1, "count")
    assert m["spectra.spectrum_of.self_s"][0] == pytest.approx(1.0)
    assert m["hamiltonian.symmetrize.failed"] == (1, "count")
    assert m["spectra.general_share"] == (1.0, "fraction")
    assert m["dieudonne.kernel_basis.dyad.total_s"][0] == pytest.approx(0.5)
    assert m["trace.self_sum_s"][0] == pytest.approx(10.0)


def test_traced_counts_come_from_returned_values():
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.execute(workloads.Op("scan", 6, lam_grid=(1.1,), mu_grid=(0.2,)))
        workloads.execute(workloads.Op("charge", 5, 0.3, 0.3))
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["kernels.newton_roots.calls"][0] == 1
    assert m["kernels.newton_roots.attempts"][0] >= 6
    assert m["kernels.newton_roots.roots_per_attempt"][0] == pytest.approx(
        6 / m["kernels.newton_roots.attempts"][0]
    )
    assert m["kernels.tridiag_solve_shifted.solves_per_vector"][0] >= 1.0
    assert m["kernels.bisect_spectrum.sturm_steps"][0] > 0


def test_latencies_are_scaled_to_the_nominal_machine_per_operation():
    import calibration

    nominal = calibration.NOMINAL_S
    phase = run.Phase()
    phase.rounds = [
        [(0.010, 2.0 * nominal), (0.030, 2.0 * nominal)],
        [(0.004, 0.5 * nominal), (0.006, 0.5 * nominal)],
    ]
    assert phase.latencies() == pytest.approx([0.005, 0.015, 0.008, 0.012])
    assert phase.ops_per_s() == pytest.approx(100.0)
    assert phase.latencies(scaled=False) == pytest.approx([0.010, 0.030, 0.004, 0.006])
    assert phase.ops_per_s(scaled=False) == pytest.approx(125.0)


def test_tail_falls_back_to_a_percentile_with_ten_samples_beyond():
    latencies = list(np.linspace(0.001, 0.1, 60))
    assert run.tail(latencies, 95.0)[0] == 75.0
    assert run.tail(latencies * 4, 95.0)[0] == 95.0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "window_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
