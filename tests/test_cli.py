"""Command-line interface: schemas, determinism, and exit codes.

The tool promises byte-identical output for identical invocations, JSON with
keys in a fixed insertion order, CSV with repr-exact floats, and the exit
code convention 0 = success, 1 = invalid request, 2 = computation failed.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cptwell import cli
from cptwell.cli import MAX_ENTRIES, MAX_GRID_POINTS, main, parse_grid
from cptwell.errors import ValidationError


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


class TestParseGrid:
    def test_inclusive_endpoints_with_arange_semantics(self):
        assert parse_grid("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_negative_bounds(self):
        got = parse_grid("-1.2:1.2:0.6")
        assert got == tuple(-1.2 + k * 0.6 for k in range(5))
        assert np.max(np.abs(np.array(got) - [-1.2, -0.6, 0.0, 0.6, 1.2])) <= 1e-15

    def test_single_point_grid(self):
        assert parse_grid("0.5:0.5:1") == (0.5,)

    def test_malformed_specs_are_rejected(self):
        for spec in ("bogus", "0:1", "0:1:0", "1:0:0.5", "a:b:c", "0:1:-0.5"):
            with pytest.raises(ValidationError):
                parse_grid(spec)

    def test_non_finite_bounds_are_rejected(self):
        for spec in ("0:inf:1", "-inf:0:1", "nan:1:0.5", "0:1:inf", "0:1e309:1"):
            with pytest.raises(ValidationError, match="grid bounds must be finite"):
                parse_grid(spec)

    def test_point_count_is_bounded(self):
        assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        for spec in (f"0:{MAX_GRID_POINTS}:1", "0:1e9:1e-9", "-1e308:1e308:1e-300"):
            with pytest.raises(ValidationError):
                parse_grid(spec)

    def test_a_huge_grid_is_refused_before_it_is_built(self):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc, out, err = run("scan", "-N", "3", "--grid", "0:1e9:1e-9")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1 and out == ""
        assert err.startswith("cptwell: invalid request:")
        assert time.perf_counter() - start < 5.0
        assert peak < 1 << 20


class TestSpectrumCommand:
    def test_json_payload_and_values(self):
        rc, out, err = run("spectrum", "-N", "3", "--lambda", "0")
        assert rc == 0 and err == ""
        payload = json.loads(out)
        assert list(payload) == ["n", "lambda", "mu", "values", "all_real", "min_gap"]
        re_parts = [v["re"] for v in payload["values"]]
        expect = [2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)]
        assert np.max(np.abs(np.array(re_parts) - expect)) <= 1e-12
        assert payload["all_real"] is True

    def test_csv_payload(self):
        rc, out, _ = run("spectrum", "-N", "3", "--lambda", "0", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,re,im"
        assert lines[1].startswith("1,0.5857864376269")
        assert len(lines) == 4

    def test_mu_defaults_to_lambda(self):
        a = run("spectrum", "-N", "4", "--lambda", "0.3")
        b = run("spectrum", "-N", "4", "--lambda", "0.3", "--mu", "0.3")
        assert a == b

    def test_negative_lambda_parses(self):
        # argparse alone reads only '-1' and '-.5' style tokens as numbers.
        for argv, lam, mu in (
            (("spectrum", "-N", "2", "--lambda", "-0.5"), -0.5, -0.5),
            (("spectrum", "-N", "3", "--lambda", "-1.5e-1"), -0.15, -0.15),
            (("spectrum", "-N", "3", "--lambda", "0.2", "--mu", "-1e-3"), 0.2, -1e-3),
            (("metric", "-N", "4", "--lambda", "-2E-1", "--mu", "-2E-1"), -0.2, -0.2),
            (("continuum", "--lambda", "-1e-1", "-N", "16"), -0.1, None),
        ):
            rc, out, err = run(*argv)
            assert rc == 0, (argv, err)
            payload = json.loads(out)
            assert payload["lambda"] == lam, argv
            if mu is not None:
                assert payload["mu"] == mu, argv

    def test_output_is_byte_identical_across_runs(self):
        a = run("spectrum", "-N", "6", "--lambda", "0.7", "--format", "csv")
        b = run("spectrum", "-N", "6", "--lambda", "0.7", "--format", "csv")
        assert a == b

    def test_a_negative_or_non_finite_tolerance_is_an_invalid_request(self):
        # n = 4 stays real up to lambda = sqrt(5)/2; at 1.05 it takes the
        # general branch, where --tol -1 used to fail the conjugate pairing and
        # --tol nan to report all_real false.
        for tol in ("-1", "-1e-3", "nan", "inf"):
            for command in (
                ("spectrum", "-N", "4", "--lambda", "1.05"),
                ("spectrum", "-N", "4", "--lambda", "0.5"),
                ("scan", "-N", "4", "--grid", "0.5:1.05:0.55"),
            ):
                rc, out, err = run(*command, "--tol", tol)
                assert rc == 1 and out == "", (command, tol)
                assert err.startswith("cptwell: invalid request:")

    def test_an_odd_size_past_the_blocked_lapack_threshold_prints_no_nan(self):
        # The real branch's half-size block is then not square.
        rc, out, err = run("spectrum", "-N", "65", "--lambda", "0.3", "--mu", "-0.2")
        assert rc == 0 and err == ""
        assert len(json.loads(out)["values"]) == 65 and "NaN" not in out

    def test_output_flag_writes_the_file_and_keeps_stdout_quiet(self, tmp_path):
        target = tmp_path / "spectrum.json"
        rc, out, _ = run("spectrum", "-N", "3", "--lambda", "0", "--output", str(target))
        assert rc == 0 and out == ""
        direct = run("spectrum", "-N", "3", "--lambda", "0")[1]
        assert target.read_text() == direct

    def test_an_unwritable_output_path_is_one_line_and_exit_1(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        rc, out, err = run("spectrum", "-N", "3", "--lambda", "0", "--output", str(target))
        assert rc == 1 and out == "" and not target.exists()
        assert err.startswith("cptwell: cannot write output:") and err.count("\n") == 1
        assert str(target) in err


class TestScanCommand:
    def test_line_scan_csv_matches_the_reality_window(self):
        rc, out, _ = run(
            "scan", "-N", "6", "--grid", "-1.2:1.2:0.05", "--line", "mu=lambda",
            "--format", "csv",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,mu,all_real,complex_pairs,min_gap"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 49
        false_lams = sorted(float(r[0]) for r in rows if r[2] == "false")
        assert np.max(np.abs(np.array(false_lams) - [-1.2, -1.15, -1.1, 1.1, 1.15, 1.2])) <= 1e-9
        for r in rows:
            if r[2] == "false":
                assert int(r[3]) >= 1
            if abs(float(r[0])) <= 0.951:
                assert float(r[4]) > 1e-8

    def test_opposite_line_scan_reports_matching_mu(self):
        rc, out, _ = run(
            "scan", "-N", "3", "--grid", "0:0.5:0.25", "--line", "mu=-lambda",
            "--format", "csv",
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for r in rows:
            assert float(r[1]) == -float(r[0])

    def test_product_grid_json_is_row_major(self):
        rc, out, _ = run("scan", "-N", "2", "--grid", "0:0.5:0.5")
        payload = json.loads(out)
        assert list(payload) == ["n", "grid", "line", "cells", "diagnostics"]
        assert payload["line"] is None
        got = [(c["lambda"], c["mu"]) for c in payload["cells"]]
        assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        assert payload["diagnostics"] == []

    def test_grid_value_starting_with_a_minus_sign_is_accepted(self):
        rc, out, _ = run("scan", "-N", "2", "--grid", "-0.5:0.5:0.5", "--line", "mu=lambda")
        assert rc == 0
        assert [c["lambda"] for c in json.loads(out)["cells"]] == [-0.5, 0.0, 0.5]

    def test_malformed_grid_exits_with_usage_error(self):
        rc, out, err = run("scan", "-N", "4", "--grid", "bogus")
        assert rc == 1 and out == ""
        assert err.startswith("cptwell: invalid request:")


class TestPseudometricsCommand:
    def test_json_reports_the_full_dimension(self):
        rc, out, _ = run("pseudometrics", "-N", "4", "--lambda", "0.3", "--mu", "-0.2")
        payload = json.loads(out)
        assert payload["dimension"] == 4
        assert payload["independence"] > 1e-8
        assert len(payload["elements"]) == 4

    def test_csv_lists_every_entry_with_its_residual(self):
        rc, out, _ = run("pseudometrics", "-N", "2", "--lambda", "0.0", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "element,row,col,value,residual"
        assert len(lines) == 1 + 2 * 4

    def test_a_cell_whose_first_rows_grow_answers(self):
        # Far outside the window, above n = 32: refused until the recurrence
        # re-orthonormalized its rows.
        rc, out, err = run("pseudometrics", "-N", "40", "--lambda", "2.5", "--mu", "0.3")
        assert rc == 0 and err == ""
        assert json.loads(out)["dimension"] == 40


class TestMetricCommand:
    def test_matched_line_metric_is_positive(self):
        rc, out, _ = run("metric", "-N", "3", "--lambda", "0.5")
        payload = json.loads(out)
        assert rc == 0
        assert payload["pseudometric"] == "exchange"
        assert payload["positive"] is True
        assert payload["smallest_eigenvalue"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        theta = np.asarray(payload["theta"])
        assert np.max(np.abs(theta - np.diag([1.0 / 3.0, 1.0, 3.0]))) <= 1e-10

    def test_opposite_line_uses_the_weighted_template(self):
        rc, out, _ = run("metric", "-N", "3", "--lambda", "0.5", "--mu", "-0.5")
        payload = json.loads(out)
        assert payload["pseudometric"] == "weighted"
        assert payload["positive"] is True
        assert payload["residual_theta"] <= 1e-12

    def test_an_overflowing_bond_fails_instead_of_printing_nan(self):
        rc, out, err = run("metric", "-N", "2", "--lambda", "1e308", "--mu", "-1e308")
        assert rc == 2 and out == ""
        assert err.startswith("cptwell: computation failed:")

    def test_off_line_couplings_are_refused(self):
        rc, out, err = run("metric", "-N", "3", "--lambda", "0.5", "--mu", "0.3")
        assert rc == 1
        assert "mu = +lambda or mu = -lambda" in err

    # Both lines, sizes with n = 2 and n = 3 special, and couplings up to
    # within 1e-3 of the exceptional points.
    LINES = (("exchange", 1.0), ("weighted", -1.0))
    SIZES = (2, 3, 4, 5, 8, 24, 64)
    COUPLINGS = (-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.95, 0.999)

    @staticmethod
    def printed_theta(n, lam, mu):
        rc, out, err = run("metric", "-N", str(n), f"--lambda={lam!r}", f"--mu={mu!r}")
        assert rc == 0 and err == "", (n, lam, mu, err)
        payload = json.loads(out)
        assert payload["positive"] is True
        return np.array(payload["theta"])

    def test_the_printed_theta_agrees_with_the_spectral_chain(self):
        # The spectral chain P -> nu -> C of the library, Theta = P C, to
        # rounding wherever it answers.
        from cptwell import quasihermitian
        from cptwell.errors import NumericalError
        from cptwell.hamiltonian import build

        answered = 0
        for variant, sign in self.LINES:
            for n in self.SIZES:
                for lam in self.COUPLINGS:
                    theta = self.printed_theta(n, lam, sign * lam)
                    p = quasihermitian.closed_form_operators(n, lam, variant).p
                    try:
                        system = quasihermitian.biorthogonalize(build(n, (lam, sign * lam)))
                        nu = quasihermitian.decompose_inverse_pseudometric(p, system)
                        c = quasihermitian.assemble_charge_spectral(system, nu).c
                    except NumericalError:
                        continue
                    spectral = p @ c
                    defect = np.max(np.abs(theta - spectral)) / np.max(np.abs(spectral))
                    assert defect <= 1e-12, (variant, n, lam, defect)
                    answered += 1
        assert answered >= len(self.LINES) * len(self.SIZES) * (len(self.COUPLINGS) - 2)

    def test_the_printed_theta_is_exactly_the_closed_form_diagonal(self):
        for variant, sign in self.LINES:
            for n in self.SIZES:
                for lam in self.COUPLINGS:
                    theta = self.printed_theta(n, lam, sign * lam)
                    off = theta - np.diag(np.diag(theta))
                    assert np.count_nonzero(off) == 0, (variant, n, lam)
                    alpha = (1 - lam) / (1 + lam)
                    last = alpha if variant == "weighted" else (1 + lam) / (1 - lam)
                    if n == 2 and variant == "exchange":
                        expect = [np.sqrt(alpha), np.sqrt(last)]
                    else:
                        expect = [alpha] + [1.0] * (n - 2) + [last]
                    assert np.diag(theta).tolist() == expect, (variant, n, lam)

    @pytest.mark.parametrize("n", ["3", "64", "160"])
    @pytest.mark.parametrize("lam", ["0.999999", "0.999999999999"])
    def test_the_exceptional_point_corners_answer_exactly(self, n, lam):
        # The spectral chain refused these: NotDyadRepresentable, a vanishing
        # overlap or a degenerate gap.
        for mu in (lam, "-" + lam):
            theta = self.printed_theta(int(n), float(lam), float(mu))
            assert np.count_nonzero(theta - np.diag(np.diag(theta))) == 0
            assert theta[0, 0] == (1 - float(lam)) / (1 + float(lam))

    def test_metric_does_not_pair_eigenvectors(self, monkeypatch):
        from cptwell import quasihermitian

        def refuse(*args):
            raise AssertionError("metric ran the spectral chain")

        for name in ("biorthogonalize", "decompose_inverse_pseudometric",
                     "assemble_charge_spectral", "eigen_real"):
            monkeypatch.setattr(quasihermitian, name, refuse)
        for mu in ("0.4", "-0.4"):
            rc, _, err = run("metric", "-N", "16", "--lambda", "0.4", "--mu", mu)
            assert rc == 0 and err == ""

    @pytest.mark.parametrize("argv", [
        ("-N", "8", "--lambda", "1.2"),
        ("-N", "8", "--lambda", "-1", "--mu", "1"),
        ("-N", "2", "--lambda", "1.2", "--mu", "-1.2"),
        ("-N", "2", "--lambda", "1", "--mu", "-1"),
    ])
    def test_couplings_outside_the_open_square_are_refused(self, argv):
        # At n = 2 on mu = -lambda H is symmetric, but Theta = alpha I is negative.
        rc, out, err = run("metric", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("cptwell: computation failed: no positive metric at lambda=")
        assert err.rstrip("\n").endswith(", outside |lambda| < 1")


class TestChargeCommand:
    def test_spectral_and_closed_routes_agree(self):
        rc, out, _ = run("charge", "-N", "5", "--lambda", "0.4")
        payload = json.loads(out)
        assert rc == 0
        assert payload["max_difference"] <= 1e-9
        assert payload["residual_involution_closed"] <= 1e-12
        assert payload["residual_involution_spectral"] <= 1e-10

    def test_csv_pairs_both_routes_entry_by_entry(self):
        rc, out, _ = run("charge", "-N", "2", "--lambda", "0.5", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "row,col,spectral,closed"
        assert len(lines) == 5

    def test_dead_bond_fails_as_a_computation_error(self):
        rc, out, err = run("charge", "-N", "3", "--lambda", "2.0")
        assert rc == 2 and out == ""
        assert err.startswith("cptwell: computation failed:")

    @pytest.mark.parametrize("argv", [
        ("metric", "-N", "3", "--lambda=0.9999999999999", "--mu=-0.9999999999999"),
        ("metric", "-N", "48", "--lambda=0.99999999"),
        ("charge", "-N", "48", "--lambda=0.99999999"),
    ])
    def test_near_the_exceptional_point_only_the_involution_can_refuse(self, argv):
        # Each exited 2 on "coefficient identities violated", a check that
        # measured only the rounding of the charge's coefficients.
        rc, out, err = run(*argv)
        if rc == 0:
            payload = json.loads(out)
            assert payload.get("positive", True) is True
        else:
            assert rc == 2 and out == ""
            assert err.startswith("cptwell: computation failed: charge involution defect")


    @pytest.mark.parametrize("command", ["metric", "charge"])
    def test_a_vanishing_overlap_fails_as_a_computation_error(self, command):
        # Only charge still pairs eigenvectors; metric's closed form needs no
        # overlaps and answers.
        rc, out, err = run(command, "-N", "5", "--lambda", "0.999999999999")
        if command == "metric":
            assert rc == 0 and err == ""
            assert json.loads(out)["positive"] is True
            return
        assert rc == 2 and out == ""
        assert err.startswith("cptwell: computation failed: vanishing overlap 1.000e-12")

    def test_charge_prints_the_spectral_coefficients(self):
        from cptwell import quasihermitian
        from cptwell.hamiltonian import build

        for n, lam in ((2, 0.5), (5, -0.4), (8, 0.9), (24, 0.3)):
            rc, out, _ = run("charge", "-N", str(n), f"--lambda={lam!r}")
            assert rc == 0
            payload = json.loads(out)
            system = quasihermitian.biorthogonalize(build(n, (lam, lam)))
            nu = quasihermitian.decompose_inverse_pseudometric(np.fliplr(np.eye(n)), system)
            asm = quasihermitian.assemble_charge_spectral(system, nu)
            assert payload["nu"] == asm.nu.tolist(), (n, lam)
            assert payload["kappa_sq"] == asm.kappa_sq.tolist(), (n, lam)


    # The opposite line: the closed form's C is the exchange matrix J.
    OPPOSITE_SIZES = (2, 3, 4, 5, 8, 24, 64)
    OPPOSITE_GRID = np.linspace(-0.99, 0.99, 11).tolist()

    def test_the_opposite_line_answers_with_the_exchange_charge(self):
        for n in self.OPPOSITE_SIZES:
            exchange = np.fliplr(np.eye(n)).tolist()
            for lam in self.OPPOSITE_GRID:
                rc, out, err = run("charge", "-N", str(n), f"--lambda={lam!r}", f"--mu={-lam!r}")
                assert rc == 0 and err == "", (n, lam, err)
                payload = json.loads(out)
                assert payload["mu"] == -lam
                assert payload["c_closed"] == exchange, (n, lam)
                assert payload["max_difference"] <= 1e-9, (n, lam)

    @pytest.mark.parametrize("n", ["2", "3", "8"])
    @pytest.mark.parametrize("lam", ["1", "-1", "1.2", "-2.5"])
    @pytest.mark.parametrize("line", ["mu=lambda", "mu=-lambda"])
    def test_couplings_outside_the_open_square_are_refused(self, n, lam, line):
        # At n = 2, H(lambda, -lambda) is symmetric for every lambda, so the
        # spectral chain would answer there with another involution than J.
        mu = lam if line == "mu=lambda" else lam[1:] if lam.startswith("-") else "-" + lam
        rc, out, err = run("charge", "-N", n, "--lambda", lam, "--mu", mu)
        assert rc == 2 and out == ""
        assert err == f"cptwell: computation failed: no positive metric at lambda={float(lam)}, " \
                      "outside |lambda| < 1\n"


class TestVerifyCommand:
    def test_clean_report_on_the_matched_line(self):
        rc, out, _ = run("verify", "-N", "6", "--lambda", "0.7", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,value"
        table = dict(line.split(",") for line in lines[1:])
        assert float(table["residual_p"]) <= 1e-12
        assert float(table["residual_theta"]) <= 1e-12
        assert float(table["residual_commutator"]) <= 1e-12
        assert float(table["residual_involution"]) <= 1e-12
        assert float(table["theta_min_eig"]) == pytest.approx(3.0 / 17.0, abs=1e-12)


    def test_the_opposite_line_commutes_and_squares_to_one_exactly(self):
        for n in (2, 3, 4, 5, 8, 24, 64):
            for lam in (-0.99, -0.5, 0.3, 0.9, 1.2, -2.5):
                rc, out, err = run("verify", "-N", str(n), f"--lambda={lam!r}", f"--mu={-lam!r}")
                assert rc == 0 and err == "", (n, lam, err)
                payload = json.loads(out)
                assert payload["mu"] == -lam
                assert payload["residual_commutator"] == 0.0, (n, lam)
                assert payload["residual_involution"] == 0.0, (n, lam)

    @pytest.mark.parametrize("lam", ["1", "-1"])
    def test_the_exceptional_points_have_no_closed_form(self, lam):
        for mu in (lam, lam[1:] if lam.startswith("-") else "-" + lam):
            rc, out, err = run("verify", "-N", "4", "--lambda", lam, "--mu", mu)
            assert rc == 1 and out == ""
            assert "closed forms are singular at the exceptional point" in err


class TestCouplingLines:
    @pytest.mark.parametrize("command", ["metric", "charge", "verify"])
    def test_off_both_lines_is_one_invalid_request(self, command):
        for lam, mu in (("0.5", "0.3"), ("0.5", "-0.3"), ("1.2", "0.27")):
            rc, out, err = run(command, "-N", "4", "--lambda", lam, "--mu", mu)
            assert rc == 1 and out == ""
            assert err == ("cptwell: invalid request: this subcommand needs mu = +lambda or "
                           f"mu = -lambda; got lambda={float(lam)}, mu={float(mu)}\n")


class TestContinuumCommand:
    def test_default_ladder_reports_orders_after_two_rungs(self):
        rc, out, _ = run("continuum", "-N", "32", "--lambda", "0", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,scaled_energy,richardson_order"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["4", "8", "16", "32"]
        assert rows[0][3] == "" and rows[1][3] == ""
        assert float(rows[3][3]) == pytest.approx(1.92, abs=0.05)

    def test_json_matches_the_library_study(self):
        rc, out, _ = run("continuum", "-N", "16", "--lambda", "0.0")
        payload = json.loads(out)
        assert payload["sizes"] == [2, 4, 8, 16]
        assert len(payload["estimated_order"]) == 1

    def test_ladder_top_must_be_a_multiple_of_eight(self):
        rc, _, err = run("continuum", "-N", "20", "--lambda", "0")
        assert rc == 1
        assert "divisible by 8" in err


class TestPayloadSchema:
    """Each subcommand's JSON key order and CSV header, pinned."""

    SCHEMAS = {
        "spectrum": (
            ("-N", "4", "--lambda", "0.3"),
            ["n", "lambda", "mu", "values", "all_real", "min_gap"],
            "k,re,im",
        ),
        "scan": (
            ("-N", "3", "--grid", "0:1:0.5"),
            ["n", "grid", "line", "cells", "diagnostics"],
            "lambda,mu,all_real,complex_pairs,min_gap",
        ),
        "pseudometrics": (
            ("-N", "3", "--lambda", "0.25"),
            ["n", "lambda", "mu", "dimension", "independence", "elements"],
            "element,row,col,value,residual",
        ),
        "metric": (
            ("-N", "4", "--lambda", "0.5", "--mu", "-0.5"),
            ["n", "lambda", "mu", "pseudometric", "theta",
             "smallest_eigenvalue", "positive", "residual_theta"],
            "row,col,value",
        ),
        "charge": (
            ("-N", "4", "--lambda", "0.6"),
            ["n", "lambda", "mu", "max_difference", "residual_involution_closed",
             "residual_involution_spectral", "nu", "kappa_sq", "c_spectral", "c_closed"],
            "row,col,spectral,closed",
        ),
        "verify": (
            ("-N", "4", "--lambda", "0.7"),
            ["n", "lambda", "mu", "residual_p", "residual_theta", "residual_commutator",
             "residual_involution", "theta_min_eig"],
            "quantity,value",
        ),
        "continuum": (
            ("-N", "16", "--lambda", "0.3", "--levels", "2"),
            ["sizes", "lambda", "scaled_levels", "differences", "orders", "estimated_order"],
            "n,k,scaled_energy,richardson_order",
        ),
    }
    NESTED = {"spectrum": ("values", ["re", "im"]),
              "scan": ("cells", ["lambda", "mu", "all_real", "complex_pairs", "min_gap"]),
              "pseudometrics": ("elements", ["matrix", "residual"])}

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_json_key_order_and_csv_header(self, command):
        args, keys, header = self.SCHEMAS[command]
        rc, out, _ = run(command, *args)
        assert rc == 0
        payload = json.loads(out)
        assert list(payload) == keys
        if command in self.NESTED:
            field, inner = self.NESTED[command]
            assert payload[field] and all(list(entry) == inner for entry in payload[field])
        rc, out, _ = run(command, *args, "--format", "csv")
        assert rc == 0 and out.split("\n", 1)[0] == header


class TestTopLevelBehaviour:
    def test_no_arguments_is_a_usage_error(self):
        rc, out, err = run()
        assert rc == 1 and out == ""

    def test_unknown_subcommand_is_a_usage_error(self):
        rc, _, _ = run("frobnicate")
        assert rc == 1

    def test_unknown_flag_is_a_usage_error(self):
        rc, _, _ = run("spectrum", "-N", "3", "--lambda", "0", "--frazzle")
        assert rc == 1

    def test_size_below_two_is_an_invalid_request(self):
        rc, _, err = run("spectrum", "-N", "1", "--lambda", "0")
        assert rc == 1
        assert err.startswith("cptwell: invalid request:")

    @pytest.mark.parametrize("argv", [
        ("pseudometrics", "-N", "3000", "--lambda", "0.3"),
        ("spectrum", "-N", "100000", "--lambda", "0.3"),
    ])
    def test_an_oversized_request_is_refused_before_it_allocates(self, argv):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc, out, err = run(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1 and out == ""
        assert err.startswith("cptwell: invalid request:") and "Traceback" not in err
        assert time.perf_counter() - start < 5.0
        assert peak < 1 << 20

    def test_the_entry_budget_is_cubic_for_pseudometrics_and_square_otherwise(self):
        cube, square = round(MAX_ENTRIES ** (1 / 3)), round(MAX_ENTRIES ** 0.5)
        assert cube**3 <= MAX_ENTRIES < (cube + 1) ** 3
        assert square**2 <= MAX_ENTRIES < (square + 1) ** 2
        assert config("pseudometrics", "-N", str(cube), "--lambda", "0.3").n == cube
        with pytest.raises(ValidationError):
            config("pseudometrics", "-N", str(cube + 1), "--lambda", "0.3")
        for command in ("spectrum", "metric", "charge", "verify"):
            assert config(command, "-N", str(square), "--lambda", "0.3").n == square
            with pytest.raises(ValidationError):
                config(command, "-N", str(square + 1), "--lambda", "0.3")
        assert config("scan", "-N", str(square), "--grid", "0:1:1").n == square
        with pytest.raises(ValidationError):
            config("scan", "-N", str(square + 1), "--grid", "0:1:1")
        with pytest.raises(ValidationError):
            config("continuum", "-N", str(square + 8))

    def test_bad_format_choice_is_a_usage_error(self):
        rc, _, _ = run("spectrum", "-N", "3", "--lambda", "0", "--format", "xml")
        assert rc == 1

    def test_overflowing_couplings_leave_stderr_empty(self):
        # A fresh interpreter, so numpy warnings already shown in this process
        # cannot hide a new one.
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        # dispatch sets no floating-point error state: each layer silences
        # its own overflow, so a warning that leaks from one shows here.
        huge = ["-N", "8", "--lambda", "1e308"]
        for argv, code in (
            (["spectrum", "-N", "2", "--lambda", "1e308"], 0),
            (["scan", "-N", "3", "--grid", "1e300:1e300:1"], 0),
            (["pseudometrics", *huge], 2),
            (["metric", *huge], 2),
            (["charge", *huge], 2),
            (["verify", *huge], 0),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "cptwell.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == code, argv
            if code:
                assert proc.stdout == "", argv
                assert proc.stderr.startswith("cptwell: computation failed: "), argv
                assert proc.stderr.count("\n") == 1, argv
            else:
                assert proc.stderr == "", argv
                assert proc.stdout, argv


def list_form(obj):
    """The payload with every numpy array replaced by its tolist()."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: list_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [list_form(v) for v in obj]
    return obj


def reference_json(payload):
    return json.dumps(list_form(payload), indent=2) + "\n"


def reference_rows(command, p):
    """Reference CSV records, read off the list-form payload."""
    if command == "spectrum":
        return [(k + 1, v["re"], v["im"]) for k, v in enumerate(p["values"])]
    if command == "scan":
        return [tuple(c.values()) for c in p["cells"]]
    if command == "pseudometrics":
        return [
            (e, i, j, value, element["residual"])
            for e, element in enumerate(p["elements"])
            for i, row in enumerate(element["matrix"])
            for j, value in enumerate(row)
        ]
    if command == "metric":
        return [(i, j, v) for i, row in enumerate(p["theta"]) for j, v in enumerate(row)]
    if command == "charge":
        return [
            (i, j, s, c)
            for i, (rs, rc) in enumerate(zip(p["c_spectral"], p["c_closed"]))
            for j, (s, c) in enumerate(zip(rs, rc))
        ]
    if command == "verify":
        return [(k, v) for k, v in p.items() if k not in ("n", "lambda", "mu")]
    assert command == "continuum"
    levels = len(p["scaled_levels"][0])
    return [
        (n, k + 1, p["scaled_levels"][i][k], p["orders"][k][i - 2] if i >= 2 else None)
        for i, n in enumerate(p["sizes"])
        for k in range(levels)
    ]


def csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def reference_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([csv_cell(v) for v in row])
    return buf.getvalue()


def config(*argv):
    parser = cli._build_parser()
    return cli._config_from(parser.parse_args(cli._absorb_signed_values(list(argv))))


class TestArrayEncoder:
    """Rendered JSON equals json.dumps(indent=2) of the list-form payload."""

    SMALL, LARGE = "8", "33"
    REQUESTS = (
        ("spectrum", "-N", SMALL, "--lambda", "0.41", "--mu", "-0.27"),
        ("spectrum", "-N", LARGE, "--lambda", "1.3", "--mu", "0.2"),
        ("scan", "-N", "3", "--grid", "-1.2:1.2:0.4"),
        ("scan", "-N", "4", "--grid", "0:1.2:0.3", "--line", "mu=-lambda"),
        ("scan", "-N", "3", "--grid", "1.5e308:1.7e308:1e307"),
        ("pseudometrics", "-N", SMALL, "--lambda", "0.41", "--mu", "-0.27"),
        ("pseudometrics", "-N", SMALL, "--lambda", "0"),
        ("pseudometrics", "-N", LARGE, "--lambda", "0.41", "--mu", "-0.27"),
        ("metric", "-N", SMALL, "--lambda", "0.5"),
        ("metric", "-N", LARGE, "--lambda", "-0.35", "--mu", "0.35"),
        ("charge", "-N", SMALL, "--lambda", "0.6"),
        ("charge", "-N", LARGE, "--lambda", "0.6"),
        ("verify", "-N", SMALL, "--lambda", "0.7"),
        ("verify", "-N", LARGE, "--lambda", "0.7"),
        ("continuum", "-N", "32", "--lambda", "0.3", "--levels", "2"),
    )

    def test_every_subcommand_matches_the_reference_in_both_formats(self):
        for argv in self.REQUESTS:
            cfg = config(*argv)
            payload, header, _ = cli._COMMANDS[cfg.command](cfg)
            json_text = cli.dispatch(config(*argv, "--format", "json"))
            assert json_text == reference_json(payload), argv
            rows = reference_rows(cfg.command, list_form(payload))
            csv_text = cli.dispatch(config(*argv, "--format", "csv"))
            assert csv_text == reference_csv(header, rows), argv

    def test_special_leaves_match_json(self):
        nan, inf = float("nan"), float("inf")
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1e22, nan, inf, -inf]
        payload = {
            "vector": np.array(special),
            "matrix": np.array([special, special[::-1]]),
            "transposed": np.arange(6.0).reshape(2, 3).T,
            "single": np.float32([[0.1]]),
            "cube": np.arange(24.0).reshape(2, 3, 4) - 11.5,
            "empty": np.empty(0),
            "empty_rows": np.empty((0, 3)),
            "rows_of_nothing": np.empty((2, 0)),
            "one_by_one": np.ones((1, 1)),
            "ints": np.arange(3),
            "flags": np.array([True, False]),
            "zero_dim": np.array(2.5),
            "scalars": [*special, np.float64(0.1), 7, -3, True, False, None],
            "orders": [[None, None, 1.92], []],
            "text": "tab\t \"quote\" \u00e9 \U0001f600",
            "pairs": (1, (2.0, "x")),
            "nested": {"empty": {}, "list": [[], {}]},
            "nul\x00key": "nul\x00value",
            "\x00": ["\x00", "\x00cptwell float array", np.array([0.5, -2.0])],
            "deep": [{"rows": [np.array([[1.5, -0.0], [nan, 3.0]])]}],
            7: "int key",
            2.5: "float key",
            None: "null key",
            False: "bool key",
        }
        assert cli.render(payload, (), (), "json") == reference_json(payload)
        assert cli.render({}, (), (), "json") == "{}\n"
        assert cli.render([], (), (), "json") == "[]\n"
        for bare in (np.array(special), np.array([special, special[::-1]]), np.empty((2, 0))):
            assert cli.render(bare, (), (), "json") == reference_json(bare)

    def test_a_string_equal_to_the_placeholder_raises(self):
        # json writes a float array's placeholder as it writes any string, so
        # a payload string that encodes to the same text must not be replaced
        # by an array's text, nor shift the arrays after it.
        placeholder = cli._PLACEHOLDER
        array = np.array([0.25, -1.0])
        for payload in (
            {"x": placeholder},
            {"x": placeholder, "a": array},
            {"a": array, "x": [placeholder]},
            {placeholder: array},
            {"x": 'quote"' + placeholder, "a": array},
            [placeholder, array, array],
        ):
            with pytest.raises(ValueError, match="placeholder"):
                cli.render(payload, (), (), "json")

    def test_unserializable_leaves_raise_type_error_like_json(self):
        for leaf in (object(), np.int64(3), {1, 2}, np.array([1 + 2j])):
            with pytest.raises(TypeError):
                json.dumps(list_form({"x": leaf}), indent=2)
            with pytest.raises(TypeError):
                cli.render({"x": leaf}, (), (), "json")
        with pytest.raises(TypeError):
            cli.render({(1, 2): 0.5}, (), (), "json")

    def test_failed_scan_cell_prints_nan(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        argv = ("scan", "-N", "5", "--grid", "0.3:1.3:1", "--line", "mu=lambda")
        cfg = config(*argv)
        payload, header, _ = cli._COMMANDS[cfg.command](cfg)
        rc, out, _ = run(*argv)
        assert rc == 0 and out == reference_json(payload)
        assert '"min_gap": NaN' in out
        rc, out, _ = run(*argv, "--format", "csv")
        assert out == reference_csv(header, reference_rows("scan", list_form(payload)))
        assert out.rstrip("\n").endswith(",nan")

    def test_json_requests_never_build_csv_rows(self):
        for command in ("pseudometrics", "metric", "charge"):
            cfg = config(command, "-N", "4", "--lambda", "0.3")
            _, _, rows = cli._COMMANDS[cfg.command](cfg)
            assert iter(rows) is rows, command

    @staticmethod
    @st.composite
    def float_arrays(draw):
        """Float arrays of 0-3 axes (some of length 0 or 1), possibly as views."""
        dtype = draw(st.sampled_from([np.float64, np.float32]))
        width = np.finfo(dtype).bits
        special = [
            float(dtype(v))
            for v in (0.0, -0.0, np.nan, np.inf, -np.inf, 1e16, -1e16, 1e-7, 1.5e-7,
                      1e22, np.finfo(dtype).smallest_subnormal, -np.finfo(dtype).tiny / 3)
        ]
        elements = st.one_of(st.sampled_from(special), st.floats(width=width))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
        a = draw(hnp.arrays(dtype, shape, elements=elements))
        a = a.transpose(draw(st.permutations(range(a.ndim))))
        steps = draw(st.lists(st.sampled_from([1, 2, -1, -2]), min_size=a.ndim,
                              max_size=a.ndim))
        return a[(*(slice(None, None, step) for step in steps), Ellipsis)]

    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_any_float_array_renders_as_json_dumps_of_its_list(self, a):
        expected = json.dumps({"a": [a.tolist()]}, indent=2) + "\n"
        assert cli.render({"a": [a]}, (), (), "json") == expected

    @staticmethod
    @st.composite
    def shared_value_payloads(draw):
        """Nested dicts and lists holding 1-4 float arrays (0-3 axes, possibly
        as transposed or strided views) and float scalars, all drawn from one
        small pool of values, so that values recur across the arrays."""
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e16, 1e-7, 0.1]
        pool = draw(st.lists(st.one_of(st.sampled_from(special), st.floats()),
                             min_size=1, max_size=6))
        payload = {"scalar": draw(st.sampled_from(pool))}
        for k in range(draw(st.integers(1, 4))):
            shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
            entries = draw(st.lists(st.sampled_from(pool), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))
            dtype = draw(st.sampled_from([np.float64, np.float32]))
            with np.errstate(over="ignore"):
                a = np.array(entries, dtype=dtype).reshape(shape)
            a = a.transpose(draw(st.permutations(range(a.ndim))))
            steps = draw(st.lists(st.sampled_from([1, 2, -1]), min_size=a.ndim,
                                  max_size=a.ndim))
            node = a[(*(slice(None, None, step) for step in steps), Ellipsis)]
            for _ in range(draw(st.integers(0, 2))):
                if draw(st.booleans()):
                    node = [draw(st.sampled_from(pool)), node]
                else:
                    node = {"inner": node, "n": k}
            payload[f"array{k}"] = node
        return payload

    @settings(max_examples=300, deadline=None)
    @given(shared_value_payloads())
    def test_arrays_sharing_values_render_as_json_dumps_of_the_payload(self, payload):
        assert cli.render(payload, (), (), "json") == reference_json(payload)


class TestParserReuse:
    """One parser serves every main() call and answers as a fresh one would."""

    SEQUENCE = (
        ("spectrum", "-N", "4", "--lambda", "0.5", "--mu", "0.2"),
        ("spectrum", "-N", "4", "--lambda", "0.5"),
        ("spectrum", "-N", "5", "--lambda", "0.3", "--tol", "1e-6"),
        ("spectrum", "-N", "5", "--lambda", "0.3"),
        ("spectrum", "-N", "3", "--lambda", "0", "--frazzle"),
        ("verify", "-N", "6", "--lambda", "0.7"),
    )

    def test_outputs_match_a_fresh_parser_call_by_call(self, monkeypatch):
        results = [run(*argv) for argv in self.SEQUENCE]
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            fresh = [run(*argv) for argv in self.SEQUENCE]
        assert results == fresh
        assert json.loads(results[1][1])["mu"] == 0.5
        assert [rc for rc, _, _ in results] == [0, 0, 0, 0, 1, 0]
        assert "--frazzle" in results[4][2]

    def test_a_second_call_constructs_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert run(*self.SEQUENCE[0])[0] == 0
        assert len(built) == 1 + len(cli._COMMANDS)
        built.clear()
        assert run(*self.SEQUENCE[1])[0] == 0
        assert built == []
