"""Correctness oracle for every benchmark operation, independent of the library.

The oracle builds H(lambda, mu) itself from the model's definition and checks
the library's answers against LAPACK (through numpy) or against identities it
recomputes from the emitted output:

* spectra and scan cells: values (spectra only), ``all_real`` and the number
  of complex pairs against ``np.linalg.eigvals`` of the dense H, classified at
  the library's own reality tolerance rule;
* operator requests: from the emitted JSON, C^2 = I, H^T Theta = Theta H,
  positivity of Theta inside the window, a pseudometric basis of dimension n
  that intertwines H, and continuum levels against ``np.linalg.eigvalsh``.

Only the policy constant ``REALITY_TOL_FACTOR`` is read from the library.
Every check returns ``None`` when the answer is right and a one-line reason
otherwise; ``refusal`` tells a documented numerical failure from a wrong answer.
"""

import json

import numpy as np

from cptwell import spectra

# Eigenvalue agreement: tight where the reference spectrum is well separated,
# sqrt(eps)-scale near an exceptional point, where eigenvalues move like the
# square root of a perturbation.
VALUE_TOL = 1e-9
EP_VALUE_TOL = 1e-6
EP_GAP = 1e-3
# Identities recomputed from emitted operators, relative to their scale.
IDENTITY_TOL = 1e-8
LEVEL_TOL = 1e-9


def dense_h(n, lam, mu):
    """H(lambda, mu) as a dense matrix, built from the model's definition."""
    h = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    h[0, 1] = -1.0 - lam
    h[n - 1, n - 2] = -1.0 + mu
    if n > 2:
        h[1, 0] = -1.0 + lam
        h[n - 2, n - 1] = -1.0 - mu
    return h


def _scale(h):
    """Gershgorin radius max_i sum_j |H_ij|, floored at 1."""
    return max(1.0, float(np.abs(h).sum(axis=1).max()))


def reality_tol(h):
    return spectra.REALITY_TOL_FACTOR * _scale(h)


def _complex_pairs(values, tol):
    return int(np.count_nonzero(np.abs(values.imag) > tol) // 2)


def _hausdorff(a, b):
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _min_gap(values):
    d = np.abs(values[:, None] - values[None, :])
    d[np.diag_indices(values.shape[0])] = np.inf
    return float(d.min())


def check_spectrum(n, lam, mu, spectrum):
    h = dense_h(n, lam, mu)
    ref = np.linalg.eigvals(h)
    tol = reality_tol(h)
    values = np.asarray(spectrum.values, dtype=complex)
    if values.shape != (n,):
        return f"{values.shape[0]} values for n={n}"
    scale = _scale(h)
    value_tol = (VALUE_TOL if _min_gap(ref) > EP_GAP * scale else EP_VALUE_TOL) * scale
    dist = _hausdorff(values, ref)
    if dist > value_tol:
        return f"values differ from eigvals by {dist:.3e} > {value_tol:.1e}"
    ref_pairs = _complex_pairs(ref, tol)
    if bool(spectrum.all_real) != (ref_pairs == 0):
        return f"all_real={spectrum.all_real} but eigvals has {ref_pairs} complex pairs"
    pairs = _complex_pairs(values, tol)
    if pairs != ref_pairs:
        return f"{pairs} complex pairs, eigvals has {ref_pairs}"
    return None


def check_scan(op, scan):
    cells = op.cells()
    if len(scan.lam) != len(cells):
        return f"{len(scan.lam)} cells for a grid of {len(cells)}"
    for i, (n, lam, mu) in enumerate(cells):
        if (scan.lam[i], scan.mu[i]) != (lam, mu):
            return f"cell {i} is ({scan.lam[i]}, {scan.mu[i]}), expected ({lam}, {mu})"
        if scan.complex_pairs[i] < 0:
            return f"cell ({lam}, {mu}) failed: {scan.diagnostics}"
        h = dense_h(n, lam, mu)
        pairs = _complex_pairs(np.linalg.eigvals(h), reality_tol(h))
        if bool(scan.all_real[i]) != (pairs == 0) or scan.complex_pairs[i] != pairs:
            return (
                f"cell ({lam}, {mu}): all_real={bool(scan.all_real[i])}, "
                f"complex_pairs={int(scan.complex_pairs[i])}, eigvals has {pairs}"
            )
    return None


def _defect(a, scale):
    """max|a| relative to ``scale`` (floored at 1)."""
    return float(np.abs(a).max(initial=0.0)) / max(1.0, scale)


def _entry_max(a):
    return float(np.abs(a).max(initial=0.0))


def _check_involution(c, what):
    defect = _defect(c @ c - np.eye(c.shape[0]), _entry_max(c) ** 2)
    if defect > IDENTITY_TOL:
        return f"{what}: C^2 - I = {defect:.3e}"
    return None


def _check_intertwines(h, x, what):
    defect = _defect(h.T @ x - x @ h, _entry_max(x) * _entry_max(h))
    if defect > IDENTITY_TOL:
        return f"{what}: H^T X - X H = {defect:.3e}"
    return None


def _closed_pseudometric(n, lam, line):
    p = np.fliplr(np.eye(n))
    if line < 0:
        alpha = (1.0 - lam) / (1.0 + lam)
        p[0, n - 1] = p[n - 1, 0] = alpha
    return p


def _check_metric(op, payload, h):
    theta = np.array(payload["theta"])
    if theta.shape != (op.n, op.n):
        return f"theta has shape {theta.shape}"
    line = 1 if op.mu == op.lam else -1
    c = np.linalg.solve(_closed_pseudometric(op.n, op.lam, line), theta)
    smallest = float(np.linalg.eigvalsh(0.5 * (theta + theta.T))[0])
    if not (smallest > 0.0 and payload["positive"] is True):
        return f"theta is not positive (smallest eigenvalue {smallest:.3e})"
    return _check_involution(c, "metric") or _check_intertwines(h, theta, "metric")


def _check_charge(op, payload, h):
    c = np.array(payload["c_spectral"])
    if c.shape != (op.n, op.n):
        return f"charge has shape {c.shape}"
    commutator = _defect(h @ c - c @ h, _entry_max(c) * _entry_max(h))
    if commutator > IDENTITY_TOL:
        return f"charge: HC - CH = {commutator:.3e}"
    closed = _defect(c - np.array(payload["c_closed"]), _entry_max(c))
    if closed > IDENTITY_TOL:
        return f"charge: spectral and closed forms differ by {closed:.3e}"
    return _check_involution(c, "charge")


def _check_verify(op, payload, h):
    for key in ("residual_p", "residual_theta", "residual_commutator", "residual_involution"):
        if payload[key] > IDENTITY_TOL * _scale(h):
            return f"verify: {key} = {payload[key]:.3e}"
    alpha = (1.0 - op.lam) / (1.0 + op.lam)
    weights = (alpha, 1.0 / alpha) if op.n > 2 else (np.sqrt(alpha), np.sqrt(1.0 / alpha))
    expected = min(weights + ((1.0,) if op.n > 2 else ()))
    if abs(payload["theta_min_eig"] - expected) > IDENTITY_TOL * max(weights):
        return f"verify: theta_min_eig {payload['theta_min_eig']} != {expected}"
    return None


def _check_pseudometrics(op, payload, h):
    elements = payload["elements"]
    if payload["dimension"] != op.n or len(elements) != op.n:
        return f"pseudometrics: dimension {payload['dimension']} for n={op.n}"
    xs = np.array([e["matrix"] for e in elements])
    if xs.shape != (op.n, op.n, op.n):
        return f"pseudometrics: elements have shape {xs.shape[1:]}"
    asymmetry = _entry_max(xs - xs.transpose(0, 2, 1)) / _entry_max(xs)
    if asymmetry > IDENTITY_TOL:
        return f"pseudometrics: an element is asymmetric by {asymmetry:.3e}"
    defect = _entry_max(h.T @ xs - xs @ h) / _entry_max(h)
    if defect > IDENTITY_TOL:
        return f"pseudometrics: H^T X - X H = {defect:.3e}"
    sv = np.linalg.svd(xs.reshape(op.n, -1), compute_uv=False)
    if sv[-1] <= IDENTITY_TOL * sv[0]:
        return f"pseudometrics: basis is rank deficient (sigma_min/sigma_max {sv[-1] / sv[0]:.3e})"
    return None


def symmetrized(h):
    """The symmetric tridiagonal similar to H (every bond product positive)."""
    off = -np.sqrt(np.diag(h, 1) * np.diag(h, -1))
    return np.diag(np.diag(h)) + np.diag(off, 1) + np.diag(off, -1)


def _check_continuum(op, payload, h):
    sizes = [n for n, _, _ in op.cells()]
    if payload["sizes"] != sizes:
        return f"continuum: sizes {payload['sizes']}, expected {sizes}"
    for n, got in zip(sizes, payload["scaled_levels"]):
        levels = np.linalg.eigvalsh(symmetrized(dense_h(n, op.lam, op.lam)))
        expect = (n + 1) ** 2 * levels[: op.levels] / np.pi**2
        err = _entry_max(np.array(got) - expect) / _entry_max(expect)
        if len(got) != op.levels or err > LEVEL_TOL:
            return f"continuum: scaled levels at n={n} off by {err:.3e}"
    return None


_CLI_CHECKS = {
    "metric": _check_metric,
    "charge": _check_charge,
    "verify": _check_verify,
    "pseudometrics": _check_pseudometrics,
    "continuum": _check_continuum,
}


def check_cli(op, result):
    rc, out, err = result
    if rc != 0:
        return f"{op.kind} exited {rc}: {err.strip()}"
    payload = json.loads(out)
    return _CLI_CHECKS[op.kind](op, payload, dense_h(op.n, op.lam, op.mu))


def refusal(op, result):
    """The library's own refusal to answer ``op``, or None if it answered.

    A refusal is a documented numerical failure: CLI exit status 2, or a scan
    cell recorded as failed.  It counts as a failed operation, not as a wrong
    answer.
    """
    if op.kind == "scan":
        if (result.complex_pairs < 0).any():
            return f"scan cells failed: {result.diagnostics}"
    elif op.kind != "spectrum" and result[0] == 2:
        return f"{op.kind} exited 2: {result[2].strip()}"
    return None


def check(op, result):
    """None if the library's ``result`` for ``op`` is right, else the reason."""
    if op.kind == "spectrum":
        return check_spectrum(op.n, op.lam, op.mu, result)
    if op.kind == "scan":
        return check_scan(op, result)
    return check_cli(op, result)


def fingerprint(result):
    """Bytes that identical requests must reproduce exactly."""
    if isinstance(result, tuple):
        return "\0".join(str(part) for part in result).encode()
    if isinstance(result, spectra.Spectrum):
        return result.values.tobytes() + repr((result.all_real, result.min_gap)).encode()
    parts = (result.lam, result.mu, result.all_real, result.complex_pairs, result.min_gap)
    return b"".join(np.asarray(p).tobytes() for p in parts) + repr(result.diagnostics).encode()
