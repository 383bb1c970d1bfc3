"""The characteristic-polynomial recurrence behind `spectra.char_poly`.

The oracle for the rescaled determinant is the exact log-magnitude sum over
the closed-form levels of the uncoupled well.
"""

import numpy as np

from cptwell import kernels
from cptwell.hamiltonian import build


class TestCharpolyTerms:
    def test_one_site_recurrence_edge(self):
        p, nscale = kernels.charpoly_terms(np.array([2.0]), np.zeros(0), 0.5 + 0.0j)
        assert p == 1.5 + 0.0j
        assert nscale == 0

    def test_rescaled_magnitude_matches_the_exact_log_sum(self):
        # det(H0 - z I) = prod_k (2 - 2 cos(k pi/(n+1)) - z) overflows doubles
        # near n = 400 at z = 10; compare log magnitudes instead.
        n = 400
        h = build(n, (0.0, 0.0))
        z = 10.0 + 0.0j
        p, nscale = kernels.charpoly_terms(h.diag, h.bonds, z)
        levels = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        ref = np.sum(np.log(np.abs(levels - z.real)))
        got = np.log(abs(p)) + 512.0 * nscale * np.log(2.0)
        assert nscale >= 1
        assert abs(got - ref) <= 1e-9 * abs(ref)
