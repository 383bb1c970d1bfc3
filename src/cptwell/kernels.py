"""The characteristic-polynomial recurrence behind `spectra.char_poly`."""

# There is no jit backend; `bench/provenance.py` reads this flag to label the
# backend of a benchmark run.
HAS_NUMBA = False


def charpoly_terms(diag, bonds, z):
    """Characteristic polynomial of the tridiagonal family at a complex point.

    ``bonds[k]`` is the product super[k]*sub[k]; the determinant obeys
    p_k = (diag_k - z) p_{k-1} - bonds_{k-1} p_{k-2}.  Returns (p, nscale),
    where the true determinant is p * 2**(512*nscale): both running terms are
    rescaled together by the exact power 2**-512 whenever they grow past 1e150.
    """
    n = diag.shape[0]
    pm2 = 1.0 + 0.0j
    pm1 = diag[0] - z
    nscale = 0
    for k in range(1, n):
        p = (diag[k] - z) * pm1 - bonds[k - 1] * pm2
        pm2 = pm1
        pm1 = p
        if abs(pm1.real) + abs(pm1.imag) > 1e150:
            s = 2.0**-512
            pm2 *= s
            pm1 *= s
            nscale += 1
    return pm1, nscale
