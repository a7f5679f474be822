"""Horner's rule, shared by the polynomial kernels of specfun and transmon."""


def horner(coeffs, y):
    """The polynomial with coefficients coeffs (highest power first, at least
    two) at y.  Elementwise on numpy arrays, in place on the result; on a
    Python float, the same roundings in Python floats."""
    out = y * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= y
        out += c
    return out
