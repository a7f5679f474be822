"""Special functions for the modulation-series machinery.

Self-contained implementations (no scipy.special) so that domain handling
matches what the harmonic-series code needs: strictly positive Gamma
arguments, hypergeometric arguments restricted to [0, 1), and an explicit
convergence failure instead of a silent NaN.  The Bessel functions work
elementwise on arrays (a scalar argument gives a float); the others are
scalar.  Accuracy target is 1e-10 relative (absolute near Bessel zeros),
checked in the test suite against integral definitions and classical
identities.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma_fn",
    "rising_factorial",
    "bessel_j0",
    "bessel_j1",
    "hyp2f1",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """A series failed to reach the requested accuracy."""


# Lanczos approximation, g = 7, 9 terms.  Good to ~1e-13 relative for
# positive real arguments, comfortably inside the 1e-10 target.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(z: float) -> float:
    """Euler Gamma for z > 0.

    Arguments z <= 0 raise ValueError: poles and the reflection sign
    structure are deliberately out of scope (ratios of Gamma at negative
    arguments are handled exactly by :func:`rising_factorial`).
    """
    if not z > 0.0:
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    if z < 0.5:
        # reflection keeps the Lanczos kernel in its accurate range
        return math.pi / (math.sin(math.pi * z) * gamma_fn(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * math.exp(-t) * acc


def rising_factorial(x: float, n: int) -> float:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1) = Gamma(x+n)/Gamma(x).

    Direct product, exact for the small n used by the harmonic series.
    This is the analytic continuation of the Gamma ratio: it is finite for
    x <= 0 and returns 0 when x is a non-positive integer with n > -x.
    """
    if n < 0:
        raise ValueError("rising_factorial requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


# Bessel functions: ascending series up to the crossover, Hankel asymptotic
# expansion beyond.  The crossover at |x| = 12 balances the series
# cancellation error (~5e-13 absolute) against the optimally truncated
# asymptotic tail (~8e-13).
_BESSEL_CROSSOVER = 12.0


def _bessel_series(x, nu: int):
    # ascending series, one row of terms per element, taken in blocks of 32
    # terms (|x| <= 12 needs at most ~32); cumprod and cumsum run in term
    # order and each row stops at its own first negligible term, so every
    # value is the one the term-by-term scalar loop gives
    q = 0.25 * x * x
    term = np.ones_like(x) if nu == 0 else 0.5 * x
    total = term
    out = np.empty_like(x)
    rows = np.arange(x.size)
    for k0 in range(1, 200, 32):
        k = np.arange(k0, min(k0 + 32, 200))
        terms = np.cumprod(np.column_stack([term, -q[:, None] / (k * (k + nu))]), axis=1)[:, 1:]
        totals = np.cumsum(np.column_stack([total, terms]), axis=1)[:, 1:]
        done = np.abs(terms) <= 1e-17 * (np.abs(totals) + 1e-300)
        hit = done.any(axis=1)
        out[rows[hit]] = totals[hit, done[hit].argmax(axis=1)]
        rows, q, term, total = rows[~hit], q[~hit], terms[~hit, -1], totals[~hit, -1]
        if not rows.size:
            return out
    raise ConvergenceError(f"Bessel series did not converge for x={x[rows[0]]}")


def _bessel_asymptotic(x, nu: int):
    # Hankel expansion: J_nu(x) = sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)),
    # chi = x - (nu/2 + 1/4) pi, truncated in each row before the first
    # term that is not smaller than the one before it
    k = np.arange(1, 40)
    w = np.cumprod((4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k * x[:, None]), axis=1)
    growing = np.abs(w) >= np.column_stack([np.full_like(x, math.inf), np.abs(w[:, :-1])])
    kept = np.where(np.cumsum(growing, axis=1) == 0, np.where((k // 2) % 2, -w, w), 0.0)
    p = np.cumsum(np.column_stack([np.ones_like(x), np.where(k % 2 == 0, kept, 0.0)]), axis=1)[:, -1]
    q = np.cumsum(np.where(k % 2 == 1, kept, 0.0), axis=1)[:, -1]
    chi = x - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _bessel(x, nu: int):
    # series up to the crossover, Hankel beyond; a scalar in, a float out
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs.ravel())
    out = np.empty_like(ax)
    small = ax <= _BESSEL_CROSSOVER
    if small.any():
        out[small] = _bessel_series(ax[small], nu)
    if not small.all():
        out[~small] = _bessel_asymptotic(ax[~small], nu)
    if nu == 1:
        out = np.where(xs.ravel() < 0.0, -out, out)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise."""
    return _bessel(x, 0)


def bessel_j1(x):
    """Bessel function of the first kind, order one (odd in x), elementwise."""
    return _bessel(x, 1)


def hyp2f1(a: float, b: float, c: float, z: float, max_terms: int = 100000) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1.

    Plain power series; for z > 0.75 the Euler transformation
    2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) is applied first so the
    transformed series has decaying term prefactors near the z -> 1 boundary.
    """
    if c <= 0.0 and c == int(c):
        raise ValueError(f"hyp2f1 pole: c={c} is a non-positive integer")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z < 1, got z={z}")
    if z > 0.75:
        return (1.0 - z) ** (c - a - b) * _hyp2f1_series(c - a, c - b, c, z, max_terms)
    return _hyp2f1_series(a, b, c, z, max_terms)


def _hyp2f1_series(a: float, b: float, c: float, z: float, max_terms: int) -> float:
    term = 1.0
    total = 1.0
    for k in range(max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ConvergenceError(
        f"hyp2f1({a}, {b}; {c}; {z}) not converged after {max_terms} terms"
    )
