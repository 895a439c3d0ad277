"""Root solvers for the pass-rate likelihood polynomials.

Both estimating forms reduce to finding the unique nonzero root of
``1 - x - prod_j(1 - r_j x)`` on (0, 1] (subtree form) or of
``1 - g/A - prod_c(1 - t_c/A)`` on [g, 1] (path form).  The trivial root at
the lower boundary is excluded; the nonzero root is located by a sign-change
bracket and refined with Newton steps safeguarded by bisection.

Both solvers share one input rule: every descendant value lies in [0, 1], a
zero (no probe reached that descendant) adds the factor 1 to the product and
is dropped exactly, and at least two nonzero values must remain.  On pass
counts a failure is one of the ``EstimationError`` subclasses below
(``NoDataError``, ``UnidentifiableError``, ``RootBracketError``,
``FusionWeightError``), which a replication counts in its ``errors`` column.
"""

from __future__ import annotations

import math

BRACKET_DELTA = 1e-9
RESIDUAL_TOL = 1e-12


class EstimationError(Exception):
    """Base class for estimation failures."""


class NoDataError(EstimationError):
    """No probes were observed where an estimate was required."""


class UnidentifiableError(EstimationError):
    """Too few informative descendants to pin down the polynomial root."""


class RootBracketError(EstimationError):
    """The likelihood polynomial shows no sign change on the search interval."""


class FusionWeightError(EstimationError):
    """A fusion scheme's weights are undefined at these rates (e.g. a zero variance)."""


def _nonzero_descendants(values, what: str) -> list[float]:
    """The descendant values in [0, 1] with zeros dropped; at least two must remain."""
    v = [float(x) for x in values]
    for x in v:
        if not 0.0 <= x <= 1.0:
            raise EstimationError(f"descendant {what} {x} outside [0, 1]")
    v = [x for x in v if x != 0.0]
    if len(v) < 2:
        raise UnidentifiableError(f"need at least 2 nonzero descendant {what}s, got {len(v)}")
    return v


def _refine(f, fprime, lo: float, hi: float, pos_at_lo: bool) -> float:
    """Safeguarded Newton within a bracket where f changes sign."""
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == pos_at_lo:
            lo = x
        else:
            hi = x
        d = fprime(x)
        if d != 0.0 and math.isfinite(d):
            step = x - fx / d
        else:
            step = 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= 1e-17 or hi - lo <= 1e-16:
            x = step
            break
        x = step
    return x


def _checked_root(f, fprime, lo: float, pos_at_lo: bool) -> float:
    """``_refine`` on [lo, 1], rejecting a root whose residual is not near zero."""
    root = _refine(f, fprime, lo, 1.0, pos_at_lo)
    if abs(f(root)) > RESIDUAL_TOL:
        raise RootBracketError(f"root refinement stalled: residual {f(root):.3e} at {root!r}")
    return root


def subtree_root(ratios) -> float:
    """Nonzero root of 1 - x - prod(1 - r x) for descendant count ratios r.

    Each ratio is a descendant's share of the probes seen at the parent, so
    all lie in [0, 1].  A ratio of exactly 1 makes x = 1 the exact root.
    """
    r = _nonzero_descendants(ratios, "ratio")
    if any(v == 1.0 for v in r):
        return 1.0

    def f(x: float) -> float:
        prod = 1.0
        for v in r:
            prod *= 1.0 - v * x
        return 1.0 - x - prod

    def fprime(x: float) -> float:
        total = -1.0
        for j, vj in enumerate(r):
            term = vj
            for k, vk in enumerate(r):
                if k != j:
                    term *= 1.0 - vk * x
            total += term
        return total

    lo = BRACKET_DELTA
    if f(lo) <= 0.0:
        raise RootBracketError(
            "no sign change on (0, 1]: sum of descendant ratios "
            f"{sum(r):.6f} <= 1 (ratios {r})"
        )
    return _checked_root(f, fprime, lo, pos_at_lo=True)


def path_root(gamma_parent: float, terms) -> float:
    """Root in [gamma_parent, 1] of 1 - g/A - prod(1 - t/A).

    ``terms`` are the descendants' end-to-end rates (empirical, or an
    embedded path estimate for an intersection descendant).
    """
    g = float(gamma_parent)
    if g <= 0.0:
        raise NoDataError("no probes observed below the node being estimated")
    t = _nonzero_descendants(terms, "term")
    if g >= 1.0:
        return 1.0
    if any(v == g for v in t):
        # a descendant saw everything the node saw: boundary root
        return g

    def f(a: float) -> float:
        prod = 1.0
        for v in t:
            prod *= 1.0 - v / a
        return 1.0 - g / a - prod

    def fprime(a: float) -> float:
        total = g / (a * a)
        for j, vj in enumerate(t):
            term = -vj / (a * a)
            for k, vk in enumerate(t):
                if k != j:
                    term *= 1.0 - vk / a
            total += term
        return total

    lo = max([g] + t)
    if lo >= 1.0:
        return 1.0
    flo = f(lo)
    if flo == 0.0:
        return lo
    if f(1.0) <= 0.0:
        raise RootBracketError(
            "no sign change on [{:.6f}, 1]: descendant terms {} are too small "
            "relative to the parent rate {:.6f}".format(lo, t, g)
        )
    if flo > 0.0:
        # The unconstrained root lies below max(terms), which happens when a
        # descendant term overshoots its parent at finite sample size.  The
        # feasible region requires A >= every term, so the constrained
        # optimum is the boundary itself.
        return lo
    return _checked_root(f, fprime, lo, pos_at_lo=False)
