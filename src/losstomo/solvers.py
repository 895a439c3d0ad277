"""Root solvers for the pass-rate likelihood polynomials.

Both estimating forms reduce to the nonzero root of the subtree polynomial
``f(y) = 1 - y - prod_c(1 - r_c y)``: ``subtree_root`` for y in [1e-9, 1] and
descendant count ratios r_c = n_c/n_i, ``path_root`` for the path form
``1 - g/A - prod_c(1 - t_c/A)``, which is f with y = g/A and r_c = t_c/g, for
y in [g, 1]; it returns A = g/y.

One Newton solver serves both, on h(y) = f(y)/y.  Every factor 1 - r_c y is
non-negative there, and the n-th derivative of their product P is (-1)^n times
a sum of products of them, so P is convex with P''' <= 0.  Hence
h = (1 - P)/y - 1, the mean of -P' over [0, y] less 1, is convex and
decreasing, and Newton from the lower end climbs monotonically onto the root
(on f from the upper end it would halve its way down to a root near 0).  A
step within 2 ulp of its point ends the search, a step outside the bracket
bisects, and a bracket narrowed to 2 ulp ends it.  A path root in [g, 1]
exists when f(g) > 0, a subtree root in (0, 1] exactly when sum(n_c) > n_i,
which ``math.fsum`` decides exactly, on integer counts (a probe seen below two
children) and on float expected ones as given.  h is convex, so a root has
y >= (S - 1) / sum_{i<j} r_i r_j >= 2(S - 1) / S^2, S = sum(r) >= 1 + 1/n_i
on integer counts: the lower end 1e-9 binds only past 2e9 probes or children.

Both solvers share one input rule: a zero descendant value (no probe reached
that descendant) adds the factor 1 to the product and is dropped exactly, at
least two nonzero values must remain, and each of them lies in [0, 1].  On pass
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
    """The descendant values with zeros dropped: at least two must remain, each in [0, 1]."""
    v = [float(x) for x in values if x != 0.0]
    if len(v) < 2:
        raise UnidentifiableError(f"need at least 2 nonzero descendant {what}s, got {len(v)}")
    for x in v:
        if not 0.0 <= x <= 1.0:
            raise EstimationError(f"descendant {what} {x} outside [0, 1]")
    return v


def _polynomial(ratios):
    """``y -> (h(y), h'(y))`` for h(y) = (1 - y - prod(1 - r y)) / y.

    With P_j = prod_{i<=j}(1 - r_i y), h(y) = (sum(r) - 1) - sum_j r_j (1 - P_{j-1})
    and 1 - P_j = 1 - P_{j-1} + r_j y P_{j-1}: no sum cancels before the root."""
    excess = math.fsum([*ratios, -1.0])

    def h(y: float) -> tuple[float, float]:
        prod, dprod, gap, value, slope = 1.0, 0.0, 0.0, excess, 0.0
        for r in ratios:
            value -= r * gap
            slope += r * dprod
            ry = r * y
            gap += ry * prod
            dprod = dprod * (1.0 - ry) - r * prod
            prod -= ry * prod
        return value, slope

    return h


def _refine(f, lo: float, hi: float) -> float:
    """Newton from ``lo`` onto the root of a convex decreasing f with f(lo) > 0 > f(hi).

    From below, Newton passes the root only by rounding, when the root lies
    within an ulp or two of ``hi``: a step there evaluates ``hi`` instead of bisecting."""
    x, hi_seen = lo, False
    for _ in range(200):
        fx, dfx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi, hi_seen = x, True
        step = x - fx / dfx if dfx else 0.5 * (lo + hi)
        if lo <= step <= hi and abs(step - x) <= 2.0 * math.ulp(x):
            return step
        if step >= hi and not hi_seen:
            step = hi
        elif not lo < step < hi:
            step = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * math.ulp(hi):
            return step
        x = step
    return x


def _solve(ratios, lo: float) -> float:
    """Root in [lo, 1] of the subtree polynomial, rejected if its residual y h(y) is not near zero."""
    h = _polynomial(ratios)
    root = _refine(h, lo, 1.0)
    residual = root * h(root)[0]
    if abs(residual) > RESIDUAL_TOL:
        raise RootBracketError(f"root refinement stalled: residual {residual:.3e} at {root!r}")
    return root


def subtree_root(parent, kids) -> float:
    """Nonzero root of 1 - x - prod(1 - r x) for the ratios r = kids / parent of the
    counts below a node and its children, all in [0, 1]; a ratio of 1 gives x = 1."""
    if parent <= 0:
        raise NoDataError("no probes observed below the node being estimated")
    r = _nonzero_descendants([k / parent for k in kids], "ratio")
    if any(v == 1.0 for v in r):
        return 1.0
    if math.fsum([*kids, -parent]) <= 0.0:  # sum(r) <= 1, exact on counts; f'' < 0: no root
        raise RootBracketError(
            "no sign change on (0, 1]: sum of descendant ratios "
            f"{sum(r):.6f} <= 1 (ratios {r})"
        )
    return _solve(r, BRACKET_DELTA)


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
    top = max(t)
    if top > g:
        # A term overshoots its parent: an embedded estimate or float expected
        # counts can, OR counts cannot (n_c <= n_i).  The polynomial is positive
        # on the feasible A >= every term, so the optimum is A = max(terms).
        return top
    if 1.0 - g - math.prod(1.0 - v for v in t) <= 0.0:  # the polynomial at A = 1
        raise RootBracketError(
            "no sign change on [{:.6f}, 1]: descendant terms {} are too small "
            "relative to the parent rate {:.6f}".format(g, t, g)
        )
    return g / _solve([v / g for v in t], g)
