import math

import pytest
from hypothesis import example, given, settings, strategies as st

from losstomo import solvers
from losstomo.solvers import (
    EstimationError,
    NoDataError,
    RootBracketError,
    UnidentifiableError,
    path_root,
    subtree_root,
)


def quadratic_root(r1, r2):
    """Closed form for two descendants: factor the trivial root out of
    1 - x - (1 - r1 x)(1 - r2 x)."""
    return (r1 + r2 - 1.0) / (r1 * r2)


def test_two_descendants_against_quadratic():
    assert subtree_root(1.0, [0.9, 0.8]) == pytest.approx(0.7 / 0.72, abs=1e-12)


def test_saturated_ratio_gives_one():
    assert subtree_root(1.0, [1.0, 1.0]) == 1.0
    assert subtree_root(1.0, [1.0, 0.5]) == 1.0


def test_three_equal_ratios():
    # residual quadratic 0.729 x^2 - 2.43 x + 1.7 after factoring out x
    expected = (2.43 - math.sqrt(2.43**2 - 4 * 0.729 * 1.7)) / (2 * 0.729)
    assert subtree_root(1.0, [0.9, 0.9, 0.9]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.99897, abs=1e-5)


def test_too_few_ratios():
    with pytest.raises(UnidentifiableError):
        subtree_root(1.0, [0.9])
    # zeros are dropped before the count is checked
    with pytest.raises(UnidentifiableError):
        subtree_root(1.0, [0.9, 0.0])
    with pytest.raises(UnidentifiableError):
        path_root(0.9, [0.0, 0.84, 0.0])
    with pytest.raises(NoDataError):
        path_root(0.0, [0.0, 0.0])
    with pytest.raises(NoDataError):
        subtree_root(0, [0, 0])


def test_zero_descendants_dropped_exactly():
    # a zero adds the factor 1 - 0 x = 1 to the product, in either form
    assert subtree_root(1.0, [0.9, 0.0, 0.8]) == subtree_root(1.0, [0.9, 0.8])
    assert path_root(0.9, [0.0, 0.84, 0.78]) == path_root(0.9, [0.84, 0.78])


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_descendant_value_outside_unit_interval(bad):
    with pytest.raises(EstimationError, match=r"outside \[0, 1\]"):
        subtree_root(1.0, [0.9, bad])
    with pytest.raises(EstimationError, match=r"outside \[0, 1\]"):
        path_root(0.9, [0.84, bad])


def test_no_sign_change_reported_with_diagnostics():
    with pytest.raises(RootBracketError, match="sum of descendant ratios"):
        subtree_root(1.0, [0.4, 0.4])


@pytest.mark.parametrize("ratios", [[0.5, 0.5], [0.25, 0.75], [0.5, 0.25, 0.25]])
def test_ratios_summing_to_exactly_one_have_no_root(ratios):
    # f'(0) = sum(r) - 1 = 0 and f'' < 0, so f < 0 on (0, 1]; the rounded
    # product form 1 - y - prod(1 - r y) at y = 1e-9 once let [0.5, 0.5] through
    with pytest.raises(RootBracketError, match="sum of descendant ratios"):
        subtree_root(1.0, ratios)


@settings(max_examples=300, deadline=None)
@given(
    r1=st.floats(0.05, 0.999),
    r2=st.floats(0.05, 0.999),
)
def test_matches_quadratic_closed_form(r1, r2):
    if r1 + r2 <= 1.0 + 1e-6:
        return
    assert abs(subtree_root(1.0, [r1, r2]) - quadratic_root(r1, r2)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    ratios=st.lists(st.floats(0.5, 0.999), min_size=2, max_size=6),
)
@example(ratios=[0.5, 0.5])
def test_root_in_range_with_small_residual(ratios):
    if math.fsum([*ratios, -1.0]) <= 0.0:  # sum(ratios) <= 1 exactly: no root in (0, 1]
        with pytest.raises(RootBracketError):
            subtree_root(1.0, ratios)
        return
    root = subtree_root(1.0, ratios)
    assert 0.0 < root <= 1.0
    prod = 1.0
    for r in ratios:
        prod *= 1.0 - r * root
    assert abs(1.0 - root - prod) <= 1e-12


def test_path_root_two_descendant_closed_form():
    # A = g1 g2 / (g1 + g2 - g_parent)
    assert path_root(0.9, [0.84, 0.78]) == pytest.approx(0.6552 / 0.72, abs=1e-12)


def test_path_root_boundary_child():
    assert path_root(0.9, [0.9, 0.5]) == 0.9


def test_path_root_saturated_parent():
    assert path_root(1.0, [0.9, 0.8]) == 1.0


def test_path_root_embedded_term_above_parent():
    # an embedded intersection estimate may exceed the parent rate; here the
    # unconstrained root 0.855/0.92 sits below the largest term, so the
    # solver clamps to the feasibility boundary max(terms)
    assert path_root(0.93, [0.95, 0.9]) == 0.95
    # a feasible variant solves exactly
    assert path_root(0.93, [0.9, 0.88]) == pytest.approx(0.792 / 0.85, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    g1=st.floats(0.55, 0.999),
    g2=st.floats(0.55, 0.999),
    slack=st.floats(0.0, 0.1),
)
def test_path_root_matches_closed_form(g1, g2, slack):
    gp = min(max(g1, g2) * (1.0 + slack), 0.9995)
    if g1 + g2 - gp <= 1e-6 or g1 * g2 / (g1 + g2 - gp) > 1.0:
        return
    if gp in (g1, g2):
        return
    expected = g1 * g2 / (g1 + g2 - gp)
    if expected < max(g1, g2, gp):
        return
    assert abs(path_root(gp, [g1, g2]) - expected) <= 1e-10


def test_scale_invariance_of_count_ratios():
    # the polynomial depends only on ratios: scaling all counts is a no-op
    assert subtree_root(500, [480, 460]) == subtree_root(5000, [4800, 4600])


@st.composite
def ratio_vectors(draw):
    """2-8 ratios in (0.05, 1]; about half are scaled to sum to 1 + eps with
    eps in [1e-9, 1e-3], which puts the root near 0."""
    ratios = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8))
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-9.0, -3.0))
        total = sum(ratios)
        ratios = [r / total * (1.0 + eps) for r in ratios]
    return ratios


@settings(max_examples=500, deadline=None)
@given(ratios=ratio_vectors())
@example(ratios=[0.96875, 1.0 - 2.0**-53])
def test_every_root_stops_within_40_evaluations(ratios):
    # a Newton step allowed to land on a bracket end can cycle between two
    # floats until the iteration cap: near 0 when the ratios sum to just
    # above 1, near 1 when many ratios sum well above it; and a step that
    # rounds onto the upper end, for a root within an ulp of it (the example),
    # must not leave that root to 50 bisections
    if max(ratios) > 1.0:
        return
    evaluations = []
    refine = solvers._refine

    def counted_refine(f, *args):
        def counted(x):
            evaluations.append(x)
            return f(x)
        return refine(counted, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_refine", counted_refine)
        try:
            root = subtree_root(1.0, ratios)
        except EstimationError:
            return
    assert 0.0 < root <= 1.0
    assert len(evaluations) <= 40
