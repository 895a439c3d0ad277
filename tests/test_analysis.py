import pytest
from hypothesis import given, settings, strategies as st

from losstomo.analysis import (
    InfoRow,
    crlb_beta,
    csv_text,
    empirical_moments,
    fisher_information,
    info_report,
    var_upstream,
)


def test_fisher_information_values():
    assert fisher_information(1.0, 0.5) == pytest.approx(4.0, abs=1e-12)
    # 0.9 / (0.9 * (1 - 0.81)) = 1 / 0.19
    assert fisher_information(0.9, 0.9) == pytest.approx(1.0 / 0.19, abs=1e-12)
    assert fisher_information(0.9, 0.9) == pytest.approx(5.263158, abs=1e-6)
    assert fisher_information(0.5, 0.5, n=10) == pytest.approx(
        10 * fisher_information(0.5, 0.5), abs=1e-12
    )


def test_fisher_information_domain():
    with pytest.raises(ValueError):
        fisher_information(0.0, 0.5)
    with pytest.raises(ValueError):
        fisher_information(0.5, 1.0)
    with pytest.raises(ValueError):
        fisher_information(0.5, 0.0)
    for n in (0, -5):
        with pytest.raises(ValueError, match="probe count must be positive"):
            fisher_information(0.9, 0.5, n)


def test_crlb_two_sources():
    # two sources, A = 1 and 0.5, 1000 probes each, beta = 0.5:
    # info = 1000*4 + 1000*4/3 = 16000/3, bound = 1.875e-4
    bound = crlb_beta([(1.0, 1000), (0.5, 1000)], 0.5)
    assert bound == pytest.approx(3.0 / 16000.0, abs=1e-12)
    with pytest.raises(ValueError):
        crlb_beta([], 0.5)
    for n in (0, -5):
        with pytest.raises(ValueError, match="probe count must be positive"):
            crlb_beta([(0.9, n)], 0.5)


def test_crlb_single_source_is_inverse_information():
    assert crlb_beta([(0.9, 400)], 0.7) == pytest.approx(
        1.0 / fisher_information(0.9, 0.7, 400), abs=1e-18
    )


def test_var_upstream_value():
    # A = 0.99, beta = 0.9801, n = 1000
    expected = 0.99 * (1.0 - 0.99 * 0.9801) / (1000 * 0.9801)
    assert var_upstream(0.99, 0.9801, 1000) == pytest.approx(expected, abs=1e-18)
    assert expected == pytest.approx(2.99e-5, abs=1e-6)
    with pytest.raises(ValueError):
        var_upstream(0.5, 0.5, 0)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 0.999),
)
def test_information_monotone_in_path_rate(a, beta):
    # a cleaner source-to-node path always carries at least as much
    # information about the subtree rate
    smaller = a * 0.9
    assert fisher_information(a, beta) >= fisher_information(smaller, beta)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.05, 1.0),
    beta=st.floats(0.05, 0.999),
    n=st.integers(1, 10_000),
    extra_n=st.integers(1, 10_000),
)
def test_crlb_decreases_with_more_sources(a, beta, n, extra_n):
    one = crlb_beta([(a, n)], beta)
    two = crlb_beta([(a, n), (a * 0.8, extra_n)], beta)
    assert two < one


def test_empirical_moments():
    mean, var = empirical_moments([0.0, 0.02])
    assert mean == pytest.approx(0.01, abs=1e-18)
    assert var == pytest.approx(2e-4, abs=1e-18)
    with pytest.raises(ValueError):
        empirical_moments([0.5])


@settings(max_examples=100, deadline=None)
@given(vals=st.lists(st.floats(-1, 1), min_size=2, max_size=50))
def test_empirical_moments_match_numpy(vals):
    import numpy as np

    mean, var = empirical_moments(vals)
    assert mean == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert var == pytest.approx(float(np.var(vals, ddof=1)), abs=1e-12)


def test_info_report_truth(star22_plan):
    rows = info_report(star22_plan, 1000)
    by = {(r.node, r.source, r.quantity): r.value for r in rows}
    t = star22_plan.topology
    beta = t.subtree_rate[2]
    a = t.path_rate(0, 2)
    assert by[(2, 0, "per_probe_information")] == pytest.approx(
        fisher_information(a, beta), abs=1e-15
    )
    assert by[(2, 0, "var_path_estimate")] == pytest.approx(
        var_upstream(a, beta, 1000), abs=1e-15
    )
    total = by[(2, None, "total_information")]
    assert by[(2, None, "crlb_var_beta")] == pytest.approx(1.0 / total, abs=1e-18)


def test_report_csv_round_trips_values(star22_plan):
    rows = info_report(star22_plan, 1000)
    text = csv_text(InfoRow, rows)
    lines = text.strip().splitlines()
    assert lines[0] == "node,source,quantity,value"
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        assert float(line.split(",")[3]) == row.value
