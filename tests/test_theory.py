import math
from fractions import Fraction

import pytest

from cubeperc.theory import (
    binom_tail_geq,
    chernoff_interval_bound,
    gw_extinction,
    gw_survival_limit_check,
    second_component_bound,
    solve_y,
    subcritical_bound,
    tree_count_bound,
)


def _fixed_point_y(c, tol=1e-13):
    # independent oracle: damped-free fixed-point iteration y <- 1 - e^(-cy)
    y = 0.5
    for _ in range(100_000):
        nxt = 1.0 - math.exp(-c * y)
        if abs(nxt - y) <= tol:
            return nxt
        y = nxt
    raise AssertionError("fixed-point iteration did not converge")


def _exact_tail(nn, q_frac, k):
    # independent oracle: exact rational tail sum
    total = Fraction(0)
    for j in range(k, nn + 1):
        total += math.comb(nn, j) * q_frac**j * (1 - q_frac) ** (nn - j)
    return float(total)


@pytest.mark.parametrize("c", [1.01, 1.1, 1.5, 2.0, 3.0, 10.0])
def test_solve_y_residual(c):
    y = solve_y(c)
    assert 0.0 < y < 1.0
    assert abs(y - 1.0 + math.exp(-c * y)) <= 1e-12


def test_solve_y_examples():
    assert abs(solve_y(2.0) - 0.7968121) <= 1e-6
    assert abs(solve_y(2.0) - _fixed_point_y(2.0)) <= 1e-9
    assert abs(solve_y(1.2) - 0.31369833104121736) <= 1e-9


def test_solve_y_domain():
    with pytest.raises(ValueError):
        solve_y(1.0)
    with pytest.raises(ValueError):
        solve_y(0.5)


def test_solve_y_monotone():
    grid = [1.0 + 9.0 * (i + 1) / 100.0 for i in range(100)]
    values = [solve_y(c) for c in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_near_critical_approximation():
    # y(c) ~ 2(c - 1) as c -> 1 from above
    c = 1.001
    assert abs(solve_y(c) / (2.0 * (c - 1.0)) - 1.0) <= 0.01


def test_second_component_bound_examples():
    assert abs(second_component_bound(2.0, 18) - 58.660044358876725) <= 1e-9
    assert abs(second_component_bound(math.e, 10) - 10.0 / (math.e - 2.0)) <= 1e-12
    with pytest.raises(ValueError):
        second_component_bound(1.0, 10)


def test_subcritical_bound_examples():
    assert abs(subcritical_bound(18, 0.3) - 1247.6649250079015) <= 1e-9
    # doubling eps quarters the bound
    assert abs(subcritical_bound(10, 0.4) * 4 - subcritical_bound(10, 0.2)) <= 1e-9
    with pytest.raises(ValueError):
        subcritical_bound(10, 1.0)
    with pytest.raises(ValueError):
        subcritical_bound(10, 0.0)


def test_binom_tail_trivials():
    assert binom_tail_geq(50, 0.3, 0) == 1.0
    assert binom_tail_geq(50, 0.3, 51) == 0.0
    assert binom_tail_geq(50, 0.0, 1) == 0.0
    assert binom_tail_geq(50, 1.0, 50) == 1.0


def test_binom_tail_matches_exact_rational():
    cases = [(901, Fraction(1, 10), 100), (40, Fraction(1, 3), 17), (200, Fraction(3, 4), 140)]
    for nn, q, k in cases:
        assert abs(binom_tail_geq(nn, float(q), k) - _exact_tail(nn, q, k)) <= 1e-12


def test_binom_tail_proof_example():
    tail = binom_tail_geq(901, 0.1, 100)
    assert abs(tail - 0.1484896979412435) <= 1e-12
    assert tail <= math.exp(-0.01 * 100 / 4)


def test_binom_tail_range_check():
    with pytest.raises(ValueError):
        binom_tail_geq(10, 0.5, 12)
    with pytest.raises(ValueError):
        binom_tail_geq(10, 1.5, 3)


def test_chernoff_domination_spot():
    for d, eps, k in [(5, 0.1, 40), (10, 0.2, 100), (20, 0.3, 400)]:
        nn = k * (d - 1) + 1
        q = (1 - eps) / (d - 1)
        assert binom_tail_geq(nn, q, k) <= chernoff_interval_bound(eps, k)


def test_gw_trivials():
    assert gw_extinction(2, 1.0).extinction == 0.0
    assert gw_extinction(1, 0.5).extinction == 1.0
    assert gw_extinction(2, 0.5).extinction == 1.0  # critical mean 1


def test_gw_exact_fixed_point():
    params = gw_extinction(3, 2 / 3)
    assert abs(params.extinction - 0.04903810567665496) <= 1e-12
    assert abs(params.survival - 0.9509618943233451) <= 1e-12
    # the returned value actually is a fixed point of (1 - p + p s)^3
    s = params.extinction
    assert abs((1 - 2 / 3 + 2 / 3 * s) ** 3 - s) <= 1e-12


def test_gw_duality_envelope():
    y = solve_y(2.0)
    for d in (100, 1000, 10000):
        survival = gw_extinction(d, 2.0 / d).survival
        assert abs(survival - y) <= 10.0 / d


def test_gw_limit_table_decreasing():
    rows = gw_survival_limit_check(2.0, [10, 100, 1000])
    assert abs(rows[-1].survival - solve_y(2.0)) < 1e-3
    deviations = [r.deviation for r in rows]
    assert deviations[0] > deviations[1] > deviations[2]


def test_gw_near_critical_no_underflow():
    survival = gw_extinction(10, 1.0001 / 10).survival
    assert 1e-4 < survival < 4e-4  # ~2 * eps


def test_tree_count_bound_examples():
    both = tree_count_bound(3, 1)
    assert both.loose == 1.0
    assert abs(both.sharp - 1.0) <= 1e-12
    b3 = tree_count_bound(3, 3)
    assert abs(b3.loose - (3 * math.e) ** 2) <= 1e-9
    assert abs(b3.sharp - 13.5) <= 1e-9


def test_tree_count_sharp_below_loose():
    for k in range(1, 51):
        b = tree_count_bound(7, k)
        assert b.log_sharp <= b.log_loose + 1e-12
        if k >= 3:
            assert b.log_sharp < b.log_loose


def test_tree_count_log_form_for_huge_k():
    b = tree_count_bound(10, 400)
    assert math.isinf(b.loose)
    assert math.isfinite(b.log_loose)
    assert math.isfinite(b.log_sharp)

