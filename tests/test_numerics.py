import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from recdev.numerics import (
    EXP_ARG_LIMIT,
    NeumaierSum,
    OverflowGuardError,
    QuadratureError,
    as_count,
    as_seed,
    check_exp_bound,
    compensated_cumsum,
    finite_array,
    gauss_legendre_panels,
    is_real,
    positive_finite,
    real_array,
    refine_each,
    sample_sizes,
    tanh_sinh,
)


def test_gauss_legendre_polynomial_exactness():
    # order-16 nodes integrate polynomials up to degree 31 exactly
    x, w = gauss_legendre_panels(-1.0, 3.0, panels=2)
    for k in (0, 3, 10, 17):
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert_allclose(w @ x**k, exact, rtol=1e-13)


def test_gauss_legendre_matches_quad_oracle():
    from scipy.integrate import quad

    f = lambda t: np.exp(-(t**2)) * np.cos(3 * t)
    x, w = gauss_legendre_panels(-4.0, 4.0, panels=8)
    ref, _ = quad(f, -4.0, 4.0, epsabs=1e-14)
    assert_allclose(w @ f(x), ref, atol=1e-13)


def test_tanh_sinh_endpoint_singularities():
    # integrable endpoint singularities that defeat fixed Gauss rules
    x, w = tanh_sinh(0.0, 1.0, level=6)
    assert_allclose(w @ (1.0 / np.sqrt(x)), 2.0, rtol=1e-12)
    assert_allclose(w @ np.log(1.0 / x), 1.0, rtol=1e-12)


def test_tanh_sinh_plain_interval():
    x, w = tanh_sinh(-2.0, 5.0, level=5)
    assert_allclose(w @ np.exp(-x), math.exp(2) - math.exp(-5), rtol=1e-12)
    assert x.min() >= -2.0 and x.max() <= 5.0


def test_tanh_sinh_levels_nest():
    # level L + 1's even-t nodes are level L's, bit for bit; level L's
    # outermost pair drops out where ceil(4.3 2^(L+1)) < 2 ceil(4.3 2^L)
    dropped = []
    for level in range(3, 9):
        x, w = tanh_sinh(0.0, 8.5, level)
        x_up, w_up = tanh_sinh(0.0, 8.5, level + 1)
        k, k_up = len(x) // 2, len(x_up) // 2
        drop = k - k_up // 2
        keep = slice(drop, len(x) - drop)
        assert x_up[k_up % 2 :: 2].tobytes() == x[keep].tobytes()
        assert (2.0 * w_up[k_up % 2 :: 2]).tobytes() == w[keep].tobytes()
        if drop:
            dropped.append(level)
    assert dropped == [3, 6, 7]


def test_refine_each_returns_finer_level_or_names_the_quantity():
    def at_level(idx, level):
        return np.array([1.0, 2.0**-level])[idx]

    # element 1's gaps are 0.5, 0.25, ...: the first within 0.2 (absolute below 1) is 0.125
    val, levels, failed = refine_each(at_level, 2, range(10), 0.2, "halving")
    assert failed == {} and levels.tolist() == [1, 3]
    assert_allclose(val, [1.0, 0.125])
    # the give-up text names the gap of the last two levels, 0.5 - 0.25
    val, levels, failed = refine_each(at_level, 2, range(3), 0.2, "halving")
    assert list(failed) == [1] and levels.tolist() == [1, 0]
    with pytest.raises(QuadratureError, match=r"halving .* delta 0\.25\)"):
        raise failed[1]


def test_refine_each_is_absolute_below_one_and_relative_above():
    values, gaps = np.array([0.5, 1e6]), np.array([2e-10, 5e-5])

    def at_level(idx, level):
        return values[idx] + (gaps[idx] if level == 1 else 0.0)

    val, levels, failed = refine_each(at_level, 2, (0, 1), 1e-10, "pair")
    # value 0.5: a gap of 2e-10 exceeds tol 1e-10
    assert list(failed) == [0] and isinstance(failed[0], QuadratureError)
    # value 1e6: a gap of 5e-5 is 5e-11 relative, within tol 1e-10
    assert levels[1] == 1 and val[1] == 1e6 + 5e-5


def test_refine_each_evaluates_only_the_open_elements():
    # element i stops moving at level i, so it is accepted at level i + 1
    rates = np.array([0.0, 1.0, 2.0])
    seen = []

    def at_level(idx, level):
        seen.append((level, idx.tolist()))
        return 2.0 ** -(30.0 * np.minimum(level, rates[idx]))[None, :] * np.ones((2, 1))

    val, levels, failed = refine_each(at_level, 3, range(6), 1e-12, "staircase")
    assert failed == {} and levels.tolist() == [1, 2, 3]
    assert seen == [(0, [0, 1, 2]), (1, [0, 1, 2]), (2, [1, 2]), (3, [2])]
    # each element's value and level are those of a call on it alone
    for i in range(3):
        alone, level, _ = refine_each(lambda j, lv: at_level(j + i, lv), 1, range(6), 1e-12, "one")
        assert level.tolist() == [levels[i]] and alone.tobytes() == val[:, i : i + 1].tobytes()


def test_counts_refuse_booleans():
    # replications, seed, n_list entries, dimension and alpha components all pass through as_count
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ValueError, match=f"^count must be an integer >= 0; got {flag!r}$"):
            as_count(flag, "count", 0)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0; got True$"):
        as_seed(True)
    with pytest.raises(ValueError, match="n_list must be strictly increasing positive integers"):
        sample_sizes([True, 2])
    assert as_count(1, "count") == 1 and as_count(np.int64(3), "count") == 3


def test_positive_finite_is_one_rule_for_delta_xi_and_m_q():
    for good in (1, 0.2, np.float64(1e-300), np.int64(7), 1.7976931348623157e308):
        assert positive_finite(good)
    for bad in (True, np.bool_(True), "0.2", None, 0, -1.0, math.nan, math.inf, 10**400):
        assert not positive_finite(bad)


def test_is_real_is_one_rule_for_a_real_scalar():
    for good in (0, -1, 0.2, -3.5, np.float32(1.5), np.float64(-1e-300), np.int64(7), 1.7976931348623157e308):
        assert is_real(good)
    for bad in (True, False, np.bool_(True), "0.2", None, [1.0], math.nan, -math.inf, np.float32(math.inf),
                10**400):
        assert not is_real(bad)


@pytest.mark.parametrize("values, message", [
    (True, "x must be a number; got True"),
    (np.True_, "x must be a number; got np.True_"),
    ("0.2", "x must be a number; got '0.2'"),
    ([0.5, True], "x must be a list of numbers; got [0.5, True]"),
    ([[1.0], ["a"]], "x must be a list of numbers; got [[1.0], ['a']]"),
    ([[1.0], 2.0], "x must be a list of numbers; got [[1.0], 2.0]"),
    (np.array([True, False]), "x must be a list of numbers; got array([ True, False])"),
    (np.array([1 + 2j]), "x must be a list of numbers; got array([1.+2.j])"),
    ([0.5, 10**400], "x must be finite; got an int beyond the float range"),
])
def test_real_array_refuses_bools_and_non_numbers_at_once(values, message):
    with pytest.raises(ValueError) as exc:
        real_array(values, "x")
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        finite_array(values, "x")
    assert str(exc.value) == message


def test_real_array_returns_a_non_finite_element_as_its_error():
    # the elements before the first non-finite one come back, so a batch can run them first
    flat, err = real_array(np.array([[0.5, 2.0], [math.nan, math.inf]]), "u")
    assert flat.tolist() == [0.5, 2.0] and str(err) == "u must be finite; got nan"
    flat, err = real_array([1, np.float32(2.5), np.int64(-3)], "u")
    assert flat.dtype == np.float64 and flat.tolist() == [1.0, 2.5, -3.0] and err is None
    with pytest.raises(ValueError, match=r"^u must be finite; got -inf$"):
        finite_array([0.0, -math.inf], "u")
    # finite_array keeps the shape; a float64 array passes through without a copy
    assert finite_array([[1, 2], [3, 4]], "u").shape == (2, 2)
    assert finite_array(0.25, "u").shape == ()
    arr = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    assert np.shares_memory(finite_array(arr, "u"), arr)


def test_check_exp_bound():
    check_exp_bound(EXP_ARG_LIMIT - 1.0, "unit test")
    with pytest.raises(OverflowGuardError):
        check_exp_bound(EXP_ARG_LIMIT + 1.0, "unit test")


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_neumaier_matches_fsum(values):
    acc = NeumaierSum()
    for v in values:
        acc.add(v)
    assert_allclose(acc.total, math.fsum(values), rtol=1e-15, atol=1e-300)


def test_neumaier_cancellation():
    # naive summation loses the tiny term entirely
    acc = NeumaierSum()
    for v in (1e16, 1.0, -1e16):
        acc.add(v)
    assert acc.total == 1.0


def _neumaier_branch_states(terms):
    """(sum, carry) after each term by Neumaier's branch, the form TwoSum replaced."""
    s = np.zeros(terms.shape[1:])
    c = np.zeros(terms.shape[1:])
    for x in terms:
        t = s + x
        c = c + np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)
        s = t
        yield s, c


def test_neumaier_twosum_step_is_bit_identical_to_the_branch():
    rng = np.random.default_rng(5)
    mixed = rng.choice([-1.0, 1.0], (4000, 5)) * 10.0 ** rng.uniform(-20, 20, (4000, 5))
    # every term followed by its negative
    equal = np.repeat(mixed[:500], 2, axis=0) * np.tile([[1.0], [-1.0]], (500, 5))
    zeros = np.array([[0.0, -0.0, 0.0, -0.0, 1e-20], [-0.0, -0.0, 0.0, 0.0, -1e-20]] * 50)
    scalar = np.array([-0.0, 0.0, 1e20, 1.0, -1e20, -0.0, 1e-20, -1.0, -1e-20, -0.0])
    for terms in (mixed, equal, zeros, np.concatenate([zeros, equal, mixed, zeros]), scalar):
        acc = NeumaierSum(shape=terms.shape[1:])
        states = list(_neumaier_branch_states(terms))
        for x, (s, c) in zip(terms, states):
            acc.add(x)
            assert acc._s.tobytes() == s.tobytes() and acc._c.tobytes() == c.tobytes()
        assert acc.total.tobytes() == (s + c).tobytes()
        # add_rows folds a block of terms to the same states at every block end
        for block in (1, 3, 64, len(terms)):
            acc = NeumaierSum(shape=terms.shape[1:])
            for i0 in range(0, len(terms), block):
                rows = terms[i0 : i0 + block]
                acc.add_rows(rows)
                s, c = states[i0 + len(rows) - 1]
                assert acc._s.tobytes() == s.tobytes() and acc._c.tobytes() == c.tobytes()


def test_add_rows_of_no_rows_is_a_no_op():
    for shape in ((), (3,)):
        acc = NeumaierSum(shape=shape)
        acc.add(np.full(shape, 1e16))
        acc.add(np.full(shape, 1.0))
        s, c = acc._s.tobytes(), acc._c.tobytes()
        acc.add_rows(np.empty((0,) + shape))
        assert acc._s.tobytes() == s and acc._c.tobytes() == c


@given(
    st.lists(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=60, deadline=None)
def test_compensated_cumsum_matches_fsum_prefixes(values):
    arr = np.asarray(values, dtype=np.float64)
    out = compensated_cumsum(arr)
    ref = [math.fsum(values[: k + 1]) for k in range(len(values))]
    assert_allclose(out, ref, rtol=1e-14, atol=1e-300)


def _loop_cumsum(x):
    # the element-by-element Neumaier loop the vectorised version replaces
    out = np.empty(len(x))
    s = c = 0.0
    for i, v in enumerate(x.tolist()):
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
        out[i] = s + c
    return out


def _cumsum_cases():
    h = np.arange(1, 10**6 + 1, dtype=np.float64) ** -0.3
    i = np.arange(1, 200_001, dtype=np.float64)
    rng = np.random.default_rng(11)
    spread = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-20, 20, 1000)
    power_log = (0.5 * i**-0.2 * np.log(i + 1.0)) ** 3
    return [h**0.5, h, h**3, power_log, rng.standard_normal(100_000), spread]


def test_compensated_cumsum_is_bit_identical_to_the_loop():
    for x in _cumsum_cases():
        assert np.array_equal(compensated_cumsum(x), _loop_cumsum(x))


def test_compensated_cumsum_shape_and_empty():
    assert compensated_cumsum(np.array([])).shape == (0,)
    out = compensated_cumsum(np.array([2.0]))
    assert out.shape == (1,) and out[0] == 2.0
