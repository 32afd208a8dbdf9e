import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bn2.enumerative import (
    InvalidIndexError,
    RegimeError,
    RhoMismatchError,
    SchubertIndex,
    _counted,
    castelnuovo_N,
    count_ell,
    count_m,
    count_n,
    reduce_base_locus,
    rho,
    sum_D,
    sum_S16,
    sum_T,
)
from oracles import (
    castelnuovo_general,
    counted_by_scan,
    n_from_rho,
    sum_D_pairs,
    sum_D_vectors,
    sum_S16_castelnuovo,
)

# ---------------------------------------------------------------------------
# independent brute-force oracles: loop over every raw (a0, a1) pair and skip
# factors whose counting preconditions fail


def _n_quiet(g, d, pair):
    try:
        return count_n(g, d, pair)
    except (RhoMismatchError, RegimeError):
        return 0


def _m_quiet(g, d, pair):
    try:
        return count_m(g, d, pair)
    except (RhoMismatchError, RegimeError):
        return 0


def brute_sum_T(i, g, k):
    total = 0
    for a0 in range(k):
        for a1 in range(a0, k):
            if a0 + a1 != 2 * k - i - 1:
                continue
            total += _n_quiet(i, k, (a0, a1)) * _n_quiet(g - i, k, (k - 1 - a1, k - 1 - a0))
    return total


def brute_sum_D(i, j, g, k):
    total = Fraction(0)
    for a0 in range(k):
        for a1 in range(a0, k):
            if a0 + a1 != 2 * k - i - 1:
                continue
            na = _n_quiet(i, k, (a0, a1))
            if not na:
                continue
            for b0 in range(k):
                for b1 in range(b0, k):
                    if b0 + b1 != 2 * k - j - 1:
                        continue
                    nb = _n_quiet(j, k, (b0, b1))
                    if not nb:
                        continue
                    total += na * nb * castelnuovo_N(
                        g - i - j, k, (k - 1 - a1, k - 1 - a0), (k - 1 - b1, k - 1 - b0)
                    )
    return total


def brute_sum_S16(i, g, k):
    total = Fraction(0)
    for a0 in range(k):
        for a1 in range(a0, k):
            if a0 + a1 != g - i - 1:
                continue
            total += _m_quiet(i, k, (a0, a1)) * castelnuovo_N(
                g - i - 1, k, (k - 1 - a1, k - 1 - a0)
            )
    return total


# ---------------------------------------------------------------------------


def test_rho_examples():
    assert rho(6, 1, 3) == -2
    assert rho(0, 1, 1) == 0
    assert rho(4, 1, 3, [(0, 1)]) == -1


def test_rho_rejects_invalid_index():
    with pytest.raises(InvalidIndexError):
        rho(4, 1, 3, [(0, 3)])  # a1 > d - 1


def test_reduce_base_locus():
    assert reduce_base_locus(3, (1, 2), (0, 0)) == (2, SchubertIndex(0, 1), SchubertIndex(0, 0))
    assert reduce_base_locus(5, (0, 2), (0, 3)) == (5, SchubertIndex(0, 2), SchubertIndex(0, 3))
    assert reduce_base_locus(4, (1, 1), (1, 3)) == (2, SchubertIndex(0, 0), SchubertIndex(0, 2))


def test_reduce_base_locus_rejects_exhausted_pencil():
    with pytest.raises(InvalidIndexError):
        reduce_base_locus(2, (1, 1), (1, 1))  # d' = 0


def test_schubert_index_is_a_checked_tuple():
    import pickle
    import re

    index = SchubertIndex(0, 1)
    assert repr(index) == "SchubertIndex(a0=0, a1=1)"
    assert index == (0, 1) and (index.a0, index.a1) == (0, 1)
    assert pickle.loads(pickle.dumps(index)) == index
    assert type(pickle.loads(pickle.dumps(index))) is SchubertIndex
    with pytest.raises(InvalidIndexError, match=re.escape("need 0 <= a0 <= a1, got (1,0)")):
        SchubertIndex(1, 0)
    with pytest.raises(InvalidIndexError, match=re.escape("need 0 <= a0 <= a1, got (-1,2)")):
        SchubertIndex(-1, 2)
    assert index._replace(a1=3) == SchubertIndex(0, 3)
    with pytest.raises(InvalidIndexError, match=re.escape("need 0 <= a0 <= a1, got (2,1)")):
        index._replace(a0=2)


def test_castelnuovo_general_values():
    assert castelnuovo_general(2, 1, 2, (0, 0), (0, 0)) == 1
    assert castelnuovo_general(0, 1, 1, (0, 0), (0, 0)) == 1
    assert castelnuovo_general(2, 1, 3, (0, 1), (0, 1)) == 2


def test_castelnuovo_general_can_be_fractional_off_regime():
    assert castelnuovo_general(1, 1, 1, (0, 0), (0, 0)) == Fraction(1, 2)


def test_castelnuovo_N_values():
    assert castelnuovo_N(2, 3, (0, 1), (0, 1)) == 2
    assert castelnuovo_N(3, 3, (0, 1), (0, 0)) == castelnuovo_N(3, 3, (0, 0), (0, 1))
    assert castelnuovo_N(2, 3, (1, 2), (0, 1)) == castelnuovo_N(2, 2, (0, 1), (0, 1))


def test_castelnuovo_routes_agree_small_grid():
    for g in range(0, 6):
        for d in range(1, 5):
            idx = [(a0, a1) for a0 in range(d) for a1 in range(a0, d)]
            for a in idx:
                for b in idx:
                    assert castelnuovo_N(g, d, a, b) == castelnuovo_general(g, 1, d, a, b)


@given(st.integers(0, 7), st.integers(1, 6), st.data())
@settings(max_examples=150)
def test_castelnuovo_N_symmetric(g, d, data):
    a0 = data.draw(st.integers(0, d - 1))
    a1 = data.draw(st.integers(a0, d - 1))
    b0 = data.draw(st.integers(0, d - 1))
    b1 = data.draw(st.integers(b0, d - 1))
    assert castelnuovo_N(g, d, (a0, a1), (b0, b1)) == castelnuovo_N(g, d, (b0, b1), (a0, a1))


def test_determinant_is_base_locus_invariant():
    # removing the forced base points leaves the raw determinant unchanged
    for g in range(0, 7):
        for d in range(2, 6):
            for a0 in range(d):
                for a1 in range(a0, d):
                    for b0 in range(d):
                        for b1 in range(b0, d):
                            if a0 + b0 == 0 or d - a0 - b0 < 1:
                                continue
                            dp, ap, bp = reduce_base_locus(d, (a0, a1), (b0, b1))
                            if ap.a1 > dp - 1 or bp.a1 > dp - 1:
                                continue  # reduction left the degree-valid domain
                            assert castelnuovo_general(
                                g, 1, d, (a0, a1), (b0, b1)
                            ) == castelnuovo_general(g, 1, dp, (ap.a0, ap.a1), (bp.a0, bp.a1))


def test_counts_are_base_locus_invariant():
    for g in range(2, 8):
        for d in range(2, 6):
            for a0 in range(1, d):
                for a1 in range(a0, d):
                    dp, ap, _ = reduce_base_locus(d, (a0, a1), (0, 0))
                    assert _n_quiet(g, d, (a0, a1)) == _n_quiet(g, dp, (ap.a0, ap.a1))
                    if dp >= 2:  # the simple-ramification condition needs degree >= 2
                        assert _m_quiet(g, d, (a0, a1)) == _m_quiet(g, dp, (ap.a0, ap.a1))


def test_count_n_values():
    assert count_n(4, 3, (0, 1)) == 24
    assert count_n(2, 2, (0, 1)) == 6
    assert count_n(2, 3, (1, 2)) == 6  # reduces to n_{2,2,(0,1)}


def test_count_n_error_kinds_are_distinct():
    with pytest.raises(RhoMismatchError):
        count_n(4, 3, (0, 0))  # adjusted rho is 0, not -1
    with pytest.raises(RegimeError):
        count_n(3, 2, (0, 0))  # adjusted rho is -1 but rho(3,1,2) < 0


def test_count_m_values():
    assert count_m(4, 3, (0, 1)) == 264
    assert count_m(2, 2, (0, 1)) == 30
    assert count_m(2, 3, (1, 2)) == 30


def test_count_m_rejects_wrong_rho():
    with pytest.raises(RhoMismatchError):
        count_m(4, 3, (0, 0))


def test_count_ell_values():
    assert count_ell(2, 2) == 2
    assert count_ell(4, 3) == 6
    assert count_ell(6, 4) == 20


def test_count_ell_rejects_mismatched_pair():
    with pytest.raises(ValueError):
        count_ell(5, 3)
    with pytest.raises(ValueError):
        count_ell(2, 1)


def test_sum_T_values():
    assert sum_T(2, 6, 3) == 144  # single term: n_{2,3,(1,2)} * n_{4,3,(0,1)}
    assert sum_T(3, 6, 3) == 576
    assert sum_T(2, 6, 2) == 0  # every admissible term falls out of regime


@pytest.mark.parametrize("k", [3, 4, 5])
def test_sum_T_matches_brute_force(k):
    g = 2 * k
    for i in range(2, g // 2 + 1):
        assert sum_T(i, g, k) == brute_sum_T(i, g, k)


def test_sum_D_values():
    assert sum_D(2, 2, 6, 3) == 72
    assert sum_D(2, 3, 6, 3) == 144
    assert sum_D(3, 3, 8, 2) == 0  # every admissible term falls out of regime


@pytest.mark.parametrize(
    "call", [lambda k: sum_T(2, 10, k), lambda k: sum_D(2, 3, 10, k), lambda k: sum_S16(5, 10, k)]
)
@pytest.mark.parametrize("k", [0, -2])
def test_sums_reject_a_degree_below_1(call, k):
    # as rho does for d < 1; count_n, count_m and count_ell reject it too
    with pytest.raises(ValueError, match=rf"^need k >= 1, got k={k}$"):
        call(k)


def test_sum_D_off_regime_is_rejected():
    # with g != 2k the summand determinants need not be integral counts
    with pytest.raises(ArithmeticError):
        sum_D(2, 2, 8, 2)


@pytest.mark.parametrize("i, j, g, k, value", [(2, 2, 7, 2, "21/5"), (2, 2, 8, 2, "9/10")])
def test_sum_D_off_g_2k_names_the_exact_value(i, j, g, k, value):
    # the division by s! is exact or reported as the reduced fraction
    message = f"sum_D({i},{j},{g},{k}) is not integral ({value}); it only counts points when g = 2k"
    for route in (sum_D, sum_D_pairs):
        with pytest.raises(ArithmeticError) as exc:
            route(i, j, g, k)
        assert str(exc.value) == message


def test_castelnuovo_N_is_a_fraction():
    for args in ((2, 3, (0, 1), (0, 1)), (1, 1, (0, 0)), (0, 2, (1, 1))):
        assert type(castelnuovo_N(*args)) is Fraction
    assert castelnuovo_N(1, 1, (0, 0)) == Fraction(1, 2)


@pytest.mark.parametrize("k", [3, 4])
def test_sum_D_matches_brute_force(k):
    g = 2 * k
    for i in range(2, g - 2):
        for j in range(i, g - 2):
            if i + j <= g - 1:
                assert sum_D(i, j, g, k) == brute_sum_D(i, j, g, k)


def _admissible_D(g):
    # 2 <= i <= j <= g-3 and i+j <= g-1
    return st.integers(2, (g - 1) // 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i, min(g - 3, g - 1 - i)))
    )


_D_args = st.tuples(st.integers(6, 40), st.integers(2, 22)).flatmap(
    lambda gk: st.tuples(_admissible_D(gk[0]), st.just(gk[0]), st.just(gk[1]))
)


@given(_D_args)
@settings(max_examples=200, deadline=None)
@example(((2, 2), 6, 5))  # s = 2(g-k)-i-j < 0: every binomial vanishes
@example(((2, 5), 8, 4))  # s_j = g-k-j < 0 <= s: the generalized binomial
@example(((2, 2), 8, 2))  # off regime and not integral
def test_sum_D_equals_pairwise_sum(args):
    (i, j), g, k = args

    def value_or_message(f):
        try:
            return f(i, j, g, k)
        except ArithmeticError as exc:
            return str(exc)

    assert value_or_message(sum_D) == value_or_message(sum_D_pairs)


_D_on_2k = st.integers(4, 32).flatmap(
    lambda k: st.tuples(_admissible_D(2 * k), st.just(2 * k), st.just(k))
)


@given(st.one_of(_D_args, _D_on_2k))
@settings(max_examples=200, deadline=None)
@example(((6, 6), 20, 4))  # i > k, where the Newton expansion of F_i fails: not integral
@example(((5, 6), 12, 4))  # i > k, integral: 810
@example(((3, 5), 9, 4))  # i < k < j off g = 2k: 2880
@example(((14, 40), 60, 30))  # g = 2k, k >= 30
@example(((29, 30), 60, 30))  # g = 2k, the largest i
@example(((2, 2), 8, 2))  # off regime and not integral
def test_sum_D_equals_vector_route(args):
    (i, j), g, k = args

    def value_or_message(f):
        try:
            return f(i, j, g, k)
        except ArithmeticError as exc:
            return str(exc)

    assert value_or_message(sum_D) == value_or_message(sum_D_vectors)


@pytest.mark.parametrize("k", range(3, 60))
def test_counted_walks_the_pairs_of_the_scan(k):
    # every weight w up to k = 30; above it, the weight 2k-i-1 of the sums and
    # its neighbours (the whole grid to k = 59 takes about 18 s, and passes)
    for i in range(2 * k + 2):
        weights = range(-1, 2 * k) if k <= 30 else range(2 * k - i - 2, 2 * k - i + 1)
        for w in weights:
            assert _counted(i, k, w, "sum_T", "i") == counted_by_scan(i, k, w)


def test_sum_S16_values():
    assert sum_S16(3, 6, 3) == 192
    assert sum_S16(4, 8, 2) == 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_sum_S16_matches_brute_force(k):
    g = 2 * k
    for i in range(g // 2, g - 2):
        assert sum_S16(i, g, k) == brute_sum_S16(i, g, k)


_S16_args = st.integers(6, 80).flatmap(
    lambda g: st.tuples(st.integers(g // 2, g - 3), st.just(g), st.integers(1, 45))
)
_S16_on_2k = st.integers(3, 60).flatmap(
    lambda k: st.tuples(st.integers(k, 2 * k - 3), st.just(2 * k), st.just(k))
)


@given(st.one_of(_S16_args, _S16_on_2k))
@settings(max_examples=300, deadline=None)
@example((3, 6, 3))  # the smallest g = 2k: 192
@example((30, 60, 30))  # g = 2k, the smallest i
@example((117, 120, 60))  # g = 2k, the largest i
@example((5, 10, 4))  # off g = 2k: nothing is counted
def test_sum_S16_equals_castelnuovo_route(args):
    i, g, k = args
    assert sum_S16(i, g, k) == sum_S16_castelnuovo(i, g, k)


def test_sum_range_validation():
    with pytest.raises(ValueError):
        sum_T(1, 6, 3)
    with pytest.raises(ValueError):
        sum_D(2, 4, 6, 3)
    with pytest.raises(ValueError):
        sum_S16(2, 6, 3)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_s4_rhs_equals_sum_D_over_three(k):
    # the two-tail family degree against the elliptic-bridge one, written two ways
    g = 2 * k
    for i in range(2, g - 2):
        lhs = Fraction(0)
        for a0 in range(k):
            for a1 in range(a0, k):
                if a0 + a1 != 2 * k - i - 1:
                    continue
                na = _n_quiet(i, k, (a0, a1))
                if na:
                    lhs += 2 * na * castelnuovo_N(
                        g - i - 2, k, (0, 1), (k - 1 - a1, k - 1 - a0)
                    )
        assert lhs == Fraction(sum_D(2, i, g, k), 3)


def test_counts_are_nonnegative_on_grid():
    for k in (2, 3, 4):
        for g in range(2, 9):
            for a0 in range(k):
                for a1 in range(a0, k):
                    assert _n_quiet(g, k, (a0, a1)) >= 0
                    assert _m_quiet(g, k, (a0, a1)) >= 0


def test_coefficient_anchor_ties_sum_T_to_known_class():
    # 2*(41/144) - 329/144 + 1975/144 == 12 == T_2 / ((2*2-2)(2*4-2))
    lhs = 2 * Fraction(41, 144) - Fraction(329, 144) - Fraction(-1975, 144)
    assert lhs == 12
    assert Fraction(sum_T(2, 6, 3), (2 * 2 - 2) * (2 * 4 - 2)) == 12


# ---------------------------------------------------------------------------
# the integer counting route against the raw reciprocal-factorial determinant
# (castelnuovo_general) for N; the counts n come from count_n behind
# try/except, which test_regime_predicate_matches_count_n_exceptions holds
# against the regime conditions read off rho


def _N_raw(g, d, alpha, beta=(0, 0)):
    return castelnuovo_general(g, 1, d, alpha, beta)


def _comp(k, a0, a1):
    return (k - 1 - a1, k - 1 - a0)


def raw_sum_D(i, j, g, k):
    total = Fraction(0)
    for a0 in range(k):
        for a1 in range(a0, k):
            if a0 + a1 != 2 * k - i - 1:
                continue
            for b0 in range(k):
                for b1 in range(b0, k):
                    if b0 + b1 != 2 * k - j - 1:
                        continue
                    total += (
                        _n_quiet(i, k, (a0, a1))
                        * _n_quiet(j, k, (b0, b1))
                        * _N_raw(g - i - j, k, _comp(k, a0, a1), _comp(k, b0, b1))
                    )
    return total


def raw_sum_S16(i, g, k):
    total = Fraction(0)
    for a0 in range(k):
        for a1 in range(a0, k):
            if a0 + a1 == g - i - 1:
                total += (
                    _n_quiet(i, k, (a0, a1)) * (3 * i - 1) * _N_raw(g - i - 1, k, _comp(k, a0, a1))
                )
    return total


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_sum_D_matches_raw_determinant(k):
    g = 2 * k
    for i in range(2, g - 2):
        for j in range(i, g - 2):
            if i + j <= g - 1:
                assert sum_D(i, j, g, k) == raw_sum_D(i, j, g, k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_sum_S16_matches_raw_determinant(k):
    g = 2 * k
    for i in range(g // 2, g - 2):
        assert sum_S16(i, g, k) == raw_sum_S16(i, g, k)


def _index_for(d):
    return st.integers(0, d - 1).flatmap(lambda a0: st.tuples(st.just(a0), st.integers(a0, d - 1)))


_castelnuovo_args = st.integers(1, 16).flatmap(
    lambda d: st.tuples(st.integers(0, 30), st.just(d), _index_for(d), _index_for(d))
)


@given(_castelnuovo_args)
@settings(max_examples=300, deadline=None)
@example((1, 1, (0, 0), (0, 0)))  # 1/2, off the counting regime
@example((3, 2, (0, 1), (0, 0)))  # 1/4, off the counting regime
def test_castelnuovo_N_equals_raw_determinant(args):
    g, d, alpha, beta = args
    assert castelnuovo_N(g, d, alpha, beta) == _N_raw(g, d, alpha, beta)


def test_regime_predicate_matches_count_n_exceptions():
    for g in range(0, 21):
        for d in range(1, 13):
            for a0 in range(d):
                for a1 in range(a0, d):
                    value = n_from_rho(g, d, a0, a1)
                    assert _n_quiet(g, d, (a0, a1)) == value
                    if not value:
                        mismatch = rho(g, 1, d, [(a0, a1)]) != -1
                        with pytest.raises(RhoMismatchError if mismatch else RegimeError):
                            count_n(g, d, (a0, a1))


def _outcome(f, *args):
    try:
        return str(f(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}:{exc}"


def test_count_n_and_count_m_outcomes_are_pinned():
    # every value, error type and message of count_n and count_m on
    # g <= 20, d <= 12 and all alpha, hashed before the memoized regime
    # predicate replaced the exception-driven one
    h = hashlib.sha256()
    for g in range(0, 21):
        for d in range(1, 13):
            for a0 in range(d):
                for a1 in range(a0, d):
                    n = _outcome(count_n, g, d, (a0, a1))
                    m = _outcome(count_m, g, d, (a0, a1))
                    h.update(f"{g},{d},{a0},{a1}:{n};{m}\n".encode())
    assert h.hexdigest() == "84c62b7f45befbcd1cba5f288b9033d7c6df79fe95c2e58e6dac64355b8fb3c9"


def test_count_error_messages():
    with pytest.raises(
        RhoMismatchError, match=r"^count_n needs adjusted rho = -1, got rho\(4,1,3,\(0, 0\)\) = 0$"
    ):
        count_n(4, 3, (0, 0))
    with pytest.raises(RegimeError, match=r"^rho\(3,1,2\) < 0 after base-locus reduction$"):
        count_n(3, 2, (0, 0))
    with pytest.raises(
        RhoMismatchError,
        match=r"^count_m needs adjusted rho = -2, got rho\(4,1,3,\(0, 0\),\(0,1\)\) = -1$",
    ):
        count_m(4, 3, (0, 0))
    with pytest.raises(RegimeError, match=r"^rho\(3,1,2\) < 0 after base-locus reduction$"):
        count_m(3, 2, (0, 0))
    with pytest.raises(InvalidIndexError, match=r"^sequence \(0, 1\) invalid for type r=1, d=1$"):
        count_m(1, 1, (0, 0))
    with pytest.raises(ValueError, match=r"^need g >= 0 and d >= 1, got g=-1, d=3$"):
        count_n(-1, 3, (0, 1))


def test_sums_match_raw_determinant_off_regime():
    # with g != 2k the common denominator s! is not (g-i-j)!: sum_D is the raw
    # value when integral and otherwise names it in the error
    for k in (2, 3, 4):
        for g in range(5, 11):
            if g == 2 * k:
                continue
            for i in range(2, g - 2):
                for j in range(i, g - 2):
                    if i + j > g - 1:
                        continue
                    raw = raw_sum_D(i, j, g, k)
                    if raw.denominator == 1:
                        assert sum_D(i, j, g, k) == raw
                    else:
                        with pytest.raises(ArithmeticError, match=f"\\({raw}\\)"):
                            sum_D(i, j, g, k)
            for i in range(g // 2, g - 2):
                assert sum_S16(i, g, k) == raw_sum_S16(i, g, k)
