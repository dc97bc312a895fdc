from fractions import Fraction

import numpy as np
import pytest

from channelmoments.exactalg import (
    SingularMatrixError,
    from_integer,
    join,
    mat_eq,
    product_is_identity,
    split,
    split_all,
    to_integer,
)
from channelmoments.moments import transfer
from channelmoments.specs import LOCALIZED, PERMUTATION, chaar
from oracles import frac_array, invert_bareiss, invert_exact


def random_rational_matrix(rng, n):
    return frac_array(
        [
            [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)]
            for _ in range(n)
        ]
    )


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_inverses_agree_on_random_matrices(n):
    rng = np.random.default_rng(n)
    found = 0
    while found < 3:
        a = random_rational_matrix(rng, n)
        try:
            inv_gj = invert_exact(a)
        except SingularMatrixError:
            continue
        found += 1
        inv_bar = invert_bareiss(a)
        assert mat_eq(inv_gj, inv_bar)
        assert product_is_identity(a, inv_gj)
        assert mat_eq(a.dot(inv_gj), np.eye(n, dtype=object))


def test_singular_matrix_raises():
    a = frac_array([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        invert_exact(a)
    with pytest.raises(SingularMatrixError):
        invert_bareiss(a)


def test_row_swap_pivoting():
    a = frac_array([[0, 1], [1, 0]])
    assert mat_eq(invert_exact(a), a)
    assert mat_eq(invert_bareiss(a), a)


def test_integer_round_trip_mixed_entries():
    m = frac_array(
        [[Fraction(-3, 4), 0, 5], [Fraction(7, 6), Fraction(-2), Fraction(1, 9)]]
    )
    ints, denom = to_integer(m)
    assert denom == 36
    assert ints.tolist() == [[-27, 0, 180], [42, -72, 4]]
    assert all(type(v) is int for v in ints.flat)
    back = from_integer(ints, denom)
    assert mat_eq(back, m)
    assert all(type(v) is Fraction for v in back.flat)


def test_integer_round_trip_integral_and_zero():
    for rows in ([[0, 0], [0, 0]], [[2, -1], [0, 3]]):
        m = frac_array(rows)
        ints, denom = to_integer(m)
        assert denom == 1
        assert ints.tolist() == rows
        assert mat_eq(from_integer(ints, denom), m)
    # Plain Python-int and numpy-int entries convert too.
    ints, denom = to_integer(np.array([[4, -6]], dtype=np.int64))
    assert denom == 1 and ints.tolist() == [[4, -6]]
    assert all(type(v) is int for v in ints.flat)


def test_from_integer_reduces_to_lowest_terms():
    back = from_integer(np.array([[6, -4, 0]], dtype=object), 8)
    assert back.tolist() == [[Fraction(3, 4), Fraction(-1, 2), Fraction(0)]]
    assert back[0, 1].denominator == 2


def from_integer_per_entry(ints, denom):
    """One Fraction per entry: the reference for the build that reduces
    each distinct numerator once."""
    out = np.empty(ints.shape, dtype=object)
    out.flat[:] = [Fraction(int(x), denom) for x in ints.flat]
    return out


@pytest.mark.parametrize(
    "ints, denom",
    [to_integer(transfer(chaar(2, 3, t), basis=b).matrix) for t in (4, 5)
     for b in (PERMUTATION, LOCALIZED)]
    + [(np.array([int(v) for v in range(-40, 40)], dtype=object).reshape(8, 10), 12)],
    ids=["chaar-t4-perm", "chaar-t4-localized", "chaar-t5-perm", "chaar-t5-localized",
         "all-distinct"],
)
def test_from_integer_matches_per_entry_build(ints, denom):
    got, want = from_integer(ints, denom), from_integer_per_entry(ints, denom)
    assert got.shape == want.shape
    assert all(type(g) is Fraction and g == w for g, w in zip(got.flat, want.flat))


def test_integer_round_trip_random():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6):
        m = random_rational_matrix(rng, n)
        ints, denom = to_integer(m)
        assert all(v == Fraction(i, denom) for v, i in zip(m.flat, ints.flat))
        assert mat_eq(from_integer(ints, denom), m)


def test_to_integer_reads_every_exact_entry_type_alike():
    want = [[6, -4, 0], [1, 3, -12]]
    forms = [
        frac_array([[Fraction(3, 2), -1, 0], [Fraction(1, 4), Fraction(3, 4), -3]]),
        np.array(want, dtype=object),
        np.array(want, dtype=np.int64),
        np.array([[np.int64(6), Fraction(-4), 0], [1, np.int32(3), Fraction(-12)]],
                 dtype=object),
    ]
    for m, denom in zip(forms, (4, 1, 1, 1)):
        ints, got = to_integer(m)
        assert (ints.tolist(), got) == (want, denom)
        assert type(got) is int and all(type(v) is int for v in ints.flat)
    # A numpy-int entry times a large scale stays an unbounded Python int.
    big = np.array([[np.int64(2**62), Fraction(1, 2**70)]], dtype=object)
    ints, denom = to_integer(big)
    assert denom == 2**70 and ints.tolist() == [[2**132, 1]]


def test_split_join_round_trip_keeps_exact_values_and_entry_types():
    rng = np.random.default_rng(5)
    for m in (random_rational_matrix(rng, 4), np.array([[2, -3], [0, 7]], dtype=object)):
        nums, denom = split(m)
        assert all(type(v) is int for v in nums.flat)
        back = join(nums, denom)
        assert back.dtype == object and mat_eq(back, m)
        assert all(type(v) is Fraction for v in back.flat)
    assert join(6, 4) == Fraction(3, 2) and type(join(6, 4)) is Fraction
    assert type(join(np.int64(6), 4).numerator) is int


def test_split_join_pass_floats_through_bit_for_bit():
    m = np.random.default_rng(3).standard_normal((5, 5))
    nums, denom = split(m)
    assert nums is m and denom == 1
    back = join(nums, denom)
    assert back.dtype == np.float64 and back.tobytes() == m.tobytes()
    total = m.sum()
    assert join(total, 1) == total and type(join(total, 1)) is float
    assert join(1.5, 1) == 1.5 and type(join(1.5, 1)) is float


def test_split_all_rejects_exact_mixed_with_float():
    exact, approx = frac_array([[Fraction(1, 2)]]), np.array([[0.5]])
    assert split_all(exact, exact)[0][1] == 2
    assert split_all(approx, approx)[1][1] == 1
    for pair in ((exact, approx), (approx, exact)):
        with pytest.raises(ValueError, match="mix exact"):
            split_all(*pair)


def test_mat_eq_shared_and_distinct_entries():
    """Object arrays are equal whether their entries are the same objects or
    distinct equal ones; a bent entry, a shape change or a float difference
    makes them unequal."""
    m = transfer(chaar(2, 3, 4)).matrix
    distinct = np.array([[Fraction(x.numerator, x.denominator) for x in row] for row in m],
                        dtype=object)
    assert distinct[1, 2] is not m[1, 2] and mat_eq(m, distinct) and mat_eq(distinct, m)
    bent = distinct.copy()
    bent[3, 5] += Fraction(1, 10**9)
    assert not mat_eq(m, bent)
    assert not mat_eq(m, m[:, :-1]) and not mat_eq(m[:1], m[0])
    f = m.astype(float)
    assert mat_eq(f, f.copy())
    g = f.copy()
    g[0, 0] = np.nextafter(g[0, 0], 2.0)
    assert not mat_eq(f, g)
