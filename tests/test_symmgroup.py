from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelmoments import symmgroup as sg
from oracles import derangement_count, group_index, is_subpermutation


def bfs_transposition_distance(t):
    """Distance of every element of S_t from the identity in the
    transposition Cayley graph; independent oracle for size()."""
    transpositions = [
        sg.transposition(t, i, j) for i in range(t) for j in range(i + 1, t)
    ]
    dist = {sg.identity(t).images: 0}
    frontier = [sg.identity(t)]
    while frontier:
        nxt = []
        for p in frontier:
            for tau in transpositions:
                q = sg.compose(tau, p)
                if q.images not in dist:
                    dist[q.images] = dist[p.images] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def test_size_equals_minimal_transposition_count():
    dist = bfs_transposition_distance(4)
    for p in sg.symmetric_group(4):
        assert p.size == dist[p.images]


def test_size_examples():
    assert sg.identity(4).size == 0
    assert sg.transposition(4, 0, 1).size == 1
    assert sg.compose(sg.transposition(3, 0, 1), sg.transposition(3, 0, 2)).size == 2


def test_compose_identity_and_involution():
    e = sg.identity(4)
    for p in sg.symmetric_group(4):
        assert sg.compose(e, p) == p
        assert sg.compose(p, e) == p
    for i in range(4):
        for j in range(i + 1, 4):
            tau = sg.transposition(4, i, j)
            assert sg.compose(tau, tau) == e


def test_compose_transpositions_gives_three_cycle():
    # the product of (01) and (02) is the full 3-cycle on {0,1,2}
    c = sg.compose(sg.transposition(3, 0, 1), sg.transposition(3, 0, 2))
    assert len(c.cycles) == 1 and len(c.cycles[0]) == 3
    assert c.support == frozenset({0, 1, 2})


def test_compose_order_mismatch():
    with pytest.raises(sg.OrderMismatchError):
        sg.compose(sg.identity(2), sg.identity(3))


def test_support_examples():
    assert sg.support(sg.identity(3)) == frozenset()
    assert sg.support(sg.transposition(4, 0, 1)) == frozenset({0, 1})
    p = sg.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert sg.support(p) == frozenset({0, 1, 2, 3, 4})


def test_subpermutation_examples():
    for sigma in sg.symmetric_group(4):
        assert is_subpermutation(sg.identity(4), sigma)
    three = sg.from_cycles(3, [(0, 1, 2)])
    assert is_subpermutation(sg.transposition(3, 0, 1), three)
    double = sg.from_cycles(4, [(0, 1), (2, 3)])
    assert not is_subpermutation(double, sg.transposition(4, 0, 1))


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_enumeration_matches_order_definition(t):
    # oracle: scan the whole group with the defining size condition
    group = sg.symmetric_group(t)
    for sigma in group:
        want = {pi.images for pi in group if is_subpermutation(pi, sigma)}
        got = {pi.images for pi in sg.enumerate_subpermutations(sigma)}
        assert got == want


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_enumeration_count_matches_catalan_product(t):
    for sigma in sg.symmetric_group(t):
        assert len(sg.enumerate_subpermutations(sigma)) == sg.subpermutation_count(sigma)


def test_enumeration_examples():
    assert sg.enumerate_subpermutations(sg.identity(3)) == [sg.identity(3)]
    tau = sg.transposition(2, 0, 1)
    assert sg.enumerate_subpermutations(tau) == [sg.identity(2), tau]
    three = sg.from_cycles(3, [(0, 1, 2)])
    subs = sg.enumerate_subpermutations(three)
    assert len(subs) == 5
    labels = {p.cycle_label() for p in subs}
    assert "e" in labels and three.cycle_label() in labels
    five = sg.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert len(sg.enumerate_subpermutations(five)) == 42


def test_mobius_examples():
    assert sg.mobius(sg.identity(5)) == 1
    assert sg.mobius(sg.transposition(5, 1, 3)) == -1
    assert sg.mobius(sg.from_cycles(3, [(0, 1, 2)])) == 2
    assert sg.mobius(sg.from_cycles(4, [(0, 1, 2, 3)])) == -5


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_mobius_lattice_sum(t):
    # sum over the lattice below sigma of mobius(inv(pi) sigma) is delta_{sigma,e}
    for sigma in sg.symmetric_group(t):
        total = sum(
            sg.mobius(sg.compose(sg.inverse(pi), sigma))
            for pi in sg.enumerate_subpermutations(sigma)
        )
        assert total == (1 if sigma.size == 0 else 0)


def test_factorization_over_disjoint_cycles():
    p = sg.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert sg.subpermutation_count(p) == sg.catalan(2) * sg.catalan(3)
    assert sg.mobius(p) == (-1) * 2


def test_character_examples():
    assert sg.character(sg.identity(3), 7) == 1
    assert sg.character(sg.transposition(2, 0, 1), 2) == Fraction(1, 2)
    assert sg.character(sg.from_cycles(3, [(0, 1, 2)]), 3) == Fraction(1, 9)
    e = sg.identity(3)
    c = sg.from_cycles(3, [(0, 1, 2)])
    assert sg.character(e, 3, pi=c) == Fraction(1, 9)


@settings(max_examples=200)
@given(st.permutations(range(5)), st.permutations(range(5)))
def test_triangle_inequality(a, b):
    sigma, pi = sg.Permutation(a), sg.Permutation(b)
    rel = sg.relative_size(pi, sigma)
    assert abs(sigma.size - pi.size) <= rel <= sigma.size + pi.size


def test_partial_order_properties():
    group = sg.symmetric_group(4)
    below = {
        sigma.images: {pi.images for pi in sg.enumerate_subpermutations(sigma)}
        for sigma in group
    }
    for sigma in group:
        assert sigma.images in below[sigma.images]  # reflexive
    for a in group:
        for b in group:
            if a.images in below[b.images] and b.images in below[a.images]:
                assert a == b  # antisymmetric
            if a.images in below[b.images]:
                assert below[a.images] <= below[b.images]  # transitive


def test_canonical_order():
    group = sg.symmetric_group(4)
    assert group[0] == sg.identity(4)
    keys = [sg.canonical_key(p) for p in group]
    assert keys == sorted(keys)
    # transpositions come right after the identity, ordered by support
    assert group[1] == sg.transposition(4, 0, 1)
    assert group_index(4)[sg.identity(4).images] == 0


def test_order_cap(monkeypatch):
    monkeypatch.setenv(sg.MAX_ORDER_ENV, "3")
    with pytest.raises(ValueError):
        sg.symmetric_group(4)
    sg.symmetric_group(3)


def test_derangement_count():
    assert [derangement_count(l) for l in range(6)] == [1, 0, 1, 2, 9, 44]


def symmetry_group_images(t):
    """Index images of every element of H (inversion and conjugation by
    (0 1), (2 3), ...) over S_t, composed from ``Permutation`` objects."""
    group, index = sg.symmetric_group(t), group_index(t)
    gens = [sg.inverse]
    for a in range(0, t - 1, 2):
        g = sg.transposition(t, a, a + 1)
        gens.append(lambda p, g=g: sg.compose(g, sg.compose(p, g)))
    images = [list(range(len(group)))]
    for gen in gens:
        images += [[index[gen(group[i]).images] for i in img] for img in images]
    return np.array(images)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_symmetry_blocks_orthonormal_basis(t):
    blocks = sg.symmetry_blocks(t)
    n = factorial(t)
    assert sum(len(b.reps) for b in blocks) == n
    u = np.zeros((n, n))
    start = 0
    for b in blocks:
        u[b.rows, start + b.pos] = b.coef
        start += len(b.reps)
    assert np.abs(u.T @ u - np.eye(n)).max() < 1e-13


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_symmetry_group_fixes_class_function_matrices(t):
    rng = np.random.default_rng(t)
    tab = sg.product_table(t)
    images = symmetry_group_images(t)
    assert len(images) == 2 ** (1 + t // 2)
    for _ in range(3):
        f = rng.standard_normal(t)[tab.size]
        c = rng.standard_normal(len(tab.reps))[tab.cls[tab.prod]]
        for img in images:
            assert np.array_equal(f[img], f)
            assert np.array_equal(c[img[:, None], img], c)
