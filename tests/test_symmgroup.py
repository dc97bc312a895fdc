from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelmoments import symmgroup as sg
from oracles import (
    OrderMismatchError,
    Permutation,
    canonical_key,
    character,
    compose,
    derangement_count,
    enumerate_subpermutations,
    from_cycles,
    group_index,
    identity,
    inverse,
    is_subpermutation,
    mobius,
    relative_size,
    subpermutation_count,
    support,
    symmetric_group,
    symmetry_basis,
    transposition,
)


def bfs_transposition_distance(t):
    """Distance of every element of S_t from the identity in the
    transposition Cayley graph; independent oracle for size()."""
    transpositions = [
        transposition(t, i, j) for i in range(t) for j in range(i + 1, t)
    ]
    dist = {identity(t).images: 0}
    frontier = [identity(t)]
    while frontier:
        nxt = []
        for p in frontier:
            for tau in transpositions:
                q = compose(tau, p)
                if q.images not in dist:
                    dist[q.images] = dist[p.images] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def test_size_equals_minimal_transposition_count():
    dist = bfs_transposition_distance(4)
    for p in symmetric_group(4):
        assert p.size == dist[p.images]


def test_size_examples():
    assert identity(4).size == 0
    assert transposition(4, 0, 1).size == 1
    assert compose(transposition(3, 0, 1), transposition(3, 0, 2)).size == 2


def test_compose_identity_and_involution():
    e = identity(4)
    for p in symmetric_group(4):
        assert compose(e, p) == p
        assert compose(p, e) == p
    for i in range(4):
        for j in range(i + 1, 4):
            tau = transposition(4, i, j)
            assert compose(tau, tau) == e


def test_compose_transpositions_gives_three_cycle():
    # the product of (01) and (02) is the full 3-cycle on {0,1,2}
    c = compose(transposition(3, 0, 1), transposition(3, 0, 2))
    assert len(c.cycles) == 1 and len(c.cycles[0]) == 3
    assert c.support == frozenset({0, 1, 2})


def test_compose_order_mismatch():
    with pytest.raises(OrderMismatchError):
        compose(identity(2), identity(3))


def test_support_examples():
    assert support(identity(3)) == frozenset()
    assert support(transposition(4, 0, 1)) == frozenset({0, 1})
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert support(p) == frozenset({0, 1, 2, 3, 4})


def test_subpermutation_examples():
    for sigma in symmetric_group(4):
        assert is_subpermutation(identity(4), sigma)
    three = from_cycles(3, [(0, 1, 2)])
    assert is_subpermutation(transposition(3, 0, 1), three)
    double = from_cycles(4, [(0, 1), (2, 3)])
    assert not is_subpermutation(double, transposition(4, 0, 1))


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_enumeration_matches_order_definition(t):
    # oracle: scan the whole group with the defining size condition
    group = symmetric_group(t)
    for sigma in group:
        want = {pi.images for pi in group if is_subpermutation(pi, sigma)}
        got = {pi.images for pi in enumerate_subpermutations(sigma)}
        assert got == want


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_enumeration_count_matches_catalan_product(t):
    for sigma in symmetric_group(t):
        assert len(enumerate_subpermutations(sigma)) == subpermutation_count(sigma)


def test_enumeration_examples():
    assert enumerate_subpermutations(identity(3)) == [identity(3)]
    tau = transposition(2, 0, 1)
    assert enumerate_subpermutations(tau) == [identity(2), tau]
    three = from_cycles(3, [(0, 1, 2)])
    subs = enumerate_subpermutations(three)
    assert len(subs) == 5
    labels = {p.cycle_label() for p in subs}
    assert "e" in labels and three.cycle_label() in labels
    five = from_cycles(5, [(0, 1, 2, 3, 4)])
    assert len(enumerate_subpermutations(five)) == 42


def test_mobius_examples():
    assert mobius(identity(5)) == 1
    assert mobius(transposition(5, 1, 3)) == -1
    assert mobius(from_cycles(3, [(0, 1, 2)])) == 2
    assert mobius(from_cycles(4, [(0, 1, 2, 3)])) == -5


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_mobius_lattice_sum(t):
    # sum over the lattice below sigma of mobius(inv(pi) sigma) is delta_{sigma,e}
    for sigma in symmetric_group(t):
        total = sum(
            mobius(compose(inverse(pi), sigma))
            for pi in enumerate_subpermutations(sigma)
        )
        assert total == (1 if sigma.size == 0 else 0)


def test_factorization_over_disjoint_cycles():
    p = from_cycles(5, [(0, 1), (2, 3, 4)])
    assert subpermutation_count(p) == sg.catalan(2) * sg.catalan(3)
    assert mobius(p) == (-1) * 2


def test_character_examples():
    assert character(identity(3), 7) == 1
    assert character(transposition(2, 0, 1), 2) == Fraction(1, 2)
    assert character(from_cycles(3, [(0, 1, 2)]), 3) == Fraction(1, 9)
    e = identity(3)
    c = from_cycles(3, [(0, 1, 2)])
    assert character(e, 3, pi=c) == Fraction(1, 9)


@settings(max_examples=200)
@given(st.permutations(range(5)), st.permutations(range(5)))
def test_triangle_inequality(a, b):
    sigma, pi = Permutation(a), Permutation(b)
    rel = relative_size(pi, sigma)
    assert abs(sigma.size - pi.size) <= rel <= sigma.size + pi.size


def test_partial_order_properties():
    group = symmetric_group(4)
    below = {
        sigma.images: {pi.images for pi in enumerate_subpermutations(sigma)}
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
    group = symmetric_group(4)
    assert group[0] == identity(4)
    keys = [canonical_key(p) for p in group]
    assert keys == sorted(keys)
    # transpositions come right after the identity, ordered by support
    assert group[1] == transposition(4, 0, 1)
    assert group_index(4)[identity(4).images] == 0


@pytest.mark.parametrize("t", [6, 7])
def test_element_data_matches_objects(t, monkeypatch):
    """The image rows, sizes, classes, Möbius values and support masks of
    the array build against ``Permutation`` objects, past the default cap;
    no product table is built."""
    monkeypatch.setenv(sg.MAX_ORDER_ENV, str(t))
    group = symmetric_group(t)
    images = sg.symmetric_group(t)
    assert images.dtype == np.int8 and not images.flags.writeable
    assert images.tolist() == [list(p.images) for p in group]
    counts = {}
    for p in group:
        counts[p.cycle_type()] = counts.get(p.cycle_type(), 0) + 1
    assert sg.conjugacy_classes(t) == tuple(sorted(counts.items()))
    kidx = {key: c for c, key in enumerate(sorted(counts))}
    el = sg._elements(t)
    assert el.images is images
    assert el.size.tolist() == [p.size for p in group]
    assert el.cls.tolist() == [kidx[p.cycle_type()] for p in group]
    assert el.mobius.tolist() == [mobius(p) for p in group]
    assert el.mask.tolist() == [canonical_key(p)[1] for p in group]
    assert [a.dtype for a in el[1:5]] == [np.int8, np.int8, np.int16, np.int64]
    assert not any(a.flags.writeable for a in el[:5])


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
    group, index = symmetric_group(t), group_index(t)
    gens = [inverse]
    for a in range(0, t - 1, 2):
        g = transposition(t, a, a + 1)
        gens.append(lambda p, g=g: compose(g, compose(p, g)))
    images = [list(range(len(group)))]
    for gen in gens:
        images += [[index[gen(group[i]).images] for i in img] for img in images]
    return np.array(images)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_symmetry_blocks_orthonormal_basis(t):
    """The group columns partition the t!, each group's arrays agree in
    (g, m), and the lift's U is orthonormal."""
    blocks, n, p = sg.symmetry_blocks(t), factorial(t), len(sg.elements(t).reps)
    cols = np.concatenate([g[0].ravel() for g in blocks.groups])
    assert np.array_equal(np.sort(cols), np.arange(n))
    sizes = [g[0].shape[1] for g in blocks.groups]
    assert sizes == sorted(set(sizes))
    for cols, reps, stab, weights in blocks.groups:
        assert reps.shape == stab.shape == cols.shape
        assert weights.shape == cols.shape + (p, cols.shape[1]) and weights.dtype == np.int8
    u = symmetry_basis(t)
    assert np.abs(u.T @ u - np.eye(n)).max() < 1e-13


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_symmetry_blocks_stabilizer_orders(t):
    """|H_a| divides |H|, |H| / |H_a| is the size of the orbit on which
    column c of U is nonzero, and the identity is fixed by all of H."""
    blocks = sg.symmetry_blocks(t)
    orbit = np.bincount(blocks.lift_cols)
    assert blocks.order == 2 ** (1 + t // 2)
    for cols, reps, stab, _ in blocks.groups:
        assert stab.dtype == np.int64 and np.all(blocks.order % stab == 0)
        assert np.array_equal(blocks.order // stab, orbit[cols])
        assert np.all(stab[reps == 0] == blocks.order)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_symmetry_group_fixes_class_function_matrices(t):
    rng = np.random.default_rng(t)
    tab = sg.elements(t)
    images = symmetry_group_images(t)
    assert len(images) == 2 ** (1 + t // 2)
    for _ in range(3):
        f = rng.standard_normal(t)[tab.size]
        c = rng.standard_normal(len(tab.reps))[tab.cls[sg._product_table(t)]]
        for img in images:
            assert np.array_equal(f[img], f)
            assert np.array_equal(c[img[:, None], img], c)
