"""Hecke-algebra arithmetic at evaluated spectral points: generator rules,
the intertwining recursion, the interval-sum basis, and the routes to
m(x, w) (definition, generator walk, trace form and chain product)
compared at random points."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwl import DomainError, UnluckyPointError
from wwl.hecke import (MODULUS_DEFAULT, SpectralPoint, hecke_left_mul_gen,
                       hecke_mul, lambda_functional, m_direct, m_matrix,
                       m_product, m_product_roots, m_product_value, mu, psi,
                       sample_spectral_point)
from wwl.shellability import condition_B


def inv(a, p):
    return pow(a, p - 2, p)


def mu_via_word(G, word, pt):
    """Oracle for mu: peel the last letter of a reduced word and translate
    the point, mu_z(w) = mu_z(s_c) mu_(s_c z)(w s_c)."""
    if not word:
        return {G.idx_of(G.identity): 1}
    letter = word[-1]
    s = G.simple_reflection(letter)
    z = pt.z[letter - 1]
    denom = (1 - z) % pt.p
    coeff = (1 - pt.u) * z % pt.p * inv(denom, pt.p) % pt.p
    factor = {G.idx_of(s): pt.u}
    if coeff:
        factor[G.idx_of(G.identity)] = coeff
    rest = mu_via_word(G, word[:-1], pt.translate(G, s))
    return hecke_mul(G, factor, rest, pt)


def walk_column_oracle(G, wi, pt):
    """Column w of the transition matrix by the generator walk: t_y mu_z(w)
    for every y, each from t_(s y) mu_z(w) by one generator multiplication
    up the weak order, then the psi sums of their t_e coefficients."""
    G.ensure_bruhat()
    size = G.order()
    ident = G.idx_of(G.identity)
    muw = mu(G, G.elem_of(wi), pt)
    lam_vals = [0] * size
    tymu = [None] * size
    tymu[0] = muw
    lam_vals[0] = muw.get(ident, 0)
    for yi in range(1, size):
        letter = G.canon_of_idx(yi)[0]
        prev = tymu[G.lmul_idx(letter, yi)]
        cur = hecke_left_mul_gen(G, letter, prev, pt)
        tymu[yi] = cur
        lam_vals[yi] = cur.get(ident, 0)
    return [sum(lam_vals[yi] for yi in range(size) if G.leq_idx(xi, yi))
            % pt.p for xi in range(size)]


def m_matrix_walk_oracle(G, pt):
    """The whole matrix, out[x][w], one walk per column."""
    columns = [walk_column_oracle(G, wi, pt) for wi in range(G.order())]
    return [list(row) for row in zip(*columns)]


@pytest.fixture()
def rng():
    return random.Random(20260809)


# -- spectral points -----------------------------------------------------------

def test_point_validation():
    p = MODULUS_DEFAULT
    with pytest.raises(DomainError):
        SpectralPoint(p, 1, (5,))
    with pytest.raises(DomainError):
        SpectralPoint(p, 0, (5,))
    with pytest.raises(DomainError):
        SpectralPoint(p, 7, (0,))
    pt = SpectralPoint(p, 7, (5,))
    assert pt.q * 7 % p == 1


def test_z_pow_negative_exponents():
    pt = SpectralPoint(MODULUS_DEFAULT, 7, (3, 5))
    assert pt.z_pow((1, 2)) == 3 * 25 % MODULUS_DEFAULT
    assert pt.z_pow((-1, 0)) * 3 % MODULUS_DEFAULT == 1


def test_sampling_avoids_unit_values(group_for, rng):
    G = group_for("B", 2)
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        assert pt.u not in (0, 1)
        for alpha in G.rs.positive_roots:
            assert pt.z_pow(alpha) != 1


def test_sampling_exhaustion_raises(group_for, rng):
    # mod 3 every candidate hits z^(alpha1+alpha2) = 1
    G = group_for("A", 2)
    with pytest.raises(UnluckyPointError):
        sample_spectral_point(G.rs, rng, p=3)


def test_translate_by_simple_reflection(group_for, rng):
    G = group_for("A", 2)
    pt = sample_spectral_point(G.rs, rng)
    s1 = G.element_from_word((1,))
    moved = pt.translate(G, s1)
    for i in (1, 2):
        alpha = G.rs.simple_root(i)
        assert moved.z[i - 1] == pt.z_pow(s1.apply_root(alpha))


# -- generator rules -----------------------------------------------------------------

def test_left_mul_gen_rules(group_for, rng):
    G = group_for("A", 2)
    pt = sample_spectral_point(G.rs, rng)
    p, q = pt.p, pt.q
    e, s1 = G.idx_of(G.identity), G.word_to_idx((1,))
    assert hecke_left_mul_gen(G, 1, {e: 1}, pt) == {s1: 1}
    assert hecke_left_mul_gen(G, 1, {s1: 1}, pt) == \
        {s1: (q - 1) % p, e: q}
    s12 = G.word_to_idx((1, 2))
    assert hecke_left_mul_gen(G, 1, {G.word_to_idx((2,)): 1}, pt) == \
        {s12: 1}


@pytest.mark.parametrize("type_letter,rank", [("B", 3), ("G", 2)])
def test_left_mul_gen_matches_matrix_oracle(group_for, rng, type_letter,
                                            rank):
    """t_a t_w on every (letter, w), with s_a w found by multiplying the
    element matrices rather than from the multiplication tables; then the
    product with a random combination of all basis vectors, by
    linearity."""
    G = group_for(type_letter, rank)
    G.ensure_tables()  # elem_of reads them; the group may be fresh
    pt = sample_spectral_point(G.rs, rng)
    p, q = pt.p, pt.q
    coeffs = {wi: rng.randrange(1, p) for wi in range(G.order())}
    for a in range(1, rank + 1):
        total = {}
        for wi, c in coeffs.items():
            swi = G.idx_of(G.simple_reflection(a) * G.elem_of(wi))
            if G.len_of_idx(swi) > G.len_of_idx(wi):
                want = {swi: 1}
            else:
                want = {wi: (q - 1) % p, swi: q}
            assert hecke_left_mul_gen(G, a, {wi: 1}, pt) == want
            for yi, d in want.items():
                total[yi] = (total.get(yi, 0) + c * d) % p
        assert hecke_left_mul_gen(G, a, coeffs, pt) == \
            {yi: d for yi, d in total.items() if d}
    with pytest.raises(DomainError):
        hecke_left_mul_gen(G, rank + 1, {0: 1}, pt)


def test_hecke_mul_unit_and_associativity(group_for, rng):
    G = group_for("A", 2)
    e = G.idx_of(G.identity)
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        f = {G.word_to_idx((1,)): 3, G.word_to_idx((2, 1)): 5}
        assert hecke_mul(G, f, {e: 1}, pt) == f
        assert hecke_mul(G, {e: 1}, f, pt) == f
        t1 = {G.word_to_idx((1,)): 1}
        t2 = {G.word_to_idx((2,)): 1}
        left = hecke_mul(G, hecke_mul(G, t1, t2, pt), t1, pt)
        right = hecke_mul(G, t1, hecke_mul(G, t2, t1, pt), pt)
        assert left == right


def test_longest_element_square_rank_one(group_for, rng):
    G = group_for("A", 1)
    pt = sample_spectral_point(G.rs, rng)
    p, q = pt.p, pt.q
    s1 = G.word_to_idx((1,))
    got = hecke_mul(G, {s1: 1}, {s1: 1}, pt)
    assert got == {s1: (q - 1) % p, G.idx_of(G.identity): q}


# -- intertwining elements --------------------------------------------------------------

def test_mu_identity(group_for, rng):
    G = group_for("A", 2)
    pt = sample_spectral_point(G.rs, rng)
    assert mu(G, G.identity, pt) == {G.idx_of(G.identity): 1}


def test_mu_one_generator_formula(group_for, rng):
    G = group_for("A", 1)
    pt = sample_spectral_point(G.rs, rng)
    p = pt.p
    z = pt.z[0]
    got = mu(G, G.element_from_word((1,)), pt)
    coeff = (1 - pt.u) * z % p * inv((1 - z) % p, p) % p
    assert got == {G.word_to_idx((1,)): pt.u, G.idx_of(G.identity): coeff}


def test_mu_word_independent(group_for, rng):
    """Peeling either reduced word of the longest element gives the same
    result once the factor recursion is spelled out by hand."""
    G = group_for("A", 2)
    for _ in range(10):
        pt = sample_spectral_point(G.rs, rng)
        a = mu_via_word(G, (1, 2, 1), pt)
        b = mu_via_word(G, (2, 1, 2), pt)
        assert a == b
        assert a == mu(G, G.longest_element(), pt)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_mu_table_recursion_matches_word_peel(group_for, rng, type_letter,
                                              rank):
    """mu built by right multiplication along the canonical word equals the
    last-letter peel with translated points, on every element, for the
    canonical word and for the last reduced word in lexicographic order."""
    G = group_for(type_letter, rank)
    for _ in range(2):
        pt = sample_spectral_point(G.rs, rng)
        for w in G.enumerate_group():
            got = mu(G, w, pt)
            assert got == mu_via_word(G, G.canonical_word(w), pt)
            assert got == mu_via_word(G, G.all_reduced_words(w)[-1], pt)


def test_mu_unlucky_denominator(group_for):
    G = group_for("A", 1)
    pt = SpectralPoint(MODULUS_DEFAULT, 7, (1,))  # z^alpha = 1
    with pytest.raises(UnluckyPointError):
        mu(G, G.element_from_word((1,)), pt)


# -- interval sums ------------------------------------------------------------------------

def test_psi_extremes(group_for):
    G = group_for("A", 2)
    w0 = G.longest_element()
    assert psi(G, w0) == {G.idx_of(w0): 1}
    assert psi(G, G.identity) == {G.idx_of(w): 1
                                  for w in G.enumerate_group()}


def test_psi_support_of_generator(group_for):
    G = group_for("A", 2)
    s1 = G.element_from_word((1,))
    support = psi(G, s1)
    assert len(support) == 4
    assert set(support) == {G.idx_of(w) for w in (
        s1, G.element_from_word((1, 2)), G.element_from_word((2, 1)),
        G.longest_element())}


# -- transition coefficients ------------------------------------------------------------

def test_m_rank_one_hand_value(group_for, rng):
    G = group_for("A", 1)
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        p = pt.p
        z = pt.z[0]
        expected = (1 - pt.u * z) % p * inv((1 - z) % p, p) % p
        assert m_direct(G, G.identity, G.element_from_word((1,)), pt) == \
            expected
        assert m_product(G, G.identity, G.element_from_word((1,)), (1,),
                         pt) == expected


def test_m_diagonal_and_triangularity(group_for, rng):
    G = group_for("A", 2)
    elements = G.enumerate_group()
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        for x in elements:
            assert m_direct(G, x, x, pt) == 1
            for w in elements:
                if not G.bruhat_leq(x, w):
                    assert m_direct(G, x, w, pt) == 0


def test_m_matrix_matches_directs(group_for, rng):
    for type_letter, rank, points in [("A", 2, 2), ("B", 2, 2), ("G", 2, 2),
                                      ("A", 3, 1)]:
        G = group_for(type_letter, rank)
        elements = G.enumerate_group()
        for _ in range(points):
            pt = sample_spectral_point(G.rs, rng)
            matrix = m_matrix(G, pt)
            for x in elements:
                for w in elements:
                    assert matrix[G.idx_of(x)][G.idx_of(w)] == \
                        m_direct(G, x, w, pt)


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_m_matrix_matches_walk_oracle(group_for, rng, type_letter, rank):
    """The trace form equals the per-column generator walk on every pair,
    x not below w included."""
    G = group_for(type_letter, rank)
    for _ in range(2):
        pt = sample_spectral_point(G.rs, rng)
        assert m_matrix(G, pt) == m_matrix_walk_oracle(G, pt)


@pytest.mark.parametrize("type_letter,rank,examples",
                         [("D", 4, 8), ("B", 4, 3)])
def test_m_matrix_columns_match_walk_oracle_sampled(group_for, type_letter,
                                                    rank, examples):
    """Seeded single columns past the exhaustive groups, at one point."""
    G = group_for(type_letter, rank)
    pt = sample_spectral_point(G.rs, random.Random(rank))
    matrix = m_matrix(G, pt)

    @settings(max_examples=examples)
    @given(st.integers(0, G.order() - 1))
    def check(wi):
        assert [row[wi] for row in matrix] == walk_column_oracle(G, wi, pt)

    check()


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3)])
def test_trace_identity(group_for, rng, type_letter, rank):
    """The t_e coefficient of t_y t_v is q^l(y) when v = y^-1 and 0
    otherwise, for every pair of elements."""
    G = group_for(type_letter, rank)
    pt = sample_spectral_point(G.rs, rng)
    elements = G.enumerate_group()
    for y in elements:
        want = pow(pt.q, G.length(y), pt.p)
        y_inv = G.inverse(y)
        for v in elements:
            got = lambda_functional(hecke_mul(
                G, {G.idx_of(y): 1}, {G.idx_of(v): 1}, pt))
            assert got == (want if v == y_inv else 0)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_interval_sum_eigen_relation(group_for, rng, type_letter, rank):
    """For x s > x: psi(x) mu_z(s) scales psi(x) by (1 - u z^alpha) over
    (1 - z^alpha), and psi(x s) mu_z(s) - psi(x) is supported above x s."""
    G = group_for(type_letter, rank)
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        p = pt.p
        for x in G.enumerate_group():
            for i in range(1, rank + 1):
                s = G.simple_reflection(i)
                xs = x * s
                if not G.length(xs) > G.length(x):
                    continue
                alpha = G.rs.simple_root(i)
                za = pt.z_pow(alpha)
                scale = (1 - pt.u * za) % p * inv((1 - za) % p, p) % p
                mus = mu(G, s, pt)
                lhs = hecke_mul(G, psi(G, x), mus, pt)
                want = {w: c * scale % p for w, c in psi(G, x).items()}
                assert lhs == want
                upper = hecke_mul(G, psi(G, xs), mus, pt)
                psi_x = psi(G, x)
                rem = {w: (upper.get(w, 0) - psi_x.get(w, 0)) % p
                       for w in set(upper) | set(psi_x)}
                for wi, c in rem.items():
                    if c:
                        assert G.bruhat_leq(xs, G.elem_of(wi))


def test_product_theorem_b2(group_for, rng):
    G = group_for("B", 2)
    elements = G.enumerate_group()
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        for x in elements:
            for w in elements:
                if not G.bruhat_leq(x, w):
                    continue
                has_b, word = condition_B(G, x, w)
                if has_b:
                    assert m_product(G, x, w, word, pt) == \
                        m_direct(G, x, w, pt)


def test_m_product_requires_condition(group_for, rng):
    G = group_for("B", 2)
    pt = sample_spectral_point(G.rs, rng)
    x = G.element_from_word((1,))
    w = G.element_from_word((1, 2, 1))
    from wwl import ConditionError
    with pytest.raises(ConditionError):
        m_product(G, x, w, (1, 2, 1), pt)


def test_a3_example_pair_at_points(group_for, rng):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    w = G.element_from_word((1, 2, 1, 3, 2, 1))
    for _ in range(5):
        pt = sample_spectral_point(G.rs, rng)
        assert m_direct(G, x, w, pt) == \
            m_product(G, x, w, (1, 2, 1, 3, 2, 1), pt)


@pytest.mark.parametrize("type_letter,rank,examples",
                         [("A", 3, 40), ("B", 3, 40)])
def test_split_product_matches_direct_sampled(group_for, type_letter, rank,
                                              examples):
    """The per-pair roots and the per-point product, with one factor cache
    per point shared across pairs as mtx_report keeps it, equal the
    definition on seeded condition-(B) pairs."""
    G = group_for(type_letter, rank)
    elements = G.enumerate_group()
    pairs = []
    for x in elements:
        for w in elements:
            if x != w and G.bruhat_leq(x, w):
                has_b, word = condition_B(G, x, w)
                if has_b:
                    pairs.append((x, w, word))
    points = [sample_spectral_point(G.rs, random.Random(seed))
              for seed in range(3)]
    factors = [{} for _ in points]

    @settings(max_examples=examples)
    @given(st.sampled_from(pairs), st.integers(0, len(points) - 1))
    def check(pair, k):
        x, w, word = pair
        gammas = m_product_roots(G, x, w, word)
        got = m_product_value(gammas, points[k], factors[k])
        assert got == m_direct(G, x, w, points[k])
        assert got == m_product(G, x, w, word, points[k])

    check()
