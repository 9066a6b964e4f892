"""Group arithmetic checked against independent oracles: one-line
permutations for type A, the subword criterion and the rank-matrix
criterion for the Bruhat order, and action matrices built from words
(`matrix_oracle`) for the element tables, root images, actions, inverses
and reflections."""

import gc
import itertools
import random

import pytest

from matrix_oracle import (generator_matrices, identity_matrix, mat_vec,
                           matmul, matrix_bfs_tables, reflection_matrices,
                           table_root_matrix, word_matrices)
from wwl import DomainError, WeylGroup, build_root_system
from wwl.errors import BudgetError
from wwl.weyl import _column_step, _step_neighbours


# -- oracles -------------------------------------------------------------------

def perm_compose(p, q):
    """(p o q)(i) = p(q(i)); entries 0-based."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_of_word(word, n):
    """One-line permutation of [0, n) for a word in S_n, leftmost letter
    applied last (matching the group convention)."""
    perm = tuple(range(n))
    for letter in reversed(word):
        t = list(range(n))
        t[letter - 1], t[letter] = t[letter], t[letter - 1]
        perm = perm_compose(tuple(t), perm)
    return perm


def perm_inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def rank_matrix_leq(p, q):
    """Bruhat comparison of one-line permutations via dominance of rank
    matrices: p <= q iff #{k <= i : p(k) <= j} >= the same count for q,
    for all i, j."""
    n = len(p)
    for i in range(n):
        for j in range(n):
            rp = sum(1 for k in range(i + 1) if p[k] <= j)
            rq = sum(1 for k in range(i + 1) if q[k] <= j)
            if rp < rq:
                return False
    return True


def subword_leq(group, x, word):
    """x <= product(word) iff some subsequence of the word multiplies to x."""
    target = group.idx_of(x)
    n = len(word)
    for bits in range(1 << n):
        sub = [word[i] for i in range(n) if (bits >> i) & 1]
        if group.word_to_idx(sub) == target:
            return True
    return False


def bruhat_masks_oracle(G):
    """The Bruhat masks by the lifting property, one generator at a time:
    with s a left descent of w, x <= w iff the shorter of x and s*x lies
    below s*w, so the mask of w is read off that of s*w by testing every
    y < s*y for membership, O(|W|) bit tests per element."""
    G.ensure_tables()
    size = G.order()
    lengths, lmul = G._len, G._lmul
    # per generator: the y with y < s*y, each bundled with bit(y)|bit(s*y)
    gen_pairs = [[(y, (1 << y) | (1 << lm[y])) for y in range(size)
                  if lengths[y] < lengths[lm[y]]] for lm in lmul]
    masks = [0] * size
    masks[0] = 1
    for w in range(1, size):
        i = G._canon[w][0] - 1
        m1 = masks[lmul[i][w]]
        acc = 0
        for y, bits in gen_pairs[i]:
            if (m1 >> y) & 1:
                acc |= bits
        masks[w] = acc
    return masks


def interval(G, x, w):
    """All y with x <= y <= w, in table order (by length, then matrix)."""
    xi, wi = G.idx_of(x), G.idx_of(w)
    if not G.leq_idx(xi, wi):
        raise DomainError("interval endpoints not comparable: x must be <= w")
    return [G.elem_of(yi) for yi in G.lower_interval_idx(wi)
            if G.leq_idx(xi, yi)]


def check_elements_against_word_matrices(G, ks):
    """For each element index k: its root images, its action on roots and
    on weights, its products with each generator on both sides and its
    inverse, checked against the matrices of its canonical word."""
    G.ensure_tables()
    rs = G.rs
    n = rs.rank
    gens = generator_matrices(rs)
    weights = [tuple(range(1, n + 1)), tuple((-1) ** j * (j + 2)
                                             for j in range(n))]
    for k in ks:
        root_m, weight_m = word_matrices(rs, G.canon_of_idx(k))
        w = G.elem_of(k)
        assert table_root_matrix(G, k) == root_m
        for beta in rs.roots:
            assert w.apply_root(beta) == mat_vec(root_m, beta)
        for lam in weights:
            assert w.apply_weight(lam) == mat_vec(weight_m, lam)
        for i, (g_root, _) in enumerate(gens, 1):
            g = G.simple_reflection(i)
            assert (w * g).idx == G.rmul_idx(i, k)
            assert (g * w).idx == G.lmul_idx(i, k)
            assert table_root_matrix(G, G.rmul_idx(i, k)) == \
                matmul(root_m, g_root)
            assert table_root_matrix(G, G.lmul_idx(i, k)) == \
                matmul(g_root, root_m)
        winv = G.inverse(w)
        assert matmul(root_m, table_root_matrix(G, G.idx_of(winv))) == \
            identity_matrix(n)
        assert w * winv == G.identity


# -- element tables ------------------------------------------------------------------

@pytest.mark.parametrize("type_letter,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("D", 5), ("F", 4), ("G", 2)])
def test_tables_match_matrix_bfs_oracle(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    elements, index, lengths, rmul, lmul, canon, inv = \
        matrix_bfs_tables(G.rs)
    handles = G.enumerate_group()
    assert [table_root_matrix(G, G.idx_of(w)) for w in handles] == \
        [root_m for root_m, _ in elements]
    assert {table_root_matrix(G, k): k for k in range(len(handles))} == index
    assert G._len == lengths
    assert G._rmul == rmul
    assert G._lmul == lmul
    assert G._canon == canon
    assert [G.idx_of(G.inverse(w)) for w in handles] == inv
    rs = G.rs
    weights = [tuple(range(1, rank + 1)), tuple((-1) ** j * (j + 2)
                                                for j in range(rank))]
    for w, (root_m, weight_m) in zip(handles, elements):
        for beta in rs.roots:
            assert w.apply_root(beta) == mat_vec(root_m, beta)
        for lam in weights:
            assert w.apply_weight(lam) == mat_vec(weight_m, lam)
    for alpha in rs.positive_roots:
        s = G.reflection(alpha)
        root_m, weight_m = reflection_matrices(rs, alpha)
        assert table_root_matrix(G, G.idx_of(s)) == root_m
        for lam in weights:
            assert s.apply_weight(lam) == mat_vec(weight_m, lam)


def test_b5_sampled_products_and_inverses(group_for):
    G = group_for("B", 5)
    check_elements_against_word_matrices(
        G, random.Random(3).sample(range(G.order()), 200))


def test_e6_sampled_elements_match_word_matrices():
    """E6, the largest group whose tables are built, on 200 seeded
    elements."""
    G = WeylGroup(build_root_system("E", 6))
    check_elements_against_word_matrices(
        G, random.Random(6).sample(range(G.order()), 200))


@pytest.mark.parametrize("type_letter,rank",
                         [("B", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_rank_one_step_matches_product(group_for, type_letter, rank):
    """The table build's step, a rank-one update of the root matrix held
    as columns (only column i and its Dynkin neighbours move), gives the
    matrix product w * s_i for every element and generator; and the
    carried w rho, moved by (w s_i) rho = w rho - w alpha_i, is the row
    sums of the product's weight matrix."""
    rs = group_for(type_letter, rank).rs
    nbrs = _step_neighbours(rs.cartan)
    gens = generator_matrices(rs)
    elements = matrix_bfs_tables(rs)[0]
    for root_m, weight_m in elements:
        cols = tuple(zip(*root_m))
        wrho = tuple(map(sum, weight_m))
        for i, (g_root, g_weight) in enumerate(gens):
            rc = _column_step(cols, i, nbrs[i][0])
            assert tuple(zip(*rc)) == matmul(root_m, g_root)
            moved = tuple(x - y for x, y in
                          zip(wrho, rs.root_to_weight_coords(cols[i])))
            assert moved == tuple(map(sum, matmul(weight_m, g_weight)))


@pytest.mark.parametrize("enabled", [True, False])
def test_table_build_keeps_the_collectors_state(monkeypatch, enabled):
    """ensure_tables pauses the cyclic garbage collector for the build and
    gives the caller's state back, also when the build raises."""
    build = WeylGroup._build_tables
    seen = []

    def spy(self):
        seen.append(gc.isenabled())
        build(self)

    def broken(self):
        raise RuntimeError("build failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(WeylGroup, "_build_tables", spy)
        G = WeylGroup(build_root_system("B", 3))
        G.ensure_tables()
        assert (seen, gc.isenabled(), G.order()) == ([False], enabled, 48)
        monkeypatch.setattr(WeylGroup, "_build_tables", broken)
        with pytest.raises(RuntimeError, match="build failed"):
            WeylGroup(build_root_system("A", 2)).ensure_tables()
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_size_gates_fire_before_building():
    """Above E6 nothing is tabulated, and an element is a table index, so
    E7 and E8 have no generators or reflections either."""
    e7 = WeylGroup(build_root_system("E", 7))
    with pytest.raises(BudgetError):
        e7.ensure_tables()
    with pytest.raises(BudgetError):
        e7.element_from_word((1,))
    with pytest.raises(BudgetError):
        e7.length(e7.identity)
    e8 = WeylGroup(build_root_system("E", 8))
    for G in (e7, e8):
        with pytest.raises(BudgetError):
            G.simple_reflection(1)
        with pytest.raises(BudgetError):
            G.reflection(G.rs.positive_roots[-1])
    e6 = WeylGroup(build_root_system("E", 6))
    with pytest.raises(BudgetError):
        e6.ensure_bruhat()
    assert e7._len is None and e8._len is None and e6._len is None


# -- elements and words ----------------------------------------------------------

def test_empty_word_is_identity(group_for):
    G = group_for("A", 2)
    assert G.element_from_word(()) == G.identity
    assert G.length(G.identity) == 0
    assert G.canonical_word(G.identity) == ()


def test_braid_relations(group_for):
    G = group_for("A", 2)
    assert G.element_from_word((1, 2, 1)) == G.element_from_word((2, 1, 2))
    Gb = group_for("B", 2)
    assert Gb.element_from_word((1, 2, 1, 2)) == \
        Gb.element_from_word((2, 1, 2, 1))
    Gg = group_for("G", 2)
    assert Gg.element_from_word((1, 2, 1, 2, 1, 2)) == \
        Gg.element_from_word((2, 1, 2, 1, 2, 1))


def test_word_index_out_of_range(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        G.element_from_word((3,))
    with pytest.raises(DomainError):
        G.element_from_word((0,))


def test_a3_longest_element_is_reversal(group_for):
    G = group_for("A", 3)
    w = G.element_from_word((1, 2, 1, 3, 2, 1))
    assert perm_of_word((1, 2, 1, 3, 2, 1), 4) == (3, 2, 1, 0)
    assert G.length(w) == 6
    assert w == G.longest_element()


def test_length_equals_permutation_inversions(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        word = G.canonical_word(w)
        assert G.length(w) == perm_inversions(perm_of_word(word, 4))
    assert G.length(G.element_from_word((1, 2))) == 2


def test_length_of_longest_is_number_of_positives(group_for):
    for t, r in [("A", 3), ("B", 3), ("G", 2)]:
        G = group_for(t, r)
        assert G.length(G.longest_element()) == len(G.rs.positive_roots)


def test_inversion_sets(group_for):
    G = group_for("A", 2)
    assert G.inversion_set(G.identity) == ()
    assert G.inversion_set(G.element_from_word((1, 2))) == ((1, 0), (1, 1))
    G3 = group_for("A", 3)
    assert G3.inversion_set(G3.element_from_word((2, 3))) == \
        ((0, 1, 0), (0, 1, 1))
    for w in G3.enumerate_group():
        inv = G3.inversion_set(w)
        assert len(inv) == G3.length(w)
        assert all(G3.rs.is_positive_root(a) for a in inv)


def test_inverse_and_products(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        assert w * G.inverse(w) == G.identity
        assert G.length(G.inverse(w)) == G.length(w)
    fresh = WeylGroup(build_root_system("A", 2))
    assert fresh.inverse(fresh.element_from_word((1, 2))) == \
        fresh.element_from_word((2, 1))


# -- Bruhat order ------------------------------------------------------------------

def test_identity_below_everything(group_for):
    G = group_for("A", 2)
    for w in G.enumerate_group():
        assert G.bruhat_leq(G.identity, w)


def test_incomparable_simple_generators(group_for):
    G = group_for("A", 2)
    s1 = G.element_from_word((1,))
    s2 = G.element_from_word((2,))
    assert not G.bruhat_leq(s1, s2)
    assert not G.bruhat_leq(s2, s1)


def test_spec_pair_comparable(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    w = G.element_from_word((1, 2, 1, 3, 2, 1))
    assert G.bruhat_leq(x, w)


@pytest.mark.parametrize("type_letter,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_bruhat_matches_subword_oracle(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    elements = G.enumerate_group()
    for w in elements:
        word = G.canonical_word(w)
        for x in elements:
            assert G.bruhat_leq(x, w) == subword_leq(G, x, word)


@pytest.mark.parametrize("type_letter,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("D", 5), ("F", 4), ("G", 2)])
def test_bruhat_masks_match_lifting_oracle(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    assert G._bruhat == bruhat_masks_oracle(G)


def test_bruhat_matches_rank_matrix_oracle(group_for):
    G = group_for("A", 3)
    elements = G.enumerate_group()
    perms = {w: perm_of_word(G.canonical_word(w), 4) for w in elements}
    for x in elements:
        for w in elements:
            assert G.bruhat_leq(x, w) == rank_matrix_leq(perms[x], perms[w])


@pytest.mark.parametrize("query", ["length", "canonical_word", "bruhat_leq",
                                   "inverse", "element_from_word",
                                   "is_reduced"])
def test_query_on_fresh_group_builds_tables(group_for, query):
    """Each element query works as the first call on a new group."""
    tabled = group_for("B", 2)
    fresh = WeylGroup(build_root_system("B", 2))
    w = tabled.element_from_word((1, 2, 1))
    x = tabled.element_from_word((2,))
    calls = {
        "length": lambda G: G.length(w),
        "canonical_word": lambda G: G.canonical_word(w),
        "bruhat_leq": lambda G: G.bruhat_leq(x, w),
        "inverse": lambda G: G.inverse(w),
        "element_from_word": lambda G: G.element_from_word((2, 1, 2)),
        "is_reduced": lambda G: G.is_reduced((1, 2, 1)),
    }
    assert fresh._len is None
    assert calls[query](fresh) == calls[query](tabled)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_z_property(group_for, type_letter, rank):
    """For w1 < s*w1 and w2 < s*w2: w1 <= w2, w1 <= s*w2 and
    s*w1 <= s*w2 are all equivalent."""
    G = group_for(type_letter, rank)
    elements = G.enumerate_group()
    for i in range(1, rank + 1):
        s = G.simple_reflection(i)
        raised = [w for w in elements if G.length(s * w) > G.length(w)]
        for w1 in raised:
            for w2 in raised:
                a = G.bruhat_leq(w1, w2)
                b = G.bruhat_leq(w1, s * w2)
                c = G.bruhat_leq(s * w1, s * w2)
                assert a == b == c


def test_inversion_reflection_criterion(group_for):
    """alpha in Phi+ has w*s_alpha < w exactly when w(alpha) < 0."""
    for t, r in [("A", 3), ("B", 2)]:
        G = group_for(t, r)
        for w in G.enumerate_group():
            for alpha in G.rs.positive_roots:
                ws = w * G.reflection(alpha)
                assert (G.length(ws) < G.length(w)) == \
                    (not G.rs.is_positive_root(w.apply_root(alpha)))


# -- reduced words -----------------------------------------------------------------

def test_reduced_words_identity(group_for):
    G = group_for("A", 2)
    assert G.all_reduced_words(G.identity) == [()]


def test_reduced_words_a2_longest(group_for):
    G = group_for("A", 2)
    assert G.all_reduced_words(G.longest_element()) == [(1, 2, 1), (2, 1, 2)]


def test_reduced_words_a3_longest_count(group_for):
    G = group_for("A", 3)
    words = G.all_reduced_words(G.longest_element())
    assert len(words) == 16
    assert len(set(words)) == 16
    assert words == sorted(words)
    for word in words:
        assert len(word) == 6
        assert G.element_from_word(word) == G.longest_element()


def test_reduced_word_counts_match_enumeration(group_for):
    G = group_for("B", 3)
    counts = G.reduced_word_counts()
    for w in G.enumerate_group():
        n_enumerated = sum(1 for _ in G.iter_reduced_words(w))
        assert counts[G.idx_of(w)] == n_enumerated


def test_canonical_word_is_lex_least(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        words = G.all_reduced_words(w)
        assert G.canonical_word(w) == words[0]
        assert G.element_from_word(G.canonical_word(w)) == w


def test_single_deletion_length_parity(group_for):
    """Deleting one letter from a reduced word drops the length by exactly
    one or by an odd amount greater than one."""
    for t, r in [("A", 3), ("B", 3)]:
        G = group_for(t, r)
        for w in G.enumerate_group():
            lw = G.length(w)
            for word in ([G.canonical_word(w)] if t == "B"
                         else G.all_reduced_words(w)):
                for i in range(len(word)):
                    rest = word[:i] + word[i + 1:]
                    drop = lw - G.length(G.element_from_word(rest))
                    assert drop >= 1 and drop % 2 == 1


# -- enumeration, intervals, covers -------------------------------------------------

def test_group_orders(group_for):
    assert len(group_for("A", 2).enumerate_group()) == 6
    assert len(group_for("A", 3).enumerate_group()) == 24
    assert len(group_for("B", 3).enumerate_group()) == 48
    assert len(group_for("C", 3).enumerate_group()) == 48
    assert len(group_for("D", 4).enumerate_group()) == 192
    assert len(group_for("G", 2).enumerate_group()) == 12


def test_enumeration_sorted_by_length(group_for):
    G = group_for("B", 3)
    lengths = [G.length(w) for w in G.enumerate_group()]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[-1] == 9


def test_full_interval(group_for):
    G = group_for("A", 2)
    assert len(interval(G, G.identity, G.longest_element())) == 6


def test_interval_matches_bruhat_definition(group_for):
    G = group_for("A", 3)
    elements = G.enumerate_group()
    rng = random.Random(5)
    pairs = [(x, w) for x in elements for w in elements
             if G.bruhat_leq(x, w)]
    for x, w in rng.sample(pairs, 40):
        got = set(interval(G, x, w))
        want = {y for y in elements
                if G.bruhat_leq(x, y) and G.bruhat_leq(y, w)}
        assert got == want


def test_interval_requires_comparable(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        interval(G, G.element_from_word((1,)), G.element_from_word((2,)))


def deleted_word_elements(G, letters):
    """Index of the product of `letters` with position i removed, for
    every i, from its prefix and suffix products.  The input need not be
    reduced."""
    m = len(letters)
    pre = [0] * (m + 1)
    for k, letter in enumerate(letters):
        pre[k + 1] = G.rmul_idx(letter, pre[k])
    suf = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suf[k] = G.lmul_idx(letters[k], suf[k + 1])
    return [G.idx_mul(pre[i], suf[i + 1]) for i in range(m)]


def covers_down(G, w):
    """All y covered by w: the single deletions of w's canonical word that
    drop the length by one."""
    target = G.length(w) - 1
    return {G.elem_of(di)
            for di in deleted_word_elements(G, G.canonical_word(w))
            if G.len_of_idx(di) == target}


def test_covers_down_matches_definition(group_for):
    for t, r in [("A", 3), ("B", 2)]:
        G = group_for(t, r)
        elements = G.enumerate_group()
        for w in elements:
            got = covers_down(G, w)
            want = {y for y in elements
                    if G.length(y) == G.length(w) - 1 and G.bruhat_leq(y, w)}
            assert got == want


def test_foreign_element_rejected(group_for):
    G = group_for("A", 2)
    other = group_for("B", 2)
    # an element of B2 belongs to no A2, whatever its index
    with pytest.raises(DomainError):
        G.idx_of(other.element_from_word((2,)))
