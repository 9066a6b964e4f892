"""Group arithmetic checked against independent oracles: one-line
permutations for type A, the subword criterion and the rank-matrix
criterion for the Bruhat order, and a matrix-product breadth-first search
for the element tables."""

import itertools
import random

import pytest

from wwl import DomainError, WeylGroup, build_root_system
from wwl.errors import BudgetError
from wwl.weyl import _times_simple


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


def matrix_bfs_tables(G):
    """The element tables built by dense matrix products: a breadth-first
    search over w * s_i, each level sorted by root-action matrix, whose
    products also give rmul; lmul by one product per (element, generator);
    canonical words from the smallest left descent; inverses by reversing
    the canonical word.  Returns (elements, index, lengths, rmul, lmul,
    canon, inv)."""
    n = G.rs.rank
    gens = [G.simple_reflection(i) for i in range(1, n + 1)]
    elements = [G.identity]
    index = {G.identity.root_action: 0}
    lengths = [0]
    frontier = [G.identity]
    right = []  # root actions of w * s_i, one row per element in index order
    while frontier:
        nxt = {}
        for w in frontier:
            products = [w * g for g in gens]
            right.append([u.root_action for u in products])
            for u in products:
                if u.root_action not in index and u.root_action not in nxt:
                    nxt[u.root_action] = u
        frontier = [nxt[k] for k in sorted(nxt)]
        level = lengths[-1] + 1
        for u in frontier:
            index[u.root_action] = len(elements)
            elements.append(u)
            lengths.append(level)
    rmul = [[index[row[i]] for row in right] for i in range(n)]
    lmul = [[index[(g * w).root_action] for w in elements] for g in gens]
    canon = [()] * len(elements)
    for k in range(1, len(elements)):
        for i in range(n):
            j = lmul[i][k]
            if lengths[j] < lengths[k]:
                canon[k] = (i + 1,) + canon[j]
                break
    inv = []
    for word in canon:
        cur = 0
        for letter in reversed(word):
            cur = rmul[letter - 1][cur]
        inv.append(cur)
    return elements, index, lengths, rmul, lmul, canon, inv


# -- element tables ------------------------------------------------------------------

@pytest.mark.parametrize("type_letter,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2)])
def test_tables_match_matrix_bfs_oracle(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    elements, index, lengths, rmul, lmul, canon, inv = matrix_bfs_tables(G)
    assert G.enumerate_group() == elements
    assert G._index == index
    assert G._len == lengths
    assert G._rmul == rmul
    assert G._lmul == lmul
    assert G._canon == canon
    assert [G.idx_of(G.inverse(w)) for w in elements] == inv


def test_b5_sampled_products_and_inverses(group_for):
    G = group_for("B", 5)
    elements = G.enumerate_group()
    gens = [G.simple_reflection(i) for i in range(1, 6)]
    for k in random.Random(3).sample(range(len(elements)), 200):
        w = elements[k]
        for i, g in enumerate(gens, 1):
            assert G.elem_of(G.rmul_idx(i, k)) == w * g
            assert G.elem_of(G.lmul_idx(i, k)) == g * w
        assert w * G.inverse(w) == G.identity


@pytest.mark.parametrize("type_letter,rank", [("B", 3), ("D", 4), ("G", 2)])
def test_rank_one_step_matches_product(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        for i in range(rank):
            assert _times_simple(w, i, G.rs.cartan) == \
                w * G.simple_reflection(i + 1)


def test_size_gates_fire_before_building():
    e7 = WeylGroup(build_root_system("E", 7))
    with pytest.raises(BudgetError):
        e7.ensure_tables()
    e6 = WeylGroup(build_root_system("E", 6))
    with pytest.raises(BudgetError):
        e6.ensure_bruhat()
    assert e7._elements is None and e6._elements is None


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


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_bruhat_matches_subword_oracle(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    elements = G.enumerate_group()
    for w in elements:
        word = G.canonical_word(w)
        for x in elements:
            assert G.bruhat_leq(x, w) == subword_leq(G, x, word)


def test_bruhat_matches_rank_matrix_oracle(group_for):
    G = group_for("A", 3)
    elements = G.enumerate_group()
    perms = {w: perm_of_word(G.canonical_word(w), 4) for w in elements}
    for x in elements:
        for w in elements:
            assert G.bruhat_leq(x, w) == rank_matrix_leq(perms[x], perms[w])


def test_point_query_recursion_matches_table():
    # a fresh group without tables answers through the descent recursion
    fresh = WeylGroup(build_root_system("A", 2))
    tabled = WeylGroup(build_root_system("A", 2))
    tabled.ensure_bruhat()
    words = [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    for wx in words:
        for ww in words:
            x1, w1 = fresh.element_from_word(wx), fresh.element_from_word(ww)
            x2, w2 = tabled.element_from_word(wx), tabled.element_from_word(ww)
            assert fresh.bruhat_leq(x1, w1) == tabled.bruhat_leq(x2, w2)


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
    assert len(G.interval(G.identity, G.longest_element())) == 6


def test_interval_matches_bruhat_definition(group_for):
    G = group_for("A", 3)
    elements = G.enumerate_group()
    rng = random.Random(5)
    pairs = [(x, w) for x in elements for w in elements
             if G.bruhat_leq(x, w)]
    for x, w in rng.sample(pairs, 40):
        got = set(G.interval(x, w))
        want = {y for y in elements
                if G.bruhat_leq(x, y) and G.bruhat_leq(y, w)}
        assert got == want


def test_interval_requires_comparable(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        G.interval(G.element_from_word((1,)), G.element_from_word((2,)))


def test_covers_down_matches_definition(group_for):
    for t, r in [("A", 3), ("B", 2)]:
        G = group_for(t, r)
        elements = G.enumerate_group()
        for w in elements:
            got = set(G.covers_down(w))
            want = {y for y in elements
                    if G.length(y) == G.length(w) - 1 and G.bruhat_leq(y, w)}
            assert got == want


def test_foreign_element_rejected(group_for):
    G = group_for("A", 2)
    other = group_for("B", 2)
    # s_2 of B2 acts with a -2 Cartan entry, so its matrix is not in A2
    with pytest.raises(DomainError):
        G.idx_of(other.element_from_word((2,)))
