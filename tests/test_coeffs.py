"""The coefficient recursion, the closed form, the transforms between the
atom and character expansions, and the product identity at the longest
element; expected values frozen from rank-1 hand expansions and recursion
oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwl import ConditionError, DomainError, coeffs
from wwl.coeffs import (_whole_group_sum, atom_coeffs,
                        casselman_shalika_check, char_coeffs,
                        closed_form_coeff, demazure_atom, demazure_character,
                        spherical_whittaker, tilde_coeffs, whittaker_function)
from wwl.groupalg import (GAElement, atom_op, demazure, ga_sum,
                          mul_one_minus_v_exp, specialize_v, t_op)

from ga_oracle import one_minus_v_exp
from test_weyl import interval


def char_from_atom_coeffs(group, w, table):
    """Character coefficients from the atom coefficient table of w, as
    alternating sums over the Bruhat intervals [x, w]; one addition per
    pair, the oracle of char_coeffs.  Both tables are keyed by element
    index."""
    entries = {}
    for xi in table:
        x = group.elem_of(xi)
        lx = group.length(x)
        entries[xi] = ga_sum(
            -table[group.idx_of(y)] if (group.length(y) - lx) % 2
            else table[group.idx_of(y)] for y in interval(group, x, w))
    return entries


def atom_from_char_coeffs(group, w, table):
    """Inverse transform: plain interval sums of the character
    coefficients."""
    return {xi: ga_sum(table[group.idx_of(y)]
                       for y in interval(group, group.elem_of(xi), w))
            for xi in table}


def rand_dominant(rs, rng, hi=3):
    return tuple(rng.randint(0, hi) for _ in range(rs.rank))


def apply_along(group, op, word, lam):
    f = GAElement.monomial(lam)
    for letter in reversed(word):
        f = op(group.rs, group.rs.simple_root(letter), f)
    return f


# -- Whittaker functions -----------------------------------------------------------

def test_whittaker_identity_element(group_for):
    G = group_for("A", 2)
    assert whittaker_function(G, G.identity, (2, 1)) == \
        GAElement.monomial((2, 1))


def test_whittaker_rank_one_value(group_for):
    G = group_for("A", 1)
    got = whittaker_function(G, G.element_from_word((1,)), (1,))
    assert got == GAElement({(-1,): (1, -1), (-3,): (0, -1)})


def test_whittaker_word_independent(group_for):
    G = group_for("A", 2)
    lam = (1, 1)
    assert apply_along(G, t_op, (1, 2, 1), lam) == \
        apply_along(G, t_op, (2, 1, 2), lam)


def test_whittaker_requires_dominant(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        whittaker_function(G, G.identity, (-1, 0))


def test_whittaker_specializes_to_atom(group_for):
    G = group_for("B", 2)
    rng = random.Random(3)
    for w in G.enumerate_group():
        lam = rand_dominant(G.rs, rng, hi=2)
        wf = specialize_v(whittaker_function(G, w, lam), 0)
        at = {mu: Fraction(p[0]) for mu, p in
              demazure_atom(G, w, lam).by_weight().items()}
        assert wf == at


# -- characters and atoms ------------------------------------------------------------

def test_character_and_atom_rank_one(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    assert demazure_character(G, G.identity, (1,)) == GAElement.monomial((1,))
    assert demazure_atom(G, G.identity, (1,)) == GAElement.monomial((1,))
    assert demazure_character(G, s1, (1,)) == \
        GAElement({(1,): (1,), (-1,): (1,)})
    assert demazure_atom(G, s1, (1,)) == GAElement.monomial((-1,))


def test_character_coefficients_nonnegative_integers(group_for):
    G = group_for("B", 2)
    rng = random.Random(4)
    for w in G.enumerate_group():
        lam = rand_dominant(G.rs, rng, hi=2)
        ch = demazure_character(G, w, lam)
        for poly in ch.by_weight().values():
            assert len(poly) == 1 and poly[0] > 0


def test_spherical_rank_one(group_for):
    G = group_for("A", 1)
    got = spherical_whittaker(G, G.element_from_word((1,)), (1,))
    assert got == GAElement({(1,): (1,), (-1,): (1, -1), (-3,): (0, -1)})


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_atom_sum_lemma(group_for, type_letter, rank):
    """The character is the sum of the atoms over the lower interval, and
    the atom is the alternating sum of the characters."""
    G = group_for(type_letter, rank)
    rng = random.Random(5)
    weights = [G.rs.rho()] + [rand_dominant(G.rs, rng) for _ in range(2)]
    for w in G.enumerate_group():
        for lam in weights:
            cells = interval(G, G.identity, w)
            total = GAElement.zero()
            for x in cells:
                total = total + demazure_atom(G, x, lam)
            assert total == demazure_character(G, w, lam)
            alt = GAElement.zero()
            lw = G.length(w)
            for x in cells:
                term = demazure_character(G, x, lam)
                alt = alt + (-term if (lw - G.length(x)) % 2 else term)
            assert alt == demazure_atom(G, w, lam)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_left_multiplication_rules(group_for, type_letter, rank):
    """t_s on an atom: the two-case rule by whether s raises w; likewise
    its v -> 0 shadow for the atom operator."""
    G = group_for(type_letter, rank)
    rs = G.rs
    lam = rs.rho()
    for w in G.enumerate_group():
        aw = demazure_atom(G, w, lam)
        for i in range(1, rank + 1):
            alpha = rs.simple_root(i)
            s = G.simple_reflection(i)
            sw = s * w
            left_t = t_op(rs, alpha, aw)
            left_d = atom_op(rs, alpha, aw)
            if G.length(sw) > G.length(w):
                asw = demazure_atom(G, sw, lam)
                wc = rs.root_to_weight_coords(alpha)
                drop = GAElement.monomial(tuple(-c for c in wc), (0, 1))
                assert left_t == mul_one_minus_v_exp(rs, alpha, asw) - \
                    drop * aw
                assert left_d == asw
            else:
                assert left_t == -aw
                assert left_d == -aw


# -- the coefficient recursion --------------------------------------------------------

def test_atom_coeffs_identity(group_for):
    G = group_for("A", 2)
    table = atom_coeffs(G, G.identity)
    assert table == {G.idx_of(G.identity): GAElement.one(2)}


def test_atom_coeffs_rank_one_values(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    table = atom_coeffs(G, s1)
    assert set(table) == {G.idx_of(s1), G.idx_of(G.identity)}
    assert table[G.idx_of(s1)] == GAElement({(0,): (1,), (-2,): (0, -1)})
    assert table[G.idx_of(G.identity)] == GAElement({(-2,): (0, -1)})


def test_atom_coeffs_rejects_non_reduced(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        atom_coeffs(G, G.identity, (1, 1))


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_atom_coeffs_word_independent(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        words = G.all_reduced_words(w)
        base = atom_coeffs(G, w, words[0])
        for word in words[1:]:
            assert atom_coeffs(G, w, word) == base


def test_corollary_edge_coefficients(group_for):
    """c at the identity is the full deformed product applied to 1, and c
    at the anchor is the binomial product over its inversion set."""
    G = group_for("A", 2)
    rs = G.rs
    for w in G.enumerate_group():
        table = atom_coeffs(G, w)
        tw1 = GAElement.one(rs.rank)
        for letter in reversed(G.canonical_word(w)):
            tw1 = t_op(rs, rs.simple_root(letter), tw1)
        assert table[G.idx_of(G.identity)] == tw1
        prod = GAElement.one(rs.rank)
        for alpha in G.inversion_set(w):
            prod = mul_one_minus_v_exp(rs, alpha, prod)
        assert table[G.idx_of(w)] == prod


def test_operator_identity_small(group_for):
    G = group_for("A", 2)
    rng = random.Random(6)
    for lam in [(1, 1), rand_dominant(G.rs, rng)]:
        for w in G.enumerate_group():
            table = atom_coeffs(G, w)
            total = GAElement.zero()
            for xi, c in table.items():
                total = total + c * demazure_atom(G, G.elem_of(xi), lam)
            assert total == whittaker_function(G, w, lam)


# -- closed form ----------------------------------------------------------------------

def test_closed_form_at_anchor_is_product(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        word = G.canonical_word(w)
        got = closed_form_coeff(G, w, word)
        prod = GAElement.one(3)
        for alpha in G.inversion_set(w):
            prod = mul_one_minus_v_exp(G.rs, alpha, prod)
        assert got == prod


def test_closed_form_rank_one_identity_entry(group_for):
    G = group_for("A", 1)
    got = closed_form_coeff(G, G.identity, (1,))
    assert got == GAElement({(-2,): (0, -1)})


def test_closed_form_spec_example(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    word = (1, 2, 1, 3, 2, 1)
    w = G.element_from_word(word)
    assert closed_form_coeff(G, x, word) == atom_coeffs(G, w)[G.idx_of(x)]


def test_closed_form_condition_error_carries_labels(group_for):
    G = group_for("B", 2)
    # x = s1 below w = s1 s2 s1: the single word fails all three flags
    x = G.element_from_word((1,))
    word = (1, 2, 1)
    with pytest.raises(ConditionError) as err:
        closed_form_coeff(G, x, word)
    assert err.value.lambda_set == (1, 3)
    assert err.value.chain_min is not None
    assert err.value.chain_max is not None


# -- transforms -----------------------------------------------------------------------

def test_char_coeffs_rank_one(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    table = char_coeffs(G, s1)
    assert set(table) == {G.idx_of(s1), G.idx_of(G.identity)}
    assert table[G.idx_of(s1)] == GAElement({(0,): (1,), (-2,): (0, -1)})
    assert table[G.idx_of(G.identity)] == GAElement({(0,): (-1,)})


def test_char_atom_round_trip(group_for):
    G = group_for("A", 2)
    for w in G.enumerate_group():
        atoms = atom_coeffs(G, w)
        chars = char_coeffs(G, w)
        assert atom_from_char_coeffs(G, w, chars) == atoms


def test_char_coeffs_expand_whittaker(group_for):
    G = group_for("A", 2)
    lam = (1, 1)
    for w in G.enumerate_group():
        table = char_coeffs(G, w)
        total = GAElement.zero()
        for xi, c in table.items():
            total = total + c * demazure_character(G, G.elem_of(xi), lam)
        assert total == whittaker_function(G, w, lam)


def test_tilde_coeffs_expand_spherical(group_for):
    G = group_for("A", 2)
    lam = (2, 1)
    for word in [(), (1,), (1, 2), (1, 2, 1)]:
        w = G.element_from_word(word)
        table = tilde_coeffs(G, w)
        assert set(table) == {G.idx_of(x)
                              for x in interval(G, G.identity, w)}
        total = GAElement.zero()
        for xi, c in table.items():
            total = total + c * demazure_character(G, G.elem_of(xi), lam)
        assert total == spherical_whittaker(G, w, lam)


def longest_of_parabolic(G, letters):
    """w0_J for J = letters: climb from e by any letter of J that is a
    right ascent, until every letter of J is a right descent."""
    cur = 0
    while True:
        ups = [a for a in letters
               if G.len_of_idx(G.rmul_idx(a, cur)) > G.len_of_idx(cur)]
        if not ups:
            return cur
        cur = G.rmul_idx(ups[0], cur)


@pytest.mark.parametrize("type_letter,rank", [
    ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_parabolic_casselman_shalika(group_for, type_letter, rank):
    """tilde_coeffs(w) has exactly one nonzero entry exactly when w is the
    longest element w0_J of a standard parabolic subgroup W_J, one for
    each of the 2^r subsets J.  The entry sits at x = w0_J and is the
    product of 1 - v e^(-beta) over inversion_set(w0_J), which holds the
    positive roots supported on J."""
    G = group_for(type_letter, rank)
    G.ensure_tables()
    rs = G.rs
    longest = {}
    for bits in range(1 << rank):
        letters = [a for a in range(1, rank + 1) if (bits >> (a - 1)) & 1]
        longest[longest_of_parabolic(G, letters)] = letters
    assert len(longest) == 2 ** rank
    single = {}
    for w in G.enumerate_group():
        nonzero = {xi: c for xi, c in tilde_coeffs(G, w).items() if c}
        if len(nonzero) == 1:
            single[G.idx_of(w)] = nonzero
    assert set(single) == set(longest)
    for wi, entry in single.items():
        roots = G.inversion_set(G.elem_of(wi))
        assert set(roots) == {beta for beta in rs.positive_roots
                              if all(c == 0 or a in longest[wi]
                                     for a, c in enumerate(beta, 1))}
        prod = GAElement.one(rank)
        for beta in roots:
            prod = mul_one_minus_v_exp(rs, beta, prod)
        assert entry == {wi: prod}


# -- product identity at the longest element ------------------------------------------

def test_cs_rank_one_explicit(group_for):
    G = group_for("A", 1)
    lhs = spherical_whittaker(G, G.longest_element(), (1,))
    rhs = one_minus_v_exp(G.rs, (1,)) * GAElement({(1,): (1,), (-1,): (1,)})
    assert lhs == rhs
    assert casselman_shalika_check(G, (1,))


@pytest.mark.parametrize("type_letter,rank,lam", [
    ("A", 2, (1, 1)), ("B", 2, (1, 0)), ("B", 2, (1, 1)),
])
def test_cs_small_groups(group_for, type_letter, rank, lam):
    assert casselman_shalika_check(group_for(type_letter, rank), lam)


@pytest.mark.parametrize("type_letter,rank,lam", [
    ("A", 1, (1,)), ("A", 1, (3,)),
    ("A", 2, (1, 1)), ("A", 2, (2, 0)),
    ("B", 2, (1, 1)), ("B", 2, (0, 2)),
    ("G", 2, (1, 0)), ("G", 2, (1, 1)),
    ("A", 3, (1, 0, 1)), ("A", 3, (0, 2, 0)),
    ("B", 3, (1, 1, 1)), ("B", 3, (0, 0, 2)),
    ("C", 3, (0, 1, 1)), ("C", 3, (1, 0, 0)),
    ("A", 4, (2, 1, 1, 2)),
])
def test_whole_group_sum_matches_spherical_at_w0(group_for, type_letter,
                                                 rank, lam):
    """The parabolic factorisation gives the sum over the lower interval
    of w0, element by element."""
    G = group_for(type_letter, rank)
    assert _whole_group_sum(G, lam) == \
        spherical_whittaker(G, G.longest_element(), lam)


def t_op_calls(monkeypatch, total, *args):
    """The number of t_op calls total(*args) makes."""
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return t_op(*args)

    monkeypatch.setattr(coeffs, "t_op", counted)
    total(*args)
    return count


@pytest.mark.parametrize("type_letter,rank,lam,calls", [
    ("A", 4, (1, 0, 0, 1), 10), ("B", 3, (1, 0, 1), 10),
    ("D", 4, (1, 0, 0, 0), 13),
])
def test_whole_group_sum_t_op_count(monkeypatch, group_for, type_letter,
                                    rank, lam, calls):
    """One t_op per non-identity coset representative of each step,
    sum_k ([W_k : W_(k-1)] - 1), where the sum over the elements takes
    |W| - 1: A4 119, B3 47 and D4 191."""
    assert t_op_calls(monkeypatch, _whole_group_sum,
                      group_for(type_letter, rank), lam) == calls


@pytest.mark.parametrize("type_letter,rank,word,calls", [
    ("A", 4, None, 119), ("A", 4, (2, 1, 3, 2, 4), 27),
    ("B", 3, (1, 2, 3, 2, 1), 19),
])
def test_spherical_whittaker_t_op_count(monkeypatch, group_for, type_letter,
                                        rank, word, calls):
    """One t_op per non-identity element of [e, w] (w0 when word is None),
    by the same level walk as the coset sums."""
    G = group_for(type_letter, rank)
    w = G.longest_element() if word is None else G.element_from_word(word)
    assert len(interval(G, G.identity, w)) - 1 == calls
    assert t_op_calls(monkeypatch, spherical_whittaker, G, w,
                      G.rs.rho()) == calls


def test_zero_entries_recorded_not_asserted(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        table = atom_coeffs(G, w)
        assert set(table) == {G.idx_of(x) for x in interval(G, G.identity, w)}
        for xi, c in table.items():
            if not c:
                assert xi not in (G.idx_of(G.identity), G.idx_of(w))


# -- the character recursion and the shared Whittaker sums -------------------------

@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_char_recursion_matches_interval_sums(group_for, type_letter, rank):
    """The character recursion equals the alternating interval sums of the
    atom table for every w."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        oracle = char_from_atom_coeffs(G, w, atom_coeffs(G, w))
        assert char_coeffs(G, w) == oracle


@pytest.mark.parametrize("type_letter,rank", [("A", 4), ("D", 4)])
def test_char_recursion_matches_interval_sums_at_w0(group_for, type_letter,
                                                    rank):
    G = group_for(type_letter, rank)
    w0 = G.longest_element()
    oracle = char_from_atom_coeffs(G, w0, atom_coeffs(G, w0))
    assert char_coeffs(G, w0) == oracle


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_spherical_sum_matches_per_element_sum(group_for, type_letter, rank):
    """The prefix-shared sum equals one Whittaker function per element."""
    G = group_for(type_letter, rank)
    rng = random.Random(9)
    for lam in [G.rs.rho(), rand_dominant(G.rs, rng, hi=2)]:
        for w in [G.longest_element(),
                  G.elem_of(rng.randrange(G.order()))]:
            total = GAElement.zero()
            for x in interval(G, G.identity, w):
                total = total + whittaker_function(G, x, lam)
            assert spherical_whittaker(G, w, lam) == total


@st.composite
def word_and_x(draw, group, max_length):
    """A random w of at most max_length letters, a random reduced word of
    it (peeling off a random left descent at each step) and an x <= w."""
    wi = draw(st.sampled_from([wi for wi in range(group.order())
                               if group.len_of_idx(wi) <= max_length]))
    word, cur = [], wi
    while group.len_of_idx(cur):
        descents = [i for i in range(1, group.rs.rank + 1)
                    if group.len_of_idx(group.lmul_idx(i, cur))
                    < group.len_of_idx(cur)]
        letter = draw(st.sampled_from(descents))
        word.append(letter)
        cur = group.lmul_idx(letter, cur)
    xi = draw(st.sampled_from(group.lower_interval_idx(wi)))
    return wi, tuple(word), xi


# B4 tables grow to seconds per element past length 9 (8.5 s at w0)
@pytest.mark.parametrize("type_letter,rank,max_length",
                         [("D", 4, 12), ("B", 4, 9)])
def test_closed_form_matches_recursion_sampled(group_for, type_letter, rank,
                                               max_length):
    """Seeded samples past the exhaustive groups: wherever the chain
    condition holds for (x, word), the closed form is the recursion's
    entry."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    tables = {}
    held = []

    @settings(max_examples=30)
    @given(word_and_x(G, max_length))
    def check(drawn):
        wi, word, xi = drawn
        x = G.elem_of(xi)
        try:
            closed = closed_form_coeff(G, x, word)
        except ConditionError:
            return
        if wi not in tables:
            tables[wi] = atom_coeffs(G, G.elem_of(wi))
        held.append(drawn)
        assert closed == tables[wi][xi]

    check()
    assert held
