"""Operator calculus checked against the defining relations: the divided
difference is verified by multiplying back through 1 - e^(-alpha) rather
than by re-deriving the geometric sums, and the deformed operators are
pinned by the quadratic, braid, derivation and conjugation identities.
The packed-key operators are also compared with the tuple-dict oracle in
ga_oracle.py."""

import random
from fractions import Fraction

import pytest

import ga_oracle
from ga_oracle import one_minus_v_exp, vp_add, vp_mul, vp_strip
from wwl import DomainError
from wwl.errors import BudgetError
from wwl.groupalg import (MAX_WEIGHT_COORD, GAElement, atom_op, demazure,
                          ga_sum, mul_one_minus_v_exp, reflect,
                          specialize_v, t_op, weyl_act)

RANK2 = [("A", 2), ("B", 2), ("G", 2)]


def random_terms(rs, rng, nterms=4, vdeg=2, spread=2):
    """A random element as a tuple dict, in the oracle's canonical form."""
    terms = {}
    for _ in range(nterms):
        lam = tuple(rng.randint(-spread, spread) for _ in range(rs.rank))
        poly = tuple(rng.randint(-3, 3) for _ in range(vdeg + 1))
        terms[lam] = vp_add(terms.get(lam, ()), vp_strip(poly))
    return {lam: p for lam, p in terms.items() if p}


def random_element(rs, rng, nterms=4, vdeg=2, spread=2):
    return GAElement(random_terms(rs, rng, nterms, vdeg, spread))


def one_minus_exp(rs, alpha):
    """1 - e^(-alpha), the v-free binomial used to verify the divided
    difference by multiplication."""
    wc = rs.root_to_weight_coords(alpha)
    return GAElement({(0,) * rs.rank: (1,), tuple(-c for c in wc): (-1,)})


# -- v-polynomials and ring structure ----------------------------------------

def test_vpoly_canonical_form():
    assert vp_strip((1, 0, 0)) == (1,)
    assert vp_strip((0,)) == ()
    assert vp_add((1, 2), (-1, -2)) == ()
    assert vp_mul((1, 1), (1, -1)) == (1, 0, -1)


def test_monomial_unit(group_for):
    G = group_for("A", 2)
    rng = random.Random(0)
    one = GAElement.one(2)
    for _ in range(10):
        f = random_element(G.rs, rng)
        assert one * f == f


def test_monomial_multiplication_adds_weights():
    assert GAElement.monomial((1, 0)) * GAElement.monomial((0, 2)) == \
        GAElement.monomial((1, 2))


def test_binomial_product(group_for):
    G = group_for("A", 2)
    rs = G.rs
    alpha = rs.simple_root(1)
    wc = rs.root_to_weight_coords(alpha)
    minus = tuple(-c for c in wc)
    plus_binom = GAElement({(0, 0): (1,), minus: (0, 1)})
    got = one_minus_v_exp(rs, alpha) * plus_binom
    want = GAElement({(0, 0): (1,),
                      tuple(2 * c for c in minus): (0, 0, -1)})
    assert got == want


def test_ring_laws_random(group_for):
    G = group_for("B", 2)
    rng = random.Random(7)
    for _ in range(25):
        f = random_element(G.rs, rng)
        g = random_element(G.rs, rng)
        h = random_element(G.rs, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f - f == GAElement.zero()


def test_mul_one_minus_v_exp_matches_generic(group_for):
    G = group_for("G", 2)
    rng = random.Random(8)
    for alpha in G.rs.positive_roots:
        f = random_element(G.rs, rng)
        assert mul_one_minus_v_exp(G.rs, alpha, f) == \
            one_minus_v_exp(G.rs, alpha) * f


# -- Weyl action ----------------------------------------------------------------

def test_weyl_act_examples(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    assert weyl_act(s1, GAElement.monomial((1,))) == GAElement.monomial((-1,))
    assert weyl_act(G.identity, GAElement.monomial((1,))) == \
        GAElement.monomial((1,))


def test_weyl_act_is_action(group_for):
    G = group_for("A", 2)
    rng = random.Random(11)
    elements = G.enumerate_group()
    for _ in range(50):
        f = random_element(G.rs, rng)
        w1 = rng.choice(elements)
        w2 = rng.choice(elements)
        assert weyl_act(w1 * w2, f) == weyl_act(w1, weyl_act(w2, f))


def test_weyl_act_is_ring_map(group_for):
    G = group_for("B", 2)
    rng = random.Random(12)
    s2 = G.element_from_word((2,))
    for _ in range(20):
        f = random_element(G.rs, rng)
        g = random_element(G.rs, rng)
        assert weyl_act(s2, f * g) == weyl_act(s2, f) * weyl_act(s2, g)


# -- divided difference ------------------------------------------------------------

def test_demazure_monomial_cases(group_for):
    G = group_for("A", 1)
    rs = G.rs
    a = (1,)
    # pairing 0: fixed
    zero = GAElement.monomial((0,))
    assert demazure(rs, a, zero) == zero
    # pairing 1: two-term sum
    assert demazure(rs, a, GAElement.monomial((1,))) == \
        GAElement({(1,): (1,), (-1,): (1,)})
    # pairing -1: annihilated
    assert demazure(rs, a, GAElement.monomial((-1,))) == GAElement.zero()
    # pairing -2: one negated term
    assert demazure(rs, a, GAElement.monomial((-2,))) == \
        GAElement({(0,): (-1,)})


@pytest.mark.parametrize("type_letter,rank", RANK2)
def test_demazure_multiplied_back(group_for, type_letter, rank):
    """(1 - e^(-alpha)) * demazure(f) must equal f - e^(-alpha) * s_alpha(f):
    checks the closed form against the defining quotient without division."""
    G = group_for(type_letter, rank)
    rs = G.rs
    rng = random.Random(100)
    for alpha in rs.positive_roots:
        s = G.reflection(alpha)
        wc = rs.root_to_weight_coords(alpha)
        e_minus = GAElement.monomial(tuple(-c for c in wc))
        for _ in range(20):
            f = random_element(rs, rng)
            lhs = one_minus_exp(rs, alpha) * demazure(rs, alpha, f)
            rhs = f - e_minus * weyl_act(s, f)
            assert lhs == rhs


def test_demazure_idempotent(group_for):
    G = group_for("B", 2)
    rng = random.Random(13)
    for alpha in G.rs.positive_roots:
        for _ in range(10):
            f = random_element(G.rs, rng)
            once = demazure(G.rs, alpha, f)
            assert demazure(G.rs, alpha, once) == once


def test_demazure_rejects_non_positive(group_for):
    G = group_for("A", 2)
    f = GAElement.one(2)
    with pytest.raises(DomainError):
        demazure(G.rs, (-1, 0), f)
    with pytest.raises(DomainError):
        demazure(G.rs, (2, 0), f)


# -- atom operator ------------------------------------------------------------------

def test_atom_examples(group_for):
    G = group_for("A", 1)
    rs = G.rs
    assert atom_op(rs, (1,), GAElement.monomial((0,))) == GAElement.zero()
    assert atom_op(rs, (1,), GAElement.monomial((1,))) == \
        GAElement.monomial((-1,))


def test_atom_squares_to_minus_itself(group_for):
    G = group_for("A", 2)
    rng = random.Random(14)
    for _ in range(50):
        f = random_element(G.rs, rng)
        alpha = rng.choice(G.rs.positive_roots)
        once = atom_op(G.rs, alpha, f)
        assert atom_op(G.rs, alpha, once) == -once


# -- deformed operator ---------------------------------------------------------------

def test_t_op_rank1_values(group_for):
    G = group_for("A", 1)
    rs = G.rs
    assert t_op(rs, (1,), GAElement.one(1)) == GAElement({(-2,): (0, -1)})
    assert t_op(rs, (1,), GAElement.monomial((1,))) == \
        GAElement({(-1,): (1, -1), (-3,): (0, -1)})


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_t_op_quadratic_relation(group_for, type_letter, rank):
    """t^2 = (v-1) t + v for simple roots."""
    G = group_for(type_letter, rank)
    rng = random.Random(15)
    for i in range(1, rank + 1):
        alpha = G.rs.simple_root(i)
        for _ in range(25):
            f = random_element(G.rs, rng)
            tf = t_op(G.rs, alpha, f)
            lhs = t_op(G.rs, alpha, tf)
            rhs = tf.scale((-1, 1)) + f.scale((0, 1))
            assert lhs == rhs


@pytest.mark.parametrize("type_letter,rank", RANK2)
def test_braid_relations_for_all_operators(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    rs = G.rs
    order = {"A": 3, "B": 4, "G": 6}[type_letter]
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    rng = random.Random(16)

    def alternate(op, first, f):
        roots = [a1, a2] if first == 1 else [a2, a1]
        for k in range(order):
            f = op(rs, roots[k % 2], f)
        return f

    for op in (demazure, atom_op, t_op):
        for _ in range(15):
            f = random_element(rs, rng)
            assert alternate(op, 1, f) == alternate(op, 2, f)


@pytest.mark.parametrize("type_letter,rank", RANK2)
def test_twisted_derivation_rules(group_for, type_letter, rank):
    """atom(fg) = atom(f) g + s(f) atom(g), and the deformed version
    t(fg) = (1-v) atom(f) g + s(f) t(g)."""
    G = group_for(type_letter, rank)
    rs = G.rs
    rng = random.Random(17)
    for i in range(1, rank + 1):
        alpha = rs.simple_root(i)
        s = G.simple_reflection(i)
        for _ in range(34):
            f = random_element(rs, rng, vdeg=0)
            g = random_element(rs, rng, vdeg=0)
            fg = f * g
            assert atom_op(rs, alpha, fg) == \
                atom_op(rs, alpha, f) * g + \
                weyl_act(s, f) * atom_op(rs, alpha, g)
            assert t_op(rs, alpha, fg) == \
                atom_op(rs, alpha, f).scale((1, -1)) * g + \
                weyl_act(s, f) * t_op(rs, alpha, g)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_conjugation_rule(group_for, type_letter, rank):
    """w . op_alpha = op_(w alpha) . w whenever w(alpha) stays positive."""
    G = group_for(type_letter, rank)
    rs = G.rs
    rng = random.Random(18)
    for w in G.enumerate_group():
        for alpha in rs.positive_roots:
            walpha = w.apply_root(alpha)
            if not rs.is_positive_root(walpha):
                continue
            f = random_element(rs, rng)
            assert weyl_act(w, demazure(rs, alpha, f)) == \
                demazure(rs, walpha, weyl_act(w, f))
            assert weyl_act(w, t_op(rs, alpha, f)) == \
                t_op(rs, walpha, weyl_act(w, f))


def test_t_plus_one_factors(group_for):
    """t + 1 coincides with (1 - v e^(-alpha)) . divided difference."""
    G = group_for("B", 2)
    rs = G.rs
    rng = random.Random(19)
    for i in (1, 2):
        alpha = rs.simple_root(i)
        for _ in range(20):
            f = random_element(rs, rng)
            assert t_op(rs, alpha, f) + f == \
                mul_one_minus_v_exp(rs, alpha, demazure(rs, alpha, f))


# -- specialization -------------------------------------------------------------------

def test_specialize_v_basics(group_for):
    G = group_for("A", 2)
    rs = G.rs
    alpha = rs.simple_root(1)
    binom = one_minus_v_exp(rs, alpha)
    assert specialize_v(binom, 0) == {(0, 0): Fraction(1)}
    wc = rs.root_to_weight_coords(alpha)
    assert specialize_v(binom, 1) == {(0, 0): Fraction(1),
                                      tuple(-c for c in wc): Fraction(-1)}


def test_t_specializes_to_atom_at_zero(group_for):
    G = group_for("A", 2)
    rng = random.Random(20)
    for i in (1, 2):
        alpha = G.rs.simple_root(i)
        for _ in range(20):
            f = random_element(G.rs, rng, vdeg=0)
            left = specialize_v(t_op(G.rs, alpha, f), 0)
            right = specialize_v(atom_op(G.rs, alpha, f), 0)
            assert left == right


def test_serialization_sorted():
    f = GAElement({(1, 0): (1,), (-1, 2): (0, 3), (0, 0): (2,)})
    obj = f.to_json_obj()
    assert obj == [{"weight": [-1, 2], "vpoly": [0, 3]},
                   {"weight": [0, 0], "vpoly": [2]},
                   {"weight": [1, 0], "vpoly": [1]}]


# -- packed keys against the tuple-dict oracle -------------------------------------------

@pytest.mark.parametrize("type_letter,rank", RANK2)
def test_packed_operators_match_oracle(group_for, type_letter, rank):
    """Every operator on packed keys equals the tuple-dict code on seeded
    random elements, read back through the by-weight accessor."""
    G = group_for(type_letter, rank)
    rs = G.rs
    rng = random.Random(21)
    elements = G.enumerate_group()
    for alpha in rs.positive_roots:
        s = G.reflection(alpha)
        for _ in range(12):
            f = random_terms(rs, rng, nterms=6, vdeg=3, spread=4)
            g = random_terms(rs, rng)
            pf, pg = GAElement(f), GAElement(g)
            assert pf.by_weight() == f
            assert demazure(rs, alpha, pf).by_weight() == \
                ga_oracle.demazure(rs, alpha, f)
            assert atom_op(rs, alpha, pf).by_weight() == \
                ga_oracle.atom_op(rs, alpha, f)
            assert t_op(rs, alpha, pf).by_weight() == \
                ga_oracle.t_op(rs, alpha, f)
            assert mul_one_minus_v_exp(rs, alpha, pf).by_weight() == \
                ga_oracle.mul_one_minus_v_exp(rs, alpha, f)
            assert reflect(rs, alpha, pf).by_weight() == \
                ga_oracle.weyl_act(s, f)
            w = rng.choice(elements)
            assert weyl_act(w, pf).by_weight() == ga_oracle.weyl_act(w, f)
            assert (pf + pg).by_weight() == ga_oracle.add(f, g)
            assert (pf - pg).by_weight() == \
                ga_oracle.add(f, ga_oracle.neg(g))
            assert (-pf).by_weight() == ga_oracle.neg(f)
            assert (pf * pg).by_weight() == ga_oracle.mul(f, g)
            assert pf.scale((2, 0, -1)).by_weight() == \
                ga_oracle.scale(f, (2, 0, -1))
            assert ga_sum([pf, pg, pf]).by_weight() == \
                ga_oracle.add(ga_oracle.add(f, g), f)
            assert specialize_v(pf, Fraction(2, 3)) == \
                ga_oracle.specialize_v(f, Fraction(2, 3))
            assert pf.to_json_obj() == ga_oracle.to_json_obj(f)


def test_weight_bound_raises_budget_error():
    """A coordinate beyond the packed field's entry bound is refused where
    it enters, never wrapped."""
    edge = GAElement.monomial((MAX_WEIGHT_COORD, -MAX_WEIGHT_COORD))
    assert edge.by_weight() == {(MAX_WEIGHT_COORD, -MAX_WEIGHT_COORD): (1,)}
    for lam in [(MAX_WEIGHT_COORD + 1, 0), (0, -MAX_WEIGHT_COORD - 1),
                (10 ** 30, 1)]:
        with pytest.raises(BudgetError):
            GAElement.monomial(lam)
        with pytest.raises(BudgetError):
            GAElement({lam: (1,)})


def test_products_stop_before_the_fields_overflow():
    """Repeated squaring doubles the weight exactly until the next product
    could leave its field, and then raises."""
    f = GAElement.monomial((MAX_WEIGHT_COORD, -MAX_WEIGHT_COORD))
    c = MAX_WEIGHT_COORD
    with pytest.raises(BudgetError):
        while True:
            f = f * f
            c *= 2
            assert f.by_weight() == {(c, -c): (1,)}
    assert c < 1 << 31
    with pytest.raises(BudgetError):
        GAElement.monomial((0,), (0,) * 40000 + (1,)).scale((0,) * 30000 + (1,))
