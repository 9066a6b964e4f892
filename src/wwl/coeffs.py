"""Whittaker functions, Demazure characters and atoms, and the transition
coefficients between them.

Everything composes the operator calculus along reduced words.  The
operators all satisfy the braid relations, so any reduced word gives the
same answer; the canonical word of an element is used by default.  A
coefficient table is a dict from element index (the group's table order)
to coefficient; the public functions take WeylElements and return such
dicts, read back with group.elem_of or group.canon_of_idx.

The central object is the table of coefficients c anchored at w, defined by
expanding the deformed operator product through atom operators:

    t_w e^lam  =  sum over x <= w of  c[w,x] * (atom_x e^lam).

It is built by left multiplication along a reduced word of w: growing from
the identity suffix by suffix, each step sw <- w distinguishes three cases
for x <= sw (x below the previous stage and raised by s; below and lowered
by s; not below the previous stage), mirroring the diamond recursion for
the coefficients.  The closed form evaluates, right to left over the word,
a product of binomial factors 1 - v e^(-beta_i) with deformed operators
t_beta inserted at the positions singled out by the chain condition; it
agrees with the recursion exactly on every pair satisfying the condition.

The coefficients d on Demazure characters pi_y,

    t_w e^lam  =  sum over y <= w of  d[w,y] * (pi_y e^lam),

have a recursion of the same shape.  For a letter s with simple root alpha
and cur < s cur, apply t_s = (1 - v e^(-alpha)) del_alpha - 1 to each term
d[y] pi_y.  The twisted Leibniz rule

    del_alpha(d f) = s(d) del_alpha(f) + ((d - s(d)) / (1 - e^(-alpha))) f,

with (d - s(d)) / (1 - e^(-alpha)) = del_alpha(d) - s(d), and
del_alpha pi_y = pi_(sy) when sy > y, pi_y otherwise, give for y <= s cur:

    y <= cur, sy > y:   t_op(d[y]) - (1 - v e^(-alpha)) s(d[y])
    y <= cur, sy < y:   t_op(d[y]) + (1 - v e^(-alpha)) s(d[sy])
    y not <= cur:       (1 - v e^(-alpha)) s(d[sy])

The lifted term (1 - v e^(-alpha)) s(d[y]) of each y with sy > y is computed
once and shared with sy.  The alternating interval sums of the atom table
give the same table with one addition per pair of the interval; the tests
keep them as the oracle.

The summed side of the Casselman-Shalika check, the sum of t_x e^lam over
all of W, factors over parabolic cosets.  Let W_k be generated by the
letters 1..k.  Every x in W_k is u v with v in W_(k-1), u the minimal
left coset representative of x W_(k-1), and l(x) = l(u) + l(v); t_op
satisfies the quadratic and braid relations, so t_x = t_u t_v and

    sum over W_k of t_x  =  (sum over u of t_u) (sum over W_(k-1) of t_v)

(Humphreys, Reflection Groups and Coxeter Groups, 1.10).  Applying the
factors to e^lam for k = 1..rank costs sum_k ([W_k : W_(k-1)] - 1) t_op:
10 for A4, 13 for D4 and 15 for A5, where the sum over the elements
costs |W| - 1 (119, 191 and 719).  spherical_whittaker keeps the sum
over a lower interval, and at w0 it is the oracle the tests hold the
factorisation to.  The interval and the coset representatives are both
closed under removing a left descent, so one walk up from e by left
ascents builds either sum with one t_op per element.
"""

from __future__ import annotations

from .errors import ConditionError, DomainError, InvariantError
from .groupalg import (GAElement, _checked_weight, atom_op, demazure,
                       ga_sum, mul_one_minus_v_exp, reflect, t_op)
from .roots import RootSystem, Weight
from .shellability import (_checked_word_idx, _failing_flags, _label_of,
                           _one_word_labels, _reduced_word_idx, beta_sequence)
from .weyl import WeylElement, WeylGroup


def _check_dominant(rs: RootSystem, lam: Weight) -> Weight:
    lam = _checked_weight(lam)
    if len(lam) != rs.rank:
        raise DomainError(f"weight {lam} has length {len(lam)}; rank "
                          f"{rs.rank} needs length {rs.rank}")
    if not rs.is_dominant(lam):
        raise DomainError(f"weight {lam} is not dominant")
    return lam


def _apply_word(group: WeylGroup, op, word, f: GAElement) -> GAElement:
    """Operator composition along a word, rightmost letter acting first."""
    rs = group.rs
    for letter in reversed(word):
        f = op(rs, rs.simple_root(letter), f)
    return f


def whittaker_function(group: WeylGroup, w: WeylElement, lam: Weight) -> GAElement:
    """t_w e^lam: the Iwahori-level Whittaker sum for one group element."""
    lam = _check_dominant(group.rs, lam)
    return _apply_word(group, t_op, group.canonical_word(w),
                       GAElement.monomial(lam))


def demazure_character(group: WeylGroup, w: WeylElement, lam: Weight) -> GAElement:
    lam = _check_dominant(group.rs, lam)
    return _apply_word(group, demazure, group.canonical_word(w),
                       GAElement.monomial(lam))


def demazure_atom(group: WeylGroup, w: WeylElement, lam: Weight) -> GAElement:
    lam = _check_dominant(group.rs, lam)
    return _apply_word(group, atom_op, group.canonical_word(w),
                       GAElement.monomial(lam))


def _ascent_values(group: WeylGroup, g: GAElement, letters, keep):
    """t_u g for e and for each u reached from e by left ascents s_a u,
    a in letters, with keep(u) true.  The kept set must be closed under
    removing a left descent: then each kept u = s_a u' has u' kept on the
    previous length level, and t_u g is one t_op on t_(u') g, the same for
    every such u' by the braid relations.  Only one length level is held."""
    rs = group.rs
    lens, lmul = group._len, group._lmul
    level = {0: g}
    yield g
    while level:
        nxt: dict[int, GAElement] = {}
        for ui, f in level.items():
            for a in letters:
                vi = lmul[a - 1][ui]
                if vi in nxt or lens[vi] < lens[ui] or not keep(vi):
                    continue
                f_v = nxt[vi] = t_op(rs, rs.simple_root(a), f)
                yield f_v
        level = nxt


def spherical_whittaker(group: WeylGroup, w: WeylElement, lam: Weight) -> GAElement:
    """Sum of the Whittaker functions over the lower interval of w, which
    is closed under removing a left descent."""
    lam = _check_dominant(group.rs, lam)
    mask = group.bruhat_mask(group.idx_of(w))
    return ga_sum(_ascent_values(group, GAElement.monomial(lam),
                                 range(1, group.rs.rank + 1),
                                 lambda ui: mask >> ui & 1))


def _word_recursion(group: WeylGroup, wi: int, word,
                    step) -> dict[int, GAElement]:
    """Left multiplication along a reduced word of the element of index wi
    (the canonical one by default), rightmost letter first.  Starting from
    {e: 1}, each letter s with cur < s cur maps the table on [e, cur] to the
    table on [e, s cur] by step(group, letter, table, new_idx); new entries
    come in index order, which lists s y before y whenever s y < y."""
    word = group.canon_of_idx(wi) if word is None else tuple(word)
    _reduced_word_idx(group, word, wi)
    cur = 0  # the identity
    table = {cur: GAElement.one(group.rs.rank)}
    for letter in reversed(word):
        cur = group.lmul_idx(letter, cur)
        table = step(group, letter, table, cur)
    return table


def _atom_step(group: WeylGroup, letter: int, table, new_idx):
    rs = group.rs
    alpha = rs.simple_root(letter)
    out: dict[int, GAElement] = {}
    for yi in group.lower_interval_idx(new_idx):
        syi = group.lmul_idx(letter, yi)
        prev = table.get(yi)
        if prev is None:
            out[yi] = mul_one_minus_v_exp(rs, alpha,
                                          reflect(rs, alpha, table[syi]))
        elif group.len_of_idx(syi) > group.len_of_idx(yi):
            out[yi] = t_op(rs, alpha, prev)
        else:
            out[yi] = mul_one_minus_v_exp(
                rs, alpha, reflect(rs, alpha, table[syi] - prev)) + \
                t_op(rs, alpha, prev)
    return out


def atom_coeffs(group: WeylGroup, w: WeylElement,
                word=None) -> dict[int, GAElement]:
    """c[w,x] for every x <= w, keyed by the index of x, via the three-case
    left-multiplication recursion along a reduced word (the canonical one
    by default).  An interior entry may be zero (none is expected; it is
    data, not an error), an end may not."""
    wi = group.idx_of(w)
    table = _word_recursion(group, wi, word, _atom_step)
    if not table[0]:
        raise InvariantError("coefficient at the identity vanished")
    if not table[wi]:
        raise InvariantError("coefficient at the anchor vanished")
    return table


def closed_form_coeff(group: WeylGroup, x: WeylElement, word) -> GAElement:
    """Closed-form coefficient for (x, word).

    The word must satisfy the chain condition for x (in either the
    deletion-set form or the chain form); otherwise a ConditionError
    carrying the three labels is raised.  The formula off the condition is
    _closed_form_product with the increasing-chain label; that its value
    differs from the recursion there is itself a tested fact."""
    word = tuple(word)
    xi, wi = _checked_word_idx(group, x, word)
    return _closed_form_idx(group, word, xi,
                            _one_word_labels(group, wi, word, 1 << xi))


def _closed_form_idx(group: WeylGroup, word, xi: int, labels) -> GAElement:
    """closed_form_coeff for the x of index xi below a reduced word, from
    the word's labels (_one_word_labels over a bitset that holds xi)."""
    lam, inc, dec = labels
    fails_i, fails_ii, _ = _failing_flags(lam, inc, dec)
    if (fails_i & fails_ii) >> xi & 1:
        raise ConditionError(
            "chain condition fails for this pair and word",
            lambda_set=_label_of(lam, xi), chain_min=_label_of(inc, xi),
            chain_max=_label_of(dec, xi, descending=True))
    return _closed_form_product(
        group, word, _label_of(inc if fails_i >> xi & 1 else lam, xi))


def _closed_form_product(group: WeylGroup, word, indices) -> GAElement:
    """The closed form of a word, t_beta at the positions in indices."""
    rs = group.rs
    betas = beta_sequence(group, word, indices)
    index_set = set(indices)
    acc = GAElement.one(rs.rank)
    for i in range(len(word), 0, -1):
        beta = betas[i - 1]
        if i in index_set:
            acc = t_op(rs, beta, acc)
        else:
            acc = mul_one_minus_v_exp(rs, beta, acc)
    return acc


def _char_step(group: WeylGroup, letter: int, table, new_idx):
    rs = group.rs
    alpha = rs.simple_root(letter)
    out: dict[int, GAElement] = {}
    # (1 - v e^(-alpha)) s(d[y]) for each y with s y > y, shared by y and s y
    lifted: dict[int, GAElement] = {}
    for yi in group.lower_interval_idx(new_idx):
        syi = group.lmul_idx(letter, yi)
        prev = table.get(yi)
        if group.len_of_idx(syi) > group.len_of_idx(yi):
            lift = lifted[yi] = mul_one_minus_v_exp(
                rs, alpha, reflect(rs, alpha, prev))
            out[yi] = t_op(rs, alpha, prev) - lift
        elif prev is None:
            out[yi] = lifted[syi]
        else:
            out[yi] = t_op(rs, alpha, prev) + lifted[syi]
    return out


def char_coeffs(group: WeylGroup, w: WeylElement,
                word=None) -> dict[int, GAElement]:
    """d[w,y] for every y <= w, keyed by the index of y, by their own
    left-multiplication recursion along a reduced word (the canonical one
    by default)."""
    return _word_recursion(group, group.idx_of(w), word, _char_step)


def tilde_coeffs(group: WeylGroup, w: WeylElement) -> dict[int, GAElement]:
    """Coefficients of the summed (spherical-type) function on Demazure
    characters, keyed by element index: for each x, sum the character
    coefficients d[y,x] of every y in [x, w].  Needs one recursion per y
    below w; the table of y holds x exactly when x <= y."""
    ys = group.lower_interval_idx(group.idx_of(w))
    tables = [_word_recursion(group, yi, None, _char_step) for yi in ys]
    return {xi: ga_sum(t[xi] for t in tables if xi in t) for xi in ys}


def _whole_group_sum(group: WeylGroup, lam: Weight) -> GAElement:
    """Sum of t_x e^lam over all of W, by the parabolic factorisation of
    the module docstring: for k = 1..rank, g <- sum of t_u g over the
    minimal left coset representatives u of W_(k-1) in W_k, the elements
    of W_k with no right descent among the letters < k."""
    group.ensure_tables()
    lens, rmul = group._len, group._rmul
    g = GAElement.monomial(lam)
    for k in range(1, group.rs.rank + 1):
        g = ga_sum(_ascent_values(
            group, g, range(1, k + 1),
            lambda ui: all(lens[rmul[b][ui]] > lens[ui]
                           for b in range(k - 1))))
    return g


def casselman_shalika_check(group: WeylGroup, lam: Weight) -> bool:
    """Compare the summed Whittaker function at the longest element with
    the product side (the full positive-root binomial product times the
    character); both sides computed independently, compared exactly.

    The summed side is _whole_group_sum, which applies
    sum_k ([W_k : W_(k-1)] - 1) t_op in place of the |W| - 1 of a sum
    over the elements: 10 for A4, 13 for D4 and 15 for A5, against 119,
    191 and 719."""
    lam = _check_dominant(group.rs, lam)
    w0 = group.longest_element()
    lhs = _whole_group_sum(group, lam)
    rhs = demazure_character(group, w0, lam)
    for alpha in group.rs.positive_roots:
        rhs = mul_one_minus_v_exp(group.rs, alpha, rhs)
    return lhs == rhs
