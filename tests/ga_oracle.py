"""Tuple-dict oracle for the group-algebra operators.

An element is a plain dict {weight: v-polynomial}, the v-polynomial a tuple
of integer coefficients, constant term first, with trailing zeros stripped
and no zero values stored.  This is the representation the library used
before it packed monomials into integers; the operators here are that
code, kept as the independent reference the packed operators are checked
against.  `one_minus_v_exp` alone builds a packed GAElement: the scalar
1 - v e^(-alpha), the generic product by which the tests check the
library's mul_one_minus_v_exp."""

from __future__ import annotations

from fractions import Fraction

from wwl.groupalg import GAElement

VP_ZERO = ()


def vp_strip(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def vp_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return vp_strip(out)


def vp_neg(a):
    return tuple(-x for x in a)


def vp_mul(a, b):
    if not a or not b:
        return VP_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return vp_strip(out)


def vp_eval(a, value):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * value + c
    return acc


def _accumulate(out, lam, poly):
    r = vp_add(out.get(lam, VP_ZERO), poly)
    if r:
        out[lam] = r
    else:
        out.pop(lam, None)


def add(f, g):
    out = dict(f)
    for lam, p in g.items():
        _accumulate(out, lam, p)
    return out


def neg(f):
    return {lam: vp_neg(p) for lam, p in f.items()}


def mul(f, g):
    out = {}
    for lam, p in f.items():
        for mu, q in g.items():
            _accumulate(out, tuple(a + b for a, b in zip(lam, mu)),
                        vp_mul(p, q))
    return out


def scale(f, poly):
    return {lam: q for lam, q in
            ((lam, vp_mul(p, poly)) for lam, p in f.items()) if q}


def weyl_act(w, f):
    return {w.apply_weight(lam): p for lam, p in f.items()}


def demazure(rs, alpha, f):
    wc = rs.root_to_weight_coords(alpha)
    out = {}
    for lam, p in f.items():
        k = rs.pairing(lam, alpha)
        if k >= 0:
            weights = [tuple(x - j * y for x, y in zip(lam, wc))
                       for j in range(k + 1)]
            q = p
        else:
            weights = [tuple(x + j * y for x, y in zip(lam, wc))
                       for j in range(1, -k)]
            q = vp_neg(p)
        for mu in weights:
            _accumulate(out, mu, q)
    return out


def atom_op(rs, alpha, f):
    return add(demazure(rs, alpha, f), neg(f))


def mul_one_minus_v_exp(rs, alpha, f):
    wc = rs.root_to_weight_coords(alpha)
    out = dict(f)
    for lam, p in f.items():
        _accumulate(out, tuple(x - y for x, y in zip(lam, wc)),
                    vp_mul(p, (0, -1)))
    return out


def one_minus_v_exp(rs, alpha):
    """The scalar 1 - v e^(-alpha) as a packed GAElement."""
    wc = rs.root_to_weight_coords(alpha)
    return GAElement({(0,) * rs.rank: (1,),
                      tuple(-y for y in wc): (0, -1)})


def t_op(rs, alpha, f):
    return add(mul_one_minus_v_exp(rs, alpha, demazure(rs, alpha, f)),
               neg(f))


def specialize_v(f, value):
    val = Fraction(value)
    return {lam: c for lam, c in
            ((lam, vp_eval(p, val)) for lam, p in f.items()) if c}


def to_json_obj(f):
    return [{"weight": list(lam), "vpoly": list(p)}
            for lam, p in sorted(f.items())]
