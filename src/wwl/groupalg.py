"""Exact arithmetic in Z[v] (x) Z[P] and the operator calculus on it.

A v-polynomial is a plain tuple of integer coefficients, constant term
first, with trailing zeros stripped (so the zero polynomial is the empty
tuple).  A group-algebra element is a finite map from weights (tuples in the
fundamental-weight basis) to v-polynomials, with no zero values stored;
equality is map equality.

The divided-difference operator for a positive root alpha is evaluated
division-free on monomials through the geometric-sum closed form with
k = <lam, alpha_vee>:

    k >= 0   ->  e^lam + e^(lam-alpha) + ... + e^(lam-k*alpha)
    k == -1  ->  0
    k <= -2  ->  -(e^(lam+alpha) + ... + e^(lam+(-k-1)*alpha))

so everything stays in integer coefficients; the actual quotient of the
defining expression is never formed.  The atom operator is the divided
difference minus the identity, and the deformed operator t_op is
(1 - v e^(-alpha)) times the divided difference, minus the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .roots import Coords, RootSystem, Weight
from .weyl import WeylElement

VPoly = tuple[int, ...]

VP_ZERO: VPoly = ()
VP_ONE: VPoly = (1,)
VP_V: VPoly = (0, 1)


def vp_strip(coeffs) -> VPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def vp_add(a: VPoly, b: VPoly) -> VPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return vp_strip(out)


def vp_neg(a: VPoly) -> VPoly:
    return tuple(-x for x in a)


def vp_mul(a: VPoly, b: VPoly) -> VPoly:
    if not a or not b:
        return VP_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return vp_strip(out)


def vp_eval(a: VPoly, value: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * value + c
    return acc


class GAElement:
    """Element of Z[v] (x) Z[P]; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, VPoly] | None = None):
        self.terms: dict[Weight, VPoly] = \
            {lam: p for lam, p in (terms or {}).items() if p}

    @staticmethod
    def zero() -> "GAElement":
        return GAElement()

    @staticmethod
    def monomial(lam: Weight, poly: VPoly = VP_ONE) -> "GAElement":
        return GAElement({tuple(lam): poly})

    @staticmethod
    def one(rank: int) -> "GAElement":
        return GAElement({(0,) * rank: VP_ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GAElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GAElement") -> "GAElement":
        out = dict(self.terms)
        for lam, p in other.terms.items():
            q = vp_add(out.get(lam, VP_ZERO), p)
            if q:
                out[lam] = q
            else:
                out.pop(lam, None)
        res = GAElement.__new__(GAElement)
        res.terms = out
        return res

    def __neg__(self) -> "GAElement":
        res = GAElement.__new__(GAElement)
        res.terms = {lam: vp_neg(p) for lam, p in self.terms.items()}
        return res

    def __sub__(self, other: "GAElement") -> "GAElement":
        return self + (-other)

    def __mul__(self, other: "GAElement") -> "GAElement":
        out: dict[Weight, VPoly] = {}
        for lam, p in self.terms.items():
            for mu, q in other.terms.items():
                key = tuple(a + b for a, b in zip(lam, mu))
                r = vp_add(out.get(key, VP_ZERO), vp_mul(p, q))
                if r:
                    out[key] = r
                else:
                    out.pop(key, None)
        res = GAElement.__new__(GAElement)
        res.terms = out
        return res

    def scale(self, poly: VPoly) -> "GAElement":
        if not poly:
            return GAElement.zero()
        res = GAElement.__new__(GAElement)
        res.terms = {lam: vp_mul(p, poly) for lam, p in self.terms.items()}
        return res

    def to_json_obj(self):
        return [{"weight": list(lam), "vpoly": list(p)}
                for lam, p in sorted(self.terms.items())]

    def __repr__(self):
        if not self.terms:
            return "GAElement(0)"
        bits = [f"e{list(lam)}*{list(p)}" for lam, p in sorted(self.terms.items())]
        return "GAElement(" + " + ".join(bits) + ")"


def weyl_act(w: WeylElement, f: GAElement) -> GAElement:
    out: dict[Weight, VPoly] = {}
    for lam, p in f.terms.items():
        out[w.apply_weight(lam)] = p
    res = GAElement.__new__(GAElement)
    res.terms = out
    return res


def _monomial_orbit(rs: RootSystem, alpha: Coords, lam: Weight):
    """Weights of the divided difference of e^lam, with sign; cached."""
    key = (alpha, lam)
    cached = rs._demazure_cache.get(key)
    if cached is not None:
        return cached
    k = rs.pairing(lam, alpha)
    wc = rs.root_to_weight_coords(alpha)
    if k >= 0:
        weights = [tuple(x - j * y for x, y in zip(lam, wc))
                   for j in range(k + 1)]
        result = (1, weights)
    elif k == -1:
        result = (0, [])
    else:
        weights = [tuple(x + j * y for x, y in zip(lam, wc))
                   for j in range(1, -k)]
        result = (-1, weights)
    rs._demazure_cache[key] = result
    return result


def demazure(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """Divided-difference operator for a positive root alpha."""
    if not rs.is_positive_root(alpha):
        raise DomainError(f"{alpha} is not a positive root")
    out: dict[Weight, VPoly] = {}
    for lam, p in f.terms.items():
        sign, weights = _monomial_orbit(rs, alpha, lam)
        if sign == 0:
            continue
        q = p if sign > 0 else vp_neg(p)
        for mu in weights:
            r = vp_add(out.get(mu, VP_ZERO), q)
            if r:
                out[mu] = r
            else:
                out.pop(mu, None)
    res = GAElement.__new__(GAElement)
    res.terms = out
    return res


def atom_op(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """Demazure atom operator: divided difference minus identity."""
    return demazure(rs, alpha, f) - f


def mul_one_minus_v_exp(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """(1 - v e^(-alpha)) * f, without building the binomial."""
    wc = rs.root_to_weight_coords(alpha)
    out = dict(f.terms)
    for lam, p in f.terms.items():
        key = tuple(x - y for x, y in zip(lam, wc))
        shifted = vp_mul(p, (0, -1))
        r = vp_add(out.get(key, VP_ZERO), shifted)
        if r:
            out[key] = r
        else:
            out.pop(key, None)
    res = GAElement.__new__(GAElement)
    res.terms = out
    return res


def one_minus_v_exp(rs: RootSystem, alpha: Coords) -> GAElement:
    """The scalar 1 - v e^(-alpha) as a group-algebra element."""
    wc = rs.root_to_weight_coords(alpha)
    return GAElement({(0,) * rs.rank: VP_ONE,
                      tuple(-y for y in wc): (0, -1)})


def t_op(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """(1 - v e^(-alpha)) * divided_difference(f) - f, for alpha positive.

    For simple alpha this satisfies the Hecke quadratic relation
    t^2 = (v-1) t + v and the braid relations."""
    return mul_one_minus_v_exp(rs, alpha, demazure(rs, alpha, f)) - f


def specialize_v(f: GAElement, value) -> dict[Weight, Fraction]:
    """Substitute a rational for v; drops weights whose value vanishes."""
    val = Fraction(value)
    out = {}
    for lam, p in f.terms.items():
        c = vp_eval(p, val)
        if c:
            out[lam] = c
    return out
