"""Exact arithmetic in Z[v] (x) Z[P] and the operator calculus on it.

A group-algebra element is one dict from a packed monomial key to a
non-zero integer coefficient.  The key of v^d e^lam, for a weight lam of
rank r in the fundamental-weight basis, is the integer

    MARKER + sum_i (lam[i] + HALF) << (DEG_BITS + FIELD_BITS*(r-1-i)) + d

with FIELD_BITS = 32, HALF = 2^31, DEG_BITS = 16 and MARKER the bit just
above the top field.  Coordinate 0 sits in the highest field and the
v-degree in the lowest, so integer order is lexicographic order on
(weight, degree), and the marker bit gives the rank back from the key's
bit length.  Keys differing only in their fields add as vectors: a weight
shift is one integer addition, multiplying by v is adding 1, and the key of
a product is the sum of the two keys minus the key of (0, 0).  The
constructor and `by_weight` still speak {weight: v-polynomial}, the
v-polynomial being a tuple of coefficients, constant term first;
`to_json_obj` is the public structured form, one {"weight", "vpoly"} dict
per weight in weight order, and the command-line writer prints the same
JSON text straight from the packed keys.  All of them read the keys
through one walk, `_grouped`.

Overflow bound.  A weight enters through the constructor, `monomial` or a
dominance check, and each of these raises BudgetError for a coordinate
above MAX_WEIGHT_COORD = 2^20 in absolute value; the degree field takes
v-degrees below 2^16.  Let N(mu) be the largest |<mu, beta_vee>| over all
roots beta: it bounds every coordinate, it is W-invariant and convex, and
N(lam) <= (h - 1) * max|lam_i| for the Coxeter number h (at most 30, or
2 * rank for the classical types).  A Weyl action keeps N, a divided
difference keeps its weights on the segment from mu to s_alpha(mu) so it
cannot raise N, and a factor e^(-alpha) raises N by at most 3.  So from
entered weights of a root system of rank below 1,000, every weight after f
binomial factors has coordinates below (h - 1) * 2^20 + 3f < 2^31 for
f < 3 * 10^8, far beyond any computation here (f is at most twice the
number of positive roots).  Degrees grow by at most one per factor.  Only
products of arbitrary elements can grow further, and `*` and `scale` check
their operands' bounds before forming the keys.

The divided-difference operator for a positive root alpha is evaluated
division-free on monomials through the geometric-sum closed form with
k = <lam, alpha_vee>:

    k >= 0   ->  e^lam + e^(lam-alpha) + ... + e^(lam-k*alpha)
    k == -1  ->  0
    k <= -2  ->  -(e^(lam+alpha) + ... + e^(lam+(-k-1)*alpha))

so everything stays in integer coefficients; the actual quotient of the
defining expression is never formed.  The string and the reflected weight
are cached per (root, packed weight) on the root system.  The atom
operator is the divided difference minus the identity, and the deformed
operator t_op is (1 - v e^(-alpha)) times the divided difference, minus
the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError, DomainError
from .roots import Coords, RootSystem, Weight
from .weyl import WeylElement

FIELD_BITS = 32
DEG_BITS = 16
MAX_WEIGHT_COORD = 1 << 20

_HALF = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1
_DEG_MASK = (1 << DEG_BITS) - 1


def _shifts(rank: int) -> range:
    """Bit offset of each weight coordinate's field, coordinate 0 first."""
    return range(DEG_BITS + FIELD_BITS * (rank - 1), DEG_BITS - 1, -FIELD_BITS)


def _origin(rank: int) -> int:
    """Key of v^0 e^0 in the given rank."""
    key = 1 << (DEG_BITS + FIELD_BITS * rank)
    for sh in _shifts(rank):
        key += _HALF << sh
    return key


def _offset(vec) -> int:
    """Key difference of a shift of the weight by vec."""
    out = 0
    for x, sh in zip(vec, _shifts(len(vec))):
        out += x << sh
    return out


def _checked_weight(lam) -> Weight:
    lam = tuple(lam)
    for x in lam:
        if not -MAX_WEIGHT_COORD <= x <= MAX_WEIGHT_COORD:
            raise BudgetError(
                f"weight coordinate {x} exceeds the bound "
                f"{MAX_WEIGHT_COORD} of the packed monomial keys")
    return lam


def _rank_of(key: int) -> int:
    return (key.bit_length() - 1 - DEG_BITS) // FIELD_BITS


def _weight_of(key: int) -> Weight:
    """The weight of a key; its degree field is ignored."""
    return tuple(((key >> sh) & _FIELD_MASK) - _HALF
                 for sh in _shifts(_rank_of(key)))


def _max_coord(terms: dict[int, int]) -> int:
    return max((abs(x) for k in terms for x in _weight_of(k)), default=0)


def _max_degree(terms: dict[int, int]) -> int:
    return max((k & _DEG_MASK for k in terms), default=0)


def _element(terms: dict[int, int]) -> "GAElement":
    res = GAElement.__new__(GAElement)
    res.terms = terms
    return res


def _iadd(out: dict[int, int], terms: dict[int, int], shift: int = 0,
          sign: int = 1) -> None:
    """out += sign * (terms with every key moved by shift), in place."""
    get = out.get
    for k, c in terms.items():
        k += shift
        c = get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]


def _grouped(terms: dict[int, int]):
    """(weight key, v-polynomial list) pairs in weight order; the weight
    key is the key of v^0 e^lam, which _weight_of decodes."""
    base = poly = None
    for k, c in sorted(terms.items()):
        d = k & _DEG_MASK
        b = k - d
        if b != base:
            if poly is not None:
                yield base, poly
            base, poly = b, []
        if d > len(poly):
            poly.extend([0] * (d - len(poly)))
        poly.append(c)
    if poly is not None:
        yield base, poly


class GAElement:
    """Element of Z[v] (x) Z[P]; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, tuple[int, ...]] | None = None):
        out: dict[int, int] = {}
        for lam, poly in (terms or {}).items():
            lam = _checked_weight(lam)
            if len(poly) > _DEG_MASK + 1:
                raise BudgetError(f"v-degree {len(poly) - 1} exceeds the "
                                  f"bound {_DEG_MASK} of the packed keys")
            base = _origin(len(lam)) + _offset(lam)
            for d, c in enumerate(poly):
                if c:
                    out[base + d] = c
        self.terms: dict[int, int] = out

    @staticmethod
    def zero() -> "GAElement":
        return GAElement()

    @staticmethod
    def monomial(lam: Weight, poly: tuple[int, ...] = (1,)) -> "GAElement":
        return GAElement({tuple(lam): poly})

    @staticmethod
    def one(rank: int) -> "GAElement":
        return GAElement({(0,) * rank: (1,)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GAElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "GAElement") -> "GAElement":
        out = dict(self.terms)
        _iadd(out, other.terms)
        return _element(out)

    def __neg__(self) -> "GAElement":
        return _element({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GAElement") -> "GAElement":
        out = dict(self.terms)
        _iadd(out, other.terms, sign=-1)
        return _element(out)

    def __mul__(self, other: "GAElement") -> "GAElement":
        a, b = self.terms, other.terms
        if not a or not b:
            return GAElement()
        if _max_coord(a) + _max_coord(b) >= _HALF or \
                _max_degree(a) + _max_degree(b) > _DEG_MASK:
            raise BudgetError("product leaves the packed monomial fields")
        origin = _origin(_rank_of(next(iter(a))))
        out: dict[int, int] = {}
        for ka, ca in a.items():
            _iadd(out, b, ka - origin, ca)
        return _element(out)

    def scale(self, poly: tuple[int, ...]) -> "GAElement":
        """Multiply by a v-polynomial, constant term first."""
        if self.terms and _max_degree(self.terms) + len(poly) - 1 > _DEG_MASK:
            raise BudgetError("product leaves the packed v-degree field")
        out: dict[int, int] = {}
        for d, c in enumerate(poly):
            if c:
                _iadd(out, self.terms, d, c)
        return _element(out)

    def by_weight(self) -> dict[Weight, tuple[int, ...]]:
        """The element as {weight: v-polynomial tuple, constant first}."""
        return {_weight_of(k): tuple(p) for k, p in _grouped(self.terms)}

    def to_json_obj(self):
        return [{"weight": list(_weight_of(k)), "vpoly": p}
                for k, p in _grouped(self.terms)]

    def __repr__(self):
        if not self.terms:
            return "GAElement(0)"
        bits = [f"e{list(_weight_of(k))}*{p}"
                for k, p in _grouped(self.terms)]
        return "GAElement(" + " + ".join(bits) + ")"


def ga_sum(elements) -> GAElement:
    """Sum of an iterable of elements, accumulated in one dict."""
    out: dict[int, int] = {}
    for f in elements:
        _iadd(out, f.terms)
    return _element(out)


def weyl_act(w: WeylElement, f: GAElement) -> GAElement:
    """w(f), each weight's image computed once per call."""
    images: dict[int, int] = {}
    out: dict[int, int] = {}
    for k, c in f.terms.items():
        d = k & _DEG_MASK
        base = k - d
        img = images.get(base)
        if img is None:
            lam = w.apply_weight(_weight_of(base))
            img = images[base] = _origin(len(lam)) + _offset(lam)
        out[img + d] = c
    return _element(out)


def _root_memo(rs: RootSystem, alpha: Coords):
    """(key offset of -alpha, memo of _monomial_orbit) for one root."""
    memo = rs._demazure_cache.get(alpha)
    if memo is None:
        memo = rs._demazure_cache[alpha] = \
            (-_offset(rs.root_to_weight_coords(alpha)), {})
    return memo


def _monomial_orbit(rs: RootSystem, alpha: Coords, base: int):
    """For the degree-0 key of a weight lam: the keys of the divided
    difference of e^lam, whether they carry the sign -1, and the key of
    s_alpha(lam); cached per packed weight."""
    step, memo = _root_memo(rs, alpha)
    hit = memo.get(base)
    if hit is not None:
        return hit
    k = rs.pairing(_weight_of(base), alpha)
    if k >= 0:
        keys = tuple(base + j * step for j in range(k + 1))
    else:
        keys = tuple(base - j * step for j in range(1, -k))
    hit = memo[base] = (keys, k < -1, base + k * step)
    return hit


def _demazure_terms(rs: RootSystem, alpha: Coords,
                    terms: dict[int, int]) -> dict[int, int]:
    if not rs.is_positive_root(alpha):
        raise DomainError(f"{alpha} is not a positive root")
    _, memo = _root_memo(rs, alpha)
    out: dict[int, int] = {}
    get = out.get
    for k, c in terms.items():
        d = k & _DEG_MASK
        hit = memo.get(k - d) or _monomial_orbit(rs, alpha, k - d)
        keys, negate, _ = hit
        if negate:
            c = -c
        for m in keys:
            m += d
            v = get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def reflect(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """s_alpha(f) for a root alpha, through the per-weight cache the
    divided difference shares."""
    _, memo = _root_memo(rs, alpha)
    out: dict[int, int] = {}
    for k, c in f.terms.items():
        d = k & _DEG_MASK
        hit = memo.get(k - d) or _monomial_orbit(rs, alpha, k - d)
        out[hit[2] + d] = c
    return _element(out)


def demazure(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """Divided-difference operator for a positive root alpha."""
    return _element(_demazure_terms(rs, alpha, f.terms))


def atom_op(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """Demazure atom operator: divided difference minus identity."""
    out = _demazure_terms(rs, alpha, f.terms)
    _iadd(out, f.terms, sign=-1)
    return _element(out)


def mul_one_minus_v_exp(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """(1 - v e^(-alpha)) * f: each monomial moved by -alpha and one v."""
    out = dict(f.terms)
    _iadd(out, f.terms, _root_memo(rs, alpha)[0] + 1, -1)
    return _element(out)


def t_op(rs: RootSystem, alpha: Coords, f: GAElement) -> GAElement:
    """(1 - v e^(-alpha)) * divided_difference(f) - f, for alpha positive.

    For simple alpha this satisfies the Hecke quadratic relation
    t^2 = (v-1) t + v and the braid relations."""
    dd = _demazure_terms(rs, alpha, f.terms)
    out = dict(dd)
    _iadd(out, dd, _root_memo(rs, alpha)[0] + 1, -1)
    _iadd(out, f.terms, sign=-1)
    return _element(out)


def specialize_v(f: GAElement, value) -> dict[Weight, Fraction]:
    """Substitute a rational for v; drops weights whose value vanishes."""
    val = Fraction(value)
    out = {}
    for k, poly in _grouped(f.terms):
        c = Fraction(0)
        for x in reversed(poly):
            c = c * val + x
        if c:
            out[_weight_of(k)] = c
    return out
