"""The Iwahori-Hecke algebra over a prime field at an evaluated spectral
point, and the transition coefficients m(x, w) between the interval-sum
basis and the dual intertwining basis.

Instead of exact rational functions in rank-many torus variables, every
identity is tested at random points of a large prime field (default
modulus 2^61 - 1): an element is a finite map from group elements to field
scalars, the basis vector t_w being the characteristic function of w.  The
generators satisfy

    t_i * t_w = t_(s_i w)                  if s_i w > w,
    t_i * t_w = (q-1) t_w + q t_(s_i w)    if s_i w < w,

with q the inverse of the stored parameter u.  A spectral point also
carries one field unit per simple root; z^alpha for an arbitrary root is
the monomial in those units, and the torus translate by w reads the
exponents through w^(-1).

The one-generator intertwining element is

    mu_z(s_i) = u t_i + (1-u) z^(a_i)/(1-z^(a_i)) t_e,

extended to arbitrary w by peeling the last letter of a reduced word and
translating the spectral point.  m(x, w) extracts the t_e coefficient of
psi(x) mu_z(w), where psi(x) sums t_w over the upper interval of x.  Points
where some 1 - z^alpha vanishes are rejected at sampling time; a vanishing
denominator met later raises a retryable error.
"""

from __future__ import annotations

import random

from .errors import ConditionError, DomainError, UnluckyPointError
from .roots import Coords, RootSystem
from .shellability import _greedy_chain_idx, _WordCovers, gamma_sequence
from .weyl import WeylElement, WeylGroup

MODULUS_DEFAULT = (1 << 61) - 1

HeckeElement = dict  # WeylElement -> field scalar


class SpectralPoint:
    """Prime modulus p, the unit u standing for the inverse of q, and one
    unit per simple root."""

    __slots__ = ("p", "u", "z", "q")

    def __init__(self, p: int, u: int, z: tuple[int, ...]):
        if not 0 < u < p or u == 1:
            raise DomainError("u must be a field unit different from 1")
        if any(not 0 < zi < p for zi in z):
            raise DomainError("every z component must be a nonzero residue")
        self.p = p
        self.u = u
        self.z = tuple(z)
        self.q = pow(u, p - 2, p)

    def z_pow(self, coords: Coords) -> int:
        """z^alpha for alpha in simple-root coordinates (any sign)."""
        acc = 1
        for zi, c in zip(self.z, coords):
            if c:
                acc = acc * pow(zi, c % (self.p - 1), self.p) % self.p
        return acc

    def translate(self, group: WeylGroup, w: WeylElement) -> "SpectralPoint":
        """The point w.z, whose value on alpha_i is z^(w^-1 alpha_i)."""
        winv = group.inverse(w)
        n = group.rs.rank
        z = tuple(self.z_pow(winv.apply_root(group.rs.simple_root(i)))
                  for i in range(1, n + 1))
        return SpectralPoint(self.p, self.u, z)

    def __repr__(self):
        return f"SpectralPoint(p={self.p}, u={self.u}, z={self.z})"


def sample_spectral_point(rs: RootSystem, rng: random.Random,
                          p: int = MODULUS_DEFAULT,
                          max_attempts: int = 100) -> SpectralPoint:
    """Draw a point with u not in {0, 1} and 1 - z^alpha nonzero for every
    root; since translates only permute and negate roots, no denominator
    can vanish later."""
    for _ in range(max_attempts):
        u = rng.randrange(2, p)
        z = tuple(rng.randrange(1, p) for _ in range(rs.rank))
        pt = SpectralPoint(p, u, z)
        if all(pt.z_pow(alpha) != 1 for alpha in rs.positive_roots):
            return pt
    raise UnluckyPointError(
        f"no usable spectral point after {max_attempts} attempts")


def hecke_left_mul_gen(group: WeylGroup, letter: int, f: HeckeElement,
                       pt: SpectralPoint) -> HeckeElement:
    """t_i * f by the generator rule, extended linearly."""
    p, q = pt.p, pt.q
    qm1 = (q - 1) % p
    group.simple_reflection(letter)  # range check
    out: HeckeElement = {}
    for w, c in f.items():
        wi = group.idx_of(w)
        swi = group.lmul_idx(letter, wi)
        sw = group.elem_of(swi)
        if group.len_of_idx(swi) > group.len_of_idx(wi):
            out[sw] = (out.get(sw, 0) + c) % p
        else:
            out[w] = (out.get(w, 0) + qm1 * c) % p
            out[sw] = (out.get(sw, 0) + q * c) % p
    return {w: c for w, c in out.items() if c}


def hecke_mul(group: WeylGroup, f: HeckeElement, g: HeckeElement,
              pt: SpectralPoint) -> HeckeElement:
    """f * g, expanding each basis element of f through a reduced word."""
    p = pt.p
    out: HeckeElement = {}
    for w, c in f.items():
        h = g
        for letter in reversed(group.canonical_word(w)):
            h = hecke_left_mul_gen(group, letter, h, pt)
        for y, d in h.items():
            out[y] = (out.get(y, 0) + c * d) % p
    return {w: c for w, c in out.items() if c}


def psi(group: WeylGroup, x: WeylElement) -> HeckeElement:
    """Indicator sum of t_w over the upper interval {w : w >= x}."""
    group.ensure_bruhat()
    xi = group.idx_of(x)
    size = group.order()
    return {group.elem_of(wi): 1 for wi in range(size)
            if group.leq_idx(xi, wi)}


def _mu_gen(group: WeylGroup, letter: int, pt: SpectralPoint) -> HeckeElement:
    p = pt.p
    za = pt.z[letter - 1]
    denom = (1 - za) % p
    if denom == 0:
        raise UnluckyPointError("1 - z^alpha vanished in a mu factor")
    coeff = (1 - pt.u) * za % p * pow(denom, p - 2, p) % p
    out: HeckeElement = {group.simple_reflection(letter): pt.u}
    if coeff:
        out[group.identity] = coeff
    return out


def mu(group: WeylGroup, w: WeylElement, pt: SpectralPoint) -> HeckeElement:
    """The intertwining element for w at the point: built by peeling the
    last letter of a reduced word, translating the point as it goes."""
    word = group.canonical_word(w)
    if not word:
        return {group.identity: 1}
    letter = word[-1]
    head = group.elem_of(group.rmul_idx(letter, group.idx_of(w)))
    factor = _mu_gen(group, letter, pt)
    rest = mu(group, head, pt.translate(group, group.simple_reflection(letter)))
    return hecke_mul(group, factor, rest, pt)


def lambda_functional(group: WeylGroup, f: HeckeElement) -> int:
    """Coefficient of t_e."""
    return f.get(group.identity, 0)


def m_direct(group: WeylGroup, x: WeylElement, w: WeylElement,
             pt: SpectralPoint) -> int:
    """m(x, w) from the definition: t_e coefficient of psi(x) mu_z(w)."""
    return lambda_functional(group, hecke_mul(group, psi(group, x),
                                              mu(group, w, pt), pt))


def m_matrix(group: WeylGroup, pt: SpectralPoint) -> list[list[int]]:
    """All m(x, w) at one point, indexed by the element table:
    out[x][w] = t_e coefficient of psi(x) mu_z(w).

    Per column w the products t_y * mu_z(w) are computed for every y by one
    generator multiplication up the weak order, and the psi sums are then
    plain sums of their t_e coefficients over upper intervals; this is the
    same definition m_direct evaluates pair by pair, just batched."""
    group.ensure_bruhat()
    size = group.order()
    p = pt.p
    ident = group.identity
    out = [[0] * size for _ in range(size)]
    for wi in range(size):
        muw = mu(group, group.elem_of(wi), pt)
        lam_vals = [0] * size
        tymu: list[HeckeElement | None] = [None] * size
        tymu[0] = muw
        lam_vals[0] = muw.get(ident, 0)
        for yi in range(1, size):
            letter = group.canon_of_idx(yi)[0]
            prev = tymu[group.lmul_idx(letter, yi)]
            cur = hecke_left_mul_gen(group, letter, prev, pt)
            tymu[yi] = cur
            lam_vals[yi] = cur.get(ident, 0)
        for xi in range(size):
            acc = 0
            for yi in range(size):
                if (group.bruhat_mask(yi) >> xi) & 1:
                    acc += lam_vals[yi]
            out[xi][wi] = acc % p
    return out


def m_product(group: WeylGroup, x: WeylElement, w: WeylElement, word,
              pt: SpectralPoint) -> int:
    """m(x, w) as the product over the increasing-chain label of
    (1 - u z^gamma) / (1 - z^gamma); requires the chain form of the
    condition to hold for (x, word)."""
    group.ensure_bruhat()
    word = tuple(word)
    wi = group.word_to_idx(word)
    if wi != group.idx_of(w):
        raise DomainError("word is not a word for w")
    xi = group.idx_of(x)
    if not group.leq_idx(xi, wi):
        raise DomainError("x is not below w")
    covers = _WordCovers(group, word)
    inc = _greedy_chain_idx(group, xi, covers, pick_max=False)
    dec = _greedy_chain_idx(group, xi, covers, pick_max=True)
    if inc != tuple(reversed(dec)):
        raise ConditionError("chain condition fails for this pair and word",
                             chain_min=inc, chain_max=dec)
    p = pt.p
    acc = 1
    for gamma in gamma_sequence(group, word, inc):
        zg = pt.z_pow(gamma)
        denom = (1 - zg) % p
        if denom == 0:
            raise UnluckyPointError("1 - z^gamma vanished in the product")
        acc = acc * ((1 - pt.u * zg) % p) % p * pow(denom, p - 2, p) % p
    return acc
