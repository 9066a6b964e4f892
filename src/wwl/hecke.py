"""The Iwahori-Hecke algebra over a prime field at an evaluated spectral
point, and the transition coefficients m(x, w) between the interval-sum
basis and the dual intertwining basis.

Instead of exact rational functions in rank-many torus variables, every
identity is tested at random points of a large prime field (default
modulus 2^61 - 1): an element is a dict from element index (the group's
table order, 0 the identity) to nonzero field scalars, the basis vector
t_w being {index of w: 1}.  The generators satisfy

    t_i * t_w = t_(s_i w)                  if s_i w > w,
    t_i * t_w = (q-1) t_w + q t_(s_i w)    if s_i w < w,

with q the inverse of the stored parameter u.  A spectral point also
carries one field unit per simple root; z^alpha for an arbitrary root is
the monomial in those units, and the torus translate by w reads the
exponents through w^(-1).

The one-generator intertwining element is mu_z(s_i) = u t_i + c_(a_i) t_e,
with c_beta = (1-u) z^beta / (1-z^beta).  Peeling the last letter of a
reduced word and translating the point, mu_z(w) = mu_z(s_c) mu_(s_c z)(w s_c),
unrolls to a recursion along the element table: if the canonical word of w
is b followed by that of g, then

    mu_z(w) = mu_z(g) (u t_b + c_beta t_e),    beta = g^-1 alpha_b > 0.

`mu` applies it along the canonical word of w, and `m_matrix` builds
every mu_z(w) in table order.  Right multiplication by t_b reads the
group's rmul and length tables, nothing else is kept: O(|W|^2) per point
for every mu_z, one inversion per positive root.  m(x, w) is the t_e
coefficient of psi(x) mu_z(w), psi(x) the sum of t_y over y >= x.  The t_e
coefficient of t_y t_v is q^l(y) if v = y^-1 and 0 otherwise (the
symmetrizing trace), so m(x, w) = sum over y >= x of q^l(y) mu_z(w)[y^-1]:
sum_x #{y >= x} additions per column, at worst O(|W|^3) per point for the
matrix.  `m_direct` multiplies out the definition pair by pair, as the
oracle.  Points where some 1 - z^alpha vanishes are rejected at sampling
time; a vanishing denominator met later raises a retryable error.
"""

from __future__ import annotations

import random

from .errors import ConditionError, DomainError, UnluckyPointError
from .roots import Coords, RootSystem
from .shellability import (_checked_word_idx, _label_of, _one_word_labels,
                           gamma_sequence)
from .weyl import WeylElement, WeylGroup

MODULUS_DEFAULT = (1 << 61) - 1

HeckeElement = dict  # element index -> field scalar


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
        wi = group.idx_of(w)
        roots = group.rs.roots
        z = tuple(self.z_pow(roots[k])
                  for k in group._root_img[group._inv[wi]])
        return SpectralPoint(self.p, self.u, z)

    def __repr__(self):
        return f"SpectralPoint(p={self.p}, u={self.u}, z={self.z})"


def sample_spectral_point(rs: RootSystem, rng: random.Random,
                          p: int = MODULUS_DEFAULT) -> SpectralPoint:
    """Draw a point with u not in {0, 1} and 1 - z^alpha nonzero for every
    root, in at most 100 attempts; since translates only permute and negate
    roots, no denominator can vanish later."""
    for _ in range(100):
        u = rng.randrange(2, p)
        z = tuple(rng.randrange(1, p) for _ in range(rs.rank))
        pt = SpectralPoint(p, u, z)
        if all(pt.z_pow(alpha) != 1 for alpha in rs.positive_roots):
            return pt
    raise UnluckyPointError(
        "no usable spectral point after 100 attempts")


def hecke_left_mul_gen(group: WeylGroup, letter: int, f: HeckeElement,
                       pt: SpectralPoint) -> HeckeElement:
    """t_i * f by the generator rule, extended linearly."""
    p, q = pt.p, pt.q
    qm1 = (q - 1) % p
    group.word_to_idx((letter,))  # checks the letter, builds the tables
    out: HeckeElement = {}
    for wi, c in f.items():
        swi = group.lmul_idx(letter, wi)
        if group.len_of_idx(swi) > group.len_of_idx(wi):
            out[swi] = (out.get(swi, 0) + c) % p
        else:
            out[wi] = (out.get(wi, 0) + qm1 * c) % p
            out[swi] = (out.get(swi, 0) + q * c) % p
    return {wi: c for wi, c in out.items() if c}


def hecke_mul(group: WeylGroup, f: HeckeElement, g: HeckeElement,
              pt: SpectralPoint) -> HeckeElement:
    """f * g, expanding each basis element of f through a reduced word."""
    p = pt.p
    group.ensure_tables()
    out: HeckeElement = {}
    for wi, c in f.items():
        h = g
        for letter in reversed(group.canon_of_idx(wi)):
            h = hecke_left_mul_gen(group, letter, h, pt)
        for yi, d in h.items():
            out[yi] = (out.get(yi, 0) + c * d) % p
    return {wi: c for wi, c in out.items() if c}


def psi(group: WeylGroup, x: WeylElement) -> HeckeElement:
    """Indicator sum of t_w over the upper interval {w : w >= x}."""
    group.ensure_bruhat()
    xi = group.idx_of(x)
    return {wi: 1 for wi in range(group.order()) if group.leq_idx(xi, wi)}


def _root_coeff(pt: SpectralPoint, beta: Coords) -> int:
    """c_beta = (1-u) z^beta / (1-z^beta) at the point."""
    p = pt.p
    zb = pt.z_pow(beta)
    denom = (1 - zb) % p
    if denom == 0:
        raise UnluckyPointError("1 - z^beta vanished")
    return (1 - pt.u) * zb % p * pow(denom, p - 2, p) % p


def _mu_beta(group: WeylGroup, b: int, g: int) -> Coords:
    """g^-1 alpha_b, with g given by its index."""
    return group.rs.roots[group._root_img[group._inv[g]][b - 1]]


def _mu_step(group: WeylGroup, f: list[int], b: int, c: int, u: int,
             p: int) -> list[int]:
    """f (u t_b + c t_e) for f dense over element indices; with uq = 1,
    u t_y t_b is t_(y s_b) if y s_b > y, else (1-u) t_y + u t_(y s_b)."""
    cd = (c + 1 - u) % p
    lens = group._len
    return [(cd * fy + u * f[ys]) % p if lens[ys] < ly
            else (c * fy + f[ys]) % p
            for fy, ys, ly in zip(f, group._rmul[b - 1], lens)]


def mu(group: WeylGroup, w: WeylElement, pt: SpectralPoint) -> HeckeElement:
    """The intertwining element for w at the point, built along the
    canonical word of w from the right by the recursion above."""
    f, g = [1] + [0] * (group.order() - 1), 0
    for b in reversed(group.canon_of_idx(group.idx_of(w))):
        c = _root_coeff(pt, _mu_beta(group, b, g))
        f = _mu_step(group, f, b, c, pt.u, pt.p)
        g = group.lmul_idx(b, g)
    return {i: c for i, c in enumerate(f) if c}


def lambda_functional(f: HeckeElement) -> int:
    """Coefficient of t_e."""
    return f.get(0, 0)


def m_direct(group: WeylGroup, x: WeylElement, w: WeylElement,
             pt: SpectralPoint) -> int:
    """m(x, w) from the definition: t_e coefficient of psi(x) mu_z(w)."""
    return lambda_functional(hecke_mul(group, psi(group, x),
                                       mu(group, w, pt), pt))


def m_matrix(group: WeylGroup, pt: SpectralPoint) -> list[list[int]]:
    """All m(x, w) at one point, indexed by the element table, from the
    trace form: out[x][w] = sum over y >= x of q^l(y) mu_z(w)[y^-1].  Every
    entry is computed, x not below w included.  Each mu_z(w) comes from
    mu_z(s_b w), b the first letter of w's canonical word."""
    group.ensure_bruhat()
    p, u = pt.p, pt.u
    size = group.order()
    ups = [[y for y, m in enumerate(group._bruhat) if (m >> x) & 1]
           for x in range(size)]
    cs = {beta: _root_coeff(pt, beta) for beta in group.rs.positive_roots}
    mus = [[1] + [0] * (size - 1)]
    for wi in range(1, size):
        b = group.canon_of_idx(wi)[0]
        g = group.lmul_idx(b, wi)
        mus.append(_mu_step(group, mus[g], b, cs[_mu_beta(group, b, g)],
                            u, p))
    qlen = [pow(pt.q, group.len_of_idx(y), p) for y in range(size)]
    out = [[0] * size for _ in range(size)]
    for wi, muw in enumerate(mus):
        get = [ql * muw[yinv] % p
               for ql, yinv in zip(qlen, group._inv)].__getitem__
        for row, up in zip(out, ups):
            row[wi] = sum(map(get, up)) % p
    return out


def m_product_roots(group: WeylGroup, x: WeylElement, w: WeylElement,
                    word) -> tuple[Coords, ...]:
    """The per-pair part of m_product: checks that word is a word for w
    above x and that the chain condition holds for (x, word), and returns
    the roots gamma of the increasing-chain label."""
    word = tuple(word)
    xi, wi = _checked_word_idx(group, x, word, w)
    _, inc, dec = _one_word_labels(group, wi, word, 1 << xi)
    if inc != dec:  # position sets, read in opposite orders
        raise ConditionError("chain condition fails for this pair and word",
                             chain_min=_label_of(inc, xi),
                             chain_max=_label_of(dec, xi, descending=True))
    return gamma_sequence(group, word, _label_of(inc, xi))


def m_product_value(gammas, pt: SpectralPoint, factors: dict) -> int:
    """The per-point part of m_product: the product over gammas of
    (1 - u z^gamma) / (1 - z^gamma) = 1 + c_gamma.  `factors`, one dict per
    point, keeps each root's factor for the next pair."""
    p = pt.p
    acc = 1
    for gamma in gammas:
        f = factors.get(gamma)
        if f is None:
            f = factors[gamma] = (1 + _root_coeff(pt, gamma)) % p
        acc = acc * f % p
    return acc


def m_product(group: WeylGroup, x: WeylElement, w: WeylElement, word,
              pt: SpectralPoint) -> int:
    """m(x, w) as the product over the increasing-chain label of
    (1 - u z^gamma) / (1 - z^gamma); requires the chain form of the
    condition to hold for (x, word)."""
    return m_product_value(m_product_roots(group, x, w, word), pt, {})
