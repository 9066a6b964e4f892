"""Exact root-system data for the finite crystallographic types A-G.

Roots are integer coordinate vectors in the simple-root basis; weights are
integer vectors in the fundamental-weight basis.  The Cartan matrix converts
between the two bases, and every pairing <lam, alpha_vee> is plain integer
arithmetic: coroot coordinates are precomputed once per root from the
symmetrized Cartan data, so no floating point (and no rationals) appears in
any hot path.

A RootSystem is immutable after construction and safe to share by reference
between any number of workers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigurationError, DomainError, InvariantError

Coords = tuple[int, ...]   # vector in the simple-root basis
Weight = tuple[int, ...]   # vector in the fundamental-weight basis
Matrix = tuple[tuple[int, ...], ...]


def _cartan_matrix(type_letter: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if type_letter == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif type_letter == "B":
        # last simple root short
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)
    elif type_letter == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)
    elif type_letter == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif type_letter == "E":
        # chain 1-3-4-5-..., extra node 2 attached to node 4 (1-based)
        bond(0, 2)
        bond(2, 3)
        bond(1, 3)
        for i in range(3, rank - 1):
            bond(i, i + 1)
    elif type_letter == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif type_letter == "G":
        bond(0, 1, -1, -3)
    return a


_VALID = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_GROUP_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: (1 << n) * math.factorial(n),
    "C": lambda n: (1 << n) * math.factorial(n),
    "D": lambda n: (1 << (n - 1)) * math.factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def _symmetrizer(cartan, rank) -> tuple[int, ...]:
    """Minimal positive integers d with d_i * a_ij = d_j * a_ji."""
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    if any(x is None for x in d):
        raise InvariantError("Dynkin diagram not connected")
    mult = math.lcm(*(x.denominator for x in d))
    ints = [int(x * mult) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


class RootSystem:
    """Immutable Cartan/root data for one finite type.

    `cartan[i][j]` is <alpha_j, alpha_i_vee>, so the j-th column is alpha_j
    written in the fundamental-weight basis.  `positive_roots` is ordered by
    increasing height with lexicographic tie-break, which fixes the order of
    every downstream product and serialization.
    """

    def __init__(self, type_letter: str, rank: int):
        check = _VALID.get(type_letter)
        if check is None or not isinstance(rank, int) or not check(rank):
            raise ConfigurationError(
                f"invalid finite type ({type_letter!r}, {rank!r})")
        self.type_letter = type_letter
        self.rank = rank
        self.cartan: Matrix = tuple(
            tuple(row) for row in _cartan_matrix(type_letter, rank))
        self.symmetrizer = _symmetrizer(self.cartan, rank)

        self.positive_roots: tuple[Coords, ...] = self._generate_positives()
        expected = _POSITIVE_COUNT[type_letter](rank)
        if len(self.positive_roots) != expected:
            raise InvariantError(
                f"found {len(self.positive_roots)} positive roots of "
                f"{type_letter}{rank}, expected {expected}")

        self._positive_set = frozenset(self.positive_roots)
        # every root, the positive ones and then their negatives, and the
        # index of each in that tuple
        self.roots: tuple[Coords, ...] = self.positive_roots + tuple(
            tuple(-c for c in a) for a in self.positive_roots)
        self.root_index = {a: k for k, a in enumerate(self.roots)}
        self._coroot = self._coroot_table()
        # <alpha_j, alpha_vee> for every root, one row per root
        self._pair_row = {
            a: tuple(sum(cv[i] * self.cartan[i][j] for i in range(rank))
                     for j in range(rank))
            for a, cv in self._coroot.items()
        }
        self.group_order = _GROUP_ORDER[type_letter](rank)
        # shared scratch for operator caches (see groupalg)
        self._demazure_cache: dict = {}

    def _generate_positives(self) -> tuple[Coords, ...]:
        n = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(n))
                   for i in range(n)]
        seen = set(simples)
        queue = list(simples)
        while queue:
            a = queue.pop()
            for i, row in enumerate(self.cartan):
                # s_i a = a - <a, alpha_i_vee> alpha_i
                b = list(a)
                b[i] -= sum(c * x for c, x in zip(row, a))
                b = tuple(b)
                if b not in seen and all(c >= 0 for c in b):
                    seen.add(b)
                    queue.append(b)
        return tuple(sorted(seen, key=lambda c: (sum(c), c)))

    def _coroot_table(self) -> dict[Coords, Coords]:
        n, d, a = self.rank, self.symmetrizer, self.cartan
        table: dict[Coords, Coords] = {}
        for c in self.positive_roots:
            # (alpha, alpha) in the normalization (alpha_i, alpha_i) = 2*d_i
            norm = sum(c[j] * c[k] * d[k] * a[k][j]
                       for j in range(n) for k in range(n))
            coro = []
            for j in range(n):
                num = 2 * c[j] * d[j]
                if num % norm:
                    raise InvariantError(f"coroot of {c} is not integral")
                coro.append(num // norm)
            table[c] = tuple(coro)
            table[tuple(-x for x in c)] = tuple(-x for x in coro)
        return table

    # -- queries ----------------------------------------------------------

    def is_positive_root(self, coords: Coords) -> bool:
        return coords in self._positive_set

    def simple_root(self, letter: int) -> Coords:
        """Simple root for a 1-based generator index."""
        if not 1 <= letter <= self.rank:
            raise DomainError(f"generator index {letter} out of range")
        return tuple(1 if j == letter - 1 else 0 for j in range(self.rank))

    def coroot_coords(self, alpha: Coords) -> Coords:
        try:
            return self._coroot[alpha]
        except KeyError:
            raise DomainError(f"{alpha} is not a root of {self}") from None

    def pairing(self, lam: Weight, alpha: Coords) -> int:
        """<lam, alpha_vee> for lam in fundamental-weight coordinates."""
        cv = self.coroot_coords(alpha)
        return sum(c * x for c, x in zip(cv, lam))

    def root_pairing(self, beta: Coords, alpha: Coords) -> int:
        """<beta, alpha_vee> for beta in simple-root coordinates."""
        row = self._pair_row.get(alpha)
        if row is None:
            raise DomainError(f"{alpha} is not a root of {self}")
        return sum(b * r for b, r in zip(beta, row))

    def root_to_weight_coords(self, alpha: Coords) -> Weight:
        a = self.cartan
        return tuple(sum(a[i][j] * alpha[j] for j in range(self.rank))
                     for i in range(self.rank))

    def reflect_weight(self, alpha: Coords, lam: Weight) -> Weight:
        k = self.pairing(lam, alpha)
        wc = self.root_to_weight_coords(alpha)
        return tuple(x - k * y for x, y in zip(lam, wc))

    def reflect_root(self, alpha: Coords, beta: Coords) -> Coords:
        k = self.root_pairing(beta, alpha)
        return tuple(b - k * c for b, c in zip(beta, alpha))

    def rho(self) -> Weight:
        return (1,) * self.rank

    def is_dominant(self, lam: Weight) -> bool:
        return all(x >= 0 for x in lam)

    def weyl_dimension(self, lam: Weight) -> int:
        """prod <lam + rho, a_vee> / <rho, a_vee> over a > 0: Weyl's
        dimension of the irreducible module of dominant highest weight lam."""
        num = den = 1
        for alpha in self.positive_roots:
            height = sum(self.coroot_coords(alpha))  # <rho, alpha_vee>
            num *= self.pairing(lam, alpha) + height
            den *= height
        return num // den

    def to_json_obj(self):
        return {
            "type": self.type_letter,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [list(a) for a in self.positive_roots],
        }

    def __repr__(self):
        return f"RootSystem({self.type_letter}{self.rank})"


def build_root_system(type_letter: str, rank: int) -> RootSystem:
    return RootSystem(type_letter, rank)
