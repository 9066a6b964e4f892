"""Weyl group arithmetic: elements, words, length, Bruhat order,
intervals and reduced-word enumeration.

An element is stored as its integer action matrix on the root lattice (plus
the matching action on the weight lattice, carried along so that neither
matrix ever needs to be inverted).  Equality and hashing go through the
matrices, so elements work as dictionary keys independently of any chosen
word.  The matrices are actions only (`apply_root`, `apply_weight`): no
query multiplies two elements, and `WeylElement.__mul__` is kept as the
matrix oracle the tests check the tables against.

Every element query (length, canonical word, Bruhat order, inverse,
products, words) reads an indexed layer that a WeylGroup builds on first
use: the full element list, generator multiplication tables, inverses,
canonical words, and the Bruhat order as one bitmask per element.  The
tables are built once and read-only afterwards, so forked workers share
them all; nothing is memoised per word.

The element list is found on the W-orbit of rho.  Each element w is keyed
by u = w^-1 rho in fundamental-weight coordinates, which is a bijection
because rho is regular.  Right multiplication by s_i sends the key to
u - u[i] alpha_i, and it is an ascent exactly when u[i] > 0 (w s_i > w iff
<w^-1 rho, alpha_i_vee> > 0), so a breadth-first search over keys finds
each length level from the previous one with O(r) work per edge.  Each
element's matrix pair is computed once, from its parent, by a step on
matrices held as columns (`_column_step`): w s_i changes only column i
and the Dynkin neighbours of i in the root matrix and only column i in
the weight matrix, so the step is O(r) too, and the columns it leaves
alone are shared with the parent.  The columns are held only for the
level being expanded; each element's row-major WeylElement is built once,
when its level is sorted.  The ascent edges k -> k s_i of the search give
the right multiplication table: each fills rmul[i][k] and its reverse,
once the level is sorted and the indices of its elements are known, and
every descent is the reverse of an ascent.  The key of w^-1 is w rho, the
row sums of the weight matrix, which gives the inverse table and with it
left multiplication, s_i w = (w^-1 s_i)^-1.

The Bruhat mask of w is bit(w) OR the masks of the single deletions of
w's canonical word, so the masks are built in table order with one bigint
OR per deletion.  This is exact: every deletion is w t for a reflection t
and is shorter, so it lies below w; every x < w lies below some coatom of
[x, w]; and by strong exchange every coatom of w is a single deletion of
any reduced word of w.  The deletions ride down the canonical words: if
canon[w] = (a,) + canon[w1], then w1 = s_a w and the other deletions of w
are s_a d for the deletions d of w1, O(l(w)) table reads per element.

The table order is by length, then by root-action matrix within a length.
That is the order of a breadth-first search over matrix products sorted
per level, so element indices, canonical words and interval order do not
depend on how the tables were built.

Groups too large to tabulate fail fast with BudgetError before anything is
allocated: the element tables stop at MAX_TABLE_ORDER (E6), the Bruhat
masks at MAX_BRUHAT_BYTES.  So groups above E6 answer no element query;
only their generators, reflections and root data are available.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

from .errors import BudgetError, DomainError, InvariantError
from .roots import Coords, Matrix, RootSystem, Weight

# Largest group whose element tables are built: the order of E6.
MAX_TABLE_ORDER = 51_840
# Largest Bruhat mask table, |W|^2 / 8 bytes.
MAX_BRUHAT_BYTES = 64 << 20


def _bit_indices(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng)
        for i in rng)


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def _step_neighbours(cartan: Matrix):
    """For each 0-based letter i, the pairs (j, c_ij) and the pairs
    (j, c_ji) over the Dynkin neighbours j of i."""
    rng = range(len(cartan))
    return [([(j, cartan[i][j]) for j in rng if j != i and cartan[i][j]],
             [(j, cartan[j][i]) for j in rng if j != i and cartan[j][i]])
            for i in rng]


def _column_step(rcols, wcols, i: int, nbrs):
    """The root and weight matrices of w s_i (0-based i), each a tuple of
    columns, from those of w; nbrs is _step_neighbours(cartan)[i].

    Column j of s_i's root action is alpha_j - c_ij alpha_i, so root column
    j of w s_i is col_j - c_ij col_i: column i negates, the Dynkin
    neighbours of i move and the rest are shared with w.  The weight action
    of s_i is the identity with column i replaced, so only weight column i
    moves, to col_i - sum_j c_ji col_j.  O(r) for a bounded degree."""
    root_nbrs, weight_nbrs = nbrs
    ci = rcols[i]
    rc = list(rcols)
    rc[i] = tuple([-x for x in ci])
    for j, c in root_nbrs:
        rc[j] = tuple([x - c * y for x, y in zip(rcols[j], ci)])
    col = [-x for x in wcols[i]]
    for j, c in weight_nbrs:
        col = [x - c * y for x, y in zip(col, wcols[j])]
    wc = list(wcols)
    wc[i] = tuple(col)
    return tuple(rc), tuple(wc)


@dataclass(frozen=True)
class WeylElement:
    """Group element as a pair of integer matrices: the action on root
    coordinates and the action on fundamental-weight coordinates."""

    root_action: Matrix
    weight_action: Matrix

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_matmul(self.root_action, other.root_action),
                           _matmul(self.weight_action, other.weight_action))

    def apply_root(self, coords: Coords) -> Coords:
        m = self.root_action
        rng = range(len(coords))
        return tuple(sum(m[i][j] * coords[j] for j in rng) for i in rng)

    def apply_weight(self, lam: Weight) -> Weight:
        m = self.weight_action
        rng = range(len(lam))
        return tuple(sum(m[i][j] * lam[j] for j in rng) for i in rng)

    def __repr__(self):
        return f"WeylElement({self.root_action})"


class WeylGroup:
    """Weyl group of a RootSystem, with lazily built lookup tables."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.rank
        self.identity = WeylElement(_identity_matrix(n), _identity_matrix(n))
        self._gens = tuple(
            WeylElement(rs.simple_root_matrices[i], rs.simple_weight_matrices[i])
            for i in range(n))
        # indexed layer, built on first element query
        self._elements: list[WeylElement] | None = None
        self._index: dict[Matrix, int] | None = None
        self._len: list[int] | None = None
        self._lmul: list[list[int]] | None = None
        self._rmul: list[list[int]] | None = None
        self._canon: list[tuple[int, ...]] | None = None
        self._inv: list[int] | None = None
        self._bruhat: list[int] | None = None
        self._nwords: list[int] | None = None

    # -- element-level API --------------------------------------------------

    def order(self) -> int:
        return self.rs.group_order

    def simple_reflection(self, letter: int) -> WeylElement:
        if not 1 <= letter <= self.rs.rank:
            raise DomainError(f"generator index {letter} out of range")
        return self._gens[letter - 1]

    def element_from_word(self, letters) -> WeylElement:
        idx = self.word_to_idx(letters)  # builds the tables on first use
        return self._elements[idx]

    def reflection(self, alpha: Coords) -> WeylElement:
        """Reflection s_alpha for an arbitrary positive root."""
        rs = self.rs
        if not rs.is_positive_root(alpha):
            raise DomainError(f"{alpha} is not a positive root")
        n = rs.rank
        coro = rs.coroot_coords(alpha)
        wc = rs.root_to_weight_coords(alpha)
        root_cols = [rs.reflect_root(alpha, tuple(1 if j == i else 0
                                                  for j in range(n)))
                     for i in range(n)]
        root_m = tuple(tuple(root_cols[j][k] for j in range(n))
                       for k in range(n))
        weight_m = tuple(tuple((1 if k == j else 0) - coro[j] * wc[k]
                               for j in range(n))
                         for k in range(n))
        return WeylElement(root_m, weight_m)

    def length(self, w: WeylElement) -> int:
        idx = self.idx_of(w)
        return self._len[idx]

    def inversion_set(self, w: WeylElement) -> tuple[Coords, ...]:
        """Positive roots sent negative by w^-1 (the set usually written
        Phi_w), in positive-root order."""
        out = []
        for beta in self.rs.positive_roots:
            image = w.apply_root(beta)
            if not self.rs.is_positive_root(image):
                out.append(tuple(-c for c in image))
        return tuple(sorted(out, key=lambda c: (sum(c), c)))

    def canonical_word(self, w: WeylElement) -> tuple[int, ...]:
        """Lexicographically least reduced word (smallest left descent
        first); the canonical serialization of an element."""
        idx = self.idx_of(w)
        return self._canon[idx]

    def is_reduced(self, letters) -> bool:
        idx = self.word_to_idx(letters)
        return self._len[idx] == len(letters)

    def inverse(self, w: WeylElement) -> WeylElement:
        idx = self.idx_of(w)
        return self._elements[self._inv[idx]]

    def bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        return self.leq_idx(self.idx_of(x), self.idx_of(w))

    def iter_reduced_words(self, w: WeylElement):
        """All reduced words of w, streamed in lexicographic order."""
        yield from self._iter_words_idx(self.idx_of(w))

    def all_reduced_words(self, w: WeylElement) -> list[tuple[int, ...]]:
        return list(self.iter_reduced_words(w))

    def _iter_words_idx(self, wi: int):
        """The reduced words of w in lexicographic order, depth first: peeling
        left descents in increasing order follows the prefix trie of the
        words, through the v with l(w v^-1) + l(v) = l(w)."""
        def walk(vi, prefix):
            lens = self._len
            if lens[vi] == 0:
                yield prefix
            for a, row in enumerate(self._lmul, 1):
                if lens[row[vi]] < lens[vi]:
                    yield from walk(row[vi], prefix + (a,))

        yield from walk(wi, ())

    def enumerate_group(self) -> list[WeylElement]:
        self.ensure_tables()
        return list(self._elements)

    def longest_element(self) -> WeylElement:
        self.ensure_tables()
        return self._elements[-1]

    # -- indexed layer --------------------------------------------------------

    def ensure_tables(self) -> None:
        if self._elements is not None:
            return
        rs = self.rs
        if rs.group_order > MAX_TABLE_ORDER:
            raise BudgetError(
                f"{rs.type_letter}{rs.rank} has {rs.group_order} elements; "
                f"element tables stop at {MAX_TABLE_ORDER}")
        # the build allocates several tuples per element, and the cyclic
        # collector would walk the growing tables again and again; they
        # hold no reference cycles, so it pauses for the build
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._build_tables()
        finally:
            if enabled:
                gc.enable()

    def _build_tables(self) -> None:
        rs = self.rs
        n = rs.rank
        rng = range(n)
        cartan = rs.cartan
        nbrs = _step_neighbours(cartan)
        ident = _identity_matrix(n)
        rho = rs.rho()
        key_index = {rho: 0}  # elements[k]^-1 rho -> k
        elements = [self.identity]
        lengths = [0]
        rmul: list[list[int]] = [[0] for _ in rng]
        # (key, root columns, weight columns) of each element of the level
        # being expanded, in table order from index start
        frontier = [(rho, ident, ident)]
        start = 0
        while frontier:
            slots: dict[Weight, int] = {}
            found = []
            edges = []  # (k, i, slot) for each ascent k -> k s_i
            for k, (u, rcols, wcols) in enumerate(frontier, start):
                for i in rng:
                    ui = u[i]
                    if ui <= 0:
                        continue
                    # u - u[i] alpha_i; alpha_i is column i of the Cartan
                    v = list(u)
                    v[i] = -ui
                    for j, c in nbrs[i][1]:
                        v[j] -= c * ui
                    v = tuple(v)
                    slot = slots.get(v)
                    if slot is None:
                        slot = slots[v] = len(found)
                        found.append(
                            (v,) + _column_step(rcols, wcols, i, nbrs[i]))
                    edges.append((k, i, slot))
            start = len(elements)
            rows = [tuple(zip(*rc)) for _, rc, _ in found]
            where = [0] * len(found)
            frontier = []
            for k, slot in enumerate(sorted(range(len(found)),
                                            key=rows.__getitem__), start):
                where[slot] = k
                entry = found[slot]
                key_index[entry[0]] = k
                elements.append(WeylElement(rows[slot], tuple(zip(*entry[2]))))
                frontier.append(entry)
            lengths += [lengths[-1] + 1] * len(found)
            for row in rmul:
                row += [0] * len(found)
            for k, i, slot in edges:
                row, j = rmul[i], where[slot]
                row[k] = j
                row[j] = k
        if len(elements) != rs.group_order:
            raise InvariantError(
                f"found {len(elements)} elements of {rs.type_letter}"
                f"{rs.rank}, expected {rs.group_order}")
        size = len(elements)
        # the key of w^-1 is w rho: the row sums of w's weight matrix
        inv = [key_index[tuple(map(sum, e.weight_action))]
               for e in elements]
        lmul = [[inv[rm[inv[k]]] for k in range(size)] for rm in rmul]
        canon: list[tuple[int, ...]] = [()] * size
        for k in range(1, size):  # ascending length: s_i * w already resolved
            lw = lengths[k]
            for i in rng:
                j = lmul[i][k]
                if lengths[j] < lw:
                    canon[k] = (i + 1,) + canon[j]
                    break
        self._elements = elements
        self._index = {e.root_action: k for k, e in enumerate(elements)}
        self._len = lengths
        self._rmul = rmul
        self._lmul = lmul
        self._inv = inv
        self._canon = canon

    def ensure_bruhat(self) -> None:
        """One bitmask per element w, bit x set iff x <= w: bit(w) OR the
        masks of the single deletions of canon[w].  Every deletion w t is
        shorter, hence below w; every x < w lies below a coatom of [x, w];
        and every coatom of w is a single deletion of any reduced word of
        w (strong exchange).  With canon[w] = (a,) + canon[w1], the
        deletions are w1 = s_a w and s_a d for each deletion d of w1."""
        if self._bruhat is not None:
            return
        order = self.rs.group_order
        if order * order // 8 > MAX_BRUHAT_BYTES:
            raise BudgetError(
                f"Bruhat masks of {self.rs.type_letter}{self.rs.rank} would "
                f"take {order * order // 8} bytes; the limit is "
                f"{MAX_BRUHAT_BYTES}")
        self.ensure_tables()
        canon, lmul = self._canon, self._lmul
        size = len(canon)
        masks = [0] * size
        masks[0] = 1
        # dels[w]: the single deletions of canon[w], one per position
        dels: list[tuple[int, ...]] = [()] * size
        for w in range(1, size):  # ascending length: every deletion is done
            row = lmul[canon[w][0] - 1]
            w1 = row[w]
            dw = (w1,) + tuple(row[d] for d in dels[w1])
            dels[w] = dw
            acc = 1 << w
            for d in dw:
                acc |= masks[d]
            masks[w] = acc
        self._bruhat = masks

    def idx_of(self, w: WeylElement) -> int:
        self.ensure_tables()
        idx = self._index.get(w.root_action)
        if idx is None:
            raise DomainError("element does not belong to this group")
        return idx

    def elem_of(self, idx: int) -> WeylElement:
        return self._elements[idx]

    def len_of_idx(self, idx: int) -> int:
        return self._len[idx]

    def canon_of_idx(self, idx: int) -> tuple[int, ...]:
        return self._canon[idx]

    def word_to_idx(self, letters) -> int:
        self.ensure_tables()
        cur = 0
        rmul = self._rmul
        for letter in letters:
            if not 1 <= letter <= self.rs.rank:
                raise DomainError(f"generator index {letter} out of range")
            cur = rmul[letter - 1][cur]
        return cur

    def idx_mul(self, a: int, b: int) -> int:
        cur = a
        rmul = self._rmul
        for letter in self._canon[b]:
            cur = rmul[letter - 1][cur]
        return cur

    def rmul_idx(self, letter: int, idx: int) -> int:
        return self._rmul[letter - 1][idx]

    def lmul_idx(self, letter: int, idx: int) -> int:
        return self._lmul[letter - 1][idx]

    def leq_idx(self, xi: int, wi: int) -> bool:
        self.ensure_bruhat()
        return bool((self._bruhat[wi] >> xi) & 1)

    def bruhat_mask(self, wi: int) -> int:
        self.ensure_bruhat()
        return self._bruhat[wi]

    def lower_interval_idx(self, wi: int) -> list[int]:
        """Indices of every x <= w, ascending."""
        return list(_bit_indices(self.bruhat_mask(wi)))

    def reduced_word_counts(self) -> list[int]:
        """Number of reduced words for every element, indexed like the
        element table."""
        if self._nwords is not None:
            return self._nwords
        self.ensure_tables()
        size = len(self._elements)
        counts = [0] * size
        counts[0] = 1
        for w in range(1, size):
            lw = self._len[w]
            counts[w] = sum(counts[self._lmul[i][w]]
                            for i in range(self.rs.rank)
                            if self._len[self._lmul[i][w]] < lw)
        self._nwords = counts
        return counts
