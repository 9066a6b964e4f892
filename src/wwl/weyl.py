"""Weyl group arithmetic: elements, words, length, Bruhat order, covers,
intervals and reduced-word enumeration.

An element is stored as its integer action matrix on the root lattice (plus
the matching action on the weight lattice, carried along so that neither
matrix ever needs to be inverted).  Equality and hashing go through the
matrices, so elements work as dictionary keys independently of any chosen
word.

For sweeps, a WeylGroup lazily builds an indexed layer: the full element
list, generator multiplication tables, inverses, canonical words, and the
Bruhat order as one bitmask per element.  The tables are built once and
read-only afterwards, so they can be shared freely across parallel workers.

The element list is found on the W-orbit of rho.  Each element w is keyed
by u = w^-1 rho in fundamental-weight coordinates, which is a bijection
because rho is regular.  Right multiplication by s_i sends the key to
u - u[i] alpha_i, and it is an ascent exactly when u[i] > 0 (w s_i > w iff
<w^-1 rho, alpha_i_vee> > 0), so a breadth-first search over keys finds
each length level from the previous one with O(r) work per edge.  Each
element's matrix pair is computed once, from its parent, by a rank-one
update (`_times_simple`).  The key of w^-1 is w rho, the row sums of the
weight matrix, which gives the inverse table and with it left
multiplication, s_i w = (w^-1 s_i)^-1.

The table order is by length, then by root-action matrix within a length.
That is the order of a breadth-first search over matrix products sorted
per level, so element indices, canonical words and interval order do not
depend on how the tables were built.

Groups too large to tabulate fail fast with BudgetError before anything is
allocated: the element tables stop at MAX_TABLE_ORDER (E6), the Bruhat
masks at MAX_BRUHAT_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, DomainError, InvariantError
from .roots import Coords, Matrix, RootSystem, Weight

# Largest group whose element tables are built: the order of E6.
MAX_TABLE_ORDER = 51_840
# Largest Bruhat mask table, |W|^2 / 8 bytes.
MAX_BRUHAT_BYTES = 64 << 20


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    rng = range(n)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng)
        for i in rng)


def _identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def _times_simple(w: "WeylElement", i: int, cartan: Matrix) -> "WeylElement":
    """w * s_i (0-based i) by rank-one updates of both matrices, O(r^2).

    The root action of s_i is the identity with row i replaced, so the root
    matrix moves by (column i of it) times (row i of the Cartan matrix).
    The weight action of s_i is the identity with column i replaced, so
    only column i of the weight matrix changes."""
    ci = cartan[i]
    root = tuple(tuple(x - row[i] * c for x, c in zip(row, ci))
                 for row in w.root_action)
    weight = tuple(
        row[:i]
        + (row[i] - sum(x * a[i] for x, a in zip(row, cartan)),)
        + row[i + 1:]
        for row in w.weight_action)
    return WeylElement(root, weight)


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
        self._len_memo: dict[Matrix, int] = {self.identity.root_action: 0}
        self._leq_memo: dict[tuple[Matrix, Matrix], bool] = {}
        self._refl_cache: dict[Coords, WeylElement] = {}
        # indexed layer, built on first full-group use
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
        w = self.identity
        for letter in letters:
            w = w * self.simple_reflection(letter)
        return w

    def reflection(self, alpha: Coords) -> WeylElement:
        """Reflection s_alpha for an arbitrary positive root."""
        cached = self._refl_cache.get(alpha)
        if cached is not None:
            return cached
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
        elem = WeylElement(root_m, weight_m)
        self._refl_cache[alpha] = elem
        return elem

    def length(self, w: WeylElement) -> int:
        cached = self._len_memo.get(w.root_action)
        if cached is not None:
            return cached
        if self._index is not None:
            idx = self._index.get(w.root_action)
            if idx is not None:
                return self._len[idx]
        count = 0
        for alpha in self.rs.positive_roots:
            image = w.apply_root(alpha)
            if not self.rs.is_positive_root(image):
                count += 1
        self._len_memo[w.root_action] = count
        return count

    def inversion_set(self, w: WeylElement) -> tuple[Coords, ...]:
        """Positive roots sent negative by w^-1 (the set usually written
        Phi_w), in positive-root order."""
        out = []
        for beta in self.rs.positive_roots:
            image = w.apply_root(beta)
            if not self.rs.is_positive_root(image):
                out.append(tuple(-c for c in image))
        return tuple(sorted(out, key=lambda c: (sum(c), c)))

    def left_descents(self, w: WeylElement) -> list[int]:
        lw = self.length(w)
        return [i for i in range(1, self.rs.rank + 1)
                if self.length(self._gens[i - 1] * w) < lw]

    def canonical_word(self, w: WeylElement) -> tuple[int, ...]:
        """Lexicographically least reduced word (smallest left descent
        first); the canonical serialization of an element."""
        if self._index is not None:
            idx = self._index.get(w.root_action)
            if idx is not None:
                return self._canon[idx]
        word = []
        cur = w
        while True:
            descents = self.left_descents(cur)
            if not descents:
                break
            i = descents[0]
            word.append(i)
            cur = self._gens[i - 1] * cur
        return tuple(word)

    def is_reduced(self, letters) -> bool:
        return self.length(self.element_from_word(letters)) == len(letters)

    def inverse(self, w: WeylElement) -> WeylElement:
        idx = self.idx_of(w)  # builds the tables on first use
        return self._elements[self._inv[idx]]

    def bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        if self._bruhat is not None:
            return self.leq_idx(self.idx_of(x), self.idx_of(w))
        return self._leq_rec(x, w)

    def _leq_rec(self, x: WeylElement, w: WeylElement) -> bool:
        lw = self.length(w)
        if lw == 0:
            return self.length(x) == 0
        if self.length(x) > lw:
            return False
        key = (x.root_action, w.root_action)
        cached = self._leq_memo.get(key)
        if cached is not None:
            return cached
        s = self._gens[self.left_descents(w)[0] - 1]
        sw = s * w
        sx = s * x
        if self.length(sx) < self.length(x):
            result = self._leq_rec(sx, sw)
        else:
            result = self._leq_rec(x, sw)
        self._leq_memo[key] = result
        return result

    def iter_reduced_words(self, w: WeylElement):
        """All reduced words of w, streamed in lexicographic order."""
        self.ensure_tables()
        yield from self._iter_words_idx(self.idx_of(w))

    def all_reduced_words(self, w: WeylElement) -> list[tuple[int, ...]]:
        return list(self.iter_reduced_words(w))

    def _iter_words_idx(self, wi: int):
        if self._len[wi] == 0:
            yield ()
            return
        lw = self._len[wi]
        for i in range(1, self.rs.rank + 1):
            wj = self._lmul[i - 1][wi]
            if self._len[wj] < lw:
                for rest in self._iter_words_idx(wj):
                    yield (i,) + rest

    def enumerate_group(self) -> list[WeylElement]:
        self.ensure_tables()
        return list(self._elements)

    def longest_element(self) -> WeylElement:
        self.ensure_tables()
        return self._elements[-1]

    def interval(self, x: WeylElement, w: WeylElement) -> list[WeylElement]:
        """All y with x <= y <= w, in table order (by length, then matrix)."""
        self.ensure_bruhat()
        xi, wi = self.idx_of(x), self.idx_of(w)
        if not self.leq_idx(xi, wi):
            raise DomainError("interval endpoints not comparable: x must be <= w")
        mask_w = self._bruhat[wi]
        return [self._elements[yi] for yi in range(len(self._elements))
                if (mask_w >> yi) & 1 and (self._bruhat[yi] >> xi) & 1]

    def covers_down(self, w: WeylElement) -> list[WeylElement]:
        """All y covered by w, i.e. y < w with l(y) = l(w) - 1."""
        self.ensure_tables()
        wi = self.idx_of(w)
        target = self._len[wi] - 1
        seen = sorted({di for di in self.deleted_word_elements_idx(self._canon[wi])
                       if self._len[di] == target})
        return [self._elements[di] for di in seen]

    # -- indexed layer --------------------------------------------------------

    def ensure_tables(self) -> None:
        if self._elements is not None:
            return
        rs = self.rs
        if rs.group_order > MAX_TABLE_ORDER:
            raise BudgetError(
                f"{rs.type_letter}{rs.rank} has {rs.group_order} elements; "
                f"element tables stop at {MAX_TABLE_ORDER}")
        n = rs.rank
        rng = range(n)
        cartan = rs.cartan
        # alpha_i in fundamental-weight coordinates: column i of the Cartan
        alphas = [tuple(row[i] for row in cartan) for i in rng]
        keys = [rs.rho()]  # keys[k] = elements[k]^-1 rho
        key_index = {keys[0]: 0}
        elements = [self.identity]
        lengths = [0]
        start = 0
        while start < len(elements):
            end = len(elements)
            level: dict[Weight, WeylElement] = {}
            for k in range(start, end):
                u = keys[k]
                for i in rng:
                    ui = u[i]
                    if ui > 0:
                        v = tuple(x - ui * a for x, a in zip(u, alphas[i]))
                        if v not in level:
                            level[v] = _times_simple(elements[k], i, cartan)
            length = lengths[-1] + 1
            for v, elem in sorted(level.items(),
                                  key=lambda kv: kv[1].root_action):
                key_index[v] = len(elements)
                keys.append(v)
                elements.append(elem)
                lengths.append(length)
            start = end
        if len(elements) != rs.group_order:
            raise InvariantError(
                f"found {len(elements)} elements of {rs.type_letter}"
                f"{rs.rank}, expected {rs.group_order}")
        size = len(elements)
        rmul = [[key_index[tuple(x - u[i] * a for x, a in zip(u, alphas[i]))]
                 for u in keys] for i in rng]
        # the key of w^-1 is w rho: the row sums of w's weight matrix
        inv = [key_index[tuple(sum(row) for row in e.weight_action)]
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
        if self._bruhat is not None:
            return
        order = self.rs.group_order
        if order * order // 8 > MAX_BRUHAT_BYTES:
            raise BudgetError(
                f"Bruhat masks of {self.rs.type_letter}{self.rs.rank} would "
                f"take {order * order // 8} bytes; the limit is "
                f"{MAX_BRUHAT_BYTES}")
        self.ensure_tables()
        size = len(self._elements)
        lengths = self._len
        # per generator: the y with y < s*y, each bundled with bit(y)|bit(s*y)
        gen_pairs = []
        for i in range(self.rs.rank):
            lm = self._lmul[i]
            pairs = [(y, (1 << y) | (1 << lm[y])) for y in range(size)
                     if lengths[y] < lengths[lm[y]]]
            gen_pairs.append(pairs)
        masks = [0] * size
        masks[0] = 1
        for w in range(1, size):
            lw = lengths[w]
            for i in range(self.rs.rank):
                w1 = self._lmul[i][w]
                if lengths[w1] < lw:
                    break
            m1 = masks[w1]
            acc = 0
            for y, bits in gen_pairs[i]:
                if (m1 >> y) & 1:
                    acc |= bits
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

    def deleted_word_elements_idx(self, letters) -> list[int]:
        """Index of the product of `letters` with position i removed, for
        every i.  The input need not be reduced."""
        m = len(letters)
        pre = [0] * (m + 1)
        rmul, lmul = self._rmul, self._lmul
        for k, letter in enumerate(letters):
            pre[k + 1] = rmul[letter - 1][pre[k]]
        suf = [0] * (m + 1)
        for k in range(m - 1, -1, -1):
            suf[k] = lmul[letters[k] - 1][suf[k + 1]]
        return [self.idx_mul(pre[i], suf[i + 1]) for i in range(m)]

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
