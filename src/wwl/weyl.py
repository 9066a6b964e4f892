"""Weyl group arithmetic: elements, words, length, Bruhat order,
intervals and reduced-word enumeration.

An element is its index in the tables a WeylGroup builds on first use
(by length, index 0 the identity).  A WeylElement is a light handle on
one: a group and an index, compared and hashed on (type, rank, index).
Every element query (length, canonical word, Bruhat order, inverse,
products, words) reads the tables: generator multiplication tables,
inverses, canonical words, the root images w alpha_j as indices into the
group's roots, and the Bruhat order as one bitmask per element.  The
tables are built once and read-only afterwards, so forked workers share
them all; nothing is memoised per word.  w acts on a root through its
root images, and on a weight through those of w^-1: coordinate j of
w lam is <lam, (w^-1 alpha_j)_vee>.

The elements are found on the W-orbit of rho.  Each element w is keyed
by u = w^-1 rho in fundamental-weight coordinates, which is a bijection
because rho is regular.  Right multiplication by s_i sends the key to
u - u[i] alpha_i, and it is an ascent exactly when u[i] > 0 (w s_i > w iff
<w^-1 rho, alpha_i_vee> > 0), so a breadth-first search over keys finds
each length level from the previous one with O(r) work per edge.  Each
element's root columns w alpha_j are computed once, from its parent's,
by `_column_step`: w s_i changes only column i and the Dynkin neighbours
of i, so the step is O(r) too, and the columns it leaves alone are
shared with the parent.  The columns are held only for the level being
expanded.  The ascent edges k -> k s_i of the search give the right
multiplication table: each fills rmul[i][k] and its reverse, once the
level is sorted and the indices of its elements are known, and every
descent is the reverse of an ascent.  The key of w^-1 is w rho, carried
down the search as (w s_i) rho = w rho - w alpha_i; w^-1 lies in the
level of w, which gives the inverse table level by level, and with it
left multiplication, s_i w = (w^-1 s_i)^-1.

The Bruhat mask of w is bit(w) OR the masks of the single deletions of
w's canonical word, so the masks are built in table order with one bigint
OR per deletion.  This is exact: every deletion is w t for a reflection t
and is shorter, so it lies below w; every x < w lies below some coatom of
[x, w]; and by strong exchange every coatom of w is a single deletion of
any reduced word of w.  The deletions ride down the canonical words: if
canon[w] = (a,) + canon[w1], then w1 = s_a w and the other deletions of w
are s_a d for the deletions d of w1, O(l(w)) table reads per element.

The table order is by length, then within a length by the root-action
matrix, whose columns are the root images.  That is the order of a
breadth-first search over matrix products sorted per level, so element
indices, canonical words and interval order do not depend on how the
tables were built.

Groups too large to tabulate fail fast with BudgetError before anything is
allocated: the element tables stop at MAX_TABLE_ORDER (E6), the Bruhat
masks at MAX_BRUHAT_BYTES.  So groups above E6 answer no element query,
and have no elements, not even their generators or reflections; only
their root data is available.
"""

from __future__ import annotations

import gc

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


def _step_neighbours(cartan: Matrix):
    """For each 0-based letter i, the pairs (j, c_ij) and the pairs
    (j, c_ji) over the Dynkin neighbours j of i."""
    rng = range(len(cartan))
    return [([(j, cartan[i][j]) for j in rng if j != i and cartan[i][j]],
             [(j, cartan[j][i]) for j in rng if j != i and cartan[j][i]])
            for i in rng]


def _column_step(cols, i: int, root_nbrs):
    """The root images w s_i alpha_j (0-based i), a tuple of root columns,
    from those of w; root_nbrs is _step_neighbours(cartan)[i][0].  Since
    s_i alpha_j = alpha_j - c_ij alpha_i, column j of w s_i is col_j - c_ij
    col_i: column i negates, the Dynkin neighbours of i move and the rest
    are shared with w.  O(r) for a bounded degree."""
    ci = cols[i]
    out = list(cols)
    out[i] = tuple([-x for x in ci])
    for j, c in root_nbrs:
        out[j] = tuple([x - c * y for x, y in zip(cols[j], ci)])
    return tuple(out)


class WeylElement:
    """A group element, held as its index in its group's tables.  Handles
    compare and hash on (type, rank, index), so handles from two instances
    of one group are equal when their indices are."""

    __slots__ = ("group", "idx")

    def __init__(self, group: "WeylGroup", idx: int):
        self.group = group
        self.idx = idx

    def _key(self):
        rs = self.group.rs
        return rs.type_letter, rs.rank, self.idx

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        group = self.group
        return WeylElement(group, group.idx_mul(self.idx, group.idx_of(other)))

    def apply_root(self, coords: Coords) -> Coords:
        """w beta = sum_j beta_j w alpha_j, from the root-image table."""
        group = self.group
        group.ensure_tables()  # the identity is made before the tables
        roots = group.rs.roots
        cols = [roots[k] for k in group._root_img[self.idx]]
        return tuple(sum(b * col[i] for b, col in zip(coords, cols))
                     for i in range(len(coords)))

    def apply_weight(self, lam: Weight) -> Weight:
        """w lam, whose coordinate j is <lam, (w^-1 alpha_j)_vee>."""
        group = self.group
        group.ensure_tables()
        rs = group.rs
        return tuple(rs.pairing(lam, rs.roots[k])
                     for k in group._root_img[group._inv[self.idx]])

    def __repr__(self):
        rs = self.group.rs
        return f"WeylElement({rs.type_letter}{rs.rank}, {self.idx})"


class WeylGroup:
    """Weyl group of a RootSystem, with lazily built lookup tables."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.identity = WeylElement(self, 0)
        # indexed layer, built on first element query
        self._len: list[int] | None = None
        self._lmul: list[list[int]] | None = None
        self._rmul: list[list[int]] | None = None
        self._canon: list[tuple[int, ...]] | None = None
        self._inv: list[int] | None = None
        self._root_img: list[tuple[int, ...]] | None = None
        self._bruhat: list[int] | None = None
        self._nwords: list[int] | None = None

    # -- element-level API --------------------------------------------------

    def order(self) -> int:
        return self.rs.group_order

    def simple_reflection(self, letter: int) -> WeylElement:
        return self.element_from_word((letter,))

    def element_from_word(self, letters) -> WeylElement:
        return WeylElement(self, self.word_to_idx(letters))

    def reflection(self, alpha: Coords) -> WeylElement:
        """Reflection s_alpha for an arbitrary positive root.  Walking alpha
        down to a simple root alpha_j by simple reflections that lower its
        height gives alpha = u alpha_j, and s_alpha = u s_j u^-1."""
        rs = self.rs
        if not rs.is_positive_root(alpha):
            raise DomainError(f"{alpha} is not a positive root")
        letters = []
        while sum(alpha) > 1:
            # a positive non-simple root pairs positively with some simple
            # coroot, and reflecting there lowers its height
            for i, row in enumerate(rs.cartan):
                k = sum(c * x for c, x in zip(row, alpha))
                if k > 0:
                    break
            alpha = alpha[:i] + (alpha[i] - k,) + alpha[i + 1:]
            letters.append(i + 1)
        word = letters + [alpha.index(1) + 1] + letters[::-1]
        return self.element_from_word(word)

    def length(self, w: WeylElement) -> int:
        idx = self.idx_of(w)
        return self._len[idx]

    def inversion_set(self, w: WeylElement) -> tuple[Coords, ...]:
        """Positive roots sent negative by w^-1 (the set usually written
        Phi_w), in positive-root order: for a reduced word a_1 ... a_l of
        w, the roots s_a_1 ... s_a_(k-1) alpha_a_k."""
        word = self.canonical_word(w)  # builds the tables on first use
        roots, img, rmul = self.rs.roots, self._root_img, self._rmul
        out = []
        prefix = 0  # the identity
        for a in word:
            out.append(roots[img[prefix][a - 1]])
            prefix = rmul[a - 1][prefix]
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
        return WeylElement(self, self._inv[idx])

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
        return [WeylElement(self, k) for k in range(len(self._len))]

    def longest_element(self) -> WeylElement:
        self.ensure_tables()
        return WeylElement(self, len(self._len) - 1)

    # -- indexed layer --------------------------------------------------------

    def ensure_tables(self) -> None:
        if self._len is not None:
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
        nbrs = _step_neighbours(rs.cartan)
        root_index = rs.root_index
        weight_of = {a: rs.root_to_weight_coords(a) for a in rs.roots}
        rho = rs.rho()
        simple = tuple(rs.simple_root(i) for i in range(1, n + 1))
        lengths = [0]
        rmul: list[list[int]] = [[0] for _ in rng]
        inv = [0]
        root_img = [tuple(root_index[a] for a in simple)]
        # (w^-1 rho, root columns w alpha_j, w rho) of each element of the
        # level being expanded, in table order from index start
        frontier = [(rho, simple, rho)]
        start = 0
        while frontier:
            slots: dict[Weight, int] = {}
            found = []
            edges = []  # (k, i, slot) for each ascent k -> k s_i
            for k, (u, cols, wrho) in enumerate(frontier, start):
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
                        # (w s_i) rho = w rho - w alpha_i
                        found.append((v, _column_step(cols, i, nbrs[i][0]),
                                      tuple([x - y for x, y in zip(
                                          wrho, weight_of[cols[i]])])))
                    edges.append((k, i, slot))
            start = len(lengths)
            rows = [tuple(zip(*cols)) for _, cols, _ in found]
            order = sorted(range(len(found)), key=rows.__getitem__)
            where = [0] * len(found)
            for k, slot in enumerate(order, start):
                where[slot] = k
            frontier = [found[slot] for slot in order]
            lengths += [lengths[-1] + 1] * len(found)
            root_img += [tuple([root_index[a] for a in cols])
                         for _, cols, _ in frontier]
            # w^-1 has the length of w, and its key is w rho
            inv += [where[slots[wrho]] for _, _, wrho in frontier]
            for row in rmul:
                row += [0] * len(found)
            for k, i, slot in edges:
                row, j = rmul[i], where[slot]
                row[k] = j
                row[j] = k
        if len(lengths) != rs.group_order:
            raise InvariantError(
                f"found {len(lengths)} elements of {rs.type_letter}"
                f"{rs.rank}, expected {rs.group_order}")
        size = len(lengths)
        lmul = [[inv[rm[inv[k]]] for k in range(size)] for rm in rmul]
        canon: list[tuple[int, ...]] = [()] * size
        for k in range(1, size):  # ascending length: s_i * w already resolved
            lw = lengths[k]
            for i in rng:
                j = lmul[i][k]
                if lengths[j] < lw:
                    canon[k] = (i + 1,) + canon[j]
                    break
        self._len = lengths
        self._rmul = rmul
        self._lmul = lmul
        self._inv = inv
        self._root_img = root_img
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
        if w._key()[:2] != (self.rs.type_letter, self.rs.rank):
            raise DomainError("element does not belong to this group")
        return w.idx

    def elem_of(self, idx: int) -> WeylElement:
        return WeylElement(self, idx)

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
        size = len(self._len)
        counts = [0] * size
        counts[0] = 1
        for w in range(1, size):
            lw = self._len[w]
            counts[w] = sum(counts[self._lmul[i][w]]
                            for i in range(self.rs.rank)
                            if self._len[self._lmul[i][w]] < lw)
        self._nwords = counts
        return counts
