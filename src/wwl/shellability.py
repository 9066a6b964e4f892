"""Subword combinatorics of Bruhat intervals relative to a fixed reduced
word: deletion-position sets, good words, the root sets S(x,w), gamma- and
beta-sequences, and the two lexicographically extreme maximal chains.

Conventions.  Positions inside a word are 1-based.  For a reduced word
w = s_1...s_n and x <= w:

* lambda_set(x, word) collects the positions i whose single deletion leaves
  a product still >= x (the deleted word need not be reduced).
* A maximal chain of [x, w] deletes one position per step, every
  intermediate subword staying reduced; its label is the sequence of
  original positions deleted.  There is a unique chain with strictly
  increasing label (also the lexicographically least one) and a unique
  chain with strictly decreasing label (the lexicographically greatest);
  both are found greedily, and monotonicity of the result is checked.
* The per-word conditions compare, all computed independently:
      (i)   lambda_set equals the reversed decreasing-chain label,
      (ii)  the increasing-chain label equals the reversed decreasing one,
      (iii) lambda_set equals the increasing-chain label.
  The pair-level conditions A and B ask for some reduced word of w
  satisfying (i), respectively (ii); searches run in lexicographic word
  order and stop at the first witness.

Every sweep shares three kernels: _labels_idx computes the labels and flags
of one (x, word) pair, first_witnesses is the lexicographic witness search
over the reduced words of w, and deodhar_slack_idx counts #S(x,w).

Word-free condition search.  condition_b_mask answers condition B for one x
against every w at once, as reachability over the prefixes of all reduced
words, in O(|W| * rank); the statistics fast path and the mtx witness
pre-pass read it.
"""

from __future__ import annotations

from .errors import DomainError, InvariantError
from .roots import Coords
from .weyl import WeylElement, WeylGroup


def _checked_word_idx(group: WeylGroup, x: WeylElement, word) -> tuple[int, int]:
    group.ensure_bruhat()
    wi = group.word_to_idx(word)
    xi = group.idx_of(x)
    if not group.leq_idx(xi, wi):
        raise DomainError("x is not below the product of the word")
    return xi, wi


def lambda_set(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Positions whose single deletion leaves an element >= x, ascending."""
    xi, _ = _checked_word_idx(group, x, word)
    return lambda_positions_idx(group, xi, group.deleted_word_elements_idx(word))


def _checked_pair_idx(group: WeylGroup, x: WeylElement, w: WeylElement) -> tuple[int, int]:
    group.ensure_bruhat()
    xi, wi = group.idx_of(x), group.idx_of(w)
    if not group.leq_idx(xi, wi):
        raise DomainError("x is not below w")
    return xi, wi


def is_good_word(group: WeylGroup, x: WeylElement, word) -> bool:
    """True when deleting the whole lambda_set from the word leaves exactly
    a word for x."""
    xi, _ = _checked_word_idx(group, x, word)
    return _good_word_idx(group, xi, _WordCovers(group, word))


def _good_word_idx(group: WeylGroup, xi: int, covers: _WordCovers) -> bool:
    """is_good_word against the word's shared single deletions."""
    word = covers.word
    lam = lambda_positions_idx(group, xi, covers.dels)
    lam_set = set(lam)
    residual = [a for i, a in enumerate(word, start=1) if i not in lam_set]
    good = group.word_to_idx(residual) == xi
    if good and (len(residual) != group.len_of_idx(xi) or
                 len(lam) != group.len_of_idx(covers.wi)
                 - group.len_of_idx(xi)):
        raise InvariantError(
            "good word whose residual or deletion set has the wrong length")
    return good


def lower_reflections_idx(group: WeylGroup, wi: int) -> list[tuple[Coords, int]]:
    """(alpha, index of w*s_alpha) for every positive root alpha with
    w*s_alpha < w, in positive-root order."""
    lw = group.len_of_idx(wi)
    out = []
    for alpha in group.rs.positive_roots:
        ri = group.idx_mul(wi, group.idx_of(group.reflection(alpha)))
        if group.len_of_idx(ri) < lw:
            out.append((alpha, ri))
    return out


def s_set(group: WeylGroup, x: WeylElement, w: WeylElement) -> tuple[Coords, ...]:
    """{alpha in Phi+ : x <= w*s_alpha < w}, in positive-root order."""
    xi, wi = _checked_pair_idx(group, x, w)
    return tuple(alpha for alpha, ri in lower_reflections_idx(group, wi)
                 if group.leq_idx(xi, ri))


def deodhar_slack_idx(group: WeylGroup, wi: int, xs) -> list[int]:
    """#S(x,w) - (l(w) - l(x)) for every x index in xs (each x <= w), in the
    order of xs.  Deodhar's inequality says it is never negative."""
    lower = [ri for _, ri in lower_reflections_idx(group, wi)]
    lw = group.len_of_idx(wi)
    return [sum(1 for ri in lower if group.leq_idx(xi, ri))
            - lw + group.len_of_idx(xi) for xi in xs]


def gamma_sequence(group: WeylGroup, word, lam) -> tuple[Coords, ...]:
    """For each position i in lam (ascending), the root obtained by pushing
    the simple root of letter i through the tail of the word:
    gamma_i = s_n ... s_(i+1) applied to alpha_i."""
    rs = group.rs
    n = len(word)
    lam_set = set(lam)
    if not lam_set <= set(range(1, n + 1)):
        raise DomainError("lambda positions out of range")
    group.word_to_idx(word)  # checks the letters, builds the tables
    gammas: dict[int, Coords] = {}
    tail = 0  # the identity
    for i in range(n, 0, -1):
        if i in lam_set:
            gammas[i] = group.elem_of(tail).apply_root(rs.simple_root(word[i - 1]))
        tail = group.rmul_idx(word[i - 1], tail)
    return tuple(gammas[i] for i in sorted(gammas))


def beta_sequence(group: WeylGroup, word, lam) -> tuple[Coords, ...]:
    """Length-n sequence where beta_i is the prefix s_1...s_(i-1), with every
    position of lam below i omitted, applied to alpha_i."""
    rs = group.rs
    n = len(word)
    lam_set = set(lam)
    if not lam_set <= set(range(1, n + 1)):
        raise DomainError("lambda positions out of range")
    group.word_to_idx(word)  # checks the letters, builds the tables
    betas = []
    prefix = 0  # the identity
    for i in range(1, n + 1):
        betas.append(group.elem_of(prefix).apply_root(rs.simple_root(word[i - 1])))
        if i not in lam_set:
            prefix = group.rmul_idx(word[i - 1], prefix)
    return tuple(betas)


class _WordCovers:
    """The data of one reduced word that no x depends on, shared by every x
    below its product.

    `dels` holds the element index left by each single deletion.  A chain
    step from the subword left after deleting the positions in `mask` (bit
    p for original position p) deletes one more position and drops the
    length by exactly one; the cover list of `mask` holds those steps as
    (original position, element index), in position order.  It is built
    on first request with one `deleted_word_elements_idx` call on the
    remaining letters; the root list (mask 0) is `dels` filtered by
    length.  Nothing is computed until a search asks for it."""

    __slots__ = ("group", "word", "wi", "masks", "_dels", "_covers")

    def __init__(self, group: WeylGroup, word):
        group.ensure_bruhat()
        self.group = group
        self.word = tuple(word)
        self.wi = group.word_to_idx(self.word)
        self.masks = group._bruhat
        self._dels = None
        self._covers: dict[int, list[tuple[int, int]]] = {}

    @property
    def dels(self) -> list[int]:
        if self._dels is None:
            self._dels = self.group.deleted_word_elements_idx(self.word)
        return self._dels

    def _build(self, mask: int) -> list[tuple[int, int]]:
        group, word = self.group, self.word
        kept = [p for p in range(1, len(word) + 1) if not (mask >> p) & 1]
        dis = group.deleted_word_elements_idx([word[p - 1] for p in kept]) \
            if mask else self.dels
        target = len(kept) - 1
        covers = [(p, di) for p, di in zip(kept, dis)
                  if group.len_of_idx(di) == target]
        self._covers[mask] = covers
        return covers


def _greedy_chain_idx(group: WeylGroup, xi: int, covers: _WordCovers,
                      pick_max: bool) -> tuple[int, ...]:
    """Label of the lexicographically extreme maximal chain from the word's
    product down to x: repeatedly delete the least (resp. greatest) original
    position whose deletion is a cover staying >= x.

    The covers of each subword come from the word's shared cover lists,
    scanned forward for the least position and backward for the greatest,
    so a step costs one Bruhat bit test per candidate."""
    masks, memo = covers.masks, covers._covers
    deleted = 0
    cur = covers.wi
    label: list[int] = []
    while cur != xi:
        steps = memo.get(deleted)
        if steps is None:
            steps = covers._build(deleted)
        for pos, di in reversed(steps) if pick_max else steps:
            if (masks[di] >> xi) & 1:
                break
        else:
            raise InvariantError(
                "no cover stays above x: chain invariant violated")
        label.append(pos)
        deleted |= 1 << pos
        cur = di
    return tuple(label)


def lex_min_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with increasing label."""
    xi, _ = _checked_word_idx(group, x, word)
    label = _greedy_chain_idx(group, xi, _WordCovers(group, word),
                              pick_max=False)
    if any(a >= b for a, b in zip(label, label[1:])):
        raise InvariantError(f"increasing chain label {label} not increasing")
    return label


def lex_max_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with decreasing label."""
    xi, _ = _checked_word_idx(group, x, word)
    label = _greedy_chain_idx(group, xi, _WordCovers(group, word),
                              pick_max=True)
    if any(a <= b for a, b in zip(label, label[1:])):
        raise InvariantError(f"decreasing chain label {label} not decreasing")
    return label


def condition_per_word(group: WeylGroup, x: WeylElement, word) -> tuple[bool, bool, bool]:
    """The flags (i), (ii), (iii) for one reduced word, each evaluated from
    scratch; this function exists to test their equivalence, so no flag is
    derived from another."""
    xi, _ = _checked_word_idx(group, x, word)
    return _labels_idx(group, xi, _WordCovers(group, word))[3]


def _labels_idx(group: WeylGroup, xi: int, covers: _WordCovers):
    """(lambda_set, increasing label, decreasing label, flags (i)-(iii)) of
    x below the word's product, from the word's shared single deletions and
    cover lists; the labels are computed independently."""
    lam = lambda_positions_idx(group, xi, covers.dels)
    inc = _greedy_chain_idx(group, xi, covers, pick_max=False)
    dec = _greedy_chain_idx(group, xi, covers, pick_max=True)
    rev = tuple(reversed(dec))
    return lam, inc, dec, (lam == rev, inc == rev, lam == inc)


def _flag_ii_idx(group: WeylGroup, xi: int, covers: _WordCovers) -> bool:
    """Flag (ii) alone: the increasing label equals the reversed decreasing
    one."""
    inc = _greedy_chain_idx(group, xi, covers, pick_max=False)
    dec = _greedy_chain_idx(group, xi, covers, pick_max=True)
    return inc == tuple(reversed(dec))


def first_witnesses(group: WeylGroup, wi: int, xs, holds) -> dict:
    """{xi: first reduced word of w, in lexicographic order, on which
    holds(group, xi, covers)} for the xi in xs that have one.  covers, the
    word's _WordCovers, is made once per word and shared by every x; each
    x drops out at its first witness and the walk stops when none is left."""
    found: dict[int, tuple[int, ...]] = {}
    left = list(xs)
    for word in group._iter_words_idx(wi) if left else ():
        covers = _WordCovers(group, word)
        for xi in left:
            if holds(group, xi, covers):
                found[xi] = word
        left = [xi for xi in left if xi not in found]
        if not left:
            break
    return found


def _condition_witness(group: WeylGroup, x: WeylElement, w: WeylElement,
                       holds):
    xi, wi = _checked_pair_idx(group, x, w)
    word = first_witnesses(group, wi, [xi], holds).get(xi)
    return word is not None, word


def condition_A(group: WeylGroup, x: WeylElement, w: WeylElement):
    """Does some reduced word of w satisfy flag (i)?  Returns the first
    witness in lexicographic order."""
    return _condition_witness(group, x, w, lambda group, xi, covers:
                              _labels_idx(group, xi, covers)[3][0])


def condition_B(group: WeylGroup, x: WeylElement, w: WeylElement):
    """Does some reduced word of w satisfy flag (ii)?"""
    return _condition_witness(group, x, w, _flag_ii_idx)


def deodhar_check(group: WeylGroup, x: WeylElement, w: WeylElement) -> bool:
    """#S(x,w) >= l(w) - l(x); expected to hold always, a False is a bug."""
    xi, wi = _checked_pair_idx(group, x, w)
    return deodhar_slack_idx(group, wi, [xi])[0] >= 0


def lambda_positions_idx(group: WeylGroup, xi: int, dels) -> tuple[int, ...]:
    """lambda_set against precomputed single-deletion element indices."""
    group.ensure_bruhat()
    masks = group._bruhat
    return tuple(i for i, d in enumerate(dels, 1) if (masks[d] >> xi) & 1)


# -- word-free condition search --------------------------------------------------

def condition_b_mask(group: WeylGroup, xi: int) -> int:
    """Bitmask over w of the pairs (x, w), x of index xi, for which some
    reduced word of w satisfies flag (ii); no word is enumerated.

    Flag (ii) of a word is decided by a walk from the residual y = x.  At
    letter a: if s_a*y < y, then y <- s_a*y; otherwise, if k*s_a < k for
    the kept product k = x*y^-1, the flag fails; otherwise y is unchanged.
    The flag holds when the walk ends at y = e.  The walk sees a word only
    through its prefixes, so prefixes p are visited in table order from e
    along right ascents p -> p*s_a.  A surviving walk moves by
    y <- min(y, s_a*y), the downward 0-Hecke action, which satisfies the
    braid relations: every reduced word of p that survives leaves the same
    residual, so one residual per prefix is carried (two that differ raise
    InvariantError).  Bit w is set when the residual at p = w is e."""
    group.ensure_tables()
    size = group.order()
    lens, lmul, rmul, inv = group._len, group._lmul, group._rmul, group._inv
    letters = range(group.rs.rank)
    # per residual y: the residual after each letter, -1 where the walk fails
    steps: list[list[int] | None] = [None] * size
    residual = [-1] * size  # -1: no reduced word of the prefix survives
    residual[0] = xi
    mask = 0
    for p, edges in enumerate(group.right_ascents_idx()):
        y = residual[p]
        if y < 0:
            continue
        if y == 0:
            mask |= 1 << p
        step = steps[y]
        if step is None:
            k = group.idx_mul(xi, inv[y])
            ly, lk = lens[y], lens[k]
            step = steps[y] = [
                lmul[a][y] if lens[lmul[a][y]] < ly
                else -1 if lens[rmul[a][k]] < lk else y for a in letters]
        for a, q in edges:
            t = step[a]
            if t >= 0 and residual[q] != t:
                if residual[q] >= 0:
                    raise InvariantError(
                        "two reduced words of one prefix leave different "
                        "residuals")
                residual[q] = t
    return mask
