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
of every x below one word at once, first_witnesses is the lexicographic
witness search over the reduced words of w, and deodhar_slack_idx counts
#S(x,w).

Greedy chains.  _greedy_chain_idx is the one greedy search: it finds the
label of every x in a bitset by one walk over the trie of greedy steps.
Each subword met along a chain is itself a reduced word of an element
below w (the subword-complex picture of Knutson-Miller, "Subword
complexes in Coxeter groups", Adv. Math. 2004), so its cover list depends
only on the group and its letters.  Cover lists live in the group's cover
table (WeylGroup._cover_list), keyed by letters and filled on demand:
every reduced word of every w and every x read the same table, which
holds at most one entry per reduced word of the group.

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
    return bool(_good_word_idx(group, word, [xi]))


def _good_word_idx(group: WeylGroup, word, xs) -> list[int]:
    """The x in xs for which word is good (is_good_word), from the word's
    shared single deletions; no chain is walked."""
    dels = group.deleted_word_elements_idx(word)
    lw = group.len_of_idx(group.word_to_idx(word))
    out = []
    for xi in xs:
        lam = lambda_positions_idx(group, xi, dels)
        lam_set = set(lam)
        residual = [a for i, a in enumerate(word, start=1)
                    if i not in lam_set]
        if group.word_to_idx(residual) != xi:
            continue
        if len(residual) != group.len_of_idx(xi) or \
                len(lam) != lw - group.len_of_idx(xi):
            raise InvariantError(
                "good word whose residual or deletion set has the wrong "
                "length")
        out.append(xi)
    return out


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


def _greedy_chain_idx(group: WeylGroup, word, xset: int,
                      pick_max: bool) -> dict[int, tuple[int, ...]]:
    """{xi: label} for every x in the bitset xset (each x below the word's
    product): the label of the lexicographically extreme maximal chain
    down to x, which repeatedly deletes the least (resp. greatest) original
    position whose deletion is a cover staying >= x.

    One walk serves every x.  A node of the walk is a subword with its
    original positions, its element and the x routed through it.  The x
    are handed to the node's covers in position order, forward for the
    least position and backward for the greatest, each cover taking those
    still unplaced below its element, so a step costs one Bruhat mask AND
    per candidate; an x is recorded at the node whose element it is.  The
    nodes form a trie of greedy steps, and x sharing a label prefix share
    its nodes.

    Cover lists come from the group's cover table, keyed by the subword's
    letters and built on a miss by WeylGroup._cover_list.  Every subword
    along a chain is a reduced word of an element below the product, so
    the table depends on nothing but the group and serves every word and
    every x.  Letters and positions are held as bytes, the most compact
    key: a tabulated group has at most 8 letters and reduced words of at
    most 36."""
    group.ensure_bruhat()
    masks = group._bruhat
    covers = group._covers
    word = bytes(word)
    labels: dict[int, tuple[int, ...]] = {}
    stack = [(word, bytes(range(1, len(word) + 1)), group.word_to_idx(word),
              xset, ())]
    while stack:
        letters, pos, cur, xs, label = stack.pop()
        if (xs >> cur) & 1:
            labels[cur] = label
            xs ^= 1 << cur
            if not xs:
                continue
        flat = covers.get(letters)
        if flat is None:
            flat = group._cover_list(letters)
        n = len(flat)
        for k in range(n - 2, -1, -2) if pick_max else range(0, n, 2):
            di = flat[k + 1]
            sub = xs & masks[di]
            if sub:
                j = flat[k]
                stack.append((letters[:j] + letters[j + 1:],
                              pos[:j] + pos[j + 1:], di, sub,
                              label + (pos[j],)))
                xs ^= sub
                if not xs:
                    break
        else:
            raise InvariantError(
                "no cover stays above x: chain invariant violated")
    return labels


def _bitset(xs) -> int:
    out = 0
    for xi in xs:
        out |= 1 << xi
    return out


def lex_min_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with increasing label."""
    xi, _ = _checked_word_idx(group, x, word)
    label = _greedy_chain_idx(group, word, 1 << xi, pick_max=False)[xi]
    if any(a >= b for a, b in zip(label, label[1:])):
        raise InvariantError(f"increasing chain label {label} not increasing")
    return label


def lex_max_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with decreasing label."""
    xi, _ = _checked_word_idx(group, x, word)
    label = _greedy_chain_idx(group, word, 1 << xi, pick_max=True)[xi]
    if any(a <= b for a, b in zip(label, label[1:])):
        raise InvariantError(f"decreasing chain label {label} not decreasing")
    return label


def condition_per_word(group: WeylGroup, x: WeylElement, word) -> tuple[bool, bool, bool]:
    """The flags (i), (ii), (iii) for one reduced word, each evaluated from
    scratch; this function exists to test their equivalence, so no flag is
    derived from another."""
    xi, _ = _checked_word_idx(group, x, word)
    return _labels_idx(group, word, [xi])[0][3]


def _labels_idx(group: WeylGroup, word, xs) -> list:
    """(lambda_set, increasing label, decreasing label, flags (i)-(iii))
    for every x in xs (each below the word's product), in the order of xs.
    lambda_set comes from the word's single deletions and each label from
    its own greedy walk over all of xs; the three are computed
    independently."""
    dels = group.deleted_word_elements_idx(word)
    xset = _bitset(xs)
    incs = _greedy_chain_idx(group, word, xset, pick_max=False)
    decs = _greedy_chain_idx(group, word, xset, pick_max=True)
    out = []
    for xi in xs:
        lam = lambda_positions_idx(group, xi, dels)
        inc, dec = incs[xi], decs[xi]
        rev = dec[::-1]
        out.append((lam, inc, dec, (lam == rev, inc == rev, lam == inc)))
    return out


def _flag_i_idx(group: WeylGroup, word, xs) -> list[int]:
    """The x in xs for which flag (i) holds on word."""
    return [xi for xi, labels in zip(xs, _labels_idx(group, word, xs))
            if labels[3][0]]


def _flag_ii_idx(group: WeylGroup, word, xs) -> list[int]:
    """The x in xs for which flag (ii) holds on word: the increasing label
    equals the reversed decreasing one."""
    xset = _bitset(xs)
    incs = _greedy_chain_idx(group, word, xset, pick_max=False)
    decs = _greedy_chain_idx(group, word, xset, pick_max=True)
    return [xi for xi in xs if incs[xi] == decs[xi][::-1]]


def first_witnesses(group: WeylGroup, wi: int, xs, holds) -> dict:
    """{xi: first reduced word of w, in lexicographic order, on which a
    flag holds for xi} for the xi in xs that have one.
    holds(group, word, left) returns the x of `left` whose flag holds on
    word, computing their labels in bulk (_flag_i_idx, _flag_ii_idx,
    _good_word_idx) on the group's shared cover lists; each x drops out at
    its first witness and the walk stops when none is left."""
    found: dict[int, tuple[int, ...]] = {}
    left = list(xs)
    for word in group._iter_words_idx(wi) if left else ():
        for xi in holds(group, word, left):
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
    return _condition_witness(group, x, w, _flag_i_idx)


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
