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
  both are read off the two extreme reduced subwords of x (below).
* The per-word conditions compare, all computed independently:
      (i)   lambda_set equals the reversed decreasing-chain label,
      (ii)  the increasing-chain label equals the reversed decreasing one,
      (iii) lambda_set equals the increasing-chain label.
  The pair-level conditions A and B ask for some reduced word of w
  satisfying (i), respectively (ii), and return the lexicographically
  first one.

Labels are held bit-sliced, one bitset over x per word position, and
_failing_flags reads off the x failing each flag.  The labels sit on the
edges of w's left weak interval (below).  One scanner, _chain_table,
scans the two chain labels of an interval's edges, or of one word's
chain, into a table, and one reader, _interval_labels, builds every
label dict: lambda from the Bruhat masks, the chain labels from a table;
a word's labels are read along its chain of edges (_chain_labels).  The
sweeps over many w (verify, also run by the independent statistics, the
fast statistics and mtx) scan w0 once and read every w's edges from
w0's table; lambda alone needs no scan, so the good-word census and the
single-word functions that read only lambda (lambda_set, s_set,
is_good_word, deodhar_check) read it with no table.  No search over the
words of w visits them: on the edges, _flag_dp decides the flags of every
word at once (the verify sweep), _condition_b_set finds the x with flag
(ii) on some word (the fast statistics and mtx's pairs), _first_words
each x's first word with flag (i) or (ii) (conditions A and B, mtx's
witnesses), and _good_word_mask the x with a good word (the good-word
census).  Only a w with a violation walks its words, to list them
(_word_labels_idx).  The single-pair conditions A and B read a table
scanned over w's own interval for their one x, and the single-word
functions that read a chain label (the two chains, condition_per_word,
the closed forms and m_product_roots) one scanned along their own word's
chain (_one_word_labels): for one x or one chain a scan costs less than
w0's table.
#S(x,w) is counted from one chain's lambda: position i of a reduced word
of w deletes to w*s_(gamma_i) (gamma_sequence), and by strong exchange
every w*s_alpha < w is such a deletion, so s_set and _deodhar_masks,
which compares #S(x,w) with l(w) - l(x) for all x at once on a
bit-sliced counter, read the lambda bits of w's canonical word
(_canonical_lambda).  Per-x tuples are read from the bitsets (_label_of)
only where a caller needs them: violation records, closed forms, chain
roots, and the single-x public functions.

Extreme chains from extreme subwords.  The decreasing label is the
complement of the leftmost reduced subword L of x: scan the word left to
right with a residual y = x, and keep position i when s_i y < y (then
y <- s_i y).  The increasing label is the complement of the rightmost
reduced subword: scan right to left and keep i when y s_i < y.  These
are the lexicographically first and last facets of the subword complex
of (word, x) (Knutson-Miller, "Subword complexes in Coxeter groups",
Adv. Math. 2004; the greedy facets of Pilaud-Stump, "EL-labelings and
canonical spanning trees for subword complexes", 2013).  Why the
decreasing chain deletes exactly the complement of L:
  1. L is componentwise least among the reduced subwords of x: at every
     step its residual is Bruhat-below that of any other subword, by the
     lifting property.
  2. So every reduced subword of x contains all positions after j, the
     last position not in L, and no position after j can be deleted while
     the subword stays reduced and >= x.
  3. Write the word as A s_j B and x = u*b with u <= v = prod A.
     Deleting j leaves AB reduced: otherwise the Demazure product v * b,
     which is >= x, would drop a letter of B, against (2).  So the
     greatest position a chain step can delete is j.
  4. Induction on the word with j deleted, whose leftmost subword of x is
     still L, gives the rest.
The increasing label follows by reversing the word and inverting x.

Flag (ii) holds exactly when x has exactly one reduced subword in the
word, that is, when the subword complex of (word, x) has a single facet.
After a prefix of p letters, a reduced subword S of x has kept c_S(p) of
the first p positions and left a residual y_S with l(x) = c_S(p) +
l(y_S).  By step 1, y_L is Bruhat-below y_S, so c_L(p) >= c_S(p) for
every p.  Mirrored, the rightmost subword R keeps at least as many of the
last positions as S, so c_R(p) <= c_S(p).  Flag (ii) says that the two
labels, the complements of L and R, agree: L = R.  Then every S has the
prefix counts of L, and prefix counts determine the positions, so S = L.
Conversely a single reduced subword is both L and R.

A scan whose residual does not end at e means x is not below the word, and
raises InvariantError.  One step of a scan (_scan_step) moves a map
{residual y: bitset of the x having it}, so every x is scanned at once.
A scan step is a 0-Hecke action, so the map after a prefix or suffix
depends only on its product, and _chain_table scans each edge
v -> s_a v of w's left weak interval once, position i of a word
a_1...a_n being the edge at v = a_i...a_n: left going down from w for
the decreasing label, kept under the prefix w v^-1, and right going up
from e for the increasing one, kept under v.  lambda needs no scan: it
is the mask of (w v^-1)(s_a v), the word with position i deleted, which
_interval_labels reads.  Two edges that give one node different maps
raise.  A node's map is dropped once every edge from it has been
scanned, so only about two length levels of maps are held at a time.
Given one word, it scans only that word's chain v_1 = w, ..., v_(n+1) = e,
the same steps on n of the edges.

Every w's chain labels are w0's.  A prefix w v^-1 and a suffix v of a
reduced word of w are a prefix and a suffix of a reduced word of w0 too
(extend the word by one of w^-1 w0), and the scans see them only
through their products.  So the edge (v, a) of w's left weak interval
has the increasing bits of w0's edge (v, a) and the decreasing bits of
w0's edge after the same prefix w v^-1, the edge (v w^-1 w0, a); each
is ANDed with w's set of x, and lambda is read from the Bruhat mask of
the deletion as above.  One _chain_table of w0 over all the x a sweep
reads, built before the sweep forks so that its workers share it, then
replaces every w's scans, and checks the residual invariant once for
every x and every prefix and suffix.  The table keeps the two chain
labels of w0's |W| * r / 2 edges, |W|^2 * r bits over all of W: about
19 MB on A6 and 9 MB on B5.  The build's transient is far larger: on
D6, w0's table over every 16th x alone took 52 s and peaked at 2.4 GB,
the scan maps of two length levels holding bigints as wide as their
highest x index, so verify's MAX_ORDER keeps D6 out.

Flags on the edges.  Each label bit of x at a position depends on the
position's edge alone (above: a scan sees a prefix or suffix only through
its product, and lambda only through the deleted product), so the x
failing a flag on a word are the OR over its edges of the XOR of two
labels.  Every edge lies on some reduced word of w, as the interval is
graded, so a DP down the interval (_flag_dp) decides which x have a word
whose flags disagree, and which have a word with flag (i), with a few
bitwise operations per edge and no word visited; so do _condition_b_set,
_first_words and _good_word_mask.  _condition_b_set reads the two chain
labels of each edge straight from w0's table and keeps one bitset per
node, so the fast statistics build no label dict; the residual
invariant is checked once per group, where _chain_table scans w0.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import DomainError, InvariantError
from .roots import Coords
from .weyl import WeylElement, WeylGroup, _bit_indices


def _reduced_word_idx(group: WeylGroup, word, wi: int | None = None) -> int:
    """Index of the product of word, which must be reduced and, when wi is
    given, a word for the element of index wi."""
    vi = group.word_to_idx(word)
    if group.len_of_idx(vi) != len(word):
        raise DomainError("word is not reduced")
    if wi is not None and vi != wi:
        raise DomainError("word is not a word for w")
    return vi


def _checked_word_idx(group: WeylGroup, x: WeylElement, word,
                      w: WeylElement | None = None) -> tuple[int, int]:
    """(x, word's product) as indices; the word must be reduced, above x,
    and a word for w when w is given."""
    group.ensure_bruhat()
    wi = _reduced_word_idx(group, word, None if w is None else group.idx_of(w))
    xi = group.idx_of(x)
    if not group.leq_idx(xi, wi):
        raise DomainError("x is not below the product of the word")
    return xi, wi


def lambda_set(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Positions whose single deletion leaves an element >= x, ascending."""
    xi, wi = _checked_word_idx(group, x, word)
    labels = _interval_labels(group, wi, 1 << xi, word=word)
    return _label_of([lam for lam, in labels.values()], xi)  # word order


def _checked_pair_idx(group: WeylGroup, x: WeylElement, w: WeylElement) -> tuple[int, int]:
    group.ensure_bruhat()
    xi, wi = group.idx_of(x), group.idx_of(w)
    if not group.leq_idx(xi, wi):
        raise DomainError("x is not below w")
    return xi, wi


def is_good_word(group: WeylGroup, x: WeylElement, word) -> bool:
    """True when deleting the whole lambda_set from the word leaves exactly
    a word for x."""
    xi, wi = _checked_word_idx(group, x, word)
    return bool(_good_word_mask(group, wi, 1 << xi, _interval_labels(
        group, wi, 1 << xi, word=word)))


def s_set(group: WeylGroup, x: WeylElement, w: WeylElement) -> tuple[Coords, ...]:
    """{alpha in Phi+ : x <= w*s_alpha < w}, in positive-root order: the
    gamma roots of lambda_set on w's canonical word, since deleting
    position i of a reduced word of w gives w*s_(gamma_i), and every
    w*s_alpha < w is such a deletion (strong exchange)."""
    _, wi = _checked_pair_idx(group, x, w)
    word = group.canon_of_idx(wi)
    found = set(gamma_sequence(group, word, lambda_set(group, x, word)))
    return tuple(alpha for alpha in group.rs.positive_roots if alpha in found)


def _deodhar_masks(group: WeylGroup, wi: int, xset: int,
                   lams) -> tuple[int, int]:
    """(below, tight): the x of the bitset xset (each x <= w) with #S(x,w)
    less than, and equal to, l(w) - l(x), from lams, the lambda bits over
    xset of w's canonical word (_canonical_lambda).  Deodhar's inequality
    says that below is empty.  #S(x,w) counts the lower reflections
    w*s_alpha above x, and those are the single deletions of the word, one
    per position (s_set), so the lambda bits are added into a bit-sliced
    counter, one bitset per binary digit; the table is ordered by length,
    so each length level of x is a run of indices, compared with its
    l(w) - l(x) digit by digit, from the top."""
    lens = group._len
    planes: list[int] = []  # planes[k]: the x whose count has bit k set
    for carry in lams:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
        if carry:
            planes.append(carry)
    lw = lens[wi]
    below = tight = 0
    for length in range(lw + 1):
        level = xset & ((1 << bisect_left(lens, length + 1))
                        - (1 << bisect_left(lens, length)))
        gap = lw - length
        if gap >> len(planes):  # past every count the planes can hold
            below |= level
            continue
        for k in range(len(planes) - 1, -1, -1):
            if (gap >> k) & 1:
                below |= level & ~planes[k]
                level &= planes[k]
            else:
                level &= ~planes[k]
        tight |= level
    return below, tight


def gamma_sequence(group: WeylGroup, word, lam) -> tuple[Coords, ...]:
    """For each position i in lam (ascending), the root obtained by pushing
    the simple root of letter i through the tail of the word:
    gamma_i = s_n ... s_(i+1) applied to alpha_i."""
    rs = group.rs
    n = len(word)
    lam_set = set(lam)
    if not lam_set <= set(range(1, n + 1)):
        raise DomainError("lambda positions out of range")
    _reduced_word_idx(group, word)
    roots, img = rs.roots, group._root_img
    gammas: dict[int, Coords] = {}
    tail = 0  # the identity
    for i in range(n, 0, -1):
        if i in lam_set:
            gammas[i] = roots[img[tail][word[i - 1] - 1]]
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
    _reduced_word_idx(group, word)
    roots, img = rs.roots, group._root_img
    betas = []
    prefix = 0  # the identity
    for i in range(1, n + 1):
        betas.append(roots[img[prefix][word[i - 1] - 1]])
        if i not in lam_set:
            prefix = group.rmul_idx(word[i - 1], prefix)
    return tuple(betas)


def _scan_step(residuals: dict, row, lens) -> tuple[dict, int]:
    """One letter of a label scan.  residuals maps each residual y to the
    bitset of the x that have it, and row is the letter's left (or right)
    multiplication row.  Where the letter is a left (right) descent of y,
    those x keep the position and y moves down.  Returns the new map and
    the bitset of the x that keep the position."""
    out: dict[int, int] = {}
    kept = 0
    for y, xs in residuals.items():
        t = row[y]
        if lens[t] < lens[y]:
            kept |= xs
            y = t
        out[y] = out.get(y, 0) | xs
    return out, kept


def _check_scanned(residuals: dict) -> None:
    """A scan's residuals all end at e exactly when every x lies below the
    word's product; a stray residual is a broken invariant."""
    if residuals.keys() - {0}:
        raise InvariantError(
            "an x's residual does not end at e: x is not below the word")


def _scan_edge(maps: dict, node: int, residuals: dict, row, lens) -> int:
    """_scan_step into maps[node], which must match a map already there."""
    out, kept = _scan_step(residuals, row, lens)
    if maps.setdefault(node, out) != out:
        raise InvariantError(
            "two reduced words of one product leave different residuals")
    return kept


def _chain_table(group: WeylGroup, wi: int, xset: int,
                 word=None) -> tuple[list, list]:
    """(inc, dec), the chain labels over the x of xset (each below w) of
    each edge v -> s_a v of w's left weak interval, or, given a reduced
    word a_1...a_n of w, only of the edges of its chain
    v_i = a_i...a_n, each scanned once (module docstring): inc[a - 1][v]
    is the increasing label of the edge (v, a) and dec[a - 1][p] the
    decreasing label of the edge after the prefix p = w v^-1.
    _interval_labels reads it."""
    group.ensure_tables()
    lens, lmul, rmul = group._len, group._lmul, group._rmul
    edges = list(_down_edges(group, wi) if word is None else
                 _chain_edges(group, wi, word))
    start = {xi: 1 << xi for xi in _bit_indices(xset)}
    left, right = {wi: start}, {0: start}
    inc = [{} for _ in lmul]
    dec = [{} for _ in lmul]
    last = None
    for v, a, c, p in edges:
        if v != last:  # every edge into v is scanned
            last, residuals = v, left.pop(v)
        dec[a - 1][p] = xset & ~_scan_edge(left, c, residuals, lmul[a - 1],
                                           lens)
    _check_scanned(left[0])
    level = 0
    for v, a, c, _ in reversed(edges):  # up from e, children first
        if lens[v] > level:  # the maps two levels down have been read
            level = lens[v]
            right = {u: m for u, m in right.items() if lens[u] >= level - 1}
        inc[a - 1][v] = xset & ~_scan_edge(right, v, right[c], rmul[a - 1],
                                           lens)
    _check_scanned(right[wi])
    return inc, dec


def _interval_labels(group: WeylGroup, wi: int, xset: int,
                     table=None, word=None) -> dict:
    """{(v, a): [lambda, increasing, decreasing]} for each edge
    v -> s_a v of w's left weak interval, or, given a reduced word of w,
    only for the edges of its chain, each label bit-sliced over the x of
    xset (each below w).  lambda is the Bruhat mask of the deletion
    (w v^-1)(s_a v); the chain labels are read from table, the
    _chain_table of w0, of w or of the word over a superset of xset, the
    increasing one at (v, a) and the decreasing one after the prefix
    w v^-1, and ANDed with xset.  With no table, each edge's list holds
    lambda alone."""
    bruhat = group._bruhat
    labels = {}
    for v, a, c, p in _down_edges(group, wi) if word is None else \
            _chain_edges(group, wi, word):
        lam = xset & bruhat[group.idx_mul(p, c)]
        labels[v, a] = [lam] if table is None else \
            [lam, xset & table[0][a - 1][v], xset & table[1][a - 1][p]]
    return labels


def _down_edges(group: WeylGroup, wi: int):
    """(v, a, s_a v, w v^-1) for each edge v -> s_a v of w's left weak
    interval, parents first: a length level at a time from w, each in
    descending table order.  The prefix w v^-1 of a child is its
    parent's times s_a, whichever parent reaches it."""
    lens, lmul, rmul = group._len, group._lmul, group._rmul
    level = {wi: 0}
    while level:
        below = {}
        for v in sorted(level, reverse=True):
            p = level[v]
            for a, row in enumerate(lmul, 1):
                c = row[v]
                if lens[c] < lens[v]:
                    below[c] = rmul[a - 1][p]
                    yield v, a, c, p
        level = below


def _chain_edges(group: WeylGroup, wi: int, word):
    """(v_i, a_i, v_(i+1), a_1...a_(i-1)) for the edges of a word's
    chain, v_1 = w and v_(i+1) = s_(a_i) v_i."""
    lmul, rmul = group._lmul, group._rmul
    v, p = wi, 0
    for a in word:
        c = lmul[a - 1][v]
        yield v, a, c, p
        v, p = c, rmul[a - 1][p]


def _chain_labels(group: WeylGroup, labels: dict, wi: int, word):
    """(lambda, increasing, decreasing) of a reduced word of w, each
    bit-sliced by position, read off its chain's edges in labels."""
    path = [labels[v, a] for v, a, _, _ in _chain_edges(group, wi, word)]
    return tuple([edge[k] for edge in path] for k in range(3))


def _canonical_lambda(group: WeylGroup, wi: int, labels: dict) -> list:
    """The lambda bits of w's canonical word, by position, read off its
    chain's edges in labels (of the interval or of that chain)."""
    return [labels[v, a][0] for v, a, _, _ in
            _chain_edges(group, wi, group.canon_of_idx(wi))]


def _one_word_labels(group: WeylGroup, wi: int, word, xset: int):
    """_chain_labels of one reduced word of w, scanning only its chain."""
    table = _chain_table(group, wi, xset, word)
    return _chain_labels(group, _interval_labels(group, wi, xset, table, word),
                         wi, word)


def _word_labels_idx(group: WeylGroup, wi: int, labels: dict):
    """_chain_labels of every reduced word of w, with the word, in
    lexicographic order, from labels, the _interval_labels of w's left
    weak interval."""
    for word in group._iter_words_idx(wi):
        yield word, *_chain_labels(group, labels, wi, word)


def _flag_dp(group: WeylGroup, wi: int, xset: int, labels: dict):
    """(violating, held) over the words of w, from the _interval_labels
    of w over xset, with no word visited: the x whose three flags
    disagree on some reduced word, and the x with flag (i) on some
    reduced word.

    On an edge the x failing flag (i), (ii) and (iii) are f0 = lam^dec,
    f1 = inc^dec and f2 = lam^inc, and f0^f1^f2 = 0, so an x fails no
    flag or exactly two.  A word's failing x are the OR of its edges', so
    its flags disagree for x exactly when x fails on some edge and every
    failing edge fails the same pair.  Going down from w, each node
    carries, OR-merged over the paths that reach it, the x with no
    failing edge yet (z), those whose failing edges all fail the pair
    (i)(ii), (i)(iii) or (ii)(iii) (s01, s02, s12), and those with no
    flag-(i) failure yet (h); the answer is read at e."""
    lmul = group._lmul
    states = {wi: (xset, 0, 0, 0, xset)}
    last = None
    for (v, a), (lam, inc, dec) in labels.items():  # parents first
        if v != last:  # every edge into v is merged
            last, (z, s01, s02, s12, h) = v, states.pop(v)
        f0, f1 = lam ^ dec, inc ^ dec
        ok = ~(f0 | f1)
        out = (z & ok,
               (z | s01) & f0 & f1 | s01 & ok,
               (z | s02) & f0 & ~f1 | s02 & ok,
               (z | s12) & f1 & ~f0 | s12 & ok,
               h & ~f0)
        c = lmul[a - 1][v]
        seen = states.get(c)
        states[c] = out if seen is None else \
            tuple(p | q for p, q in zip(seen, out))
    _, s01, s02, s12, h = states[0]
    return s01 | s02 | s12, h


def _condition_b_set(group: WeylGroup, wi: int, table) -> int:
    """The x <= w with flag (ii) on some reduced word of w, from the
    _chain_table of w0 over all of W: the counterpart for flag (ii) of
    _flag_dp's h, its labels read straight from the table.  Going down
    from w, each node carries, OR-merged over its in-edges, the x with no
    failing edge yet; the edge (v, a) after the prefix p fails the x of
    inc ^ dec."""
    inc, dec = table
    held = {wi: group.bruhat_mask(wi)}
    last = None
    for v, a, c, p in _down_edges(group, wi):  # parents first
        if v != last:  # every edge into v is merged
            last, xs = v, held.pop(v)
        held[c] = held.get(c, 0) | xs & ~(inc[a - 1][v] ^ dec[a - 1][p])
    return held[0]


def _label_of(sets, xi: int, descending: bool = False) -> tuple[int, ...]:
    """The positions p (1-based) whose bitset sets[p - 1] holds x, in
    ascending order, or descending for a decreasing label."""
    label = tuple(p for p, s in enumerate(sets, 1) if (s >> xi) & 1)
    return label[::-1] if descending else label


def lex_min_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with increasing label."""
    xi, wi = _checked_word_idx(group, x, word)
    return _label_of(_one_word_labels(group, wi, word, 1 << xi)[1], xi)


def lex_max_chain(group: WeylGroup, x: WeylElement, word) -> tuple[int, ...]:
    """Label of the unique maximal chain with decreasing label."""
    xi, wi = _checked_word_idx(group, x, word)
    return _label_of(_one_word_labels(group, wi, word, 1 << xi)[2], xi,
                     descending=True)


def condition_per_word(group: WeylGroup, x: WeylElement, word) -> tuple[bool, bool, bool]:
    """The flags (i), (ii), (iii) for one reduced word, each evaluated from
    scratch; this function exists to test their equivalence, so no flag is
    derived from another."""
    xi, wi = _checked_word_idx(group, x, word)
    failing = _failing_flags(*_one_word_labels(group, wi, word, 1 << xi))
    return tuple(not f for f in failing)


def _differing(a, b) -> int:
    """The x that some position holds in one of two bit-sliced sets and
    not in the other."""
    out = 0
    for pa, pb in zip(a, b):
        out |= pa ^ pb
    return out


def _failing_flags(lam, inc, dec) -> tuple[int, int, int]:
    """Bitsets of the x failing flag (i), (ii) and (iii), from the
    bit-sliced sets of _chain_labels.  lambda_set and the increasing
    label read ascending and the decreasing label descending, so two of
    them are equal as sequences (one reversed) exactly when their position
    sets are."""
    return _differing(lam, dec), _differing(inc, dec), _differing(lam, inc)


def _first_words(group: WeylGroup, wi: int, xset: int, labels: dict,
                 k: int) -> dict:
    """{xi: the lexicographically first reduced word of w with flag (i)
    (k = 0) or (ii) (k = 1) for xi}, over the x of xset that have one,
    from the _interval_labels of w over xset.  A word has flag k for x when
    none of its edges has x in lam^dec (k = 0) or inc^dec (k = 1).  Going
    up from e, reach[v] holds the x that can get from v to e on passing
    edges; from w down, the x at a node take the smallest letter whose
    edge they pass and whose child they reach e from, together while
    their words agree."""
    lmul = group._lmul
    reach = {0: xset}
    for (v, a), lab in reversed(labels.items()):  # children first
        reach[v] = reach.get(v, 0) | reach[lmul[a - 1][v]] & ~(lab[k] ^ lab[2])
    found = {}
    todo = [((), wi, reach[wi])]
    while todo:
        word, v, xs = todo.pop()
        if v == 0:
            found.update((xi, word) for xi in _bit_indices(xs))
        for a, row in enumerate(lmul, 1):  # e has no edge
            lab = labels.get((v, a))
            if lab is not None:
                took = xs & reach[row[v]] & ~(lab[k] ^ lab[2])
                xs &= ~took
                if took:
                    todo.append((word + (a,), row[v], took))
    return found


def _good_word_mask(group: WeylGroup, wi: int, xset: int, labels: dict) -> int:
    """The x of xset with a good word (is_good_word) among the reduced
    words of w, or the one word whose chain labels holds
    (_interval_labels over xset).  Along a word, x carries r = k^-1 x,
    k the product of the letters kept so far: on an edge whose lambda bit
    holds x the letter is deleted and r stays, else r moves to s_a r,
    which must be shorter.
    x has a good word when r = e at e.  Each node carries {r: bitset of
    x}, OR-merged over its in-edges; the x after a move that does not
    shorten r go on in a second map, where r = e at e would be a good word
    whose kept letters are not reduced, which Deodhar's inequality rules
    out."""
    lens, lmul, bruhat = group._len, group._lmul, group._bruhat
    maps = {wi: ({xi: 1 << xi for xi in _bit_indices(xset)}, {})}
    last = None
    for (v, a), (lam, *_) in labels.items():  # parents first
        if v != last:  # every edge into v is merged
            last, (clean, stray) = v, maps.pop(v)
        row = lmul[a - 1]
        c = row[v]
        below = bruhat[c]  # a subword of a word of c multiplies to r <= c
        into = maps.setdefault(c, ({}, {}))
        for j, residuals in enumerate((clean, stray)):
            for r, xs in residuals.items():
                kept = xs & ~lam
                if kept:
                    t = row[r]
                    if below >> t & 1:
                        dest = into[j or lens[t] > lens[r]]
                        dest[t] = dest.get(t, 0) | kept
                xs &= lam
                if xs and below >> r & 1:
                    into[j][r] = into[j].get(r, 0) | xs
    clean, stray = maps[0]
    if stray.get(0):
        raise InvariantError("good word whose residual is not reduced")
    return clean.get(0, 0)


def _condition_witness(group: WeylGroup, x: WeylElement, w: WeylElement,
                       k: int):
    xi, wi = _checked_pair_idx(group, x, w)
    labels = _interval_labels(group, wi, 1 << xi,
                              _chain_table(group, wi, 1 << xi))
    word = _first_words(group, wi, 1 << xi, labels, k).get(xi)
    return word is not None, word


def condition_A(group: WeylGroup, x: WeylElement, w: WeylElement):
    """Does some reduced word of w satisfy flag (i)?  Returns the first
    witness in lexicographic order."""
    return _condition_witness(group, x, w, 0)


def condition_B(group: WeylGroup, x: WeylElement, w: WeylElement):
    """Does some reduced word of w satisfy flag (ii)?"""
    return _condition_witness(group, x, w, 1)


def deodhar_check(group: WeylGroup, x: WeylElement, w: WeylElement) -> bool:
    """#S(x,w) >= l(w) - l(x); expected to hold always, a False is a bug."""
    xi, wi = _checked_pair_idx(group, x, w)
    labels = _interval_labels(group, wi, 1 << xi,
                              word=group.canon_of_idx(wi))
    return not _deodhar_masks(group, wi, 1 << xi,
                              _canonical_lambda(group, wi, labels))[0]

