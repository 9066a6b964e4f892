"""Chain combinatorics checked against exhaustive oracles: all maximal
chains of an interval are enumerated recursively and the greedy extreme
chains must match the unique monotone labels; the deletion set is
recomputed through the independent rank-matrix Bruhat oracle for type A."""

import copy
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwl import (DomainError, WeylGroup, build_root_system, shellability,
                 workbench)
from wwl.coeffs import closed_form_coeff
from wwl.errors import InvariantError
from wwl.hecke import m_product_roots
from wwl.cli import _emit, main
from wwl.shellability import (_chain_labels, _chain_table, _condition_b_set,
                              _deodhar_masks, _failing_flags, _first_words,
                              _flag_dp, _good_word_mask, _interval_labels,
                              _label_of, _one_word_labels, _s_sets,
                              _word_labels_idx, beta_sequence, condition_A,
                              condition_B, condition_per_word,
                              deodhar_check, gamma_sequence,
                              is_good_word, lambda_set, lex_max_chain,
                              lex_min_chain, s_set)
from wwl.weyl import _bit_indices
from wwl.workbench import (SweepConfig, _verify_w, good_words_report,
                           mtx_report, stats_sweep, verify_conjecture)

from test_weyl import (deleted_word_elements, interval, perm_of_word,
                       rank_matrix_leq)
from test_workbench_cli import VERIFY_DIGESTS


def all_chain_labels(group, xi, tagged_word):
    """Labels of every maximal chain from the product of the word down to x:
    at each step delete any position that keeps the subword reduced and the
    element above x."""
    cur_idx = group.word_to_idx([a for _, a in tagged_word])
    if cur_idx == xi:
        return [()]
    labels = []
    target = group.len_of_idx(cur_idx) - 1
    for k in range(len(tagged_word)):
        rest = tagged_word[:k] + tagged_word[k + 1:]
        di = group.word_to_idx([a for _, a in rest])
        if group.len_of_idx(di) == target and group.leq_idx(xi, di):
            for tail in all_chain_labels(group, xi, rest):
                labels.append((tagged_word[k][0],) + tail)
    return labels


def tagged(word):
    return [(i + 1, a) for i, a in enumerate(word)]


def greedy_chain_oracle(group, xi, word, pick_max):
    """The extreme chain label recomputed from scratch at every step: the
    prefix and suffix products of the current subword give each deletion's
    element, with no state shared between steps or between x."""
    cur = [(i + 1, a) for i, a in enumerate(word)]
    cur_idx = group.word_to_idx(word)
    label = []
    while cur_idx != xi:
        m = len(cur)
        pre = [0] * (m + 1)
        for k in range(m):
            pre[k + 1] = group.rmul_idx(cur[k][1], pre[k])
        suf = [0] * (m + 1)
        for k in range(m - 1, -1, -1):
            suf[k] = group.lmul_idx(cur[k][1], suf[k + 1])
        target = group.len_of_idx(cur_idx) - 1
        order = range(m - 1, -1, -1) if pick_max else range(m)
        chosen = -1
        for k in order:
            di = group.idx_mul(pre[k], suf[k + 1])
            if group.len_of_idx(di) == target and group.leq_idx(xi, di):
                chosen = k
                chosen_idx = di
                break
        assert chosen >= 0, "no cover stays above x"
        label.append(cur[chosen][0])
        del cur[chosen]
        cur_idx = chosen_idx
    return tuple(label)


def labels_oracle(group, word, xs):
    """(lambda_set, increasing label, decreasing label, flags (i)-(iii))
    for every x in xs, in the order of xs, as tuples and one x at a time:
    lambda_set from a Bruhat test per single deletion, each label from
    greedy_chain_oracle, each flag by comparing two tuples."""
    dels = deleted_word_elements(group, word)
    out = []
    for xi in xs:
        lam = tuple(i for i, d in enumerate(dels, 1) if group.leq_idx(xi, d))
        inc = greedy_chain_oracle(group, xi, word, False)
        dec = greedy_chain_oracle(group, xi, word, True)
        rev = dec[::-1]
        out.append((lam, inc, dec, (lam == rev, inc == rev, lam == inc)))
    return out


def scan_labels(group, word, xset, pick_max):
    """One extreme chain label of every x in xset, bit-sliced by position,
    from one scan of the word: left to right for the decreasing label
    (pick_max), keeping position i when s_i y < y, else right to left,
    keeping i when y s_i < y; x sharing a residual move together.  The
    label deletes the positions not kept."""
    residuals = {xi: 1 << xi for xi in range(xset.bit_length())
                 if xset >> xi & 1}
    positions = range(len(word))
    out = [0] * len(word)
    for p in (positions if pick_max else reversed(positions)):
        moved, kept = {}, 0
        for y, xs in residuals.items():
            t = (group.lmul_idx if pick_max else group.rmul_idx)(word[p], y)
            if group.len_of_idx(t) < group.len_of_idx(y):
                kept |= xs
                y = t
            moved[y] = moved.get(y, 0) | xs
        residuals = moved
        out[p] = xset & ~kept
    assert set(residuals) <= {0}, "an x is not below the word"
    return out


def scanned_labels(group, wi, xset, word=None):
    """The labels of w's own scan: the _interval_labels of w's left weak
    interval, or of the given word's chain, read from the _chain_table
    scanned over the same edges."""
    return _interval_labels(group, wi, xset,
                            _chain_table(group, wi, xset, word), word)


def w0_table(group):
    """The _chain_table of w0 over all of W, which the sweeps read."""
    w0 = group.order() - 1
    return _chain_table(group, w0, group.bruhat_mask(w0))


def library_labels(group, word, xset):
    """The library's (lambda_set, increasing, decreasing) of one reduced
    word, bit-sliced by position."""
    return _one_word_labels(group, group.word_to_idx(word), word, xset)


def bitset(xs):
    out = 0
    for xi in xs:
        out |= 1 << xi
    return out


def sliced(labels, n):
    """{xi: label} bit-sliced by position: entry p - 1 holds the x whose
    label deletes p."""
    out = [0] * n
    for xi, label in labels.items():
        for p in label:
            out[p - 1] |= 1 << xi
    return out


def assert_greedy_matches_oracle(group, word, xs, subsets=0, rng=None):
    """Both extreme labels from one bulk scan over all of xs, and from
    scans over `subsets` random subsets of xs, against the from-scratch
    oracle per x."""
    for k, pick_max in ((1, False), (2, True)):
        expected = {xi: greedy_chain_oracle(group, xi, word, pick_max)
                    for xi in xs}
        through = library_labels(group, word, bitset(xs))[k]
        assert through == sliced(expected, len(word))
        for xi in xs:
            assert _label_of(through, xi, pick_max) == expected[xi]
        for _ in range(subsets):
            some = rng.sample(xs, rng.randint(1, len(xs)))
            assert library_labels(group, word, bitset(some))[k] \
                == sliced({xi: expected[xi] for xi in some}, len(word))


def assert_flags_match_tuple_oracle(group, word, xs):
    """The bit-sliced label sets and flag bitsets of one word, against
    labels_oracle: every x's three labels and three flags, the x whose
    flags disagree, and the single-flag predicates."""
    lam, inc, dec = library_labels(group, word, bitset(xs))
    fails = _failing_flags(lam, inc, dec)
    disagree = set()
    for xi, (o_lam, o_inc, o_dec, o_flags) in zip(
            xs, labels_oracle(group, word, xs)):
        assert _label_of(lam, xi) == o_lam
        assert _label_of(inc, xi) == o_inc
        assert _label_of(dec, xi, descending=True) == o_dec
        assert tuple(not (f >> xi) & 1 for f in fails) == o_flags
        if len(set(o_flags)) > 1:
            disagree.add(xi)
    mixed = (fails[0] | fails[1] | fails[2]) & \
        ~(fails[0] & fails[1] & fails[2])
    assert mixed == bitset(disagree)


# -- lambda sets ---------------------------------------------------------------

def test_lambda_set_of_w_itself(group_for):
    G = group_for("A", 2)
    w = G.element_from_word((1, 2))
    assert lambda_set(G, w, (1, 2)) == ()


def test_lambda_set_rank_one(group_for):
    G = group_for("A", 1)
    assert lambda_set(G, G.identity, (1,)) == (1,)


def test_lambda_set_spec_example(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    assert lambda_set(G, x, (1, 2, 1, 3, 2, 1)) == (1, 3, 5, 6)


def test_lambda_set_matches_permutation_oracle(group_for):
    """Recompute every deletion test for the longest word of A3 through
    one-line permutations and the rank-matrix criterion."""
    G = group_for("A", 3)
    word = (1, 2, 1, 3, 2, 1)
    for x in G.enumerate_group():
        px = perm_of_word(G.canonical_word(x), 4)
        expected = tuple(
            i + 1 for i in range(len(word))
            if rank_matrix_leq(px, perm_of_word(word[:i] + word[i + 1:], 4)))
        assert lambda_set(G, x, word) == expected


def test_lambda_set_requires_x_below(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        lambda_set(G, G.element_from_word((2,)), (1,))


@pytest.mark.parametrize("word", [(1, 1), (1, 2, 1, 2), (1, 2, 1, 2, 1)])
@pytest.mark.parametrize("query", [
    lambda G, x, word: lambda_set(G, x, word),
    lambda G, x, word: lex_min_chain(G, x, word),
    lambda G, x, word: lex_max_chain(G, x, word),
    lambda G, x, word: condition_per_word(G, x, word),
    lambda G, x, word: is_good_word(G, x, word),
    lambda G, x, word: closed_form_coeff(G, x, word),
    lambda G, x, word: m_product_roots(G, x, G.element_from_word(word), word),
    lambda G, x, word: gamma_sequence(G, word, ()),
    lambda G, x, word: beta_sequence(G, word, ()),
], ids=["lambda_set", "lex_min_chain", "lex_max_chain", "condition_per_word",
        "is_good_word", "closed_form_coeff", "m_product_roots",
        "gamma_sequence", "beta_sequence"])
def test_non_reduced_word_rejected(query, word):
    """Every per-word query refuses a word whose length is not the length
    of its product with DomainError."""
    G = fresh_group("A", 2)
    with pytest.raises(DomainError, match="not reduced"):
        query(G, G.identity, word)


def test_lambda_size_matches_s_set(group_for):
    """The deletion set bijects onto S(x,w) for every reduced word."""
    for t, r in [("A", 3), ("B", 2)]:
        G = group_for(t, r)
        for w in G.enumerate_group():
            for word in G.all_reduced_words(w):
                for x in interval(G, G.identity, w):
                    assert len(lambda_set(G, x, word)) == \
                        len(s_set(G, x, w))


# -- good words -----------------------------------------------------------------

def test_good_word_trivial_and_example(group_for):
    G = group_for("A", 3)
    w = G.element_from_word((1, 2, 1, 3, 2, 1))
    assert is_good_word(G, w, (1, 2, 1, 3, 2, 1))
    x = G.element_from_word((2, 3))
    assert is_good_word(G, x, (1, 2, 1, 3, 2, 1))


def test_b2_has_pair_without_good_word(group_for):
    """In the non-simply-laced B2 there is a pair with minimal S-set size
    and no good word among all reduced words; simply-laced A2 has none."""
    G = group_for("B", 2)
    found = []
    for w in G.enumerate_group():
        for x in interval(G, G.identity, w):
            if len(s_set(G, x, w)) != G.length(w) - G.length(x):
                continue
            if not any(is_good_word(G, x, word)
                       for word in G.all_reduced_words(w)):
                found.append((G.canonical_word(x), G.canonical_word(w)))
    assert found
    assert ((1,), (1, 2, 1)) in found

    G2 = group_for("A", 2)
    for w in G2.enumerate_group():
        for x in interval(G2, G2.identity, w):
            if len(s_set(G2, x, w)) != G2.length(w) - G2.length(x):
                continue
            assert any(is_good_word(G2, x, word)
                       for word in G2.all_reduced_words(w))


def first_witnesses(group, wi, xs, holds, labels=None):
    """{xi: (word, lam, inc, dec)} for the xi in xs that have a witness: the
    first reduced word of w, in lexicographic order, on which holds finds
    xi, with that word's labels, from the walk over the words of w
    (_word_labels_idx, over the given edge labels, else w's own scan).
    holds(group, word, left, lam, inc, dec) returns the x of the bitset
    left that the word witnesses (flag_holds, good_word_residuals); each x
    drops out at its first witness and the walk stops when none is
    left."""
    found = {}
    left = bitset(xs)
    if left and labels is None:
        labels = scanned_labels(group, wi, left)
    for walked in _word_labels_idx(group, wi, labels) if left else ():
        held = holds(group, walked[0], left, *walked[1:])
        left &= ~held
        for xi in _bit_indices(held):
            found[xi] = walked
        if not left:
            break
    return found


def flag_holds(k):
    """The first_witnesses test of flag (i) (k = 0) or (ii) (k = 1)."""
    return lambda _, word, left, *labels: left & ~_failing_flags(*labels)[k]


def good_word_residuals(group, word, left, lam, *_chains):
    """The first_witnesses test of a good word: the x of left for which
    word, less the positions of its bit-sliced lambda_set lam, is a word
    for x, rebuilt and multiplied out per x; a residual with the product
    x but not its length raises."""
    out = 0
    for xi in _bit_indices(left):
        residual = [a for a, s in zip(word, lam) if not (s >> xi) & 1]
        if group.word_to_idx(residual) != xi:
            continue
        if len(residual) != group.len_of_idx(xi):
            raise InvariantError("good word whose residual is not reduced")
        out |= 1 << xi
    return out


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("C", 3),
                                              ("G", 2), ("A", 4)])
def test_good_words_report_matches_element_oracle(group_for, type_letter,
                                                  rank):
    """The census's residual-map DP against a walk over the reduced words
    of w that rebuilds each qualifying x's residual word, the pairs chosen
    by the element-level s_set."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    expected = []
    for w in G.enumerate_group():
        wi = G.idx_of(w)
        xs = [G.idx_of(x) for x in interval(G, G.identity, w)
              if len(s_set(G, x, w)) == G.length(w) - G.length(x)]
        found = first_witnesses(G, wi, xs, good_word_residuals)
        expected += [{"x": list(G.canon_of_idx(xi)),
                      "w": list(G.canon_of_idx(wi)),
                      "has_good_word": xi in found} for xi in xs]
    report = good_words_report(G)
    assert report["pairs"] == expected
    assert report["pairs_without_good_word"] == \
        sum(not p["has_good_word"] for p in expected)


@pytest.mark.parametrize("type_letter,rank,qualifying,without",
                         [("A", 3, 207, 0), ("A", 4, 3387, 0),
                          ("D", 4, 7983, 0), ("B", 3, 749, 149),
                          ("C", 3, 749, 149), ("G", 2, 73, 18)])
def test_good_word_census(group_for, type_letter, rank, qualifying, without):
    """Every qualifying pair (#S(x,w) = l(w) - l(x)) of the simply-laced
    A3, A4 and D4 has a good word; B3, C3 and G2 have pairs without
    one."""
    report = good_words_report(group_for(type_letter, rank))
    assert (report["qualifying_pairs"], report["pairs_without_good_word"]) \
        == (qualifying, without)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_is_good_word_matches_residual_rebuild(group_for, type_letter, rank):
    """Every (w, reduced word, x <= w): is_good_word's DP on the word's
    own chain against the rebuilt residual word, with lambda_set from the
    word's single deletions."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        for word in G._iter_words_idx(wi):
            lam = word_scan_labels(G, word, xset)[0]
            assert _good_word_mask(G, wi, xset,
                                   scanned_labels(G, wi, xset, word)) == \
                good_word_residuals(G, word, xset, lam)


def test_non_reduced_residual_raises(monkeypatch, capsys):
    """The lambda bits of x = e cleared on the edges (w0, letter 2) and
    (s2, letter 2) of the longest element of A2, which lie on its word
    2,1,2 alone: that word keeps positions 1 and 3, whose product s2 s2 is
    e but not reduced.  The canonical word 1,2,1, whose lambda bits the
    census counts #S(e, w0) from, keeps its bits, so (e, w0) still
    qualifies.  The bits are cleared where both read their lambda labels,
    in the interval reader, which is_good_word gives its word.  The
    census, is_good_word and the command raise."""
    def flip(labeller):
        def flipped(group, *args, **kwargs):
            labels = labeller(group, *args, **kwargs)
            for edge in ((group.order() - 1, 2),
                         (group.word_to_idx((2,)), 2)):
                if edge in labels:
                    labels[edge][0] &= ~1  # x = e has index 0
            return labels
        return flipped

    for module in (shellability, workbench):
        monkeypatch.setattr(module, "_interval_labels",
                            flip(module._interval_labels))
    G = fresh_group("A", 2)
    with pytest.raises(InvariantError, match="residual is not reduced"):
        good_words_report(G)
    with pytest.raises(InvariantError, match="residual is not reduced"):
        is_good_word(G, G.identity, (2, 1, 2))
    assert is_good_word(G, G.identity, (1, 2, 1))
    assert main(["good-words", "--type", "A", "--rank", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residual is not reduced" in captured.err


# -- S sets and gamma roots --------------------------------------------------------

def test_s_set_examples(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    assert s_set(G, s1, s1) == ()
    assert s_set(G, G.identity, s1) == ((1,),)
    G3 = group_for("A", 3)
    x = G3.element_from_word((2, 3))
    w = G3.longest_element()
    assert len(s_set(G3, x, w)) == 4


def lower_reflections_idx(group, wi):
    """(alpha, index of w*s_alpha) for every positive root alpha with
    w*s_alpha < w, in positive-root order, with w*s_alpha formed as a
    matrix product rather than as a single deletion of a word of w."""
    w = group.elem_of(wi)
    out = []
    for alpha in group.rs.positive_roots:
        ri = group.idx_of(w * group.reflection(alpha))
        if group.len_of_idx(ri) < group.len_of_idx(wi):
            out.append((alpha, ri))
    return out


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3)])
def test_s_set_matches_matrix_definition(group_for, type_letter, rank):
    """S(x,w) against its definition, with the lower reflections w*s_alpha
    formed as matrix products (lower_reflections_idx)."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    for wi in range(G.order()):
        lower = lower_reflections_idx(G, wi)
        for xi in G.lower_interval_idx(wi):
            expected = tuple(alpha for alpha, ri in lower
                             if G.leq_idx(xi, ri))
            assert s_set(G, G.elem_of(xi), G.elem_of(wi)) == expected


def test_gamma_bijection(group_for):
    """gamma maps the deletion set onto S(x,w), and deleting position i
    equals multiplying by the reflection of gamma_i."""
    for t, r in [("A", 2), ("B", 2)]:
        G = group_for(t, r)
        for w in G.enumerate_group():
            for word in G.all_reduced_words(w):
                full = list(range(1, len(word) + 1))
                gammas = gamma_sequence(G, word, full)
                dels = deleted_word_elements(G, word)
                for pos, gamma in zip(full, gammas):
                    assert G.rs.is_positive_root(gamma)
                    assert G.idx_of(w * G.reflection(gamma)) == dels[pos - 1]
                for x in interval(G, G.identity, w):
                    lam = lambda_set(G, x, word)
                    lam_gammas = {gammas[i - 1] for i in lam}
                    assert lam_gammas == set(s_set(G, x, w))


# -- extreme chains -----------------------------------------------------------------

def test_chain_trivial_cases(group_for):
    G = group_for("A", 1)
    s1 = G.element_from_word((1,))
    assert lex_min_chain(G, s1, (1,)) == ()
    assert lex_min_chain(G, G.identity, (1,)) == (1,)
    assert lex_max_chain(G, G.identity, (1,)) == (1,)


def test_chain_spec_example(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    assert lex_min_chain(G, x, (1, 2, 1, 3, 2, 1)) == (1, 3, 5, 6)
    assert lex_max_chain(G, x, (1, 2, 1, 3, 2, 1)) == (6, 5, 3, 1)


@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("B", 2)])
def test_chains_against_full_enumeration(group_for, type_letter, rank):
    """The greedy chains must be the unique monotone labels and the lex
    extremes over the full chain census; labels are pairwise distinct."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        for word in G.all_reduced_words(w):
            for x in interval(G, G.identity, w):
                xi = G.idx_of(x)
                labels = all_chain_labels(G, xi, tagged(word))
                assert len(set(labels)) == len(labels)
                increasing = [lab for lab in labels
                              if all(a < b for a, b in zip(lab, lab[1:]))]
                decreasing = [lab for lab in labels
                              if all(a > b for a, b in zip(lab, lab[1:]))]
                assert len(increasing) == 1
                assert len(decreasing) == 1
                assert lex_min_chain(G, x, word) == increasing[0] == \
                    min(labels)
                assert lex_max_chain(G, x, word) == decreasing[0] == \
                    max(labels)


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_shared_covers_match_oracle_exhaustive(group_for, type_letter, rank):
    """Every (w, reduced word, x <= w): the labels of one bulk scan over
    every x, and of scans over random subsets of them, equal the per-step
    recomputation."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    rng = random.Random(0)
    for wi in range(G.order()):
        xs = G.lower_interval_idx(wi)
        for word in G._iter_words_idx(wi):
            assert_greedy_matches_oracle(G, word, xs, 2, rng)


def fresh_group(type_letter, rank):
    """A group of its own, unlike the session fixture's shared groups, with
    its tables built."""
    G = WeylGroup(build_root_system(type_letter, rank))
    G.ensure_bruhat()
    G.reduced_word_counts()
    return G


def tables(group):
    """A copy of the group's state, less its root system."""
    return copy.deepcopy({k: v for k, v in vars(group).items()
                          if k != "rs"})


def word_scan_labels(group, word, xset):
    """(lambda_set, increasing label, decreasing label) of one word,
    bit-sliced by position: lambda_set from the Bruhat masks of the word's
    single deletions, each label from its own scan_labels."""
    return ([xset & group.bruhat_mask(d)
             for d in deleted_word_elements(group, word)],
            scan_labels(group, word, xset, False),
            scan_labels(group, word, xset, True))


def word_scans(group, wi, xset):
    """(word, lambda_set, increasing label, decreasing label) of every
    reduced word of w from word_scan_labels, in lexicographic order."""
    return [(word, *word_scan_labels(group, word, xset))
            for word in group._iter_words_idx(wi)]


def element_labels(group, wi, xset):
    """_word_labels_idx on w's own scan as lists, comparable with
    word_scans."""
    return [(word, list(lam), list(inc), list(dec)) for word, lam, inc, dec
            in _word_labels_idx(group, wi, scanned_labels(group, wi, xset))]


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_cover_memo_holds_only_reduced_words_below_w(type_letter, rank):
    """The scans hold no memo: the per-element walk yields exactly the
    reduced words of w, once each and in lexicographic order, and after
    it and the single-word labels of every word over every x for every w
    the group's tables are as they were built."""
    G = fresh_group(type_letter, rank)
    built = tables(G)
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        assert [word for word, *_ in element_labels(G, wi, xset)] == \
            list(G._iter_words_idx(wi))
        for word in G._iter_words_idx(wi):
            _one_word_labels(G, wi, word, xset)
    assert tables(G) == built


def test_second_verify_builds_no_cover_list():
    """A second verify_conjecture on the same group gives the same report,
    and neither sweep changes the group's tables."""
    G = fresh_group("B", 3)
    built = tables(G)
    config = SweepConfig(type_letter="B", rank=3)
    first = verify_conjecture(G, config)
    assert tables(G) == built
    assert verify_conjecture(G, config) == first
    assert tables(G) == built


def test_sweeps_and_s_sets_keep_no_table():
    """An independent statistics sweep, and s_set and deodhar_check on
    every pair of B3, leave the group's tables as they were built: the
    lower reflections are read off w's canonical chain, and no table of
    reflections or deletions is kept."""
    G = fresh_group("B", 3)
    built = tables(G)
    stats_sweep(G, SweepConfig("B", 3, mode="independent"))
    for wi in range(G.order()):
        for xi in G.lower_interval_idx(wi):
            x, w = G.elem_of(xi), G.elem_of(wi)
            s_set(G, x, w)
            assert deodhar_check(G, x, w)
    assert tables(G) == built


def test_verify_walks_no_word_without_a_violation(monkeypatch, capsys):
    """B3 has no violation, so neither verify nor the independent
    statistics ask WeylGroup._iter_words_idx for a word: every w is
    decided on its edges.  Verify still prints the pinned report."""
    G = fresh_group("B", 3)
    monkeypatch.setattr(G, "_iter_words_idx", refuse)
    _emit(verify_conjecture(G, SweepConfig(type_letter="B", rank=3)))
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS["B", 3]
    stats_sweep(G, SweepConfig("B", 3, mode="independent"))


def refuse(*args):
    raise AssertionError("a word or a chain label was asked for")


def test_single_x_chain_scans_only_its_word(monkeypatch):
    """A single-x chain query labels only its own word's chain: on the
    canonical word of w0 of F4 (24 letters, where w0's left weak interval
    has 1,152 nodes), lex_min_chain and lex_max_chain of one x enumerate
    no reduced word and take one left and one right scan step per
    letter."""
    G = fresh_group("F", 4)
    w0 = G.longest_element()
    word = G.canonical_word(w0)
    monkeypatch.setattr(G, "_iter_words_idx", refuse)
    steps = []
    step = shellability._scan_step

    def counted(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(shellability, "_scan_step", counted)
    for x in (G.identity, G.element_from_word((1, 2, 3)),
              G.element_from_word((4, 3, 2, 1, 4))):
        xi = G.idx_of(x)
        for chain, pick_max in ((lex_min_chain, False),
                                (lex_max_chain, True)):
            steps.clear()
            label = chain(G, x, word)
            assert len(steps) == 2 * len(word)
            assert label == greedy_chain_oracle(G, xi, word, pick_max)


def test_greedy_raises_when_an_x_is_not_below_the_word(group_for):
    """An x not below the word's product keeps a residual other than e:
    the single-word scan raises rather than return a partial answer,
    also for the empty word, and so does the interval scan that the
    per-element walk reads."""
    G = group_for("A", 2)
    G.ensure_bruhat()
    s2 = G.word_to_idx((2,))
    for word in ((1,), ()):
        with pytest.raises(InvariantError, match="does not end at e"):
            _chain_table(G, G.word_to_idx(word), 1 << s2, word)
    s1 = G.word_to_idx((1,))
    with pytest.raises(InvariantError, match="does not end at e"):
        scanned_labels(G, s1, G.bruhat_mask(s1) | 1 << s2)


@pytest.mark.parametrize("table", ["_lmul", "_rmul"])
def test_corrupted_multiplication_row_raises(table):
    """In A2, w = s1 s2 has the one reduced word 1,2.  With s1 made a
    fixed point of the left multiplication by s1, the left scan of
    x = s1 never takes a letter; with s2 made a fixed point of the right
    multiplication by s2, neither does the right scan of x = s2.  Both
    entries lie off the walk from w down to e, so the word is still
    found, and the single-word scan, its three labels, the public chain
    and the interval scan that the per-element walk reads all raise."""
    G = fresh_group("A", 2)
    word = (1, 2)
    wi = G.word_to_idx(word)
    letter, xi = (1, G.word_to_idx((1,))) if table == "_lmul" else \
        (2, G.word_to_idx((2,)))
    getattr(G, table)[letter - 1][xi] = xi
    pick_max = table == "_lmul"
    with pytest.raises(InvariantError, match="does not end at e"):
        _chain_table(G, wi, 1 << xi, word)
    with pytest.raises(InvariantError, match="does not end at e"):
        _one_word_labels(G, wi, word, 1 << xi)
    chain = lex_max_chain if pick_max else lex_min_chain
    with pytest.raises(InvariantError, match="does not end at e"):
        chain(G, G.elem_of(xi), word)
    with pytest.raises(InvariantError, match="does not end at e"):
        scanned_labels(G, wi, G.bruhat_mask(wi))


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3)])
def test_cover_lists_hold_exactly_the_covers(group_for, type_letter, rank):
    """For a word of every w and every subword a chain can reach, the
    single deletions of deleted_word_elements that drop the length by
    one are exactly the deletions that leave a reduced word, with their
    elements, in position order."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        todo, seen = [G.canonical_word(w)], set()
        while todo:
            letters = todo.pop()
            expected = []
            for j in range(len(letters)):
                rest = letters[:j] + letters[j + 1:]
                if G.is_reduced(rest):
                    expected.append((j, G.word_to_idx(rest)))
                    if rest not in seen:
                        seen.add(rest)
                        todo.append(rest)
            got = [(j, d) for j, d in
                   enumerate(deleted_word_elements(G, letters))
                   if G.len_of_idx(d) == len(letters) - 1]
            assert got == expected


def test_word_labels_match_per_word_scans_a4(group_for):
    """Every reduced word of every w of A4: the per-element walk over the
    whole lower interval gives the single-word lambda sets and scans'
    labels, word for word, in lexicographic order."""
    G = group_for("A", 4)
    G.ensure_bruhat()
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        assert element_labels(G, wi, xset) == word_scans(G, wi, xset)


@pytest.mark.parametrize("type_letter,rank", [("D", 4), ("B", 4), ("F", 4)])
def test_word_labels_match_per_word_scans_sampled(group_for, type_letter,
                                                  rank):
    """Seeded samples past A4: a random w with at most 3,000 reduced words
    (F4's longest elements have far more) and a random subset of the x
    below it."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    counts = G.reduced_word_counts()
    small = [wi for wi in range(G.order()) if counts[wi] <= 3000]

    @settings(max_examples=15 if type_letter == "F" else 30, deadline=None)
    @given(st.sampled_from(small), st.randoms(use_true_random=False))
    def check(wi, rng):
        xs = G.lower_interval_idx(wi)
        xset = bitset(rng.sample(xs, rng.randint(1, len(xs))))
        assert element_labels(G, wi, xset) == word_scans(G, wi, xset)

    check()


def test_word_labels_scan_each_edge_twice_before_the_first_word(
        monkeypatch):
    """The scan that the per-element walk of w0 of B3 reads takes two scan
    steps per edge of w's left weak interval, one left and one right,
    where position i of a word a_1...a_n is the edge from a_i...a_n down
    to a_(i+1)...a_n.  All of them run before the first word comes out,
    and none after."""
    G = fresh_group("B", 3)
    wi = G.order() - 1
    edges = {(G.word_to_idx(word[i:]), word[i])
             for word in G._iter_words_idx(wi) for i in range(len(word))}
    assert len(edges) == 72  # 48 elements with 3 neighbours each
    steps = []
    step = shellability._scan_step

    def counted(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(shellability, "_scan_step", counted)
    walk = _word_labels_idx(G, wi, scanned_labels(G, wi, G.bruhat_mask(wi)))
    assert len(steps) == 2 * len(edges)
    next(walk)
    assert len(steps) == 2 * len(edges)
    assert sum(1 for _ in walk) == G.reduced_word_counts()[wi] - 1
    assert len(steps) == 2 * len(edges)


def test_verify_sweep_scans_only_w0(monkeypatch):
    """A whole verify sweep of B3 (48 elements) takes two scan steps per
    edge of w0's left weak interval, one left and one right, and none for
    any other w: every w reads its chain labels from w0's table.  So do
    the statistics in both modes and mtx's witness search."""
    G = fresh_group("B", 3)
    steps = []
    step = shellability._scan_step

    def counted(*args):
        steps.append(None)
        return step(*args)

    monkeypatch.setattr(shellability, "_scan_step", counted)
    report = verify_conjecture(G, SweepConfig(type_letter="B", rank=3))
    assert report["elements_swept"] == 48
    assert len(steps) == 2 * 72
    for sweep, config in ((stats_sweep, SweepConfig("B", 3)),
                          (stats_sweep, SweepConfig("B", 3,
                                                    mode="independent")),
                          (mtx_report, SweepConfig("B", 3, points=1))):
        steps.clear()
        sweep(G, config)
        assert len(steps) == 2 * 72


@pytest.mark.parametrize("type_letter,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("D", 4)])
def test_table_labels_match_per_w_scan(group_for, type_letter, rank):
    """On every w, the labels read from w0's table, over all of W and
    over the x below w alone, equal those of w's own scan over the x
    below w; with no table, the reader gives lambda alone."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    whole = w0_table(G)
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        oracle = scanned_labels(G, wi, xset)
        for table in (whole, _chain_table(G, G.order() - 1, xset)):
            assert _interval_labels(G, wi, xset, table) == oracle
        assert _interval_labels(G, wi, xset) == \
            {edge: [lab[0]] for edge, lab in oracle.items()}



def test_w0_table_does_no_lambda_work(monkeypatch):
    """The scanner of w0's table multiplies no two elements: lambda, the
    Bruhat mask of a deletion product, is left to the reader, so the
    table of w0 of B3 builds with idx_mul refused."""
    G = fresh_group("B", 3)
    monkeypatch.setattr(G, "idx_mul", refuse)
    inc, dec = w0_table(G)
    assert sum(map(len, inc)) == sum(map(len, dec)) == 72


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3)])
def test_word_table_matches_interval_table(group_for, type_letter, rank):
    """Every reduced word of every w: the table scanned along the word's
    chain alone, read through that chain, gives on each of the chain's
    edges the labels of the table scanned over w's whole interval."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        whole = scanned_labels(G, wi, xset)
        for word in G._iter_words_idx(wi):
            edges = [(G.word_to_idx(word[i:]), a) for i, a in enumerate(word)]
            assert scanned_labels(G, wi, xset, word) == \
                {edge: whole[edge] for edge in edges}

def test_two_residuals_at_one_node_raise():
    """In A2, w0 has the reduced words 121 and 212.  With s1s2 * s2 made
    s2 instead of s1, the right scan of x = w0 along 121 ends at s2 and
    along 212 at e, so the two edges into w0 bring different residual
    maps and the scan of w's interval raises, while the right scan of
    212 alone never reads the broken entry."""
    G = fresh_group("A", 2)
    wi = G.order() - 1
    G._rmul[1][G.word_to_idx((1, 2))] = G.word_to_idx((2,))
    assert _one_word_labels(G, wi, (2, 1, 2), 1 << wi)[1] == [0, 0, 0]
    with pytest.raises(InvariantError, match="one product leave different"):
        scanned_labels(G, wi, G.bruhat_mask(wi))


@st.composite
def word_and_xs(draw, group, max_length=None):
    """A random w (of length at most max_length, when given), a random
    reduced word of it (built by peeling off a random left descent at each
    step) and a few x <= w."""
    top = group.order() if max_length is None else sum(
        1 for wi in range(group.order())
        if group.len_of_idx(wi) <= max_length)  # the table is by length
    wi = draw(st.integers(0, top - 1))
    word, cur = [], wi
    while group.len_of_idx(cur):
        descents = [i for i in range(1, group.rs.rank + 1)
                    if group.len_of_idx(group.lmul_idx(i, cur))
                    < group.len_of_idx(cur)]
        letter = draw(st.sampled_from(descents))
        word.append(letter)
        cur = group.lmul_idx(letter, cur)
    xs = draw(st.lists(st.sampled_from(group.lower_interval_idx(wi)),
                       min_size=1, max_size=6))
    return tuple(word), xs


@pytest.mark.parametrize("type_letter,rank", [("D", 4), ("B", 4), ("F", 4)])
def test_shared_covers_match_oracle_sampled(group_for, type_letter, rank):
    """Seeded samples past the exhaustive groups: one bulk walk over a
    subset of the x below a word."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()

    # F4 words run to length 24, where the per-step oracle is slow
    @settings(max_examples=40 if type_letter == "F" else 200)
    @given(word_and_xs(G))
    def check(drawn):
        word, xs = drawn
        assert G.len_of_idx(G.word_to_idx(word)) == len(word)
        assert_greedy_matches_oracle(G, word, sorted(set(xs)))

    check()


def verify_w_oracle(group, wi):
    """_verify_w's triple count, count of x with flag (i) on some word,
    and violation records, from labels_oracle."""
    xs = group.lower_interval_idx(wi)
    triples, held, violations = 0, set(), []
    for word in group._iter_words_idx(wi):
        for xi, (lam, inc, dec, flags) in zip(
                xs, labels_oracle(group, word, xs)):
            triples += 1
            if flags[0]:
                held.add(xi)
            if len(set(flags)) > 1:
                violations.append({
                    "w": list(group.canon_of_idx(wi)), "word": list(word),
                    "x": list(group.canon_of_idx(xi)), "lambda": list(lam),
                    "chain_min": list(inc), "chain_max": list(dec),
                    "flags": list(flags)})
    return triples, len(held), violations


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_flags_match_tuple_oracle_exhaustive(group_for, type_letter, rank):
    """Every (w, reduced word, x <= w): the bit-sliced labels, flags and
    disagreeing x equal the tuple oracle's, and so do the triple count,
    the count of x with flag (i) on some word and the violation records
    of the verify sweep."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    table = w0_table(G)
    for wi in range(G.order()):
        xs = G.lower_interval_idx(wi)
        for word in G._iter_words_idx(wi):
            assert_flags_match_tuple_oracle(G, word, xs)
        got = _verify_w(G, wi, table)
        assert (got["triples"], got["held"], got["violations"]) == \
            verify_w_oracle(G, wi)


@pytest.mark.parametrize("type_letter,rank", [("D", 4), ("B", 4), ("F", 4)])
def test_flags_match_tuple_oracle_sampled(group_for, type_letter, rank):
    """Seeded samples of (w, reduced word, some x <= w) past the exhaustive
    groups."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()

    @settings(max_examples=30 if type_letter == "F" else 120)
    @given(word_and_xs(G))
    def check(drawn):
        word, xs = drawn
        assert_flags_match_tuple_oracle(G, word, sorted(set(xs)))

    check()


def verify_w_walk(group, wi, labels=None):
    """(triples, held, violating) of one w from the word walk: every
    reduced word's flags read off its chain in w's own scan over all
    x <= w, or in the given labels; held and violating are bitsets."""
    xset = group.bruhat_mask(wi)
    if labels is None:
        labels = scanned_labels(group, wi, xset)
    triples = held = violating = 0
    for word, lam, inc, dec in _word_labels_idx(group, wi, labels):
        triples += xset.bit_count()
        fails = _failing_flags(lam, inc, dec)
        held |= xset & ~fails[0]
        violating |= (fails[0] | fails[1] | fails[2]) \
            & ~(fails[0] & fails[1] & fails[2])
    return triples, held, violating


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4)])
def test_flag_dp_matches_word_walk(group_for, type_letter, rank):
    """On every w, the edge DP's violating x and held x equal the word
    walk's over the same edge labels, and _verify_w's triple count, held
    count and (empty) violation list equal the walk's."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    table = w0_table(G)
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        labels = scanned_labels(G, wi, xset)
        triples, held, violating = verify_w_walk(G, wi, labels)
        assert _flag_dp(G, wi, xset, labels) == (violating, held)
        got = _verify_w(G, wi, table)
        assert (got["triples"], got["held"], got["violations"]) == \
            (triples, held.bit_count(), [])


@pytest.mark.parametrize("type_letter,rank,trials",
                         [("A", 3, 300), ("B", 3, 300), ("G", 2, 200),
                          ("A", 4, 150)])
def test_flag_dp_under_flipped_edge_bits(group_for, type_letter, rank,
                                         trials):
    """Seeded flips of one to three single bits of w's edge labels, which
    no real word produces: the edge DP's violating x and held x equal a
    brute force over the words that reads the same flipped labels.  Some
    trials give violations and some, whose flips cancel or leave every
    word's failing edges with two different pairs, give none."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    rng = random.Random(f"flip-{type_letter}{rank}")
    seen = set()
    for _ in range(trials):
        wi = rng.randrange(1, G.order())
        xset = G.bruhat_mask(wi)
        labels = scanned_labels(G, wi, xset)
        xs = list(_bit_indices(xset))
        edges = list(labels)
        for _ in range(rng.randint(1, 3)):
            labels[rng.choice(edges)][rng.randrange(3)] ^= 1 << rng.choice(xs)
        _, held, violating = verify_w_walk(G, wi, labels)
        assert _flag_dp(G, wi, xset, labels) == (violating, held)
        seen.add(violating != 0)
    assert seen == {True, False}


def deodhar_slack_oracle(group, wi, xs, lower):
    """#S(x,w) - (l(w) - l(x)) for every x index in xs (each x <= w), in the
    order of xs, one Bruhat test per (x, lower reflection w*s_alpha), their
    indices given in lower."""
    lw = group.len_of_idx(wi)
    return [sum(1 for ri in lower if group.leq_idx(xi, ri))
            - lw + group.len_of_idx(xi) for xi in xs]


def assert_deodhar_masks_match_oracle(group, wi, xs, lower):
    """The masks from the lambda bits of w's canonical chain, as the
    sweeps read them (shellability._canonical_lambda on the interval's
    labels), against deodhar_slack_oracle over lower."""
    xset = bitset(xs)
    lams = shellability._canonical_lambda(
        group, wi, _interval_labels(group, wi, xset))
    below, tight = _deodhar_masks(group, wi, xset, lams)
    slack = deodhar_slack_oracle(group, wi, xs, lower)
    assert below == bitset(xi for xi, d in zip(xs, slack) if d < 0)
    assert tight == bitset(xi for xi, d in zip(xs, slack) if d == 0)
    return below


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4),
                          ("D", 4), ("B", 4)])
def test_deodhar_masks_match_slack_oracle(group_for, type_letter, rank):
    """On every w, the bit-sliced masks of x with negative and with zero
    slack #S(x,w) - (l(w) - l(x)) equal the per-x count's over the matrix
    products w*s_alpha (lower_reflections_idx), over all x <= w and over
    every other x of them."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    for wi in range(G.order()):
        xs = G.lower_interval_idx(wi)
        lower = [ri for _, ri in lower_reflections_idx(G, wi)]
        assert assert_deodhar_masks_match_oracle(G, wi, xs, lower) == 0
        assert_deodhar_masks_match_oracle(G, wi, xs[1::2], lower)


def test_deodhar_masks_see_negative_slack(group_for, monkeypatch):
    """With the first deletion of each w's canonical word dropped from the
    lambda bits the masks read, slacks go negative: the masks still equal
    the per-x count's over the matrix oracle's list less the same element,
    w's canonical parent, on every w of B3, and deodhar_check reports the
    failures."""
    G = group_for("B", 3)
    G.ensure_bruhat()
    canonical = shellability._canonical_lambda
    monkeypatch.setattr(shellability, "_canonical_lambda",
                        lambda group, wi, labels:
                        canonical(group, wi, labels)[1:])
    failing = 0
    for wi in range(G.order()):
        xs = G.lower_interval_idx(wi)
        lower = [ri for _, ri in lower_reflections_idx(G, wi)]
        if wi:
            lower.remove(G.lmul_idx(G.canon_of_idx(wi)[0], wi))
        below = assert_deodhar_masks_match_oracle(G, wi, xs, lower)
        failing += below.bit_count()
        for xi in xs:
            assert deodhar_check(G, G.elem_of(xi), G.elem_of(wi)) == \
                (not (below >> xi) & 1)
    assert failing


def test_failing_flags_on_disagreeing_labels():
    """Labels that no real word produces, each pair of them differing on
    some x: the bitsets of failing x equal the tuple comparisons of
    labels_oracle, flag by flag."""
    lam = {0: (1, 2), 1: (1,), 2: (1,), 3: (3,)}
    inc = {0: (1, 2), 1: (2,), 2: (1,), 3: (1,)}
    dec = {0: (2, 1), 1: (2,), 2: (2,), 3: (3,)}
    fails = _failing_flags(sliced(lam, 3), sliced(inc, 3), sliced(dec, 3))
    for xi in range(4):
        rev = dec[xi][::-1]
        expected = (lam[xi] == rev, inc[xi] == rev, lam[xi] == inc[xi])
        assert tuple(not (f >> xi) & 1 for f in fails) == expected
    assert fails == (0b0110, 0b1100, 0b1010)


def test_stats_fast_path_computes_no_label(monkeypatch):
    """The statistics fast path enumerates no reduced word, scans only
    w0, once, into the chain table, and builds no label dict for any w:
    _condition_b_set reads the table itself."""
    G = fresh_group("B", 3)
    monkeypatch.setattr(G, "_iter_words_idx", refuse)
    for module in (shellability, workbench):
        monkeypatch.setattr(module, "_word_labels_idx", refuse)
        monkeypatch.setattr(module, "_interval_labels", refuse)
    labelled = []
    scan = workbench._chain_table

    def recorded(group, wi, *args):
        labelled.append(wi)
        return scan(group, wi, *args)

    monkeypatch.setattr(workbench, "_chain_table", recorded)
    stats_sweep(G, SweepConfig(type_letter="B", rank=3))
    assert labelled == [G.order() - 1]


def test_chains_against_enumeration_a3_sample(group_for):
    G = group_for("A", 3)
    w = G.longest_element()
    word = (1, 2, 1, 3, 2, 1)
    for x in G.enumerate_group():
        if G.length(x) < 2:
            continue
        xi = G.idx_of(x)
        labels = all_chain_labels(G, xi, tagged(word))
        assert lex_min_chain(G, x, word) == min(labels)
        assert lex_max_chain(G, x, word) == max(labels)


# -- per-word and pair conditions ---------------------------------------------------

def test_condition_flags_for_w_itself(group_for):
    G = group_for("A", 2)
    w = G.element_from_word((1, 2))
    assert condition_per_word(G, w, (1, 2)) == (True, True, True)


def test_condition_flags_spec_example(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    assert condition_per_word(G, x, (1, 2, 1, 3, 2, 1)) == (True, True, True)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_flags_always_agree(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        for word in G.all_reduced_words(w):
            for x in interval(G, G.identity, w):
                a, b, c = condition_per_word(G, x, word)
                assert a == b == c


def test_pair_conditions(group_for):
    G = group_for("A", 3)
    w = G.longest_element()
    x = G.element_from_word((2, 3))
    assert condition_A(G, w, w) == (True, (1, 2, 1, 3, 2, 1))
    assert condition_A(G, x, w) == (True, (1, 2, 1, 3, 2, 1))
    assert condition_B(G, x, w) == (True, (1, 2, 1, 3, 2, 1))
    for wy in G.enumerate_group():
        for xy in interval(G, G.identity, wy):
            has_a, _ = condition_A(G, xy, wy)
            has_b, _ = condition_B(G, xy, wy)
            assert has_a == has_b


def test_pair_condition_witness_is_first_flagged_word(group_for):
    """condition_A and condition_B return the first word of
    all_reduced_words(w) whose flag (i), respectively (ii), holds."""
    G = group_for("B", 3)
    for w in G.enumerate_group():
        words = G.all_reduced_words(w)
        for x in interval(G, G.identity, w):
            flags = [condition_per_word(G, x, word) for word in words]
            for k, condition in enumerate((condition_A, condition_B)):
                first = next((word for word, f in zip(words, flags) if f[k]),
                             None)
                assert condition(G, x, w) == (first is not None, first)


def test_condition_requires_comparable(group_for):
    G = group_for("A", 2)
    with pytest.raises(DomainError):
        condition_A(G, G.element_from_word((1,)), G.element_from_word((2,)))


def walk_flag_ii(group, xi, word):
    """Flag (ii) of (x, word) by one left-to-right walk from the residual
    y = x and the kept product k = e: a letter that is a left descent of y
    is kept (y <- s_a*y, k <- k*s_a), a letter that is a right descent of k
    fails the flag, any other letter is skipped.  The flag holds when the
    walk ends at y = e."""
    y, k = xi, 0
    for a in word:
        sy = group.lmul_idx(a, y)
        if group.len_of_idx(sy) < group.len_of_idx(y):
            y, k = sy, group.rmul_idx(a, k)
        elif group.len_of_idx(group.rmul_idx(a, k)) < group.len_of_idx(k):
            return False
    return y == 0


def flag_ii_holds(group, word, xset):
    """The x of xset whose flag (ii) holds on word, from the word's own
    label scans (word_scan_labels)."""
    return xset & ~_failing_flags(*word_scan_labels(group, word, xset))[1]


def test_walk_matches_flag_ii(group_for):
    """The walk agrees with the greedy chain labels on every
    (w, reduced word, x <= w) of A3, B3, C3 and G2, and never holds for an
    x not below w."""
    for t, r in [("A", 3), ("B", 3), ("C", 3), ("G", 2)]:
        G = group_for(t, r)
        G.ensure_bruhat()
        for wi in range(G.order()):
            xs = G.lower_interval_idx(wi)
            for word in G._iter_words_idx(wi):
                held = flag_ii_holds(G, word, bitset(xs))
                for xi in range(G.order()):
                    assert walk_flag_ii(G, xi, word) == bool(held >> xi & 1)


def reduced_subword_counts(G, word):
    """{x: number of reduced subwords of word with product x}, by trying
    every subset of positions: a subset of l(x) positions with product x
    is a reduced subword of x."""
    counts = {}
    n = len(word)
    for subset in range(1 << n):
        xi = G.word_to_idx([a for i, a in enumerate(word) if subset >> i & 1])
        if G.len_of_idx(xi) == subset.bit_count():
            counts[xi] = counts.get(xi, 0) + 1
    return counts


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_flag_ii_is_a_unique_reduced_subword(group_for, type_letter, rank):
    """Flag (ii) holds for x on a reduced word exactly when x has one
    reduced subword in the word (the shellability docstring's prefix-count
    argument), on every (w, reduced word, x <= w); every x <= w has at
    least one (the subword property) and no other x has any."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        for word in G._iter_words_idx(wi):
            counts = reduced_subword_counts(G, word)
            assert bitset(counts) == xset
            unique = bitset(xi for xi, c in counts.items() if c == 1)
            assert flag_ii_holds(G, word, xset) == unique


@pytest.mark.parametrize("type_letter,rank", [("D", 4), ("B", 4), ("F", 4)])
def test_walk_matches_flag_ii_sampled(group_for, type_letter, rank):
    """Seeded samples of (w, reduced word, x <= w) past the exhaustive
    groups."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()

    @settings(max_examples=150)
    @given(word_and_xs(G))
    def check(drawn):
        word, xs = drawn
        held = flag_ii_holds(G, word, bitset(xs))
        for xi in xs:
            assert walk_flag_ii(G, xi, word) == bool(held >> xi & 1)

    check()


@pytest.mark.parametrize("type_letter,rank", [("D", 4), ("B", 4), ("F", 4)])
def test_flag_ii_is_a_unique_reduced_subword_sampled(group_for, type_letter,
                                                     rank):
    """Seeded samples past the exhaustive groups, of w of length at most
    12, so that trying the 2^l subsets of positions stays cheap: flag (ii)
    of the library's labels holds for x exactly when x has one reduced
    subword in the word, and every x <= w has one."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()

    @settings(max_examples=100)
    @given(word_and_xs(G, max_length=12))
    def check(drawn):
        word, xs = drawn
        xset = bitset(xs)
        counts = reduced_subword_counts(G, word)
        labels = _one_word_labels(G, G.word_to_idx(word), word, xset)
        assert xset & ~_failing_flags(*labels)[1] == \
            bitset(xi for xi in xs if counts[xi] == 1)

    check()


def condition_b_mask(group, xi):
    """Bitmask over w of the pairs (x, w), x of index xi, for which some
    reduced word of w satisfies flag (ii): the oracle of _condition_b_set,
    a walk over the right weak order with no chain label.

    Flag (ii) of a word is decided by a walk from the residual y = x.  At
    letter a: if s_a*y < y, then y <- s_a*y; otherwise, if k*s_a < k for
    the kept product k = x*y^-1, the flag fails; otherwise y is unchanged.
    The flag holds when the walk ends at y = e.  The walk sees a word only
    through its prefixes, so prefixes p are visited in table order from e
    along right ascents p -> p*s_a.  A surviving walk moves by
    y <- min(y, s_a*y), the downward 0-Hecke action, which satisfies the
    braid relations: every reduced word of p that survives leaves the same
    residual, so one residual per prefix is carried (two that differ
    fail).  Bit w is set when the residual at p = w is e."""
    group.ensure_tables()
    size = group.order()
    lens, lmul, rmul, inv = group._len, group._lmul, group._rmul, group._inv
    letters = range(group.rs.rank)
    # per residual y: the residual after each letter, -1 where the walk fails
    steps = [None] * size
    residual = [-1] * size  # -1: no reduced word of the prefix survives
    residual[0] = xi
    mask = 0
    for p in range(size):
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
        for a, row in enumerate(rmul):
            q, t = row[p], step[a]
            if lens[q] > lens[p] and t >= 0 and residual[q] != t:
                assert residual[q] < 0, "two surviving residuals of a prefix"
                residual[q] = t
    return mask


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("C", 3),
                                              ("G", 2), ("A", 4), ("D", 4)])
def test_condition_b_set_matches_prefix_walk(group_for, type_letter, rank):
    """On every w, the x that the edge DP on w0's table gives flag (ii)
    on some word are those whose walk over the prefixes of all reduced
    words (condition_b_mask) ends at e at w."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    table = w0_table(G)
    masks = [condition_b_mask(G, xi) for xi in range(G.order())]
    for wi in range(G.order()):
        assert _condition_b_set(G, wi, table) == \
            bitset(xi for xi, mask in enumerate(masks) if (mask >> wi) & 1)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 3), ("C", 3),
                                              ("G", 2), ("A", 4)])
def test_condition_b_mask_matches_witness_search(group_for, type_letter,
                                                 rank):
    """The reachability search finds exactly the pairs (x, w) for which the
    lexicographic walk over the reduced words of w finds a flag-(ii)
    witness."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    masks = [condition_b_mask(G, xi) for xi in range(G.order())]
    for wi in range(G.order()):
        found = first_witnesses(G, wi, G.lower_interval_idx(wi),
                                flag_holds(1))
        assert sorted(found) == [xi for xi in range(G.order())
                                 if (masks[xi] >> wi) & 1]


@pytest.mark.parametrize("type_letter,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2)])
def test_condition_b_witness_roots_are_s_sets(group_for, type_letter, rank):
    """On every group mtx accepts, the first-word search finds a flag-(ii)
    witness for exactly the x of _condition_b_set on w0's table, and the
    gamma roots of each witness's increasing label are S(x,w) as _s_sets
    reads it: mtx's product roots, taken from _s_sets, are those of the
    witness words."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    table = w0_table(G)
    for wi in range(G.order()):
        xset = G.bruhat_mask(wi)
        labels = _interval_labels(G, wi, xset, table)
        found = _first_words(G, wi, xset, labels, 1)
        assert bitset(found) == _condition_b_set(G, wi, table)
        sets = _s_sets(G, wi, xset)
        for xi, word in found.items():
            inc = _chain_labels(G, labels, wi, word)[1]
            assert sorted(gamma_sequence(G, word, _label_of(inc, xi))) == \
                sorted(sets[xi])


@pytest.mark.parametrize("type_letter,rank,trials",
                         [("A", 3, 300), ("B", 3, 300), ("G", 2, 200),
                          ("A", 4, 150)])
def test_word_free_searches_under_flipped_edge_bits(group_for, type_letter,
                                                    rank, trials):
    """Seeded flips of one to three single bits of w's edge labels, which
    no real word produces: the first words of flags (i) and (ii) and the
    good-word mask equal the walk over the words that reads the same
    flipped labels, the good-word mask over every word.  Some trials move
    a first word or a good word."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    rng = random.Random(f"first-{type_letter}{rank}")
    moved = 0
    for _ in range(trials):
        wi = rng.randrange(1, G.order())
        xset = G.bruhat_mask(wi)
        labels = scanned_labels(G, wi, xset)
        before = [_first_words(G, wi, xset, labels, k) for k in (0, 1)]
        before.append(_good_word_mask(G, wi, xset, labels))
        xs = list(_bit_indices(xset))
        edges = list(labels)
        for _ in range(rng.randint(1, 3)):
            labels[rng.choice(edges)][rng.randrange(3)] ^= 1 << rng.choice(xs)
        after = []
        for k in (0, 1):
            found = first_witnesses(G, wi, xs, flag_holds(k), labels)
            after.append({xi: walked[0] for xi, walked in found.items()})
            assert _first_words(G, wi, xset, labels, k) == after[k]
        good = 0
        for word, lam, _, _ in _word_labels_idx(G, wi, labels):
            good |= good_word_residuals(G, word, xset, lam)
        assert _good_word_mask(G, wi, xset, labels) == good
        moved += after + [good] != before
    assert moved


# -- beta sequences ------------------------------------------------------------------

def test_beta_empty_lambda_enumerates_inversions(group_for):
    G = group_for("A", 3)
    for w in G.enumerate_group():
        word = G.canonical_word(w)
        betas = beta_sequence(G, word, ())
        assert len(set(betas)) == len(betas) == G.length(w)
        assert set(betas) == set(G.inversion_set(w))


def test_beta_rank_one(group_for):
    G = group_for("A", 1)
    assert beta_sequence(G, (1,), (1,)) == ((1,),)


def test_beta_spec_example(group_for):
    G = group_for("A", 3)
    x = G.element_from_word((2, 3))
    word = (1, 2, 1, 3, 2, 1)
    lam = lambda_set(G, x, word)
    betas = beta_sequence(G, word, lam)
    assert betas[1] == (0, 1, 0)
    assert betas[3] == (0, 1, 1)
    outside = {betas[i - 1] for i in range(1, 7) if i not in lam}
    assert outside == set(G.inversion_set(x))


# -- lambda alone ----------------------------------------------------------------

def test_lambda_only_functions_scan_nothing(monkeypatch):
    """lambda_set, s_set, is_good_word and deodhar_check read lambda from
    the Bruhat masks along the word's chain: on every pair of B3, with
    w's canonical word, they take no scan step and give what the scanned
    labels of that word give."""
    G = fresh_group("B", 3)
    pairs = [(xi, wi) for wi in range(G.order())
             for xi in G.lower_interval_idx(wi)]
    expected = []
    for xi, wi in pairs:
        word = G.canon_of_idx(wi)
        labels = scanned_labels(G, wi, 1 << xi, word)
        lams = _one_word_labels(G, wi, word, 1 << xi)[0]
        lam = _label_of(lams, xi)
        found = set(gamma_sequence(G, word, lam))
        expected.append((
            lam, tuple(a for a in G.rs.positive_roots if a in found),
            bool(_good_word_mask(G, wi, 1 << xi, labels)),
            not _deodhar_masks(G, wi, 1 << xi, lams)[0]))
    monkeypatch.setattr(shellability, "_scan_step", refuse)
    for (xi, wi), values in zip(pairs, expected):
        x, w, word = G.elem_of(xi), G.elem_of(wi), G.canon_of_idx(wi)
        assert (lambda_set(G, x, word), s_set(G, x, w),
                is_good_word(G, x, word), deodhar_check(G, x, w)) == values


# -- Deodhar inequality --------------------------------------------------------------

def test_deodhar_trivial_and_sweeps(group_for):
    G = group_for("A", 2)
    w = G.element_from_word((1, 2))
    assert deodhar_check(G, w, w)
    for t, r in [("A", 2), ("B", 2)]:
        Gt = group_for(t, r)
        for wy in Gt.enumerate_group():
            for xy in interval(Gt, Gt.identity, wy):
                assert deodhar_check(Gt, xy, wy)


# -- deletion lemmas -----------------------------------------------------------------

@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_first_position_lemma(group_for, type_letter, rank):
    """The increasing chain starts with position 1 exactly when position 1
    belongs to the deletion set."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        for word in G.all_reduced_words(w):
            for x in interval(G, G.identity, w):
                lam = lambda_set(G, x, word)
                inc = lex_min_chain(G, x, word)
                if not inc:
                    continue
                assert (inc[0] == 1) == (1 in lam)


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_strip_first_letter_lemma(group_for, type_letter, rank):
    """Dropping the first letter: when the decreasing chain ends in
    position 1, x stays below the shorter word and the deletion set shifts
    down by one after removing 1; when the increasing chain starts past 1,
    s_1 x drops below and the shifted deletion set is contained in the new
    one."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        if G.length(w) < 1:
            continue
        for word in G.all_reduced_words(w):
            tail = word[1:]
            s1 = G.simple_reflection(word[0])
            for x in interval(G, G.identity, w):
                if x == w:
                    continue
                lam = set(lambda_set(G, x, word))
                inc = lex_min_chain(G, x, word)
                dec = lex_max_chain(G, x, word)
                if dec[-1] == 1:
                    assert G.bruhat_leq(x, G.element_from_word(tail))
                    assert set(lambda_set(G, x, tail)) == \
                        {i - 1 for i in lam if i != 1}
                if inc[0] > 1:
                    sx = s1 * x
                    assert G.bruhat_leq(sx, G.element_from_word(tail))
                    assert {i - 1 for i in lam} <= \
                        set(lambda_set(G, sx, tail))


@pytest.mark.parametrize("type_letter,rank", [("A", 3), ("B", 2)])
def test_s_set_deletion_lemma(group_for, type_letter, rank):
    """For x < w, s w < w, x < s x with minimal S-set size: passing to s w
    removes exactly the root -w^(-1)(alpha) from S(x, w)."""
    G = group_for(type_letter, rank)
    for w in G.enumerate_group():
        for i in range(1, rank + 1):
            s = G.simple_reflection(i)
            sw = s * w
            if not G.length(sw) < G.length(w):
                continue
            alpha = G.rs.simple_root(i)
            removed = tuple(-c for c in G.inverse(w).apply_root(alpha))
            for x in interval(G, G.identity, w):
                if x == w or not G.length(s * x) > G.length(x):
                    continue
                before = s_set(G, x, w)
                if len(before) != G.length(w) - G.length(x):
                    continue
                after = s_set(G, x, sw)
                assert set(after) == set(before) - {removed}


# -- symmetries -------------------------------------------------------------------

def coxeter_entry(cartan, i, j):
    """m_ij of the Coxeter matrix (i != j, 0-based), from the Cartan
    entries."""
    return {0: 2, 1: 3, 2: 4, 3: 6}[cartan[i][j] * cartan[j][i]]


def is_graph_automorphism(rs, perm):
    """Does perm (perm[a - 1] the image of letter a) keep every m_ij?"""
    rng = range(rs.rank)
    return all(coxeter_entry(rs.cartan, perm[i] - 1, perm[j] - 1)
               == coxeter_entry(rs.cartan, i, j)
               for i in rng for j in rng if i != j)


def stats_mismatches(group, perm):
    """The stats_sweep rows whose (n_leq, n_cond) differ from those of the
    element whose word is the row's canonical word relabelled letter by
    letter by perm."""
    rows = {tuple(r["w"]): (r["n_leq"], r["n_cond"]) for r in stats_sweep(
        group, SweepConfig(group.rs.type_letter, group.rs.rank))["rows"]}
    image = {word: group.canon_of_idx(
        group.word_to_idx([perm[a - 1] for a in word])) for word in rows}
    return sum(rows[image[word]] != counts for word, counts in rows.items())


@pytest.mark.parametrize("type_letter,rank,perm", [
    ("A", 4, (4, 3, 2, 1)), ("G", 2, (2, 1)), ("F", 4, (4, 3, 2, 1)),
    ("D", 4, (1, 2, 4, 3)), ("D", 4, (3, 2, 4, 1))])
def test_stats_rows_invariant_under_graph_automorphisms(
        group_for, type_letter, rank, perm):
    """An automorphism of the Coxeter graph (triality on D4 among them)
    relabels the letters of every word and keeps positions, so it keeps
    every flag of every triple, and the statistics rows of w and of its
    image agree."""
    G = group_for(type_letter, rank)
    assert is_graph_automorphism(G.rs, perm)
    assert stats_mismatches(G, perm) == 0


def test_stats_rows_move_under_a_non_automorphism(group_for):
    """The control: reversing the letters of B3 is no automorphism of its
    Coxeter graph, and 28 rows then differ from their images'."""
    G = group_for("B", 3)
    assert not is_graph_automorphism(G.rs, (3, 2, 1))
    assert stats_mismatches(G, (3, 2, 1)) == 28


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 3), ("B", 3), ("G", 2), ("A", 4), ("D", 4)])
def test_condition_b_pairs_closed_under_inversion(group_for, type_letter,
                                                  rank):
    """(x, w) -> (x^-1, w^-1), with the word reversed, maps the reduced
    subwords of x onto those of x^-1, so it keeps flag (ii) (the unique
    subword theorem of the shellability docstring): the condition-B pairs
    below w^-1 are the inverses of those below w."""
    G = group_for(type_letter, rank)
    G.ensure_bruhat()
    inv = [G.idx_of(G.inverse(G.elem_of(i))) for i in range(G.order())]
    table = w0_table(G)
    cond = [_condition_b_set(G, wi, table) for wi in range(G.order())]
    for wi, xs in enumerate(cond):
        assert bitset(inv[xi] for xi in _bit_indices(xs)) == cond[inv[wi]]


def test_b4_and_c4_give_equal_stats_rows(group_for):
    """B4 and C4 are one Coxeter group, and the chain conditions see only
    the Coxeter system, so their statistics rows agree word by word."""
    rows = [stats_sweep(group_for(t, 4), SweepConfig(t, 4))["rows"]
            for t in "BC"]
    assert rows[0] == rows[1]
