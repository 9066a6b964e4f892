"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Every comparison is exact (integer polynomial equality or prime
field equality at seeded points); nothing is tolerance-tuned."""

import json
import random

import pytest

from wwl.coeffs import (_closed_form_product, atom_coeffs,
                        casselman_shalika_check, demazure_atom,
                        demazure_character, whittaker_function)
from wwl.groupalg import GAElement, mul_one_minus_v_exp, t_op
from wwl.hecke import m_direct, m_product, sample_spectral_point
from wwl.shellability import (_chain_table, _failing_flags, _interval_labels,
                              _label_of, _word_labels_idx, s_set)
from wwl.workbench import (SweepConfig, good_words_report, mtx_report,
                           stats_sweep, verify_conjecture)

from test_weyl import interval

SEED = 20260809


def check(label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{tail}")
    assert ok, label


def test_criterion_01_conjecture_equivalence(group_for):
    totals = {}
    for t, r in [("A", 2), ("A", 3), ("B", 2), ("B", 3)]:
        G = group_for(t, r)
        report = verify_conjecture(G, SweepConfig(type_letter=t, rank=r))
        assert not report["partial"]
        assert report["triples_tested"] > 0
        totals[f"{t}{r}"] = report["triples_tested"]
        check(f"criterion 1: zero violating triples in {t}{r}",
              report["violations"] == [],
              f"{report['triples_tested']} triples")


def main_theorem_sweep(group):
    """Across every (w, reduced word, x <= w): where the per-word condition
    holds, the closed form must equal the recursion entry; also hunt for one
    condition-failing triple where the label-driven formula differs."""
    group.ensure_bruhat()
    held = 0
    mismatches = 0
    failing_differs = False
    for wi in range(group.order()):
        table = atom_coeffs(group, group.elem_of(wi))
        xset = group.bruhat_mask(wi)
        labels = _interval_labels(group, wi, xset,
                                  _chain_table(group, wi, xset))
        for word, lam, inc, dec in _word_labels_idx(group, wi, labels):
            fails_i, fails_ii, _ = _failing_flags(lam, inc, dec)
            for xi, entry in table.items():
                if not (fails_i & fails_ii) >> xi & 1:
                    held += 1
                    closed = _closed_form_product(group, word, _label_of(
                        inc if (fails_i >> xi) & 1 else lam, xi))
                    if closed != entry:
                        mismatches += 1
                elif not failing_differs:
                    failing_differs = _closed_form_product(
                        group, word, _label_of(inc, xi)) != entry
    return {
        "condition_triples": held,
        "mismatches": mismatches,
        "failing_triple_differs": failing_differs,
    }


def test_criterion_02_main_theorem(group_for):
    for t, r in [("A", 3), ("B", 3)]:
        G = group_for(t, r)
        result = main_theorem_sweep(G)
        check(f"criterion 2: closed form equals recursion on-condition in {t}{r}",
              result["condition_triples"] > 0 and result["mismatches"] == 0,
              f"{result['condition_triples']} triples")
        check(f"criterion 2: some off-condition triple differs in {t}{r}",
              result["failing_triple_differs"])


def _operator_identity_blob(group_for):
    rng = random.Random(SEED)
    blob = {}
    plan = [("A", 2, 5), ("B", 2, 5), ("G", 2, 5), ("A", 3, 1)]
    for t, r, n_weights in plan:
        G = group_for(t, r)
        weights = [G.rs.rho()]
        weights += [tuple(rng.randint(0, 3) for _ in range(r))
                    for _ in range(n_weights - 1)]
        for w in G.enumerate_group():
            table = atom_coeffs(G, w)
            for lam in weights:
                total = GAElement.zero()
                for xi, c in table.items():
                    total = total + c * demazure_atom(G, G.elem_of(xi), lam)
                if total != whittaker_function(G, w, lam):
                    return None, (t, r, lam, G.canonical_word(w))
                key = f"{t}{r}:{','.join(map(str, G.canonical_word(w)))}:" \
                      f"{','.join(map(str, lam))}"
                blob[key] = total.to_json_obj()
    return json.dumps(blob, sort_keys=True), None


def test_criterion_03_operator_identity(group_for):
    blob, failure = _operator_identity_blob(group_for)
    check("criterion 3: deformed product expands through atoms exactly",
          failure is None, "A2/B2/G2 x 5 weights, A3 at rho")
    assert blob


def test_criterion_04_atom_sum_lemma(group_for):
    rng = random.Random(SEED)
    ok = True
    for t, r in [("A", 2), ("B", 2)]:
        G = group_for(t, r)
        weights = [G.rs.rho()] + [tuple(rng.randint(0, 3) for _ in range(r))
                                  for _ in range(4)]
        for w in G.enumerate_group():
            cells = interval(G, G.identity, w)
            lw = G.length(w)
            for lam in weights:
                total = GAElement.zero()
                alt = GAElement.zero()
                for x in cells:
                    total = total + demazure_atom(G, x, lam)
                    term = demazure_character(G, x, lam)
                    alt = alt + (-term if (lw - G.length(x)) % 2 else term)
                ok = ok and total == demazure_character(G, w, lam)
                ok = ok and alt == demazure_atom(G, w, lam)
    check("criterion 4: characters are interval sums of atoms (and back)",
          ok, "A2/B2, 5 weights")


def test_criterion_05_product_identity(group_for):
    rng = random.Random(SEED)
    ok = True
    for t, r in [("A", 1), ("A", 2), ("B", 2), ("A", 3)]:
        G = group_for(t, r)
        for _ in range(3):
            lam = tuple(rng.randint(0, 2) for _ in range(r))
            ok = ok and casselman_shalika_check(G, lam)
    check("criterion 5: summed function equals binomial product times "
          "character", ok, "A1/A2/B2/A3, 3 weights each")


def test_criterion_06_edge_coefficients(group_for):
    G = group_for("A", 3)
    rs = G.rs
    ok = True
    for w in G.enumerate_group():
        table = atom_coeffs(G, w)
        tw1 = GAElement.one(rs.rank)
        for letter in reversed(G.canonical_word(w)):
            tw1 = t_op(rs, rs.simple_root(letter), tw1)
        prod = GAElement.one(rs.rank)
        for alpha in G.inversion_set(w):
            prod = mul_one_minus_v_exp(rs, alpha, prod)
        ok = ok and table[G.idx_of(G.identity)] == tw1
        ok = ok and table[G.idx_of(w)] == prod
    check("criterion 6: identity and anchor coefficients match the closed "
          "products", ok, "all of A3")


def test_criterion_07_transition_matrix(group_for):
    for t, r in [("A", 2), ("A", 3), ("B", 2)]:
        G = group_for(t, r)
        config = SweepConfig(type_letter=t, rank=r, seed=SEED, points=20)
        report = mtx_report(G, config)
        check(f"criterion 7: direct and product transitions agree in {t}{r}",
              report["ok"], "20 points, diagonal and triangularity included")
    # rank-1 closed form by hand
    G1 = group_for("A", 1)
    rng = random.Random(SEED)
    ok = True
    for _ in range(20):
        pt = sample_spectral_point(G1.rs, rng)
        z, p = pt.z[0], pt.p
        hand = (1 - pt.u * z) % p * pow((1 - z) % p, p - 2, p) % p
        ok = ok and m_direct(G1, G1.identity, G1.element_from_word((1,)),
                             pt) == hand
    check("criterion 7: rank-1 value matches the hand-derived quotient", ok)


def test_criterion_08_deodhar(group_for):
    for t, r in [("A", 3), ("B", 3)]:
        G = group_for(t, r)
        ok = True
        for w in G.enumerate_group():
            for x in interval(G, G.identity, w):
                ok = ok and len(s_set(G, x, w)) >= G.length(w) - G.length(x)
        check(f"criterion 8: S-set size bounds the length difference in {t}{r}",
              ok, "all pairs")


def test_criterion_09_good_word_census(group_for):
    b2 = good_words_report(group_for("B", 2))
    check("criterion 9: B2 has a qualifying pair with no good word",
          b2["pairs_without_good_word"] >= 1,
          f"{b2['pairs_without_good_word']} of {b2['qualifying_pairs']}")
    a2 = good_words_report(group_for("A", 2))
    check("criterion 9: A2 has none", a2["pairs_without_good_word"] == 0,
          f"{a2['qualifying_pairs']} qualifying pairs")


def test_criterion_10_stats_shape(group_for):
    G = group_for("A", 4)
    report = stats_sweep(G, SweepConfig(type_letter="A", rank=4, seed=SEED))
    check("criterion 10: S5 mode bin is the top bin",
          report["mode_bin"] == [90, 100],
          f"histogram {report['histogram']['counts']}")
    check("criterion 10: S5 upper quartile reaches 100 (nearest rank)",
          report["q3"] == "100.00")


def test_criterion_11_determinism(group_for):
    blob_a, _ = _operator_identity_blob(group_for)
    blob_b, _ = _operator_identity_blob(group_for)
    check("criterion 11: operator-identity run is byte-identical",
          blob_a is not None and blob_a == blob_b)

    G = group_for("A", 2)
    config = SweepConfig(type_letter="A", rank=2, seed=SEED, points=20)
    mtx_a = json.dumps(mtx_report(G, config), sort_keys=True)
    mtx_b = json.dumps(mtx_report(G, config), sort_keys=True)
    check("criterion 11: transition-matrix run is byte-identical",
          mtx_a == mtx_b)

    G4 = group_for("A", 4)
    cfg4 = SweepConfig(type_letter="A", rank=4, seed=SEED)
    stats_a = json.dumps(stats_sweep(G4, cfg4), sort_keys=True)
    stats_b = json.dumps(stats_sweep(G4, cfg4), sort_keys=True)
    check("criterion 11: statistics run is byte-identical",
          stats_a == stats_b)
