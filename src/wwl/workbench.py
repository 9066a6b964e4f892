"""Sweep orchestration behind the command line: exhaustive conjecture
verification, condition statistics, coefficient dumps, transition-matrix
reports, and the on-disk cache.

The verify sweep, which the independent statistics also run, decides each
w on the edges of its left weak interval (shellability._flag_dp) and on a
bit-sliced count of #S(x,w) (shellability._deodhar_masks), so its work per
w depends on neither the number of reduced words nor, but for bitset
width, the number of x; only a w with a violation walks its words, to
list them.  The sweep scans the chain labels once, on the edges of w0's
interval (shellability._chain_table), before it forks, and reads every
w's label dict from that table (shellability._interval_labels); the fast
statistics and mtx's condition-(B) pairs read the same table, with one
bitset per node of w's interval (shellability._condition_b_set), and the
coefficient dump reads a table scanned along its one word's chain.

Reports are dictionaries of JSON values, except the group-algebra values
of the coefficient dump, which the command line writes as their
to_json_obj() straight from the packed keys.  Their content is
deterministic: rows are sorted by canonical word, percentages are exact
rationals rendered to two decimals, and every random choice is driven by
the configured seed, so identical configurations produce byte-identical
output.

Parallel sweeps fork worker processes over blocks of group elements after
the tables are built; the tables, the chain-label table among them, are
read-only, so the workers share them, and results are merged in index
order, so the thread count never changes the output.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .coeffs import (_check_dominant, _closed_form_idx, atom_coeffs,
                     casselman_shalika_check, char_coeffs)
from .errors import BudgetError, ConditionError, DomainError, InvariantError
from .hecke import m_matrix, m_product_value, sample_spectral_point
from .roots import build_root_system
from .shellability import (_canonical_lambda, _chain_labels, _chain_table,
                           _condition_b_set, _deodhar_masks, _failing_flags,
                           _first_words, _flag_dp, _good_word_mask,
                           _interval_labels, _label_of, _one_word_labels,
                           _word_labels_idx, gamma_sequence)
from .weyl import WeylGroup, _bit_indices

DEFAULT_TRIPLE_BUDGET = 2_000_000
LARGE_ORDER_THRESHOLD = 400
# Largest group each sweep accepts, keyed by command
MAX_ORDER = {
    # A6 in either mode: the fast one 5.4-6.6 s at one thread and 5.1-5.3 s
    # at two, at 157 MB, most of it w0's chain table, which both modes
    # build; the independent one runs the verify sweep, gated as
    # verify-conjecture below, in 12.4-12.9 s and 8.4-9.1 s.  D6 (23,040
    # elements) is out: w0's table over every 16th x alone took 52 s and
    # peaked at 2.4 GB (2-vCPU VM, 8 GB), so the whole table does not fit
    "stats": 5040,
    # A6 (16,913,275,917,601 triples), about 13 s at two threads and
    # 160 MB, and D5 about 2 s and 33 MB, both labelled from w0's table;
    # from D5 to A6 the time grows as about the square of the order and
    # the table's one-process build as about the 2.3rd power (F4 0.13 s,
    # A6 3.8 s).  D6 (23,040 elements) is out: w0's table over every 16th
    # x alone took 52 s and peaked at 2.4 GB (2-vCPU VM, 8 GB), the scan
    # maps of two length levels holding bigints as wide as their highest
    # x index.  --budget, not --large, bounds verify's work below the gate
    "verify-conjecture": 5040,
    # B4/C4, about 12 s and 140 MB at 8 points; the upper-interval sums
    # grow as the cube of the order, so A5 (720 elements) would take
    # several minutes
    "mtx": 384,
    # D5, 31-40 s and 240 MB at one thread (F4 8-10 s, A5 4-5.5 s); the
    # residual maps grow with the interval, which puts the next group, B5
    # (3,840 elements), past 100 s and 750 MB
    "good-words": 1920,
}
# Largest interval [e, w] coeff accepts, the number of entries of its
# atom and character tables: B4/C4 at w0 (384) with --char, about 12 s and
# 240 MB, printing 144 MB (D4 at w0, 192, about 1 s and 32 MB); from D4 to
# B4 the time grows as about the 3.5th power of the interval, which would
# put A5 at w0 (720, not run) near two minutes
MAX_COEFF_INTERVAL = 384
# Most matrix entries mtx holds, |W|^2 per point: 113 points on B4/C4
MAX_MTX_ENTRIES = 1 << 24
# Largest Weyl dimension of lambda cs-check accepts: B4 at rho (65,536)
# takes about 10 s and 150 MB; A5 at 2,1,1,1,2 (238,140) is refused
MAX_CS_DIMENSION = 1 << 16


@dataclass
class SweepConfig:
    type_letter: str = "A"
    rank: int = 2
    seed: int = 0
    threads: int = 1
    cache_dir: str | None = None
    large: bool = False
    points: int = 20
    budget: int = DEFAULT_TRIPLE_BUDGET
    mode: str = "fast"


def pct_string(fr: Fraction) -> str:
    """Exact rational percentage rendered to two decimals."""
    cents = round(fr * 100)
    return f"{cents // 100}.{cents % 100:02d}"


def word_str(word) -> str:
    return ",".join(str(a) for a in word)


def parse_int_seq(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse integer sequence {text!r}") from None


# -- group construction and cache ---------------------------------------------

def _cache_path(cache_dir: str, type_letter: str, rank: int) -> str:
    return os.path.join(cache_dir, f"wwl-{type_letter}{rank}.json")


def _cache_payload(group: WeylGroup) -> dict:
    group.ensure_bruhat()
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "order": group.order(),
        "bruhat": [format(m, "x") for m in group._bruhat],
    }


def _payload_digest(payload: dict) -> str:
    import hashlib  # only --cache reads or writes a digest

    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json_atomic(path: str, obj) -> None:
    """Write obj as JSON to a temporary file beside path, then move it into
    place, so an interrupted write leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_group_cache(group: WeylGroup, cache_dir: str) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    payload = _cache_payload(group)
    path = _cache_path(cache_dir, group.rs.type_letter, group.rs.rank)
    _write_json_atomic(path, {"payload": payload,
                              "sha256": _payload_digest(payload)})
    return path


def load_group_cache(group: WeylGroup, cache_dir: str) -> bool:
    """Install cached Bruhat masks; False when absent, corrupt or made for
    another group (such a file is ignored, not trusted, and the caller
    rebuilds the masks).  A digest only shows that the file is intact, so
    the type, rank, order and mask count are checked against the group
    and every mask is parsed before any is installed.  Other keys, such
    as the word counts that earlier files held, are ignored."""
    rs = group.rs
    path = _cache_path(cache_dir, rs.type_letter, rs.rank)
    if not os.path.exists(path):
        return False
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        payload = blob["payload"]
        if blob["sha256"] != _payload_digest(payload):
            return False
        order = group.order()
        hexes = payload["bruhat"]
        if (payload["type"] != rs.type_letter or payload["rank"] != rs.rank
                or payload["order"] != order or len(hexes) != order):
            return False
        masks = [int(h, 16) for h in hexes]
    except (KeyError, TypeError, ValueError, OSError):
        return False
    group.ensure_tables()
    group._bruhat = masks
    return True


def build_group(config: SweepConfig) -> WeylGroup:
    group = WeylGroup(build_root_system(config.type_letter, config.rank))
    if config.cache_dir:
        if not load_group_cache(group, config.cache_dir):
            group.ensure_bruhat()
            save_group_cache(group, config.cache_dir)
    return group


def check_request(command: str, config: SweepConfig, lam=()) -> None:
    """Refuse bad or oversized input from the root data alone, before any
    table is built and so before build_group writes a cache file: a
    verify budget below one triple; a cs-check weight lam that is not
    dominant or past MAX_CS_DIMENSION; a group above MAX_ORDER[command] at
    all, or, but for verify, above LARGE_ORDER_THRESHOLD without --large;
    an mtx run without a point or past MAX_MTX_ENTRIES."""
    if command == "verify-conjecture" and config.budget < 1:
        raise DomainError("verify-conjecture needs a budget of at least 1")
    if command == "cs-check":
        rs = build_root_system(config.type_letter, config.rank)
        dim = rs.weyl_dimension(_check_dominant(rs, lam))
        if dim > MAX_CS_DIMENSION:
            raise BudgetError(f"cs-check stops at Weyl dimension "
                              f"{MAX_CS_DIMENSION}; weight {lam} has {dim}")
    if command not in MAX_ORDER:
        return
    rs = build_root_system(config.type_letter, config.rank)
    order, limit = rs.group_order, MAX_ORDER[command]
    if order > limit:
        raise BudgetError(f"{command} stops at order {limit}; "
                          f"{rs.type_letter}{rs.rank} has {order}")
    if order > LARGE_ORDER_THRESHOLD and not config.large and \
            command != "verify-conjecture":
        raise BudgetError(f"group of order {order} needs --large")
    if command == "mtx":
        if config.points < 1:
            raise DomainError("mtx needs at least one spectral point")
        if config.points * order * order > MAX_MTX_ENTRIES:
            raise BudgetError(f"{config.points} points of order {order} pass "
                              f"the {MAX_MTX_ENTRIES} matrix entries mtx "
                              f"holds")


# -- parallel helper ----------------------------------------------------------

_WORKER_GROUP: WeylGroup | None = None
_WORKER_FN = None


def _worker(item):
    return _WORKER_FN(_WORKER_GROUP, item)


def parallel_over(group: WeylGroup, fn, items, threads: int, costs=None):
    """Map fn(group, item) over items, preserving order, forking when
    asked to and possible, at most one worker per item and per CPU; the
    group tables must already be built.

    Without costs, workers take chunks of consecutive items, which suits
    uniform work.  With costs (one estimate per item), items are handed
    out one per task, heaviest first, so a worker that draws the few
    heavy items is not left with a long chunk behind them."""
    items = list(items)
    threads = min(threads, len(items), os.cpu_count() or 1)
    if threads > 1:
        import multiprocessing  # only a forking sweep needs it

        if multiprocessing.get_start_method(allow_none=True) not in \
                (None, "fork"):
            threads = 1
    if threads <= 1:
        return [fn(group, it) for it in items]
    global _WORKER_GROUP, _WORKER_FN
    _WORKER_GROUP, _WORKER_FN = group, fn
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(threads) as pool:
        if costs is None:
            chunk = max(1, len(items) // (threads * 8))
            return pool.map(_worker, items, chunksize=chunk)
        order = sorted(range(len(items)), key=lambda k: -costs[k])
        results = [None] * len(items)
        for k, result in zip(order, pool.map(
                _worker, [items[k] for k in order], chunksize=1)):
            results[k] = result
        return results


# -- conjecture verification ----------------------------------------------------

def _triples_per_w(group: WeylGroup) -> list[int]:
    """The (reduced word, x <= w) triples of every w, the work of labelling
    w's words; the Bruhat masks must be built."""
    counts = group.reduced_word_counts()
    return [counts[wi] * group.bruhat_mask(wi).bit_count()
            for wi in range(group.order())]


def _verify_w(group: WeylGroup, wi: int, table):
    """Every (reduced word, x <= w) triple of one w, decided on the edges
    of w's left weak interval (_flag_dp) with no word visited, their
    labels read from the _chain_table of w0: `held` counts the x with
    flag (i) on some word.  Only a w with a violation walks its words,
    reading the same edge labels, to list each disagreeing triple with
    its labels; the x that walk finds must be those the edges gave."""
    xset = group.bruhat_mask(wi)
    labels = _interval_labels(group, wi, xset, table)
    violating, held = _flag_dp(group, wi, xset, labels)
    violations = []
    listed = 0
    for word, lam, inc, dec in _word_labels_idx(group, wi, labels) \
            if violating else ():
        fails = _failing_flags(lam, inc, dec)
        disagree = (fails[0] | fails[1] | fails[2]) \
            & ~(fails[0] & fails[1] & fails[2])
        listed |= disagree
        for xi in _bit_indices(disagree):
            violations.append({
                "w": list(group.canon_of_idx(wi)),
                "word": list(word),
                "x": list(group.canon_of_idx(xi)),
                "lambda": list(_label_of(lam, xi)),
                "chain_min": list(_label_of(inc, xi)),
                "chain_max": list(_label_of(dec, xi, descending=True)),
                "flags": [not (f >> xi) & 1 for f in fails],
            })
    if listed != violating:
        raise InvariantError("the word walk and the edge DP find different "
                             "disagreeing x")
    below, _ = _deodhar_masks(group, wi, xset,
                              _canonical_lambda(group, wi, labels))
    deodhar_failures = [
        {"w": list(group.canon_of_idx(wi)), "x": list(group.canon_of_idx(xi))}
        for xi in _bit_indices(below)]
    return {"triples": group.reduced_word_counts()[wi] * xset.bit_count(),
            "held": held.bit_count(), "violations": violations,
            "deodhar_failures": deodhar_failures}


def verify_conjecture(group: WeylGroup, config: SweepConfig) -> dict:
    """Exhaustively test the equivalence of the three per-word flags over
    every (w, reduced word, x <= w) triple, stopping at the triple budget,
    which check_request holds to at least one."""
    group.ensure_bruhat()
    size = group.order()
    per_w = _triples_per_w(group)
    included = []
    cum = 0
    for wi in range(size):
        if cum + per_w[wi] > config.budget:
            break
        cum += per_w[wi]
        included.append(wi)
    results = _verify_sweep(group, included, config.threads,
                            per_w[:len(included)])
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "elements_swept": len(included),
        "elements_total": size,
        "triples_tested": sum(r["triples"] for r in results),
        "violations": [v for r in results for v in r["violations"]],
        "deodhar_failures": [d for r in results for d in r["deodhar_failures"]],
        "partial": len(included) < size,
    }


def _verify_sweep(group: WeylGroup, items, threads: int, costs) -> list:
    """_verify_w over the w of items, forked as parallel_over does, on one
    _chain_table built first over the x below any of them, which the
    workers share."""
    xset = 0
    for wi in items:
        xset |= group.bruhat_mask(wi)
    table = _chain_table(group, group.order() - 1, xset)
    return parallel_over(group, partial(_verify_w, table=table), items,
                         threads, costs=costs)


# -- statistics ------------------------------------------------------------------

def stats_sweep(group: WeylGroup, config: SweepConfig) -> dict:
    """One row per element: how many x below it satisfy the chain condition
    for some reduced word.  The fast mode counts the x with flag (ii) on
    some word (_condition_b_set), relying on the verified equivalence of
    the three flags, on one _chain_table of w0 built before the sweep
    forks; the independent mode runs the verify sweep and raises
    InvariantError on any flag disagreement or Deodhar failure."""
    group.ensure_bruhat()
    size = group.order()
    if config.mode == "fast":
        table = _chain_table(group, size - 1, group.bruhat_mask(size - 1))
        held = parallel_over(group, partial(_condition_b_set, table=table),
                             range(size), config.threads)
        counts = [(group.bruhat_mask(wi).bit_count(), xs.bit_count())
                  for wi, xs in enumerate(held)]
    else:
        results = _verify_sweep(group, range(size), config.threads,
                                _triples_per_w(group))
        for r in results:
            if r["violations"]:
                raise InvariantError(
                    f"per-word flags disagree: {r['violations'][0]}")
            if r["deodhar_failures"]:
                raise InvariantError(
                    f"Deodhar's inequality fails: {r['deodhar_failures'][0]}")
        counts = [(group.bruhat_mask(wi).bit_count(), r["held"])
                  for wi, r in enumerate(results)]

    rows = []
    for wi in sorted(range(size), key=group.canon_of_idx):
        n_leq, n_cond = counts[wi]
        pct = Fraction(100 * n_cond, n_leq)
        rows.append({
            "w": list(group.canon_of_idx(wi)),
            "n_leq": n_leq,
            "n_cond": n_cond,
            "pct": pct_string(pct),
            "_pct_exact": pct,
        })

    pcts = sorted(r["_pct_exact"] for r in rows)
    bins = [0] * 10
    for p in pcts:
        bins[min(9, int(p // 10))] += 1
    n = len(pcts)
    q3 = pcts[-(-3 * n // 4) - 1]  # nearest-rank upper quartile
    mode_bin = max(range(10), key=lambda b: (bins[b], b))
    for r in rows:
        del r["_pct_exact"]
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "mode": config.mode,
        "rows": rows,
        "histogram": {"bin_edges": [10 * b for b in range(11)],
                      "counts": bins},
        "mode_bin": [10 * mode_bin, 10 * (mode_bin + 1)],
        "q3": pct_string(q3),
    }


def stats_to_csv(report: dict) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["type", "rank", "w", "n_leq", "n_cond", "pct"])
    for r in report["rows"]:
        writer.writerow([report["type"], report["rank"],
                         word_str(r["w"]), r["n_leq"], r["n_cond"], r["pct"]])
    return buf.getvalue()


# -- coefficient dump -----------------------------------------------------------

def coeff_report(group: WeylGroup, w_word, x_word=None,
                 include_char: bool = False) -> dict:
    group.ensure_bruhat()
    w_word = tuple(w_word)
    w = group.element_from_word(w_word)
    wi = group.idx_of(w)
    below = group.bruhat_mask(wi)
    if below.bit_count() > MAX_COEFF_INTERVAL:
        raise BudgetError(f"coeff stops at {MAX_COEFF_INTERVAL} elements "
                          f"below w; [e, w] has {below.bit_count()}")
    table = atom_coeffs(group, w, w_word)  # checks that w_word is reduced
    chars = char_coeffs(group, w, w_word) if include_char else None
    labels = _one_word_labels(group, wi, w_word, below)

    def entry_for(xi):
        obj = {
            "x": list(group.canon_of_idx(xi)),
            "value": table[xi],
        }
        try:
            closed = _closed_form_idx(group, w_word, xi, labels)
            obj["condition"] = "holds"
            obj["closed_form"] = closed
            obj["closed_form_matches"] = closed == table[xi]
        except ConditionError as exc:
            obj["condition"] = "fails"
            obj["closed_form"] = None
            obj["condition_labels"] = {
                "lambda": list(exc.lambda_set or ()),
                "chain_min": list(exc.chain_min or ()),
                "chain_max": list(exc.chain_max or ()),
            }
        if chars is not None:
            obj["char_coeff"] = chars[xi]
        return obj

    report = {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "w": list(w_word),
        "zero_entries": [list(group.canon_of_idx(xi))
                         for xi, val in table.items() if not val],
    }
    if x_word is None:
        report["coeffs"] = [entry_for(xi) for xi in table]
    else:
        xi = group.word_to_idx(x_word)
        if xi not in table:
            raise DomainError("x is not below w")
        report["coeffs"] = [entry_for(xi)]
    return report


# -- transition matrix ----------------------------------------------------------

def mtx_report(group: WeylGroup, config: SweepConfig) -> dict:
    """m(x, w) at seeded points for all pairs; condition-(B) pairs also get
    the closed product and an agreement flag; check_request holds the
    point count to the sizes mtx accepts."""
    size = group.order()
    group.ensure_bruhat()
    rng = random.Random(config.seed)
    points = [sample_spectral_point(group.rs, rng)
              for _ in range(config.points)]
    matrices = [m_matrix(group, pt) for pt in points]
    factors = [{} for _ in points]  # per point: gamma -> product factor
    # condition (B) witnesses, on one _chain_table: each w's pairs are the
    # x < w of _condition_b_set, then one first-word search over just
    # those x finds their witnesses, and it must find one for each; each
    # pair's chain roots are read off its witness word's increasing label,
    # which flag (ii) makes equal to the decreasing one
    table = _chain_table(group, size - 1, group.bruhat_mask(size - 1))
    roots = []
    for wi in range(size):
        xset = _condition_b_set(group, wi, table) & ~(1 << wi)
        labels = _interval_labels(group, wi, xset, table)
        found = _first_words(group, wi, xset, labels, 1)
        if len(found) != xset.bit_count():
            raise InvariantError(
                "a condition-(B) pair of the edge search has no witness "
                "word")
        roots.append({xi: gamma_sequence(group, word, _label_of(
            _chain_labels(group, labels, wi, word)[1], xi))
            for xi, word in found.items()})
    pairs = []
    ok = True
    for xi in range(size):
        for wi in range(size):
            values = [m[xi][wi] for m in matrices]
            entry = {
                "x": list(group.canon_of_idx(xi)),
                "w": list(group.canon_of_idx(wi)),
                "points": config.points,
                "value_at_point0": str(values[0]),
            }
            if not group.leq_idx(xi, wi):
                entry["upper_triangular_zero"] = all(v == 0 for v in values)
                ok = ok and entry["upper_triangular_zero"]
                entry["agree"] = None
            elif xi == wi:
                entry["diagonal_one"] = all(v == 1 for v in values)
                ok = ok and entry["diagonal_one"]
                entry["agree"] = None
            else:
                gammas = roots[wi].get(xi)
                has_b = gammas is not None
                entry["condition_b"] = has_b
                if has_b:
                    prods = [m_product_value(gammas, pt, f)
                             for pt, f in zip(points, factors)]
                    entry["agree"] = prods == values
                    ok = ok and entry["agree"]
                else:
                    entry["agree"] = None
            pairs.append(entry)
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "points": config.points,
        "seed": config.seed,
        "pairs": pairs,
        "ok": ok,
    }


# -- remaining commands -----------------------------------------------------------

def cs_report(group: WeylGroup, lam) -> dict:
    # the sums read no Bruhat mask, but the masks' byte budget is the
    # command's size gate: E6 and up are refused before any table is built
    group.ensure_bruhat()
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "lambda": list(lam),
        "equal": casselman_shalika_check(group, lam),
    }


def good_words_report(group: WeylGroup) -> dict:
    """Census over pairs with #S(x,w) equal to the length difference: does
    any reduced word of w delete down to x cleanly?"""
    group.ensure_bruhat()
    pairs = []
    for wi in range(group.order()):
        xset = group.bruhat_mask(wi)
        labels = _interval_labels(group, wi, xset)
        qualifying = _deodhar_masks(group, wi, xset,
                                    _canonical_lambda(group, wi, labels))[1]
        good = _good_word_mask(group, wi, qualifying, labels)
        for xi in _bit_indices(qualifying):
            pairs.append({
                "x": list(group.canon_of_idx(xi)),
                "w": list(group.canon_of_idx(wi)),
                "has_good_word": bool(good >> xi & 1),
            })
    return {
        "type": group.rs.type_letter,
        "rank": group.rs.rank,
        "qualifying_pairs": len(pairs),
        "pairs_without_good_word": sum(not p["has_good_word"] for p in pairs),
        "pairs": pairs,
    }

