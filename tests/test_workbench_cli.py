"""Command-line behavior: exit codes, output determinism, cache coherence,
and the report contents for the smallest groups."""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from wwl import (WeylGroup, build_root_system, roots, shellability,
                 workbench)
from wwl.cli import _emit, main
from wwl.errors import BudgetError, InvariantError
from wwl.groupalg import MAX_WEIGHT_COORD, GAElement
from wwl.shellability import condition_A, condition_B, condition_per_word
from wwl.workbench import (SweepConfig, check_request, coeff_report,
                           cs_report, good_words_report, load_group_cache,
                           mtx_report, parse_int_seq, pct_string,
                           save_group_cache, stats_sweep, verify_conjecture)
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from test_weyl import interval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_tables(self):
    raise AssertionError("a table was built")


def run_proc(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "wwl.cli", *argv],
                          capture_output=True, text=True, env=full_env)
    return proc.returncode, proc.stdout, proc.stderr


# -- basic helpers ---------------------------------------------------------------

def test_parse_word():
    assert parse_int_seq("1,2,1") == (1, 2, 1)
    assert parse_int_seq("") == ()
    with pytest.raises(Exception):
        parse_int_seq("1,x")


def test_pct_rendering():
    assert pct_string(Fraction(100)) == "100.00"
    assert pct_string(Fraction(100, 3)) == "33.33"
    assert pct_string(Fraction(200, 3)) == "66.67"
    assert pct_string(Fraction(0)) == "0.00"


# -- verify-conjecture -------------------------------------------------------------

def test_verify_conjecture_a2(capsys):
    code, out, _ = run_cli(capsys, "verify-conjecture", "--type", "A",
                           "--rank", "2")
    assert code == 0
    report = json.loads(out)
    assert report["triples_tested"] > 0
    assert report["violations"] == []
    assert report["deodhar_failures"] == []
    assert report["partial"] is False


def test_verify_conjecture_budget_exit(capsys):
    code, out, _ = run_cli(capsys, "verify-conjecture", "--type", "A",
                           "--rank", "3", "--budget", "10")
    assert code == 3
    report = json.loads(out)
    assert report["partial"] is True
    assert report["elements_swept"] < report["elements_total"]


# -- bad input --------------------------------------------------------------------

def test_invalid_rank_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify-conjecture", "--type", "D",
                           "--rank", "3")
    assert code == 4
    assert "D" in err


def test_coeff_incomparable_exit_code(capsys):
    code, _, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "2",
                         "--w", "1", "--x", "2")
    assert code == 4


def test_coeff_non_reduced_word(capsys):
    code, _, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "2",
                         "--w", "1,1")
    assert code == 4


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "coeff", "--nope", "1")
    assert code == 4


@pytest.mark.parametrize("command", [
    ["verify-conjecture"], ["coeff", "--w", "1,2"], ["mtx"],
    ["cs-check", "--lambda", "1,1"], ["good-words"]], ids=lambda c: c[0])
def test_format_is_a_stats_flag(capsys, command):
    """Only stats writes CSV; every other command refuses --format rather
    than print JSON under it."""
    code, out, err = run_cli(capsys, *command, "--type", "A", "--rank", "2",
                             "--format", "csv")
    assert (code, out) == (4, "")
    assert "--format" in err


def test_threads_variable_is_ignored():
    """--threads is the only source of the worker count: WWL_THREADS, even
    a malformed one, changes neither the exit code nor the output."""
    argv = ("verify-conjecture", "--type", "A", "--rank", "2",
            "--threads", "1")
    plain = run_proc(*argv)
    assert plain[0] == 0
    assert run_proc(*argv, env={"WWL_THREADS": "two"}) == plain


@pytest.mark.parametrize("argv,env", [
    (["--threads", "0"], None), (["--threads", "-1"], None),
    (["--threads", "0"], "2")])
def test_thread_counts_below_one_exit_4(capsys, monkeypatch, argv, env):
    """A bad --threads is refused, and a valid WWL_THREADS does not stand
    in for it."""
    if env is not None:
        monkeypatch.setenv("WWL_THREADS", env)
    code, out, err = run_cli(capsys, "verify-conjecture", "--type", "A",
                             "--rank", "2", *argv)
    assert (code, out) == (4, "")
    assert "at least 1" in err


class FakePoolContext:
    """Stands in for a fork context: records the size of every pool asked
    for and maps in this process, so no worker is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.mark.parametrize("threads,items,cpus,size", [
    (8, 3, 64, 3), (8, 10, 2, 2), (3, 10, 64, 3), (2, 10, None, None),
    (4, 1, 64, None), (1, 10, 64, None)])
@pytest.mark.parametrize("costs", [False, True])
def test_pool_capped_by_items_and_cpus(monkeypatch, threads, items, cpus,
                                       size, costs):
    """parallel_over asks for at most one worker per item and per CPU, and
    none when that leaves one; the results do not depend on the count."""
    ctx = FakePoolContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: "fork")
    monkeypatch.setattr(workbench.os, "cpu_count", lambda: cpus)
    group = WeylGroup(build_root_system("A", 2))
    got = workbench.parallel_over(
        group, lambda g, item: (item, g.order()), range(items), threads,
        costs=list(range(items)) if costs else None)
    assert got == [(item, 6) for item in range(items)]
    assert ctx.sizes == ([] if size is None else [size])


def test_cli_import_leaves_out_fork_and_digest_modules():
    """Every command pays for importing wwl.cli; multiprocessing (for a
    forking sweep) and hashlib (for a --cache digest) are imported where
    they are used, not on the way in."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(workbench.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wwl.cli; "
         "print(sorted({'multiprocessing', 'hashlib'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


def test_one_thread_sweep_leaves_out_multiprocessing():
    """A sweep at one thread runs in the process it starts in, so it never
    imports multiprocessing, whose import costs tens of milliseconds."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(workbench.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from wwl.cli import main; "
         "code = main(['verify-conjecture', '--type', 'A', '--rank', '2', "
         "'--threads', '1']); "
         "sys.stderr.write(f'{code} {\"multiprocessing\" in sys.modules}')"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stderr == "0 False"
    assert json.loads(proc.stdout)["triples_tested"] == 25


@pytest.mark.parametrize("points", ["0", "-3"])
def test_mtx_needs_a_point(capsys, points):
    code, out, err = run_cli(capsys, "mtx", "--type", "A", "--rank", "2",
                             "--points", points)
    assert (code, out) == (4, "")
    assert "point" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_needs_a_positive_budget(capsys, monkeypatch, budget):
    """A budget below one triple is bad input, refused before any table is
    built."""
    monkeypatch.setattr(WeylGroup, "ensure_tables", refuse_tables)
    code, out, err = run_cli(capsys, "verify-conjecture", "--type", "A",
                             "--rank", "2", "--budget", budget)
    assert (code, out) == (4, "")
    assert "budget" in err


def test_mtx_entry_limit_before_any_table(monkeypatch):
    """points * |W|^2 above MAX_MTX_ENTRIES is refused before any table is
    built: on B4 (384 elements) 113 points pass the gate and 114 do not."""
    monkeypatch.setattr(WeylGroup, "ensure_tables", refuse_tables)
    check_request("mtx", SweepConfig("B", 4, points=113))
    with pytest.raises(BudgetError, match="entries"):
        check_request("mtx", SweepConfig("B", 4, points=114))


@pytest.mark.parametrize("argv,code", [
    (["mtx", "--type", "B", "--rank", "3", "--points", "0"], 4),
    (["verify-conjecture", "--type", "B", "--rank", "3", "--budget", "0"], 4),
    (["mtx", "--type", "B", "--rank", "4", "--points", "114"], 3),
    (["cs-check", "--type", "A", "--rank", "2", "--lambda=-1,0"], 4),
    (["cs-check", "--type", "A", "--rank", "2", "--lambda", "1,0,0"], 4),
    (["cs-check", "--type", "A", "--rank", "5", "--lambda", "2,1,1,1,2"], 3),
], ids=["mtx-points", "verify-budget", "mtx-entries", "cs-not-dominant",
        "cs-length", "cs-dimension"])
def test_refused_input_leaves_no_cache_file(capsys, tmp_path, argv, code):
    """Input refused as bad or too large exits before build_group, so the
    --cache directory is left as it was: empty."""
    cache = tmp_path / "cache"
    cache.mkdir()
    got, out, _ = run_cli(capsys, *argv, "--cache", str(cache))
    assert (got, out) == (code, "")
    assert list(cache.iterdir()) == []


A5_W0 = "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1"


def _too_large_runs():
    for rank in (7, 8):
        zero = ",".join(["0"] * rank)
        for command, *extra in (["verify-conjecture"], ["stats", "--large"],
                                ["coeff", "--w", "1,3"], ["mtx"],
                                ["cs-check", "--lambda", zero], ["good-words"]):
            yield [command, "--type", "E", "--rank", str(rank), *extra]
    yield ["coeff", "--type", "E", "--rank", "6", "--w", "1,3"]
    # [e, w0] of A5 has 720 elements, past the coeff interval limit
    yield ["coeff", "--type", "A", "--rank", "5", "--w", A5_W0, "--char"]
    yield ["cs-check", "--type", "E", "--rank", "6", "--lambda", "0,0,0,0,0,0"]
    # above the --large threshold: refused before any table is built
    yield ["stats", "--type", "B", "--rank", "5"]
    yield ["stats", "--type", "A", "--rank", "6"]
    # above the stats order limit even with --large
    yield ["stats", "--type", "D", "--rank", "6", "--large"]
    # the independent stats mode above the --large threshold
    yield ["stats", "--type", "F", "--rank", "4", "--mode", "independent"]
    # above the mtx order limit
    for type_letter, rank in (("A", 5), ("F", 4), ("D", 5)):
        yield ["mtx", "--type", type_letter, "--rank", str(rank)]
    # above the mtx entry limit: 114 points of 384^2 entries
    yield ["mtx", "--type", "B", "--rank", "4", "--points", "114"]
    # good-words above the --large threshold, and above its order limit
    # even with --large
    yield ["good-words", "--type", "F", "--rank", "4"]
    for type_letter, rank in (("B", 5), ("A", 6)):
        yield ["good-words", "--type", type_letter, "--rank", str(rank),
               "--large"]
    yield from _too_large_weights()


def _too_large_weights():
    """cs-check weights past MAX_CS_DIMENSION: 238,140, 1,048,576 and
    16,777,216."""
    for type_letter, lam in (("A", "2,1,1,1,2"), ("D", "1,1,1,1,1"),
                             ("F", "1,1,1,1")):
        yield ["cs-check", "--type", type_letter,
               "--rank", str(lam.count(",") + 1), "--lambda", lam]


@pytest.mark.parametrize("argv", list(_too_large_runs()),
                         ids=lambda argv: f"{argv[0]}-{argv[2]}{argv[4]}")
def test_too_large_groups_exit_3_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("budget:")


# Groups in ascending order of |W|, up to D6 (23,040 elements)
ORDERED_GROUPS = [("G", 2), ("A", 3), ("B", 3), ("A", 4), ("D", 4), ("B", 4),
                  ("A", 5), ("F", 4), ("D", 5), ("B", 5), ("A", 6), ("D", 6)]


def _order_gate_runs():
    """(command, (type, rank)) for each MAX_ORDER gate, with the smallest
    group of ORDERED_GROUPS above it; the stats gate is run in each mode."""
    for command, limit in sorted(workbench.MAX_ORDER.items()):
        group = next((t, r) for t, r in ORDERED_GROUPS
                     if build_root_system(t, r).group_order > limit)
        if command == "stats":
            yield "stats --mode fast", group
            yield "stats --mode independent", group
        else:
            yield command, group


@pytest.mark.parametrize("command,group", list(_order_gate_runs()),
                         ids=lambda v: v.replace(" --mode ", "-")
                         if isinstance(v, str) else f"{v[0]}{v[1]}")
def test_order_gates_exit_3_before_any_table(capsys, monkeypatch, command,
                                             group):
    """Each command's MAX_ORDER gate refuses the smallest group above it,
    with --large given, before any table is built."""
    monkeypatch.setattr(WeylGroup, "ensure_tables", refuse_tables)
    code, out, err = run_cli(capsys, *command.split(), "--type", group[0],
                             "--rank", str(group[1]), "--large")
    assert (code, out) == (3, "")
    assert "stops at order" in err


def test_cs_dimension_gate_before_any_table(monkeypatch):
    """The cs-check size gate reads the root data alone: it admits A4 at
    2,1,1,2 (Weyl dimension 6,125), A5 at rho (32,768) and B4 at rho
    (65,536, the limit itself), and refuses the weights past it, with no
    table built."""
    monkeypatch.setattr(WeylGroup, "ensure_tables", refuse_tables)
    for type_letter, lam in (("A", (2, 1, 1, 2)), ("A", (1,) * 5),
                             ("B", (1,) * 4)):
        check_request("cs-check", SweepConfig(type_letter, len(lam)), lam)
    for argv in _too_large_weights():
        config = SweepConfig(argv[2], int(argv[4]))
        with pytest.raises(BudgetError, match="Weyl dimension"):
            check_request("cs-check", config, parse_int_seq(argv[6]))


@pytest.mark.parametrize("lam", ["4294967296,1,1,2", "1,1,1,-1048577"])
def test_cs_check_huge_weight_exits_3_fast(capsys, lam):
    """A weight coordinate beyond the packed monomial fields is refused
    before any computation, never wrapped around."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cs-check", "--type", "A", "--rank", "4",
                             "--lambda", lam)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("budget:")


def test_group_order_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setitem(roots._GROUP_ORDER, "G", lambda n: 13)
    code, out, err = run_cli(capsys, "good-words", "--type", "G", "--rank", "2")
    assert code == 2
    assert out == ""
    assert "expected 13" in err


# -- stats ---------------------------------------------------------------------------

def test_stats_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "type,rank,w,n_leq,n_cond,pct"
    assert len(lines) == 7  # header + one row per element
    # the identity row: 1 element below, trivially satisfied
    assert lines[1].startswith("A,2,,1,1,100.00")


def test_stats_json_content(capsys):
    code, out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 6
    assert sum(report["histogram"]["counts"]) == 6
    for row in report["rows"]:
        assert 0 <= row["n_cond"] <= row["n_leq"]


def test_stats_large_gate(capsys):
    code, _, err = run_cli(capsys, "stats", "--type", "A", "--rank", "5")
    assert code == 3
    assert "large" in err


def test_stats_large_gate_precedes_cache_build(tmp_path, capsys):
    cache = tmp_path / "cache"
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "6",
                           "--cache", str(cache))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert not cache.exists() or not os.listdir(cache)


def test_stats_byte_identical_runs():
    a = run_proc("stats", "--type", "A", "--rank", "3", "--seed", "9")
    b = run_proc("stats", "--type", "A", "--rank", "3", "--seed", "9")
    assert a == b
    assert a[0] == 0


def test_stats_threads_do_not_change_output():
    one = run_proc("stats", "--type", "A", "--rank", "3", "--threads", "1")
    two = run_proc("stats", "--type", "A", "--rank", "3", "--threads", "2")
    assert one[1] == two[1]


def test_heaviest_first_dispatch_keeps_input_order():
    """Items handed to two workers heaviest first come back in input
    order, so the independent statistics agree at one and two threads."""
    group = WeylGroup(build_root_system("A", 3))
    group.ensure_bruhat()
    costs = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    assert workbench.parallel_over(
        group, lambda g, item: (item, g.order()), range(10), 2,
        costs=costs) == [(item, 24) for item in range(10)]
    one, two = (stats_sweep(group, SweepConfig("A", 3, mode="independent",
                                               threads=threads))
                for threads in (1, 2))
    assert one == two


def _golden_a4():
    return json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                       "stats_a4_golden.json")))


# sha256 of the stdout of `stats --large`, as printed before the fast path
# became a reachability search, and since it became an edge DP on w0's
# chain table
STATS_DIGESTS = {
    ("D", 4): "a81ac0cf47780b41219fc9f2b753fc4c968fc5005b4547cc6023840879f54437",
    ("B", 4): "31affdc37487d3f32ae67b3ed0f58eb4ad7316bad73828a5aa4977deb3b11b68",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("type_letter,rank", list(STATS_DIGESTS))
def test_stats_large_digests(type_letter, rank, threads):
    code, out, _ = run_proc("stats", "--type", type_letter, "--rank",
                            str(rank), "--large", "--threads", threads)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        STATS_DIGESTS[(type_letter, rank)]


def test_stats_independent_mode_cli(capsys):
    code, out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2",
                           "--mode", "independent")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "independent"
    code, fast_out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2")
    fast = json.loads(fast_out)
    assert report["rows"] == fast["rows"]


def force_edge_disagreement(monkeypatch):
    """The increasing-label bit of x = e flipped on the edge (w0, letter 1)
    of the longest element of A2, which lies on its word 1,2,1 alone, in
    the table of w0's chain labels that the sweeps read: that word's
    increasing label of e loses position 1, so e fails flags (ii) and
    (iii) there and keeps flag (i)."""
    build = workbench._chain_table

    def flipped(group, wi, xset):
        inc, dec = build(group, wi, xset)
        inc[0][group.order() - 1] ^= 1  # letter 1; x = e has index 0
        return inc, dec

    monkeypatch.setattr(workbench, "_chain_table", flipped)


def test_stats_independent_flag_disagreement_raises(monkeypatch):
    """A flag disagreement forced on one edge: the independent statistics
    raise after the sweep, naming the first disagreeing triple, that of
    x = e on the word 1,2,1."""
    force_edge_disagreement(monkeypatch)
    group = WeylGroup(build_root_system("A", 2))
    with pytest.raises(InvariantError,
                       match=r"disagree: \{'w': \[1, 2, 1\], "
                             r"'word': \[1, 2, 1\], 'x': \[\],"):
        stats_sweep(group, SweepConfig("A", 2, mode="independent"))


def test_stats_independent_deodhar_failure_raises(monkeypatch, capsys):
    """One negative #S(x,w) slack forced, at x = e below the longest
    element of A2: the independent statistics raise, naming the pair, and
    the command exits 2 with nothing on stdout."""
    masks = workbench._deodhar_masks

    def one_below(group, wi, xset, lams):
        below, tight = masks(group, wi, xset, lams)
        if wi == group.order() - 1:
            below |= 1  # x = e has index 0
        return below, tight

    monkeypatch.setattr(workbench, "_deodhar_masks", one_below)
    group = WeylGroup(build_root_system("A", 2))
    with pytest.raises(InvariantError,
                       match=r"Deodhar.*\{'w': \[1, 2, 1\], 'x': \[\]\}$"):
        stats_sweep(group, SweepConfig("A", 2, mode="independent"))
    code, out, err = run_cli(capsys, "stats", "--type", "A", "--rank", "2",
                             "--mode", "independent", "--threads", "1")
    assert (code, out) == (2, "")
    assert "Deodhar" in err


def test_verify_flag_disagreement_is_one_violation(monkeypatch, capsys):
    """A flag disagreement forced on the edge (w0, letter 1) of A2, which
    only the word 1,2,1 of the longest element crosses: the sweep reports
    exactly that triple, with the labels it read, and the command exits
    2."""
    force_edge_disagreement(monkeypatch)
    code, out, _ = run_cli(capsys, "verify-conjecture", "--type", "A",
                           "--rank", "2", "--threads", "1")
    assert code == 2
    report = json.loads(out)
    assert report["triples_tested"] == 25
    assert report["violations"] == [{
        "w": [1, 2, 1], "word": [1, 2, 1], "x": [],
        "lambda": [1, 2, 3], "chain_min": [2, 3], "chain_max": [3, 2, 1],
        "flags": [True, False, False]}]


# sha256 of the stdout of `verify-conjecture`, as printed while each
# greedy chain was searched per (x, word) on cover lists keyed by the
# deleted positions
VERIFY_DIGESTS = {
    ("A", 4): "690e944c0882303e10fca41660c6790d8e217f7bb3ae65667c43515942daede1",
    ("B", 3): "b18b46a42d5a507834cbdee2fb7dae92f5d6749b1337fb10802deefb1ab859c6",
    ("C", 3): "b1103fa423ee267f52004956d2815cc0474372b3b6e654e2e9151cc673973973",
    ("G", 2): "d3ec9764e7ee6403619fff54bc2fc72a9e9735f8225ad37f4d779c4b15bc1305",
    # 1,379,685 triples; recorded while the flags compared per-x tuples
    ("D", 4): "38aa9ae4ee926e19ac23df44eda5a2eea0522184375c7e91d1f038d2b25211d4",
    # partial at the default budget (330 of 384 w), so the chain table
    # covers only the x below the swept w
    ("B", 4): "8c36f83caefb51116c03c86dfb261dbfc7d8ec9651311500f518eea2b6ce8bb4",
}
# exit code of each partial sweep above; the others exit 0
VERIFY_EXIT_CODES = {("B", 4): 3}


@pytest.mark.parametrize("type_letter,rank,threads",
                         [("A", 4, "1"), ("A", 4, "2"), ("B", 3, "1"),
                          ("C", 3, "1"), ("G", 2, "1"), ("D", 4, "2"),
                          ("B", 4, "1"), ("B", 4, "2")])
def test_verify_digests(type_letter, rank, threads):
    code, out, _ = run_proc("verify-conjecture", "--type", type_letter,
                            "--rank", str(rank), "--threads", threads)
    assert code == VERIFY_EXIT_CODES.get((type_letter, rank), 0)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_DIGESTS[(type_letter, rank)]


def test_verify_threads_do_not_change_output():
    one = run_proc("verify-conjecture", "--type", "B", "--rank", "2",
                   "--threads", "1")
    two = run_proc("verify-conjecture", "--type", "B", "--rank", "2",
                   "--threads", "3")
    assert one == two


# -- cache ------------------------------------------------------------------------------

def test_cache_round_trip_matches_fresh(tmp_path):
    fresh = WeylGroup(build_root_system("B", 2))
    fresh.ensure_bruhat()
    path = save_group_cache(fresh, str(tmp_path))
    assert os.path.exists(path)

    loaded = WeylGroup(build_root_system("B", 2))
    assert load_group_cache(loaded, str(tmp_path))
    assert loaded._bruhat == fresh._bruhat
    assert loaded.reduced_word_counts() == fresh.reduced_word_counts()


def test_cache_with_word_counts_still_loads(tmp_path):
    """Earlier cache files also held the reduced-word counts; they load,
    and the counts are recomputed rather than read."""
    fresh = WeylGroup(build_root_system("B", 2))
    path = save_group_cache(fresh, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    payload["reduced_word_counts"] = [0] * fresh.order()
    workbench._write_json_atomic(path, {
        "payload": payload, "sha256": workbench._payload_digest(payload)})
    loaded = WeylGroup(build_root_system("B", 2))
    assert load_group_cache(loaded, str(tmp_path))
    assert loaded._bruhat == fresh._bruhat
    assert loaded.reduced_word_counts() == fresh.reduced_word_counts()


def test_cache_rejects_corruption(tmp_path):
    group = WeylGroup(build_root_system("A", 2))
    group.ensure_bruhat()
    path = save_group_cache(group, str(tmp_path))
    blob = json.load(open(path))
    blob["payload"]["bruhat"][0] = "ff"
    json.dump(blob, open(path, "w"))
    other = WeylGroup(build_root_system("A", 2))
    assert not load_group_cache(other, str(tmp_path))


def assert_bad_cache_rebuilt(capsys, cache_dir, type_letter):
    """The loader refuses the file, and verify-conjecture with --cache
    ignores it: the output is that of a run without the cache, and the
    file is rewritten with the group's own masks."""
    assert not load_group_cache(WeylGroup(build_root_system(type_letter, 3)),
                                str(cache_dir))
    args = ("verify-conjecture", "--type", type_letter, "--rank", "3")
    code, plain, _ = run_cli(capsys, *args)
    assert code == 0
    code, cached, err = run_cli(capsys, *args, "--cache", str(cache_dir))
    assert (code, cached, err) == (0, plain, "")
    fresh = WeylGroup(build_root_system(type_letter, 3))
    fresh.ensure_bruhat()
    loaded = WeylGroup(build_root_system(type_letter, 3))
    assert load_group_cache(loaded, str(cache_dir))
    assert loaded._bruhat == fresh._bruhat


@pytest.mark.parametrize("bad_masks", [
    lambda masks: masks.__setitem__(5, "not hex"),
    lambda masks: masks.__delitem__(slice(10, None))],
    ids=["non-hex-mask", "short-mask-list"])
def test_cache_with_matching_digest_but_bad_masks_is_rebuilt(
        tmp_path, capsys, bad_masks):
    """The digest only shows that the file is intact: a file written with
    a matching digest around unusable masks is still refused."""
    path = save_group_cache(WeylGroup(build_root_system("B", 3)),
                            str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)["payload"]
    bad_masks(payload["bruhat"])
    workbench._write_json_atomic(path, {
        "payload": payload, "sha256": workbench._payload_digest(payload)})
    assert_bad_cache_rebuilt(capsys, tmp_path, "B")


def test_cache_of_another_group_is_rebuilt(tmp_path, capsys):
    """B3 and C3 have the same order; a B3 file renamed to C3's name is
    not loaded as C3's masks."""
    b3 = WeylGroup(build_root_system("B", 3))
    os.replace(save_group_cache(b3, str(tmp_path)),
               tmp_path / "wwl-C3.json")
    assert_bad_cache_rebuilt(capsys, tmp_path, "C")


def test_interrupted_cache_rewrite_keeps_old_cache(tmp_path, monkeypatch):
    group = WeylGroup(build_root_system("B", 2))
    group.ensure_bruhat()
    save_group_cache(group, str(tmp_path))

    def failing_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError):
        save_group_cache(group, str(tmp_path))
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["wwl-B2.json"]
    loaded = WeylGroup(build_root_system("B", 2))
    assert load_group_cache(loaded, str(tmp_path))
    assert loaded._bruhat == group._bruhat


def test_cli_cache_write_and_reuse(tmp_path, capsys):
    args = ("verify-conjecture", "--type", "A", "--rank", "2",
            "--cache", str(tmp_path))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    assert os.path.exists(tmp_path / "wwl-A2.json")
    code, second, _ = run_cli(capsys, *args)
    assert first == second


# -- coeff -------------------------------------------------------------------------------

def test_coeff_rank_one_values(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "1",
                           "--w", "1", "--x", "")
    assert code == 0
    report = json.loads(out)
    entry = report["coeffs"][0]
    assert entry["x"] == []
    assert entry["value"] == [{"weight": [-2], "vpoly": [0, -1]}]
    assert entry["condition"] == "holds"
    assert entry["closed_form_matches"] is True


def test_coeff_anchor_entry(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "1",
                           "--w", "1", "--x", "1")
    assert code == 0
    entry = json.loads(out)["coeffs"][0]
    assert entry["value"] == [{"weight": [-2], "vpoly": [0, -1]},
                          {"weight": [0], "vpoly": [1]}]


def test_coeff_spec_example_pair(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "3",
                           "--w", "1,2,1,3,2,1", "--x", "2,3", "--char")
    assert code == 0
    entry = json.loads(out)["coeffs"][0]
    assert entry["condition"] == "holds"
    assert entry["closed_form_matches"] is True
    assert "char_coeff" in entry


def test_coeff_all_lists_interval(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--type", "A", "--rank", "2",
                           "--w", "1,2")
    assert code == 0
    report = json.loads(out)
    assert len(report["coeffs"]) == 4  # e, s1, s2, s1s2


class Admitted(Exception):
    pass


def test_coeff_interval_gate(group_for, monkeypatch):
    """coeff admits [e, w] up to MAX_COEFF_INTERVAL elements: D4 and B4 at
    w0 (192 and 384) and B5 at 1,2,3,4,5 (32) reach the atom table; A5 at
    w0 (720) is refused before any atom or character table is built."""
    def admit(*args):
        raise Admitted

    monkeypatch.setattr(workbench, "atom_coeffs", admit)
    monkeypatch.setattr(workbench, "char_coeffs", admit)
    for type_letter, rank, word in (("D", 4, None), ("B", 4, None),
                                    ("B", 5, (1, 2, 3, 4, 5))):
        G = group_for(type_letter, rank)
        if word is None:
            word = G.canonical_word(G.longest_element())
        with pytest.raises(Admitted):
            coeff_report(G, word, include_char=True)
    with pytest.raises(BudgetError, match="coeff stops at 384 elements "
                       r"below w; \[e, w\] has 720"):
        coeff_report(group_for("A", 5), parse_int_seq(A5_W0),
                     include_char=True)


# sha256 of the stdout of `coeff --w <word> --char`, as printed when each
# single-word label came from its own scan of the word, and the number of
# entries whose chain condition fails (each printing its three labels)
COEFF_DIGESTS = {
    ("B", 3, "1,2,1,3,2,1,3,2,3"): (
        "cd31d28a21ad6b777db050fe2f79d05230a1c1ef1f5a810455d1c1b77d3a46c5",
        34),
    ("G", 2, "1,2,1,2,1,2"): (
        "a8a0857023c0d21af4f1d431642a12b2c81672cd4d7cfc6cd838fe05d122ba8b",
        7),
    ("A", 3, "1,2,1,3,2,1"): (
        "e9e3945549664f728218d657a83785e995727bdfdfd1f6adf9ad33c111a13bb9",
        10),
}


@pytest.mark.parametrize("type_letter,rank,word", list(COEFF_DIGESTS))
def test_coeff_digests(capsys, type_letter, rank, word):
    code, out, _ = run_cli(capsys, "coeff", "--type", type_letter, "--rank",
                           str(rank), "--w", word, "--char")
    assert code == 0
    digest, failing = COEFF_DIGESTS[(type_letter, rank, word)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert sum(entry["condition"] == "fails"
               for entry in json.loads(out)["coeffs"]) == failing


def test_coeff_b5_digest(capsys, group_for):
    """The B5 table order, pinned: coeff lists the 32 x <= s1s2s3s4s5 in
    element-table order, so the bytes change if the order does."""
    code, out, _ = run_cli(capsys, "coeff", "--type", "B", "--rank", "5",
                           "--w", "1,2,3,4,5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8290e7c0d98f2322ef2e19093bcb57d4b3130f88bbca742ba5c268760d965d66"
    G = group_for("B", 5)
    indices = [G.word_to_idx(entry["x"])
               for entry in json.loads(out)["coeffs"]]
    assert len(indices) == 32 and indices == sorted(indices)


# -- mtx, cs-check, good-words --------------------------------------------------------------

def test_mtx_a2(capsys):
    code, out, _ = run_cli(capsys, "mtx", "--type", "A", "--rank", "2",
                           "--points", "4", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert len(report["pairs"]) == 36
    diag = [p for p in report["pairs"] if p["x"] == p["w"]]
    assert all(p["diagonal_one"] for p in diag)


def test_mtx_condition_b_matches_pair_search(monkeypatch):
    """mtx_report's per-w first-word search gives every B3 pair the
    condition (B) answer and the first witness word of a walk over the
    reduced words of w, searches only for pairs that have a witness, and
    finds each pair's chain roots once for all points."""
    from test_shellability import first_witnesses, flag_holds

    words = {}

    def words_for_all(group, wi, xset, labels, k):
        found = real_first_words(group, wi, xset, labels, k)
        assert k == 1 and len(found) == xset.bit_count()
        return found

    real_first_words = workbench._first_words
    monkeypatch.setattr(workbench, "_first_words", words_for_all)

    def recording_gamma_sequence(group, word, lam):
        # the chain label determines x: the product of the kept positions
        xi = group.word_to_idx([a for p, a in enumerate(word, 1)
                                if p not in lam])
        key = (group.canon_of_idx(xi),
               group.canon_of_idx(group.word_to_idx(word)))
        assert key not in words  # once per pair, not once per point
        words[key] = word
        return real_gamma_sequence(group, word, lam)

    real_gamma_sequence = workbench.gamma_sequence
    monkeypatch.setattr(workbench, "gamma_sequence", recording_gamma_sequence)
    G = WeylGroup(build_root_system("B", 3))
    report = mtx_report(G, SweepConfig("B", 3, points=2))
    walked = {(G.canon_of_idx(xi), G.canon_of_idx(wi)): found[0]
              for wi in range(G.order())
              for xi, found in first_witnesses(
                  G, wi, G.lower_interval_idx(wi)[:-1], flag_holds(1)).items()}
    checked = 0
    for entry in report["pairs"]:
        if "condition_b" not in entry:
            continue
        key = tuple(entry["x"]), tuple(entry["w"])
        assert entry["condition_b"] == (key in walked)
        assert words.get(key) == walked.get(key)
        checked += 1
    assert checked == sum(len(interval(G, G.identity, w)) - 1
                          for w in G.enumerate_group())


def test_mtx_pair_without_witness_raises(monkeypatch):
    """A condition-(B) pair of the edge DP whose first-word search finds no
    word, forced by dropping one x from the search's answer for w0 of A2,
    is a broken invariant: mtx_report raises instead of reporting the pair
    as failing condition (B)."""
    real_first_words = workbench._first_words

    def one_dropped(group, wi, xset, labels, k):
        found = real_first_words(group, wi, xset, labels, k)
        if wi == group.order() - 1:
            del found[min(found)]
        return found

    monkeypatch.setattr(workbench, "_first_words", one_dropped)
    G = WeylGroup(build_root_system("A", 2))
    with pytest.raises(InvariantError, match="has no witness word"):
        mtx_report(G, SweepConfig("A", 2, points=1))


# sha256 of the stdout of `mtx --points 8 --threads 1 --seed 0`, as printed
# by the per-column generator walk before the trace form replaced it
MTX_DIGESTS = {
    ("B", 3): "623d6b772af68338cc0eb8762c63f567bb49c69d32a2ac25c3c6a11a53494a0b",
    ("A", 4): "03b6dac9f4a207f59b3e01972e110142354f723e2bfcd271eec345ea54dab45b",
}


@pytest.mark.parametrize("type_letter,rank", list(MTX_DIGESTS))
def test_mtx_digests(capsys, type_letter, rank):
    code, out, _ = run_cli(capsys, "mtx", "--type", type_letter, "--rank",
                           str(rank), "--points", "8", "--threads", "1",
                           "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        MTX_DIGESTS[(type_letter, rank)]


def test_mtx_deterministic():
    a = run_proc("mtx", "--type", "A", "--rank", "2", "--points", "3",
                 "--seed", "11")
    b = run_proc("mtx", "--type", "A", "--rank", "2", "--points", "3",
                 "--seed", "11")
    assert a == b


def test_cs_check_cli(capsys):
    code, out, _ = run_cli(capsys, "cs-check", "--type", "A", "--rank", "2",
                           "--lambda", "1,1")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_cs_check_rejects_non_dominant(capsys):
    code, _, err = run_cli(capsys, "cs-check", "--type", "A", "--rank", "2",
                           "--lambda=-1,0")
    assert code == 4
    assert "(-1, 0) is not dominant" in err


@pytest.mark.parametrize("lam,count", [("1", 1), ("1,1,1", 3)])
def test_cs_check_names_a_wrong_coordinate_count(capsys, lam, count):
    """A weight of the wrong length is named by its coordinate count and
    the rank, not called non-dominant."""
    code, out, err = run_cli(capsys, "cs-check", "--type", "A", "--rank", "2",
                             "--lambda", lam)
    assert code == 4
    assert out == ""
    assert f"has length {count}; rank 2 needs length 2" in err
    assert "dominant" not in err


def test_good_words_reports(capsys):
    code, out, _ = run_cli(capsys, "good-words", "--type", "B", "--rank", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pairs_without_good_word"] >= 1
    code, out, _ = run_cli(capsys, "good-words", "--type", "A", "--rank", "2")
    assert code == 0
    assert json.loads(out)["pairs_without_good_word"] == 0


# sha256 of the stdout of `good-words --threads 1`, as printed when each
# word's labels were computed from scratch
GOOD_WORDS_DIGESTS = {
    ("B", 3): "379b8bb14c8ab7106fccd37d85e0823d788d758950acca8f41b24c554ba603e4",
    ("D", 4): "bfe60b179b4df5d651dd56f984f9466929897a65c57fdb3be12d8070c4c1c70e",
}


@pytest.mark.parametrize("type_letter,rank", list(GOOD_WORDS_DIGESTS))
def test_good_words_digests(capsys, type_letter, rank):
    code, out, _ = run_cli(capsys, "good-words", "--type", type_letter,
                           "--rank", str(rank), "--threads", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOOD_WORDS_DIGESTS[(type_letter, rank)]


def test_witness_searches_visit_no_word(capsys, monkeypatch):
    """With every reduced word and the single-word labeller refused,
    condition_A and condition_B give every A3 pair the first word, in
    lexicographic order, whose own labels show the flag, and mtx on B3
    and good-words on B3 and D4 print their pinned bytes: the witness
    searches and the census read only the edge labels of w's whole left
    weak interval, and no command but verify's violation listing walks a
    word."""
    G = WeylGroup(build_root_system("A", 3))
    G.ensure_bruhat()
    expected = {}
    for wi in range(G.order()):
        for xi in G.lower_interval_idx(wi):
            x, w = G.elem_of(xi), G.elem_of(wi)
            for k in (0, 1):
                expected[k, xi, wi] = next(
                    ((True, word) for word in G._iter_words_idx(wi)
                     if condition_per_word(G, x, word)[k]), (False, None))

    chain_table = shellability._chain_table

    def interval_only(group, wi, xset, word=None):
        if word is not None:
            raise AssertionError("a single-word label routine was called")
        return chain_table(group, wi, xset)

    def refuse(*args):
        raise AssertionError("a reduced word was asked for")

    monkeypatch.setattr(WeylGroup, "_iter_words_idx", refuse)
    for module in (shellability, workbench):
        monkeypatch.setattr(module, "_chain_table", interval_only)
        monkeypatch.setattr(module, "_word_labels_idx", refuse)
    for (k, xi, wi), answer in expected.items():
        condition = (condition_A, condition_B)[k]
        assert condition(G, G.elem_of(xi), G.elem_of(wi)) == answer
    for command, (t, r), extra, digests in (
            ("mtx", ("B", 3), ["--points", "8", "--seed", "0"], MTX_DIGESTS),
            ("good-words", ("B", 3), [], GOOD_WORDS_DIGESTS),
            ("good-words", ("D", 4), [], GOOD_WORDS_DIGESTS)):
        code, out, _ = run_cli(capsys, command, "--type", t, "--rank", str(r),
                               "--threads", "1", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[t, r]


# -- golden statistics --------------------------------------------------------------------

def test_stats_a4_matches_golden(group_for):
    """Exact S5 counts, frozen after the fast and independent paths agreed
    on the smaller groups."""
    G = group_for("A", 4)
    report = stats_sweep(G, SweepConfig(type_letter="A", rank=4))
    assert report == _golden_a4()


# -- fast path vs independent mode -----------------------------------------------------------

@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("A", 3), ("B", 3),
                                              ("C", 3), ("G", 2), ("A", 4),
                                              ("D", 4), ("B", 4)])
def test_stats_fast_path_consistent(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    fast = stats_sweep(G, SweepConfig(type_letter=type_letter, rank=rank,
                                      mode="fast"))
    independent = stats_sweep(G, SweepConfig(type_letter=type_letter,
                                             rank=rank, mode="independent"))
    assert fast["rows"] == independent["rows"]
    assert fast["histogram"] == independent["histogram"]


# -- report writer ----------------------------------------------------------------

def emitted(obj) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(obj)
    return buf.getvalue()


def json_text(obj) -> str:
    """The stdlib oracle of the writer; a GAElement stands for its
    to_json_obj()."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=GAElement.to_json_obj) + "\n"


def every_report(G):
    """The report of every command on one group, mtx at two point counts."""
    t, r = G.rs.type_letter, G.rs.rank
    w0 = G.canonical_word(G.longest_element())
    yield verify_conjecture(G, SweepConfig(t, r))
    yield verify_conjecture(G, SweepConfig(t, r, budget=20))
    for mode in ("fast", "independent"):
        yield stats_sweep(G, SweepConfig(t, r, mode=mode))
    yield coeff_report(G, w0, include_char=True)
    yield coeff_report(G, w0, x_word=w0[1:])
    for points in (1, 3):
        yield mtx_report(G, SweepConfig(t, r, points=points, seed=5))
    yield cs_report(G, (1,) * r)
    yield good_words_report(G)


@pytest.mark.parametrize("type_letter,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_writer_matches_json_on_every_report(group_for, type_letter, rank):
    """The streaming writer prints what json.dumps with sorted keys and an
    indent of two prints, byte for byte, for every command's report."""
    for report in every_report(group_for(type_letter, rank)):
        assert emitted(report) == json_text(report)


json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(1 << 80), max_value=1 << 80)
    | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=30)


@given(json_values)
def test_writer_matches_json_on_nested_values(obj):
    assert emitted(obj) == json_text(obj)
    assert emitted({"a": [obj, [obj]], "b": obj}) == \
        json_text({"a": [obj, [obj]], "b": obj})


def ga_elements(rank):
    """GAElements of one rank: the empty one among them, weights with
    negative coordinates up to the packed bound, v-polynomials with gaps
    in degree and coefficients far past 64 bits."""
    weights = st.tuples(*[st.integers(-MAX_WEIGHT_COORD, MAX_WEIGHT_COORD)
                          | st.integers(-2, 2)] * rank)
    polys = st.lists(st.just(0) | st.integers(-(1 << 70), 1 << 70),
                     max_size=6).map(tuple)
    return st.dictionaries(weights, polys, max_size=6).map(GAElement)


@given(st.integers(1, 4).flatmap(
    lambda rank: st.lists(ga_elements(rank), min_size=1, max_size=4)))
def test_writer_matches_json_on_group_algebra_values(elements):
    """A GAElement is written as json.dumps writes its to_json_obj, at
    every nesting, the same values recurring at several nestings of one
    report."""
    f, *rest = elements
    report = {"top": f, "coeffs": [{"value": g, "char": [g, f]}
                                   for g in elements],
              "deep": [[{"x": rest}]], "z": rest}
    assert emitted(report) == json_text(report)
    assert emitted(f) == json_text(f)
    assert emitted(elements) == json_text(elements)


@pytest.mark.parametrize("obj", [
    "", "caf\u00e9 \u2028 \U0001f600", "quote \" back \\ nul \x00 tab \t",
    [], {}, (), [[]], {"": {}}, [True, False, None], [1, True, 0, False],
    [-1, 0, 1 << 64, -(1 << 70)], (1, (2, "3")), {"k": (), "j": [{}]},
    {"\u00e9": 1, "e": 2, "E": [3]},
])
def test_writer_matches_json_on_edge_values(obj):
    assert emitted(obj) == json_text(obj)
    assert emitted({"x": [obj]}) == json_text({"x": [obj]})


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), {1: 2}, {"a": [1, 2.0]}, [{"b": Fraction(3)}],
    {"c": {None: 1}},
])
def test_writer_refuses_what_reports_never_hold(obj):
    with pytest.raises(TypeError):
        _emit(obj)
