"""Command-line behavior: exit codes, output determinism, cache coherence,
resume, and the report contents for the smallest groups."""

import json
import os
import subprocess
import sys
import time

import pytest

from wwl import WeylGroup, build_root_system, roots
from wwl.cli import main
from wwl.workbench import (SweepConfig, load_group_cache, parse_int_seq,
                           pct_string, save_group_cache, stats_sweep,
                           verify_conjecture)
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def _too_large_runs():
    for rank in (7, 8):
        zero = ",".join(["0"] * rank)
        for command, *extra in (["verify-conjecture"], ["stats", "--large"],
                                ["coeff", "--w", "1,3"], ["mtx"],
                                ["cs-check", "--lambda", zero], ["good-words"]):
            yield [command, "--type", "E", "--rank", str(rank), *extra]
    yield ["coeff", "--type", "E", "--rank", "6", "--w", "1,3"]


@pytest.mark.parametrize("argv", list(_too_large_runs()),
                         ids=lambda argv: f"{argv[0]}-E{argv[4]}")
def test_too_large_groups_exit_3_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
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


def test_stats_byte_identical_runs():
    a = run_proc("stats", "--type", "A", "--rank", "3", "--seed", "9")
    b = run_proc("stats", "--type", "A", "--rank", "3", "--seed", "9")
    assert a == b
    assert a[0] == 0


def test_stats_threads_do_not_change_output():
    one = run_proc("stats", "--type", "A", "--rank", "3", "--threads", "1")
    two = run_proc("stats", "--type", "A", "--rank", "3", "--threads", "2")
    assert one[1] == two[1]
    env_two = run_proc("stats", "--type", "A", "--rank", "3",
                       env={"WWL_THREADS": "2"})
    assert env_two[1] == one[1]


def test_stats_resume_from_progress(tmp_path, capsys):
    args = ("stats", "--type", "A", "--rank", "3", "--large",
            "--cache", str(tmp_path))
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    progress = [p for p in os.listdir(tmp_path) if "progress" in p]
    assert progress
    code, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second


def test_stats_resume_from_partial_progress(tmp_path, capsys):
    """A truncated progress file (as after an interrupted run) must be
    completed, and the result must match an uninterrupted run."""
    args = ("stats", "--type", "A", "--rank", "3", "--large",
            "--cache", str(tmp_path))
    code, full, _ = run_cli(capsys, *args)
    assert code == 0
    progress = [p for p in os.listdir(tmp_path) if "progress" in p]
    path = tmp_path / progress[0]
    blob = json.load(open(path))
    kept = dict(list(blob["done"].items())[:5])
    json.dump({"order": blob["order"], "done": kept}, open(path, "w"))
    code, resumed, _ = run_cli(capsys, *args)
    assert code == 0
    assert resumed == full


def test_stats_independent_mode_cli(capsys):
    code, out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2",
                           "--mode", "independent")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "independent"
    code, fast_out, _ = run_cli(capsys, "stats", "--type", "A", "--rank", "2")
    fast = json.loads(fast_out)
    assert report["rows"] == fast["rows"]


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


def test_cache_rejects_corruption(tmp_path):
    group = WeylGroup(build_root_system("A", 2))
    group.ensure_bruhat()
    path = save_group_cache(group, str(tmp_path))
    blob = json.load(open(path))
    blob["payload"]["bruhat"][0] = "ff"
    json.dump(blob, open(path, "w"))
    other = WeylGroup(build_root_system("A", 2))
    assert not load_group_cache(other, str(tmp_path))


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
    code, _, _ = run_cli(capsys, "cs-check", "--type", "A", "--rank", "2",
                         "--lambda", "-1,0")
    assert code == 4


def test_good_words_reports(capsys):
    code, out, _ = run_cli(capsys, "good-words", "--type", "B", "--rank", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pairs_without_good_word"] >= 1
    code, out, _ = run_cli(capsys, "good-words", "--type", "A", "--rank", "2")
    assert code == 0
    assert json.loads(out)["pairs_without_good_word"] == 0


# -- golden statistics --------------------------------------------------------------------

def test_stats_a4_matches_golden(group_for):
    """Exact S5 counts, frozen after the fast and independent paths agreed
    on the smaller groups."""
    golden = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                         "stats_a4_golden.json")))
    G = group_for("A", 4)
    report = stats_sweep(G, SweepConfig(type_letter="A", rank=4))
    assert report == golden


# -- fast path vs independent mode -----------------------------------------------------------

@pytest.mark.parametrize("type_letter,rank", [("A", 2), ("A", 3)])
def test_stats_fast_path_consistent(group_for, type_letter, rank):
    G = group_for(type_letter, rank)
    fast = stats_sweep(G, SweepConfig(type_letter=type_letter, rank=rank,
                                      mode="fast"))
    independent = stats_sweep(G, SweepConfig(type_letter=type_letter,
                                             rank=rank, mode="independent"))
    assert fast["rows"] == independent["rows"]
    assert fast["histogram"] == independent["histogram"]
