"""Tests of the benchmark itself on tiny A2/B2 configurations.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile

import pytest

import run
from workloads import CACHE, Command, Workload, command_args

SEED = 0
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _commands(digests=None):
    specs = [
        ("verify-conjecture --type A --rank 2 --threads 2", {}),
        ("verify-conjecture --type A --rank 2 --threads 1", {"same_as": 0}),
        ("mtx --type B --rank 2 --points 2 --threads 1",
         {"seeded_output": True, "expect": {"ok": True, "points": 2}}),
        (f"coeff --type B --rank 2 --w 1,2,1 --char --cache {CACHE}", {}),
        (f"coeff --type B --rank 2 --w 1,2,1 --char --cache {CACHE}", {}),
    ]
    return tuple(Command(tuple(text.split()),
                         digests[k] if digests else "0" * 64, **kw)
                 for k, (text, kw) in enumerate(specs))


@pytest.fixture
def session():
    os.makedirs(run.WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="test-", dir=run.WORK)
    try:
        yield run.Session(scratch, run.INVOCATION_LIMIT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.fixture
def tiny(session):
    """A four-command workload whose digests are taken from the program."""
    cache_dir = session.fresh_dir()
    digests = []
    for cmd in _commands():
        out_path = session.wwl(command_args(cmd, SEED,
                                            cache_dir=cache_dir)).out_path
        with open(out_path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return Workload("tiny", "tiny", _commands(digests), 6, "elements")


def _declared(kind):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_end_to_end_emits_every_metric_with_its_unit(session, tiny):
    metrics, passes = run.end_to_end(session, tiny, SEED, seconds=0.5)
    assert passes >= 1
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert session.failures == []
    assert session.attempted == len(tiny.commands) * passes


def test_wrong_digest_fails_every_run(session, tiny):
    wrong = Workload("wrong", "wrong", _commands(), tiny.items, "element")
    run.end_to_end(session, wrong, SEED, seconds=0.5)
    assert session.attempted > 0
    assert len(session.failures) == session.attempted


def test_other_seed_falls_back_to_own_checks(session, tiny):
    run.end_to_end(session, tiny, SEED + 1, seconds=0.5)
    assert session.failures == []
    # at another seed the mtx output has no recorded digest, so a field
    # that its own checks reject is what fails it
    mtx = dataclasses.replace(tiny.commands[2], expect={"ok": False})
    bad = Workload("bad", "bad", (mtx,), 1, "entries")
    run.end_to_end(session, bad, SEED + 1, seconds=0.5)
    assert session.failures and "ok = True" in session.failures[-1]


def test_traced_layers_sum_within_traced_wall(session, tiny):
    metrics = run.traced(session, tiny, SEED)
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert session.failures == []
    self_total = sum(m["value"] for k, m in metrics.items()
                     if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]
    assert metrics["workbench.cache_bytes"]["value"] > 0
    assert metrics["hecke.gen_muls"]["value"] > 0
    assert metrics["groupalg.terms"]["value"] > 0


def test_thread_counts_must_print_the_same_bytes(session, tiny):
    # command 1 is held to command 0's output, which differs from its own
    cmds = list(tiny.commands)
    cmds[1] = dataclasses.replace(cmds[2], same_as=0)
    mixed = Workload("mixed", "mixed", tuple(cmds), tiny.items, "elements")
    run.end_to_end(session, mixed, SEED, seconds=0.5)
    assert any("differs" in f for f in session.failures)


def test_recursive_word_enumeration_counts_each_word_once(session, tiny):
    verify = Workload("verify", "verify", tiny.commands[:2], 1, "triples")
    metrics = run.traced(session, verify, SEED)
    # A2 has 7 reduced words in all: e, s1, s2, s1s2, s2s1 and two for w0
    assert metrics["weyl.words"]["value"] == 7


def test_benchmark_json_lists_the_workloads():
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
