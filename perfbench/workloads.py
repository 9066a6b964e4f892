"""The benchmark's workloads and the checks on their outputs.

Every command gets `--seed <seed>`.  Only `mtx` draws random input (its
spectral points); the other commands are exhaustive and print the same
bytes for every seed.  Expected stdout digests were recorded from the
program as first benchmarked, at seed 0 and at both thread counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Placeholder in a command's arguments for the workload's cache directory,
# created empty for every pass.
CACHE = "{cache}"

# sha256 of each command's stdout at DEFAULT_SEED.
DIGESTS = {
    "verify-a4":
        "690e944c0882303e10fca41660c6790d8e217f7bb3ae65667c43515942daede1",
    "stats-d4":
        "a81ac0cf47780b41219fc9f2b753fc4c968fc5005b4547cc6023840879f54437",
    "mtx-b3":
        "623d6b772af68338cc0eb8762c63f567bb49c69d32a2ac25c3c6a11a53494a0b",
    "coeff-d4-char":
        "02ed3b5252a2b1241b9b89a0b2c85efdf6c1bba071e10487741d3781e77133f3",
    "cs-check-a4":
        "d3a56db94e21dcd33cc2987c7059b0cb72b3d103af5af960ff5d18490304d5fe",
    "coeff-b5":
        "c75f6ccc3dfeba14221e2a1f427579f07eedba4f0b19462da847058593467ed0",
}


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    digest: str  # sha256 of stdout at DEFAULT_SEED
    seeded_output: bool = False  # stdout depends on --seed
    # index of an earlier command of the pass whose stdout this one must
    # equal byte for byte (the same sweep at another thread count)
    same_as: int | None = None
    # JSON fields checked where the digest does not apply
    expect: dict = field(default_factory=dict)

    @property
    def group(self) -> tuple[str, int]:
        """(type, rank) of the group the command builds."""
        args = self.args
        return (args[args.index("--type") + 1],
                int(args[args.index("--rank") + 1]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    items: int  # fixed work items of one pass, for us_per_item
    item_name: str


def _cmd(text: str, digest: str, **kw) -> Command:
    return Command(tuple(text.split()), digest, **kw)


def _at_both_thread_counts(text: str, digest: str) -> tuple:
    """The sweep with two workers, then in one process; the output must not
    depend on the thread count, so the second run must print the same
    bytes as the first."""
    return (_cmd(text + " --threads 2", digest),
            _cmd(text + " --threads 1", digest, same_as=0))


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-a4",
        "headline exhaustive three-flag sweep over 256,005 A4 triples, with "
        "two forked workers and then one process; greedy chain search "
        "dominates",
        _at_both_thread_counts(
            "verify-conjecture --type A --rank 4", DIGESTS["verify-a4"]),
        2 * 256005, "triples"),
    Workload(
        "stats-d4",
        "statistics fast path (#S pruning, chain_realizes_idx, early-exit "
        "word enumeration) over 9,817 D4 pairs at 2 and 1 threads; short, "
        "so repeated",
        _at_both_thread_counts(
            "stats --type D --rank 4 --large", DIGESTS["stats-d4"]),
        2 * 9817, "pairs"),
    Workload(
        "mtx-b3",
        "Casselman transition matrix of B3 at 8 seeded points; Weyl element "
        "matrix arithmetic called from the Hecke layer dominates",
        (_cmd("mtx --type B --rank 3 --points 8 --threads 1",
              DIGESTS["mtx-b3"],
              seeded_output=True, expect={"ok": True, "points": 8}),),
        48 * 48 * 8, "entries"),
    Workload(
        "operators-d4",
        "group-algebra operators: D4 coefficients at w0 with characters "
        "(15 MB of JSON), then the A4 Casselman-Shalika check",
        (_cmd("coeff --type D --rank 4 --w 1,2,1,3,2,1,4,2,1,3,2,4 --char",
              DIGESTS["coeff-d4-char"]),
         _cmd("cs-check --type A --rank 4 --lambda 2,1,1,2",
              DIGESTS["cs-check-a4"])),
        192, "coefficients"),
    Workload(
        "tables-b5",
        "B5 table and Bruhat set-up, one cold run that writes the --cache "
        "file and two warm runs that read it",
        tuple(_cmd(f"coeff --type B --rank 5 --w 1,2,3,4,5 --x 2,4 "
                   f"--cache {CACHE}", DIGESTS["coeff-b5"])
              for _ in range(3)),
        3 * 3840, "elements"),
)}


def command_args(cmd: Command, seed: int, threads: int | None = None,
                 cache_dir: str | None = None) -> list[str]:
    """The wwl arguments of one command run: the seed appended, the thread
    count replaced when given, the cache placeholder filled in."""
    args = [cache_dir if a == CACHE else a for a in cmd.args]
    if threads is not None and "--threads" in args:
        args[args.index("--threads") + 1] = str(threads)
    return args + ["--seed", str(seed)]


def digest_applies(cmd: Command, seed: int) -> bool:
    """Commands whose output does not depend on the seed are held to the
    recorded digest at every seed; seeded commands only at DEFAULT_SEED."""
    return not cmd.seeded_output or seed == DEFAULT_SEED


def check_digest(cmd: Command, seed: int, digest: str) -> str | None:
    """Why a run's stdout digest is wrong, or None."""
    if digest_applies(cmd, seed) and digest != cmd.digest:
        return f"stdout sha256 {digest[:16]} != expected {cmd.digest[:16]}"
    return None


def check_output(cmd: Command, seed: int, exit_code: int, out: bytes,
                 digest: str) -> str | None:
    """Why one command run failed, or None: an unexpected exit code, a wrong
    digest, or, where no digest applies, an output that fails its own
    checks.  The recorded outputs pass those checks, so a run that prints
    the recorded bytes needs no further look."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if digest_applies(cmd, seed):
        return check_digest(cmd, seed, digest)
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    for key, want in cmd.expect.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    if report.get("seed") != seed:
        return f"seed {report.get('seed')!r} not echoed"
    return None
