"""Benchmark of the wwl command-line workbench.

    python3 perfbench/run.py --workload verify-a4 --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

`--trace 0` runs the end-to-end part: the workload's `wwl` commands as
subprocesses, repeated while the next pass fits in `--seconds`, each
checked against its expected exit code and stdout, with wall time, CPU
time and peak RSS from `os.wait4`; then the set-up time of the workload's
groups, measured in fresh interpreters.

`--trace 1` runs the traced part: each distinct command once in a fresh
interpreter at `--threads 1` with span wrappers installed on the program's
modules, and once without them, giving the per-layer metrics and the
tracing overhead.

Without `--trace` both parts run.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it list the same metrics by name and unit.  Everything the run
writes goes to `.perfbench_work/` at the checkout root: bytecode, command
outputs and cache directories, the latter two removed before exit.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
PYCACHE = os.path.join(WORK, "pycache")
sys.pycache_prefix = PYCACHE

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from tracer import layer_metrics  # noqa: E402
from workloads import (CACHE, WORKLOADS, Command, Workload,  # noqa: E402
                       check_digest, command_args)

INVOCATION_LIMIT_S = 170.0  # per workload; the whole run must end in 180 s
COMMAND_TIMEOUT_S = 120.0
WARMUP_ARGS = ["coeff", "--type", "A", "--rank", "2", "--w", "1,2", "--char"]
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


class BenchError(RuntimeError):
    """The benchmark cannot measure: the program is missing or a probe
    broke.  No result is printed."""


@dataclasses.dataclass
class Exec:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None when killed at the timeout
    out_path: str  # the child's stdout; the caller removes it


class Session:
    """State of one invocation: scratch directory, child environment,
    deadline and the tally of checked command runs."""

    def __init__(self, scratch: str, limit_s: float):
        self.scratch = scratch
        self.deadline = time.monotonic() + limit_s
        env = dict(os.environ)
        env.pop("WWL_THREADS", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env["PYTHONPYCACHEPREFIX"] = PYCACHE
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self._serial = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def tally(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")

    def execute(self, argv: list[str]) -> Exec:
        """Run argv to completion with stdout in a file; resource usage of
        this child and every process it reaped comes from os.wait4.

        A child's peak RSS includes the RSS of this process at the time it
        was spawned (Linux keeps the high-water mark across exec), so this
        process never loads command outputs; a `check` probe reads them."""
        self._serial += 1
        base = os.path.join(self.scratch, f"cmd{self._serial}")
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.remaining()))
        killed = []
        with open(base + ".out", "wb") as out, open(base + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid, killed))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            _wait_group_gone(proc.pid)
        os.remove(base + ".err")
        return Exec(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    None if killed else proc.returncode, base + ".out")

    def warm_up(self) -> None:
        """One untimed command, so that timed runs find the bytecode cache
        filled."""
        run = self.wwl(WARMUP_ARGS)
        os.remove(run.out_path)
        if run.exit_code != 0:
            raise BenchError(f"warm-up command exited {run.exit_code}")

    def wwl(self, args: list[str]) -> Exec:
        return self.execute([sys.executable, "-m", "wwl.cli"] + args)

    def probe(self, args: list[str]) -> dict:
        run = self.execute([sys.executable, PROBE] + args)
        try:
            with open(run.out_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        finally:
            os.remove(run.out_path)
        if run.exit_code != 0 or not lines:
            raise BenchError(f"probe {args[:2]} exited {run.exit_code}")
        return json.loads(lines[-1])

    def check(self, label: str, cmd: Command, seed: int, run: Exec) -> None:
        """Tally one command run, judged by a `check` probe on its stdout."""
        if run.exit_code is None:
            self.tally(label, "timed out")
            return
        spec = json.dumps(dataclasses.asdict(cmd))
        self.tally(label, self.probe(["check", run.out_path, str(seed),
                                      str(run.exit_code), spec])["reason"])


def _kill_group(pid: int, killed: list) -> None:
    killed.append(pid)
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- end-to-end part -------------------------------------------------------------

def run_pass(session: Session, wl: Workload, seed: int) -> dict:
    """The workload's commands once, in order, against one fresh cache
    directory; returns the pass totals."""
    cache_dir = session.fresh_dir()
    wall = cpu = rss = 0.0
    outs = []
    try:
        for k, cmd in enumerate(wl.commands):
            run = session.wwl(command_args(cmd, seed, cache_dir=cache_dir))
            outs.append(run.out_path)
            label = f"{wl.name}[{k}]"
            if cmd.same_as is not None and run.exit_code is not None and \
                    not filecmp.cmp(outs[cmd.same_as], run.out_path,
                                    shallow=False):
                session.tally(label, f"stdout differs from command "
                                     f"{cmd.same_as}'s")
            else:
                session.check(label, cmd, seed, run)
            wall += run.wall_s
            cpu += run.cpu_s
            rss = max(rss, run.rss_mb)
    finally:
        for path in outs:
            os.remove(path)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss}


class SetupSampler:
    """Fresh-interpreter time from build_group to ensure_bruhat for each
    distinct group config of the workload, sampled in rounds.  Commands
    with a cache are timed cold (first, against an empty directory) and
    warm (reading what the cold one wrote), as the commands themselves
    run."""

    def __init__(self, session: Session, wl: Workload):
        self.session = session
        self.keys = []
        cached = 0
        for cmd in wl.commands:
            uses_cache = CACHE in cmd.args
            self.keys.append((cmd.group, ("cold" if cached == 0 else "warm")
                              if uses_cache else None))
            cached += uses_cache
        self.samples = {key: [] for key in self.keys}
        self.rounds = 0
        self.target = None  # set by the first round

    def round(self) -> None:
        cache_dir = self.session.fresh_dir()
        try:
            for key in self.samples:
                (type_letter, rank), role = key
                args = ["setup", type_letter, str(rank)]
                if role:
                    args.append(cache_dir)
                self.samples[key].append(
                    self.session.probe(args)["setup_s"])
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.rounds += 1
        if self.target is None:
            first = sum(v[0] for v in self.samples.values())
            self.target = 3 if first >= 1.0 else 11

    def seconds(self) -> float:
        """Sum over the workload's commands of their config's median."""
        while self.target is None or self.rounds < self.target:
            self.round()
        return sum(statistics.median(self.samples[key]) for key in self.keys)


def end_to_end(session: Session, wl: Workload, seed: int,
               seconds: float) -> tuple[dict, int]:
    session.warm_up()
    # Set-up rounds run between passes, so that the samples spread over the
    # run rather than bunching into one moment of the machine's load.
    setup = SetupSampler(session, wl)
    passes = []
    busy = 0.0
    while True:
        start = time.monotonic()
        passes.append(run_pass(session, wl, seed))
        busy += time.monotonic() - start
        per_pass = busy / len(passes)
        if busy + per_pass > seconds or per_pass * 3 > session.remaining():
            break
        if setup.target is None or setup.rounds < setup.target:
            setup.round()
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "wall_s": _metric(wall, "s"),
        "us_per_item": _metric(wall * 1e6 / wl.items, "us"),
        "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": _metric(setup.seconds(), "s"),
    }, len(passes)


# -- traced part -------------------------------------------------------------------

def _inproc(session: Session, wl: Workload, k: int, seed: int,
            cache_dir: str, trace: bool) -> dict:
    cmd = wl.commands[k]
    result = session.probe(["inproc", "1" if trace else "0", "--"] +
                           command_args(cmd, seed, threads=1,
                                        cache_dir=cache_dir))
    label = f"{wl.name}[{k}] in-process{' traced' if trace else ''}"
    if result["exit"] != 0:
        session.tally(label, f"exit code {result['exit']}")
    else:
        session.tally(label, check_digest(cmd, seed, result["sha256"]))
    return result


def traced(session: Session, wl: Workload, seed: int) -> dict:
    session.warm_up()
    traced_dir, plain_dir = session.fresh_dir(), session.fresh_dir()
    spans: dict[str, list] = {}
    traced_wall = plain_wall = 0.0
    stdout_bytes = 0
    try:
        for k, cmd in enumerate(wl.commands):
            if cmd.same_as is not None:
                continue  # at --threads 1 it repeats command same_as
            t = _inproc(session, wl, k, seed, traced_dir, True)
            p = _inproc(session, wl, k, seed, plain_dir, False)
            if t["sha256"] != p["sha256"]:
                session.tally(f"{wl.name}[{k}] traced",
                              "tracing changed stdout")
            traced_wall += t["wall_s"]
            plain_wall += p["wall_s"]
            stdout_bytes += t["stdout_bytes"]
            for key, vals in t["spans"].items():
                acc = spans.setdefault(key, [0, 0.0, 0.0, 0])
                for i, v in enumerate(vals):
                    acc[i] += v
    finally:
        shutil.rmtree(traced_dir, ignore_errors=True)
        shutil.rmtree(plain_dir, ignore_errors=True)
    metrics = {name: _metric(value, unit) for name, (value, unit) in
               layer_metrics(spans, traced_wall, stdout_bytes).items()}
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    return metrics


# -- driver ------------------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: int | None) -> tuple[dict, Session]:
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    session = Session(scratch, INVOCATION_LIMIT_S)
    metrics: dict = {}
    try:
        if trace in (None, 0):
            e2e, passes = end_to_end(session, wl, seed, seconds)
            metrics.update(e2e)
            print(f"# {wl.name}: end to end, {passes} pass(es), "
                  f"{wl.items} {wl.item_name} per pass")
            _print_metrics(e2e)
        if trace in (None, 1):
            layers = traced(session, wl, seed)
            metrics.update(layers)
            print(f"# {wl.name}: traced, --threads 1, in process")
            _print_metrics(layers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    fail_frac = len(session.failures) / max(1, session.attempted)
    print(f"# {wl.name}: fail_frac {fail_frac:.4f} "
          f"({len(session.failures)} of {session.attempted} runs)")
    for reason in session.failures:
        print(f"#   failed {reason}")
    return metrics, session


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:16.6f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wwl", "cli.py")):
        sys.stderr.write(f"no wwl sources under {ROOT}/src\n")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            wl_metrics, session = run_workload(WORKLOADS[name], args.seed,
                                               args.seconds, args.trace)
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
            attempted += session.attempted
            failed += len(session.failures)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
