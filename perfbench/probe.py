"""Child process of the benchmark: one measurement in a fresh interpreter.

    python3 perfbench/probe.py setup TYPE RANK [CACHE_DIR]
        Time from build_group(config) until group.ensure_bruhat() returns.

    python3 perfbench/probe.py check OUT_FILE SEED EXIT_CODE COMMAND_JSON
        Judge one command run by its exit code and stdout file (see
        workloads.check_output); prints the reason it failed, or null.

    python3 perfbench/probe.py inproc TRACE -- WWL_ARGS...
        Run wwl.cli.main(WWL_ARGS) in this process with stdout replaced by a
        byte-counting, hashing sink; with TRACE=1 the tracer is installed
        first.

Each prints one JSON object on the real stdout.  The program is imported
from `src/` of the checkout that holds this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CountingSink:
    """Text stream that keeps only the byte count and sha256 of what is
    written to it."""

    encoding = "utf-8"

    def __init__(self):
        self.bytes = 0
        self._sha = hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.bytes += len(data)
        self._sha.update(data)
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def setup_time(type_letter: str, rank: int, cache_dir: str | None) -> float:
    from wwl.workbench import SweepConfig, build_group
    config = SweepConfig(type_letter=type_letter, rank=rank,
                         cache_dir=cache_dir)
    t0 = time.perf_counter()
    group = build_group(config)
    group.ensure_bruhat()
    return time.perf_counter() - t0


def check_file(path: str, seed: int, exit_code: int, spec: dict) -> str | None:
    from workloads import Command, check_output
    spec["args"] = tuple(spec["args"])
    with open(path, "rb") as fh:
        out = fh.read()
    return check_output(Command(**spec), seed, exit_code, out,
                        hashlib.sha256(out).hexdigest())


def run_inproc(argv: list[str], trace: bool) -> dict:
    import wwl.cli
    tracer = None
    if trace:
        from tracer import Tracer, default_hooks
        tracer = Tracer()
        tracer.install(default_hooks())
    sink = CountingSink()
    real_stdout = sys.stdout
    sys.stdout = sink
    try:
        t0 = time.perf_counter()
        try:
            code = wwl.cli.main(argv)
        except Exception as exc:  # an uncaught program error is a failed run
            sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
        if tracer is not None:
            tracer.uninstall()
    return {"exit": code, "wall_s": wall, "stdout_bytes": sink.bytes,
            "sha256": sink.hexdigest(),
            "spans": tracer.snapshot() if tracer is not None else {}}


def main(args: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args[0] == "setup":
        cache_dir = args[3] if len(args) > 3 else None
        result = {"setup_s": setup_time(args[1], int(args[2]), cache_dir)}
    elif args[0] == "check":
        result = {"reason": check_file(args[1], int(args[2]), int(args[3]),
                                       json.loads(args[4]))}
    elif args[0] == "inproc":
        result = run_inproc(args[3:], args[1] == "1")
    else:
        sys.stderr.write(f"unknown probe {args[0]!r}\n")
        return 2
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
