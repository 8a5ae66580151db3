"""Byte comparison of every CLI output and benchmark pass digest of two checkouts.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Runs ``sloc <command> --seed <seed> --out out`` for each of ``COMMANDS`` at
each of ``SEEDS`` in both checkouts, each with ``PYTHONPATH=<dir>/src`` and
from a fresh temporary directory, at the default budgets.  Every file the run
writes is compared byte for byte, and so are its exit code and standard
output; ``report.json`` is compared with each check's ``runtime`` left out,
since wall time is never reproducible.  Prints every output that differs and
exits 1 if any does, 0 if none does.  For a CSV that differs it also prints
how far its bits moved: the largest relative change over its cells, and the
rows whose ``passed`` cell flipped.

It then runs each checkout's benchmark, ``slocbench/run.py``, for each of
``WORKLOADS`` at ``--seed`` ``BENCH_SEED`` (at least three passes, from the
checkout's root) and compares the distinct pass digests, the hashes of each
pass's outputs; a workload whose digests differ counts as one differing
output.  Exit 0 therefore means that no output bit moved.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "equiv", "rgd", "bridge", "lsi")
SEEDS = (7, 42)
WORKLOADS = ("ensemble", "pointwise", "transport")
BENCH_SEED = 42
EXIT, STDOUT = "<exit code>", "<stdout>"


def run_outputs(checkout: Path, command: str, seed: int) -> dict[str, bytes]:
    """Exit code, standard output and every written file of one run of
    ``checkout``'s ``sloc``, keyed by file name relative to the output directory."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SLOC_SEED")}
    env["PYTHONPATH"] = str(Path(checkout).resolve() / "src")
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run(
            [sys.executable, "-m", "sloc.cli", command, "--seed", str(seed), "--out", "out"],
            cwd=work, env=env, capture_output=True,
        )
        out = Path(work) / "out"
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {EXIT: str(run.returncode).encode(), STDOUT: run.stdout, **files}


def pass_digests(detail: dict) -> list[str]:
    """The distinct pass digests of a benchmark run's detail line, sorted."""
    return sorted({p["digest"] for p in detail["passes"]})


def bench_digests(checkout: Path, workload: str, seed: int = BENCH_SEED) -> list[str]:
    """``pass_digests`` of one short benchmark run of ``workload`` in ``checkout``:
    ``--seconds`` so small that it makes the benchmark's minimum of three passes."""
    cmd = [sys.executable, "slocbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.01"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return pass_digests(json.loads(done.stdout.strip().splitlines()[-2])["detail"])


def _comparable(name: str, data: bytes):
    """``data`` as compared: a report without its checks' runtimes, else the bytes."""
    if Path(name).name != "report.json":
        return data
    report = json.loads(data)
    for check in report.get("checks", []):
        check.pop("runtime", None)
    return report


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """Names of the outputs that differ between two runs, or that only one
    run wrote, in sorted order."""
    return [
        name
        for name in sorted(parent.keys() | change.keys())
        if name not in parent or name not in change
        or _comparable(name, parent[name]) != _comparable(name, change[name])
    ]


def _relative_change(old: str, new: str) -> float:
    """``|new - old| / |old|`` of two cells: 0 when they are equal as text or
    both NaN, inf when either is not a number or ``old`` is 0."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def csv_moves(parent: bytes, change: bytes) -> tuple[float, list[str]]:
    """How far the cells of two CSV texts moved: the largest relative change
    over cells in the same place outside a ``passed`` column (inf where the
    row or column counts differ), and ``"<first cell>: <old> -> <new>"`` for
    each row whose ``passed`` cell differs."""
    old, new = (list(csv.reader(data.decode().splitlines())) for data in (parent, change))
    if [len(r) for r in old] != [len(r) for r in new]:
        return math.inf, []
    passed = old[0].index("passed") if old and "passed" in old[0] else None
    largest = max((_relative_change(a, b) for ro, rn in zip(old, new) for i, (a, b) in enumerate(zip(ro, rn))
                   if i != passed), default=0.0)
    flipped = [f"{ro[0]}: {ro[passed]} -> {rn[passed]}" for ro, rn in zip(old[1:], new[1:])
               if passed is not None and passed < len(ro) and ro[passed] != rn[passed]]
    return largest, flipped


def describe(name: str, parent: dict[str, bytes], change: dict[str, bytes]) -> str:
    """``"<name> differs"``, and for a CSV both runs wrote, how far it moved."""
    text = f"{name} differs"
    if name.endswith(".csv") and name in parent and name in change:
        largest, flipped = csv_moves(parent[name], change[name])
        text += f" (largest relative change {largest:.3g}"
        text += f"; passed flipped: {', '.join(flipped)})" if flipped else ")"
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared against it")
    args = parser.parse_args(argv)
    differing = 0
    for command in COMMANDS:
        for seed in SEEDS:
            parent, change = run_outputs(args.parent, command, seed), run_outputs(args.change, command, seed)
            diff = differences(parent, change)
            differing += len(diff)
            for name in diff:
                print(f"sloc {command} --seed {seed}: {describe(name, parent, change)}")
            if not diff:
                print(f"sloc {command} --seed {seed}: identical")
    for workload in WORKLOADS:
        same = bench_digests(args.parent, workload) == bench_digests(args.change, workload)
        differing += not same
        print(f"slocbench {workload} --seed {BENCH_SEED}: pass digests {'identical' if same else 'differ'}")
    print(f"{differing} differing outputs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
