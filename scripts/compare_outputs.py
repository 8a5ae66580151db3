"""Byte comparison of every CLI output of two checkouts.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Runs ``sloc <command> --seed <seed> --out out`` for each of ``COMMANDS`` at
each of ``SEEDS`` in both checkouts, each with ``PYTHONPATH=<dir>/src`` and
from a fresh temporary directory, at the default budgets.  Every file the run
writes is compared byte for byte, and so are its exit code and standard
output; ``report.json`` is compared with each check's ``runtime`` left out,
since wall time is never reproducible.  Prints every output that differs and
exits 1 if any does, 0 if none does.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "equiv", "rgd", "bridge", "lsi")
SEEDS = (7, 42)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared against it")
    args = parser.parse_args(argv)
    differing = 0
    for command in COMMANDS:
        for seed in SEEDS:
            diff = differences(run_outputs(args.parent, command, seed), run_outputs(args.change, command, seed))
            differing += len(diff)
            for name in diff:
                print(f"sloc {command} --seed {seed}: {name} differs")
            if not diff:
                print(f"sloc {command} --seed {seed}: identical")
    print(f"{differing} differing outputs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
