"""Alternating benchmark pairs of two checkouts, written to one BENCH file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pr 15 --pairs 10 --seed 1500

Runs ``slocbench/run.py --seconds 20`` in each checkout (from that checkout's
root, so each side benchmarks its own ``src``), ``--pairs`` pairs for each of
``WORKLOADS``.  Odd pairs run the parent first and even pairs the change; both
runs of a pair share a seed, and pair ``i`` of a workload uses seed
``--seed + 100 * w + i``, with ``w`` the workload's position in ``WORKLOADS``.
Each PR passes fresh seeds.  Before the first pair both checkouts' ``src`` is
byte-compiled, so that neither side's ``setup_s`` includes compiling ``sloc``
while the other side reads ``.pyc`` files it happened to hold.  Then one
traced run (``--trace 1``) of every workload per side at ``TRACED_SEED``, with
per-pass calls and raw self seconds of every span name read from its span
file.  Every run records its pass
digests (the hashes of each pass's outputs), and ``digests`` lists, per
workload, the pairs whose two sides' digests match and those where they
differ, so a claim that no output bit moved is checked on every pair.

In the same alternating pairs, after the workloads, each side also times the
runs a user makes, each in a fresh process so that its imports count: every
subcommand of ``COMMANDS`` as ``sloc <command> --seed 42`` at the default
budgets (through ``compare_outputs.run_outputs``), with a sha256 of every file
it writes (``report.json`` without its checks' runtimes), and every acceptance
criterion of ``CRITERIA`` as one ``pytest`` run of ``tests/test_acceptance.py``
without hypothesis's pytest plugin (``-p no:hypothesispytest``), which the file
does not use and whose import took most of a short criterion's wall time.
A criterion's wall time includes pytest's start-up, so its run also records
``check_s``, the test's own call phase as pytest's ``--durations=0`` report
gives it (to 10 ms).  The ``end_to_end`` block holds these runs, the summary of
their ``wall_s`` and ``check_s`` by the same pair rule and ``verdict_s``'s
regression bound, and the pairs whose output digests match and differ.

``CHANGE_DIR/BENCH_<pr>.json``, the file to commit, holds the machine block,
every workload run's final JSON line (traced runs' included), the digests and
the summaries: per workload and end-to-end metric, each side's quartiles, the
change's relative median shift, its wins over the pairs (ties count for
neither), whether a gain holds (wins in at least nine tenths of the pairs and
medians further apart than the parent's interquartile range), whether the
change's median is within the metric's regression bound from
``BENCHMARK.json``, and whether the parent's spread resolves that bound.
``CHANGE_DIR/.slocbench_out/BENCH_<pr>.raw.json`` holds all that plus the
traced runs' span tables and the end-to-end block's per-run records.  Both
files are rewritten after every run.
"""
from __future__ import annotations

import argparse
import compileall
import csv
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from compare_outputs import COMMANDS, EXIT, STDOUT, _comparable, pass_digests, run_outputs

SIDES = ("parent", "change")
WORKLOADS = ("transport", "ensemble", "pointwise")
SECONDS = 20
TRACED_SEED = 42
CRITERIA = range(1, 11)


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` by the inclusive method; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, the pair statistics of untraced ``runs``.

    ``runs`` are records ``{"workload", "side", "pair", "result"}`` with the
    run's final line as ``result``; ``metrics`` are ``BENCHMARK.json``'s
    ``end_to_end`` entries (``name``, ``better``, ``bound``).  Only pairs
    with both sides count, and a metric only where every such pair has it.
    """
    by_pair: dict = defaultdict(dict)
    for run in runs:
        by_pair[(run["workload"], run["pair"])][run["side"]] = run["result"]["metrics"]
    out: dict = {}
    for workload in sorted({w for w, _ in by_pair}):
        pairs = [sides for (w, _), sides in sorted(by_pair.items()) if w == workload and len(sides) == 2]
        if not pairs:
            continue
        out[workload] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            if not all(name in p[side] for p in pairs for side in SIDES):
                continue
            parent = [p["parent"][name]["value"] for p in pairs]
            change = [p["change"][name]["value"] for p in pairs]
            sign = 1.0 if lower else -1.0
            wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
            ties = sum(p == c for p, c in zip(parent, change))
            pq, cq = quartiles(parent), quartiles(change)
            gain = sign * (pq[1] - cq[1])
            out[workload][name] = {
                "pairs": len(pairs),
                "parent_q1_med_q3": pq,
                "change_q1_med_q3": cq,
                "median_change": (cq[1] - pq[1]) / pq[1],
                "change_better_in": wins,
                "ties": ties,
                "gain_holds": wins >= 0.9 * len(pairs) and gain > pq[2] - pq[0],
                "within_bound": -gain <= metric["bound"] * abs(pq[1]),
                # A spread wider than the bound leaves the metric unresolved
                # unless every change run beats every parent run.
                "resolved": (pq[2] - pq[0] <= metric["bound"] * abs(pq[1])
                             or all(sign * (p - c) > 0 for p in parent for c in change)),
            }
    return out


def digest_matches(runs: list[dict]) -> dict:
    """Per workload, the pairs of ``runs`` whose parent and change runs gave
    the same pass digests (``match``) and the pairs where they did not
    (``differ``); ``runs`` are records ``{"workload", "side", "pair",
    "digests"}``.  Only pairs with both sides count."""
    by_pair: dict = defaultdict(dict)
    for run in runs:
        by_pair[(run["workload"], run["pair"])][run["side"]] = run["digests"]
    out: dict = {}
    for (workload, pair), sides in sorted(by_pair.items()):
        if len(sides) == 2:
            kind = "match" if sides["parent"] == sides["change"] else "differ"
            out.setdefault(workload, {"match": [], "differ": []})[kind].append(pair)
    return out


def span_summary(path: Path) -> dict:
    """Per span name, calls and raw self seconds per traced pass, from a
    span file of ``slocbench/run.py --trace 1``."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    passes = set()
    with gzip.open(path, "rt", newline="") as fh:
        for row in csv.DictReader(fh):
            passes.add(row["pass_id"])
            calls[row["name"]] += 1
            self_s[row["name"]] += float(row["self_s"])
    n = len(passes)
    return {"passes": n,
            "per_pass": {k: {"calls": calls[k] / n, "self_s": self_s[k] / n} for k in sorted(calls)}}


def committed(bench: dict) -> dict:
    """``bench`` without the traced runs' span tables and the end-to-end
    block's per-run records, which only the raw file keeps."""
    return dict(bench, traced=[{k: v for k, v in run.items() if k != "spans"} for run in bench["traced"]],
                end_to_end={k: v for k, v in bench["end_to_end"].items() if k != "runs"})


def dumps(obj, depth: int = 3, indent: str = "") -> str:
    """``obj`` as JSON, one item a line down to ``depth`` levels of nesting and
    compact below, so that each run record or metric summary takes a few lines."""
    if depth == 0 or not isinstance(obj, (dict, list)) or not obj:
        return json.dumps(obj)
    inner = indent + " "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dumps(v, depth - 1, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    return "[\n" + ",\n".join(inner + dumps(v, depth - 1, inner) for v in obj) + "\n" + indent + "]"


def compile_sources(checkouts) -> None:
    """Byte-compile the ``src`` tree of every checkout."""
    for checkout in checkouts:
        compileall.compile_dir(checkout / "src", quiet=1)


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The detail and final JSON lines of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "slocbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def output_digests(outputs: dict[str, bytes]) -> dict[str, str]:
    """sha256 of every file of ``compare_outputs.run_outputs``' result, a
    report as it is compared there (without its checks' runtimes)."""
    digests = {}
    for name, data in outputs.items():
        if name not in (EXIT, STDOUT):
            comparable = _comparable(name, data)
            if not isinstance(comparable, bytes):
                comparable = json.dumps(comparable, sort_keys=True).encode()
            digests[name] = hashlib.sha256(comparable).hexdigest()
    return digests


def call_seconds(report: str) -> float | None:
    """Seconds of the call phase of the first test in pytest output ``report``
    run with ``--durations=0``, or None if it lists none."""
    for line in report.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "call" and fields[0].endswith("s"):
            return float(fields[0][:-1])
    return None


def end_to_end_runs(checkout: Path) -> list[dict]:
    """Every subcommand and acceptance criterion of ``checkout``, each in a
    fresh process, as records ``{"workload", "exit", "result", "digests"}``
    whose result holds the wall time ``wall_s`` and, for a criterion whose
    report gives it, the test's own ``check_s``."""
    runs = []

    def add(name, seconds, code, digests, check_s=None):
        metrics = {"wall_s": {"value": seconds, "unit": "s"}}
        if check_s is not None:
            metrics["check_s"] = {"value": check_s, "unit": "s"}
        runs.append({"workload": name, "exit": code, "digests": digests, "result": {"metrics": metrics}})

    for command in COMMANDS:
        started = time.perf_counter()
        outputs = run_outputs(checkout, command, TRACED_SEED)
        add(f"sloc {command}", time.perf_counter() - started, int(outputs[EXIT]), output_digests(outputs))
    env = {k: v for k, v in os.environ.items() if k != "SLOC_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    for k in CRITERIA:
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
               "--durations=0", "--durations-min=0", "tests/test_acceptance.py", "-k", f"test_criterion_{k}_"]
        started = time.perf_counter()
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        add(f"criterion {k}", time.perf_counter() - started, done.returncode, {}, call_seconds(done.stdout))
    return runs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pr", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="first seed; use fresh seeds for each PR")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    raw = checkouts["change"] / ".slocbench_out" / f"BENCH_{args.pr}.raw.json"
    raw.parent.mkdir(exist_ok=True)
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    bench = {
        "description": (f"slocbench/run.py final JSON lines, parent vs change, {args.pairs} alternating pairs "
                        f"per workload (odd pairs run the parent first), --seconds {SECONDS}, "
                        f"seeds {args.seed} + 100 * workload index + pair; a traced run of every workload "
                        f"at seed {TRACED_SEED} with per-pass span calls and raw self seconds; per workload, "
                        f"the pairs whose pass digests match and differ; end_to_end: in the same "
                        f"alternating pairs, the wall time of every subcommand at --seed {TRACED_SEED} "
                        f"and every acceptance criterion, each in a fresh process (a criterion without "
                        f"hypothesis's pytest plugin; its check_s "
                        f"is its test's call phase from pytest --durations=0), with the "
                        f"sha256 of each output file; the traced span tables and the end-to-end "
                        f"per-run records are kept in .slocbench_out/BENCH_{args.pr}.raw.json"),
        "machine": None, "runs": [], "traced": [], "summary": {}, "digests": {},
        "end_to_end": {"runs": [], "summary": {}, "digests": {}},
    }
    wall = dict(next(m for m in metrics if m["name"] == "verdict_s"), name="wall_s")
    e2e_metrics = [wall, dict(wall, name="check_s")]

    def write():
        raw.write_text(json.dumps(bench, indent=1) + "\n")
        out.write_text(dumps(committed(bench)) + "\n")

    def record(side, workload, seed, trace, pair=None):
        detail, result = run_bench(checkouts[side], workload, seed, trace)
        bench["machine"] = bench["machine"] or detail["environment"]
        entry = {"workload": workload, "side": side, "seed": seed, "trace": trace, "result": result,
                 "digests": pass_digests(detail)}
        if trace:
            entry["spans"] = span_summary(checkouts[side] / detail["spans"]["file"])
            bench["traced"].append(entry)
        else:
            entry["pair"] = pair
            bench["runs"].append(entry)
            bench["summary"] = summarize(bench["runs"], metrics)
            bench["digests"] = digest_matches(bench["runs"])
        write()
        metric = result["metrics"].get("verdict_s", {}).get("value")
        print(f"{workload} {side} seed {seed} trace {trace}: correct={result['correct']} verdict_s={metric}",
              flush=True)

    compile_sources(checkouts.values())
    for w_index, workload in enumerate(WORKLOADS):
        for pair in range(1, args.pairs + 1):
            seed = args.seed + 100 * w_index + pair
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                record(side, workload, seed, 0, pair)
    e2e = bench["end_to_end"]
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            for run in end_to_end_runs(checkouts[side]):
                e2e["runs"].append(dict(run, side=side, pair=pair))
                print(f"{run['workload']} {side} pair {pair}: exit {run['exit']} "
                      f"wall_s={run['result']['metrics']['wall_s']['value']:.3f}", flush=True)
            e2e["summary"] = summarize(e2e["runs"], e2e_metrics)
            e2e["digests"] = digest_matches(e2e["runs"])
            write()
    for workload in WORKLOADS:
        for side in SIDES:
            record(side, workload, TRACED_SEED, 1)
    print(json.dumps({"summary": bench["summary"], "digests": bench["digests"],
                      "end_to_end": {k: e2e[k] for k in ("summary", "digests")}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
