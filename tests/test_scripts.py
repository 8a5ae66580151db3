"""The runnable scripts, whose inputs are long runs, called as functions on
synthetic inputs: the benchmark-pair summary, its end-to-end block and the
output comparison."""
import hashlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The scripts import each other by module name, as they do when run from scripts/.
sys.path.insert(0, str(ROOT / "scripts"))


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(workload, parent, change):
    """Pair records of one metric per side, ``verdict_s`` given, the others fixed."""
    runs = []
    for pair, values in enumerate(zip(parent, change), start=1):
        for side, value in zip(("parent", "change"), values):
            metrics = {"verdict_s": {"value": value, "unit": "s"}, "peak_rss_mb": {"value": 100.0, "unit": "MB"}}
            runs.append({"workload": workload, "side": side, "pair": pair, "result": {"metrics": metrics}})
    return runs


METRICS = [{"name": "verdict_s", "better": "lower", "bound": 0.24},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.09}]


def test_bench_pairs_summary_claims_a_gain_only_by_the_pair_rule():
    bench = load_script("bench_pairs.py")
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.80, 0.82, 0.79, 0.81, 0.80, 0.83, 0.78, 0.80, 1.05, 0.79]
    runs = synthetic_runs("transport", parent, faster) + synthetic_runs("ensemble", parent, parent[::-1])
    runs.append({"workload": "ensemble", "side": "parent", "pair": 11,
                 "result": {"metrics": {"verdict_s": {"value": 9.0}, "peak_rss_mb": {"value": 1.0}}}})
    summary = bench.summarize(runs, METRICS)

    gain = summary["transport"]["verdict_s"]
    assert gain["pairs"] == 10 and gain["change_better_in"] == 9 and gain["ties"] == 0
    assert gain["parent_q1_med_q3"] == pytest.approx([0.9825, 1.0, 1.0175])
    assert gain["change_q1_med_q3"][1] == 0.80
    assert abs(gain["median_change"] + 0.2) < 1e-12
    assert gain["gain_holds"] and gain["within_bound"] and gain["resolved"]

    # The unpaired run is left out; a reshuffle of the parent's runs is no gain.
    level = summary["ensemble"]["verdict_s"]
    assert level["pairs"] == 10 and level["change_q1_med_q3"] == level["parent_q1_med_q3"]
    assert not level["gain_holds"] and level["within_bound"]
    flat = summary["ensemble"]["peak_rss_mb"]
    assert flat["ties"] == 10 and flat["change_better_in"] == 0 and not flat["gain_holds"]

    # Nine wins of ten, but within the parent's interquartile range: no gain.
    close = bench.summarize(synthetic_runs("transport", parent, [v - 0.01 for v in parent[:9]] + [1.1]), METRICS)
    assert close["transport"]["verdict_s"]["change_better_in"] == 9
    assert not close["transport"]["verdict_s"]["gain_holds"]

    slower = bench.summarize(synthetic_runs("transport", parent, [1.3 * v for v in parent]), METRICS)
    assert not slower["transport"]["verdict_s"]["within_bound"]


def test_bench_pairs_resolves_a_wide_spread_only_by_separated_runs():
    bench = load_script("bench_pairs.py")
    parent = [1.0, 2.0, 1.0, 2.0]
    wide = bench.summarize(synthetic_runs("transport", parent, [1.5, 1.5, 1.5, 1.5]), METRICS)
    assert not wide["transport"]["verdict_s"]["resolved"]
    apart = bench.summarize(synthetic_runs("transport", parent, [0.5, 0.5, 0.5, 0.5]), METRICS)
    assert apart["transport"]["verdict_s"]["resolved"]


def test_bench_pairs_lists_the_pairs_whose_digests_differ():
    bench = load_script("bench_pairs.py")
    runs = [{"workload": w, "side": side, "pair": pair, "digests": [digest]}
            for w, side, pair, digest in [("ensemble", "parent", 1, "a"), ("ensemble", "change", 1, "a"),
                                          ("ensemble", "change", 2, "b"), ("ensemble", "parent", 2, "c"),
                                          ("ensemble", "parent", 3, "d"), ("pointwise", "parent", 1, "e"),
                                          ("pointwise", "change", 1, "e")]]
    assert bench.digest_matches(runs) == {"ensemble": {"match": [1], "differ": [2]},
                                          "pointwise": {"match": [1], "differ": []}}


def test_bench_pairs_end_to_end_times_every_subcommand_and_criterion(monkeypatch, tmp_path):
    bench = load_script("bench_pairs.py")

    def report(runtime):
        return json.dumps({"global_pass": False, "checks": [{"name": "a", "runtime": runtime}]}).encode()

    def fake_outputs(checkout, command, seed):
        assert (checkout, seed) == (tmp_path, 42)
        return {"<exit code>": b"1", "<stdout>": b"FAIL", "report.json": report(len(command)), "out.csv": b"x\n"}

    criteria = []

    def fake_pytest(cmd, cwd, env, **kw):
        # pytest's --durations=0 report of the one test the run selects: its call
        # phase takes as many tenths of a second as the criterion's number.
        criteria.append((cmd[-1], cwd, env["PYTHONPATH"], cmd[:-1]))
        k = int(cmd[-1].split("_")[2])
        test = f"tests/test_acceptance.py::{cmd[-1]}x"
        report = f"=== slowest durations ===\n0.00s setup    {test}\n{k / 10:.2f}s call     {test}\n1 passed in 2s\n"
        return types.SimpleNamespace(returncode=0, stdout=report)

    monkeypatch.setattr(bench, "run_outputs", fake_outputs)
    monkeypatch.setattr(bench.subprocess, "run", fake_pytest)
    runs = bench.end_to_end_runs(tmp_path)

    assert [r["workload"] for r in runs] == (["sloc simulate", "sloc equiv", "sloc rgd", "sloc bridge", "sloc lsi"]
                                             + [f"criterion {k}" for k in range(1, 11)])
    # Each criterion runs alone, with its call phase reported and without
    # hypothesis's pytest plugin, which test_acceptance.py does not use.
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
           "--durations=0", "--durations-min=0", "tests/test_acceptance.py", "-k"]
    assert criteria == [(f"test_criterion_{k}_", tmp_path, str(tmp_path / "src"), cmd) for k in range(1, 11)]
    assert [r["exit"] for r in runs] == [1] * 5 + [0] * 10
    assert all(r["result"]["metrics"]["wall_s"]["value"] >= 0.0 for r in runs)
    # A criterion also records its test's call phase; a subcommand has no such report.
    check_s = [r["result"]["metrics"].get("check_s", {}).get("value") for r in runs]
    assert check_s == [None] * 5 + [k / 10 for k in range(1, 11)]
    assert bench.call_seconds("no durations here\n") is None
    # Every written file is digested; a report is digested without its runtimes.
    digests = {r["workload"]: r["digests"] for r in runs}
    assert digests["sloc equiv"].keys() == {"report.json", "out.csv"}
    assert digests["sloc equiv"]["out.csv"] == hashlib.sha256(b"x\n").hexdigest()
    assert digests["sloc equiv"] == digests["sloc lsi"] and digests["criterion 3"] == {}

    # The records feed the pair summary and the digest comparison as they are.
    moved = [dict(r, side="change", pair=1, digests={"out.csv": "y"} if r["workload"] == "sloc rgd" else r["digests"])
             for r in runs]
    records = [dict(r, side="parent", pair=1) for r in runs] + moved
    wall = dict(METRICS[0], name="wall_s")
    summary = bench.summarize(records, [wall, dict(wall, name="check_s")])
    assert summary.keys() == {r["workload"] for r in runs} and summary["criterion 10"]["wall_s"]["pairs"] == 1
    assert summary["criterion 3"]["check_s"]["parent_q1_med_q3"] == [0.3] * 3
    assert "check_s" not in summary["sloc equiv"]
    matches = bench.digest_matches(records)
    assert matches["sloc rgd"] == {"match": [], "differ": [1]} and matches["sloc equiv"]["match"] == [1]


def test_compare_outputs_differences_ignore_only_report_runtimes():
    compare = load_script("compare_outputs.py")

    def report(runtime, observed):
        check = {"name": "a", "observed": observed, "runtime": runtime, "passed": True}
        return json.dumps({"global_pass": True, "checks": [check]}).encode()

    parent = {"<exit code>": b"0", "report.json": report(1.5, 0.25), "report.csv": b"a,0.25\n", "x.csv": b"1\n"}
    assert compare.differences(parent, dict(parent, **{"report.json": report(9.0, 0.25)})) == []
    change = dict(parent, **{"report.json": report(1.5, 0.26), "report.csv": b"a,0.26\n", "y.csv": b""})
    del change["x.csv"]
    assert compare.differences(parent, change) == ["report.csv", "report.json", "x.csv", "y.csv"]
    # A runtime elsewhere than in a report's checks is compared as bytes.
    assert compare.differences({"trace.json": b'{"runtime": 1}'}, {"trace.json": b'{"runtime": 2}'}) == ["trace.json"]
    assert compare.differences(parent, dict(parent, **{"<exit code>": b"1"})) == ["<exit code>"]


def test_bench_pairs_compiles_both_sources_before_the_first_run(monkeypatch, tmp_path):
    bench = load_script("bench_pairs.py")
    modules = []
    for side in ("parent", "change"):
        module = tmp_path / side / "src" / "pkg" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("X = 1\n")
        modules.append(module)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    compiled = []

    def fake_bench(checkout, workload, seed, trace):
        compiled.append(all(Path(importlib.util.cache_from_source(str(m))).is_file() for m in modules))
        metrics = {m["name"]: {"value": 1.0} for m in METRICS}
        return {"environment": {}, "passes": [{"digest": "d"}], "spans": {"file": "s"}}, {
            "correct": True, "metrics": metrics}

    e2e_run = {"workload": "sloc lsi", "exit": 0, "digests": {}, "result": {"metrics": {"wall_s": {"value": 1.0}}}}
    monkeypatch.setattr(bench, "run_bench", fake_bench)
    monkeypatch.setattr(bench, "end_to_end_runs", lambda checkout: [e2e_run])
    monkeypatch.setattr(bench, "span_summary", lambda path: {"passes": 1, "per_pass": {}})
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "0", "--pairs", "1", "--seed", "1"]
    assert bench.main(args) == 0
    # Three workloads, one pair and one traced run each, on both sides: all after compiling.
    assert compiled == [True] * 12

    # The committed file keeps every final metric line, the summaries and the
    # digests; the span tables and the end-to-end per-run records stay raw.
    kept = json.loads((tmp_path / "change" / "BENCH_0.json").read_text())
    raw = json.loads((tmp_path / "change" / ".slocbench_out" / "BENCH_0.raw.json").read_text())
    assert "runs" not in kept["end_to_end"] and len(raw["end_to_end"]["runs"]) == 2
    assert kept["end_to_end"]["summary"]["sloc lsi"]["wall_s"]["pairs"] == 1
    assert len(kept["runs"]) == 6 and len(kept["traced"]) == 6
    assert all("spans" not in run and "spans" in full for run, full in zip(kept["traced"], raw["traced"]))
    assert kept == bench.committed(raw)


def test_compare_outputs_says_how_far_a_csv_moved():
    compare = load_script("compare_outputs.py")
    parent = b"name,observed,tolerance,passed\na,0.25,0.01,1\nb,2,1,0\nc,nan,0,0\n"
    change = b"name,observed,tolerance,passed\na,0.2500001,0.01,1\nb,0.5,1,1\nc,nan,0,0\n"
    largest, flipped = compare.csv_moves(parent, change)
    assert largest == pytest.approx(0.75) and flipped == ["b: 0 -> 1"]
    assert compare.csv_moves(parent, parent) == (0.0, [])
    # A cell that is not a number, or a row too many, moved without bound.
    assert compare.csv_moves(b"x\n1\n", b"x\none\n")[0] == float("inf")
    assert compare.csv_moves(b"x\n1\n", b"x\n1\n2\n")[0] == float("inf")
    outputs = {"report.csv": parent, "report.json": b"{}"}
    moved = dict(outputs, **{"report.csv": change, "report.json": b"[]"})
    assert compare.describe("report.csv", outputs, moved) == (
        "report.csv differs (largest relative change 0.75; passed flipped: b: 0 -> 1)")
    assert compare.describe("report.json", outputs, moved) == "report.json differs"
    assert compare.describe("x.csv", {}, {"x.csv": b"1\n"}) == "x.csv differs"


def test_compare_outputs_also_compares_the_benchmark_pass_digests(monkeypatch, tmp_path, capsys):
    compare = load_script("compare_outputs.py")
    parent, change = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setattr(compare, "run_outputs", lambda checkout, command, seed: {"<exit code>": b"0"})
    runs = []

    def fake_bench(cmd, cwd, **kwargs):
        runs.append((cmd[1:], cwd))
        workload = cmd[cmd.index("--workload") + 1]
        digest = "moved" if cwd == change and workload == "pointwise" else "same"
        detail = {"passes": [{"digest": digest}] * 3}
        return types.SimpleNamespace(stdout=json.dumps({"detail": detail}) + "\n{}\n")

    monkeypatch.setattr(compare.subprocess, "run", fake_bench)
    assert compare.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["slocbench ensemble --seed 42: pass digests identical",
                        "slocbench pointwise --seed 42: pass digests differ",
                        "slocbench transport --seed 42: pass digests identical",
                        "1 differing outputs"]
    assert sorted(runs) == sorted(
        (["slocbench/run.py", "--workload", w, "--seed", "42", "--seconds", "0.01"], side)
        for w in ("ensemble", "pointwise", "transport") for side in (parent, change))
    assert compare.pass_digests({"passes": [{"digest": "b"}, {"digest": "a"}, {"digest": "b"}]}) == ["a", "b"]
