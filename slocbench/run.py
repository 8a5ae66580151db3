"""Benchmark of the ``sloc`` verifier: end-to-end time per pass, set-up time
and peak memory, or (with ``--trace 1``) per-layer metrics from spans.

Run from the root of a checkout:

    python3 slocbench/run.py --workload ensemble --seed 42 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (raw wall times, calibrations, work counts, checks and the
environment).  See ``slocbench/README.md``.
"""
from __future__ import annotations

import os

# One BLAS thread: the load model is one closed-loop pass at a time in one
# process.  This must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".slocbench_out"
SETUP_PROCESSES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60


class BenchmarkError(RuntimeError):
    """The benchmark could not run here (missing source, failed child)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ensemble", "pointwise", "transport"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_sloc():
    """Import ``sloc`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "sloc" / "__init__.py").is_file():
        raise BenchmarkError(f"no sloc source at {SRC / 'sloc'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sloc
    import sloc.cli  # noqa: F401  (the pointwise workload drives the CLI)

    if Path(sloc.__file__).resolve().parent != (SRC / "sloc").resolve():
        raise BenchmarkError(f"imported sloc from {sloc.__file__}, not from {SRC}")
    return sloc


def scratch_dir(workload: str) -> Path:
    return OUT / f"{workload}-{os.getpid()}"


def setup_probe(args) -> int:
    """Child process: time the import of ``sloc`` and the building of inputs
    from ``spawned`` (the parent's clock reading just before it started us)."""
    from clock import ReferenceClock

    import workloads

    spawned = args.setup_probe
    try:
        with ReferenceClock() as clock:
            t0 = time.perf_counter()
            sloc = import_sloc()
            t1 = time.perf_counter()
            workloads.make(args.workload, sloc, args.seed, scratch_dir(args.workload))
            t2 = time.perf_counter()
            clock.calibrate()
    finally:
        shutil.rmtree(scratch_dir(args.workload), ignore_errors=True)
    result = {
        "setup_s": clock.reference_between(spawned, t2)[1],
        "import_s": clock.reference_between(spawned, t1)[1],
        "build_s": clock.reference_between(t1, t2)[1],
        "raw_setup_s": t2 - spawned,
        "raw_interpreter_s": t0 - spawned,
        "calibrations": clock.calibration_summary(),
    }
    print(json.dumps(result))
    return 0


def measure_setup(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + ["--setup-probe", repr(spawned)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _feed(h, obj) -> None:
    import numpy as np

    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, (float, int, np.floating, np.integer, bool, str)) or obj is None:
        h.update(repr(obj).encode())
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        _feed(h, {f: getattr(obj, f) for f in obj.__dataclass_fields__})
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(out: dict) -> str:
    h = hashlib.sha256()
    _feed(h, out)
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_passes(workload, clock, seconds: float, min_passes: int, records: list, tracer=None) -> dict:
    """Repeat the pass for ``seconds`` and at least ``min_passes`` times,
    appending a record per pass; returns the last pass's outputs."""
    deadline = time.perf_counter() + seconds
    count = 0
    while count < min_passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.pass_id = len(records)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out, raw, ref = clock.timed(workload.run_pass)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        workload.collect(out)
        records.append({"pass_id": len(records), "traced": tracer is not None, "raw_s": raw, "ref_s": ref,
                        "minor_faults": faults, "work": dict(workload.work), "digest": digest(out)})
        count += 1
    return out


def measure(args, sloc, workload, setups: list) -> tuple[dict, dict]:
    from clock import ReferenceClock
    from oracle import Gate

    records: list = []
    tracer = None
    with ReferenceClock(workload.calibration) as clock:
        if args.trace:
            import layers
            from spans import Tracer

            run_passes(workload, clock, args.seconds / 2, 1, records)
            tracer = Tracer(clock.work_time, notes=layers.NOTES)
            tracer.install(sloc)
            workload.traced(tracer.wrap)
            try:
                out = run_passes(workload, clock, args.seconds / 2, 1, records, tracer)
            finally:
                tracer.uninstall()
        else:
            out = run_passes(workload, clock, args.seconds, MIN_PASSES, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        spans_file = tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    gate = Gate()
    gate.check("determinism/pass-digests", len({r["digest"] for r in records}) == 1,
               f"{len({r['digest'] for r in records})} distinct digests over {len(records)} passes")
    if workload.counted:
        counted = [{k: r["work"][k] for k in workload.counted} for r in records]
        gate.check("determinism/pass-counters", all(c == counted[0] for c in counted),
                   f"{len(records)} passes")
    try:
        workload.gate(out, gate)
    except Exception as exc:  # a broken program may break a gate; that is a failed check
        gate.check("gate/raised", False, f"{type(exc).__name__}: {exc}")

    untraced = [r for r in records if not r["traced"]]
    verdict = [r["ref_s"] for r in untraced]
    if args.trace:
        metrics = layers.layer_metrics(workload, tracer, [r for r in records if r["traced"]], untraced,
                                       setups, workload.counts(out))
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(verdict), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": records,
        "verdict": {"samples": len(verdict), "median_s": statistics.median(verdict), "max_s": max(verdict)},
        "setup": setups,
        "peak_rss_mb": peak_rss_mb,
        "calibration": clock.calibration_summary(),
        "checks": gate.results,
        "environment": environment(),
    }
    if args.trace:
        detail["spans"] = {"file": str(spans_file.relative_to(ROOT)), "count": len(tracer.spans)}
        share = metrics["trace.dominant_share"]["value"]
        detail["dominant"] = {
            "layers": list(workload.dominant),
            "predicted_share_at_least": workload.dominant_share,
            "measured_share": share,
            "holds": share >= workload.dominant_share,
        }
    result = {"correct": gate.failed == 0, "attempted": len(gate.results), "failed": gate.failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        return setup_probe(args)
    import workloads

    scratch = scratch_dir(args.workload)
    try:
        if not (SRC / "sloc" / "__init__.py").is_file():
            raise BenchmarkError(f"no sloc source at {SRC / 'sloc'}; run from the root of a checkout")
        setups = [measure_setup(args) for _ in range(SETUP_PROCESSES)]
        sloc = import_sloc()
        workload = workloads.make(args.workload, sloc, args.seed, scratch)
        result, detail = measure(args, sloc, workload, setups)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
