#!/usr/bin/env python3
"""Run the full cross-construction verification battery from the command line.

Each check prints its runtime: the wall time since the previous check of the
same suite function, or since that function began (the first KS check also
carries the one-time ``scipy.stats`` import).

Example:
    python scripts/run_equivalences.py --paths 4000 --dt 0.002 --seed 7
"""
import argparse
import sys
import time

from sloc import suites

_FLAGS = ("seed", "paths", "dt", "particles", "workers")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for name in _FLAGS:
        default = getattr(suites.SuiteBudget, name)
        parser.add_argument(f"--{name}", type=type(default), default=default)
    parser.add_argument(
        "--suites",
        nargs="+",
        default=list(suites.SUITES),
        choices=sorted(suites.SUITES),
    )
    args = parser.parse_args()

    budget = suites.SuiteBudget(**{name: getattr(args, name) for name in _FLAGS})
    all_pass = True
    for name in args.suites:
        t0 = time.time()
        report = suites.run_suite(name, budget)
        for check in report.checks:
            flag = "PASS" if check.passed else "FAIL"
            print(
                f"{flag} {check.name}: observed={check.observed:.6g} "
                f"tolerance={check.tolerance:.6g} ({check.runtime:.2f}s)"
            )
            if check.detail:
                print(f"      {check.detail}")
        print(f"== suite {name}: {'PASS' if report.global_pass else 'FAIL'} "
              f"in {time.time() - t0:.1f}s\n")
        all_pass = all_pass and report.global_pass
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
