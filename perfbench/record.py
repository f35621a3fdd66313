"""Regenerate perfbench/reference.json: exact learner error table and output digests.

    python3 perfbench/record.py

The error table holds ``exact_perr`` from tests/oracles.py for every (eta, N)
the parity-sweep campaign uses; the larger N take seconds each, so runs read
them here and recompute only the small ones. The digests are the sha256 of
each operation's circuit.qasm, results.json and results.csv for workload
seeds 0-9, recorded after every correctness check passed. Record
again only when a change is meant to alter output bytes, and say why.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from fractions import Fraction

import run

RECORDED_SEEDS = range(10)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.TESTS)]
    from checks import perr_key
    from oracles import exact_perr
    from workloads import CROSSCHECK_ETA, CROSSCHECK_QUERIES, PARITY_ETAS, PARITY_QUERIES, doubling, make_campaign

    points = {(float(eta), q) for eta in PARITY_ETAS for q in doubling(PARITY_QUERIES)}
    points |= {(float(CROSSCHECK_ETA), q) for q in doubling(CROSSCHECK_QUERIES)}
    reference = {
        "environment": dict(run.environment(), cpu=cpu_model()),
        "p_err": {perr_key(eta, q): exact_perr(Fraction(repr(eta)), q) for eta, q in sorted(points)},
        "digests": {},
    }
    for workload in run.WORKLOADS:
        for seed in RECORDED_SEEDS:
            work = run.WORK / workload
            work.mkdir(parents=True, exist_ok=True)
            campaign = make_campaign(workload, seed, work)
            runner = run.Runner(campaign, reference, run.SpeedProbe(run.PROBE_KIND[workload]))
            results = runner.run_campaign()
            if runner.errors:
                print("\n".join(runner.errors), file=sys.stderr)
                return 1
            reference["digests"].setdefault(workload, {})[str(seed)] = {
                op.label: result["digests"] for op, result in zip(campaign.ops, results) if result["digests"]
            }
            print(f"{workload} seed {seed}: {len(results)} ops checked", file=sys.stderr)
    shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
