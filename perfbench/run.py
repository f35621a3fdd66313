"""qghz benchmark: one workload campaign, repeated in one process for a fixed time.

    python3 perfbench/run.py --workload envariance-sweep --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` and the oracles from ``tests/oracles.py`` of the same checkout.
One thread, one client, closed loop: each operation is one in-process
``qghz.cli.main(argv)`` call writing to a fresh output directory, and the next
starts when it returns. The campaign (see workloads.py) is repeated until
``--seconds`` have passed. Outputs are checked after each operation, outside
its timed region. Work files live in ``.perfbench_work/`` and are removed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and reports the per-layer metrics (tracing.py). The
last stdout line is the JSON result; the lines before it are a readable
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("envariance-sweep", "parity-sweep", "compile-large")
# Kind of work that dominates each workload's profile; SpeedProbe times the same kind.
PROBE_KIND = {"envariance-sweep": "numpy", "parity-sweep": "interpreter", "compile-large": "interpreter"}
SETUP_RUNS = 7
SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import qghz; [qghz.resolve_map(m) for m in sys.argv[2:]]"


def environment() -> dict:
    """Interpreter, numpy and kernel facts of this process; never changes the backend."""
    import numpy
    from qghz import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.active_backend() if hasattr(kernels, "active_backend") else "numpy",
        "nproc": os.cpu_count(),
    }


def measure_setup(maps) -> float:
    """Median seconds for a fresh interpreter to import qghz and resolve the maps.

    Unscaled: neither a probe in this process nor one run inside the child
    tracked start-up (exec, loading shared objects) well enough; both made
    the figure move more between runs, not less.
    """
    command = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *maps]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(command, check=True, capture_output=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs and checks operations of one campaign; remembers each op's first digests."""

    def __init__(self, campaign, reference: dict, probe: SpeedProbe):
        import checks
        from qghz import cli

        self.cli = cli  # main is looked up per call, so a traced wrapper is picked up
        self.checks = checks
        self.campaign = campaign
        self.probe = probe
        self.checker = checks.Checker(campaign.maps, reference["p_err"])
        self.recorded = reference["digests"].get(campaign.workload, {}).get(str(campaign.seed), {})
        self.first_digests: dict[str, dict] = {}
        self.errors: list[str] = []
        self._outputs = 0

    def run_op(self, op) -> dict:
        self._outputs += 1
        out = WORK / self.campaign.workload / "out" / str(self._outputs)
        argv = op.argv if op.kind == "rank" else op.argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()

        def call():
            try:
                return self.cli.main(argv)
            except Exception as exc:  # a crashing command is a failed operation
                return f"{type(exc).__name__}: {exc}"

        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code, raw, latency = self.probe.timed(call)
        result = {"latency": latency, "raw": raw, "gates": 0, "written": len(stdout.getvalue().encode()),
                  "ok": False}
        try:
            if code != 0:
                raise self.checks.CheckFailure(f"exit {code}: {stderr.getvalue().strip()}")
            result["gates"] = self.checker.check(op, out, stdout.getvalue())
            got = self.checks.digests(out)
            if got != self.first_digests.setdefault(op.label, got):
                raise self.checks.CheckFailure("output bytes differ from the same command earlier in this run")
            if op.label in self.recorded and got != self.recorded[op.label]:
                raise self.checks.CheckFailure("output digests differ from those recorded at this seed")
            result["digests"] = got
            result["ok"] = True
        except Exception as exc:  # every wrong or unreadable output fails the op, and the run goes on
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        if out.is_dir():
            result["written"] += sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        return result

    def run_campaign(self) -> list[dict]:
        return [self.run_op(op) for op in self.campaign.ops]

    def run_for(self, seconds: float, before=None, after=None) -> list[list[dict]]:
        """Whole campaigns back to back until ``seconds`` have passed (at least one)."""
        campaigns = []
        start = time.perf_counter()
        while not campaigns or time.perf_counter() - start < seconds:
            if before:
                before()
            campaigns.append(self.run_campaign())
            if after:
                after(campaigns[-1])
        return campaigns


def raw_wall(campaign: list[dict]) -> float:
    return sum(op["raw"] for op in campaign)


def expected_votes(campaign) -> int:
    return sum(op.params["reps"] * len(op.params["queries"]) for op in campaign.ops if op.kind == "parity")


def campaign_s(campaigns, key: str = "latency") -> float:
    """Campaign time: the sum over its commands of each one's median latency in the run."""
    return sum(statistics.median(ops) for ops in zip(*([op[key] for op in c] for c in campaigns)))


def end_to_end(campaigns, setup_s: float) -> dict:
    ops = [op for c in campaigns for op in c]
    failed = sum(not op["ok"] for op in ops)
    return {
        "wall_s": campaign_s(campaigns),
        "op_p50_ms": 1e3 * statistics.median(op["latency"] for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (len(ops) - failed) / len(ops),
        "gates_emitted": sum(op["gates"] for op in campaigns[0]),
    }


def per_layer(runner, seconds: float) -> tuple[dict, list[list[dict]]]:
    """Half the time untraced, half traced; per-campaign counts and median times."""
    from tracing import Tracer

    untraced = runner.run_for(seconds / 2)
    tracer = Tracer()
    references = tracer.install()
    snapshots = []

    def record(campaign):
        snapshots.append(tracer.snapshot(raw_wall(campaign), sum(op["written"] for op in campaign)))
        runner.errors.extend(tracer.completeness_problems(expected_votes(runner.campaign)))

    try:
        traced = runner.run_for(seconds / 2, before=tracer.reset, after=record)
    finally:
        tracer.uninstall()
    counts = snapshots[0][0]
    if any(c != counts for c, _ in snapshots):
        runner.errors.append("trace counts differ between identical campaigns")
    metrics = dict(counts)
    metrics["trace.references_wrapped"] = references
    for name in snapshots[0][1]:
        metrics[name] = statistics.median(times[name] for _, times in snapshots)
    metrics["trace.wall_s"] = campaign_s(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - campaign_s(untraced)
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qghz" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} holds no qghz checkout (src/qghz and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import make_campaign

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    try:
        campaign = make_campaign(args.workload, args.seed, WORK / args.workload)
        reference = json.loads((HERE / "reference.json").read_text())
        runner = Runner(campaign, reference, SpeedProbe(PROBE_KIND[args.workload]))
        runner.run_op(campaign.ops[0])  # warm-up: first-call costs users pay once per process
        if args.trace:
            metrics, campaigns = per_layer(runner, args.seconds)
        else:
            setup_s = measure_setup(campaign.maps)
            campaigns = runner.run_for(args.seconds)
            metrics = end_to_end(campaigns, setup_s)
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(units.keys() ^ metrics.keys())}")
    metrics = {name: metrics[name] for name in units}
    attempted = sum(len(c) for c in campaigns)
    failed = sum(not op["ok"] for c in campaigns for op in c)
    for error in runner.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(campaigns)} campaigns "
          f"x {len(campaign.ops)} ops = {attempted} ops attempted, {failed} failed, "
          f"error_rate {failed / attempted:g}")
    latencies = sorted(1e3 * op["latency"] for c in campaigns for op in c)
    tail = f", p{100 * (1 - 10 / attempted):.0f} {latencies[-11]:.1f} ms" if attempted > 10 else ""
    print(f"scaled latency over all {attempted} ops: p50 {statistics.median(latencies):.1f} ms{tail}; "
          f"unscaled campaign {campaign_s(campaigns, 'raw'):.3f} s, scaled {campaign_s(campaigns):.3f} s")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
