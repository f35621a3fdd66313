"""Command-line front end: rank, compile, envariance, parity.

Every file-writing run produces a directory with manifest.json plus its
result files; the manifest records the command, map, parameters (seed
included) and output file names, which is enough to reproduce the run
byte-for-byte. Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .analysis import (
    b_per_repetition,
    circuit_oracle_crosscheck,
    envariance_histograms,
    fidelity_from_histograms,
    frequencies,
    path_for,
    perr_curve,
)
from .circuits import (
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    circuit_to_json_dict,
    effective_a,
    emit_qasm,
    verify_legality,
    with_measurements,
)
from .circuits import IllegalCouplingError
from .coupling import MapFormatError, most_connected, rank_all, resolve_map
from .paths import UnreachableQubitsError
from .simulator import NoisySampleConfig

CROSSCHECK_MAX_N = 4
CROSSCHECK_SHOTS = 100_000


class UsageError(ValueError):
    """Bad command-line arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, command: str, map_name: str, parameters: dict, outputs: list[str]) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "map_name": map_name,
            "parameters": parameters,
            "output_paths": outputs,
        },
    )


def _checked_qasm(cmap, circuit) -> str:
    violations = verify_legality(cmap, circuit)
    if violations:
        raise RuntimeError("compiler produced an illegal circuit: " + "; ".join(violations))
    return emit_qasm(circuit)


def parse_queries(spec: str, sweep: str, step: int) -> list[int]:
    """Expand a query-count spec: 'N', 'N,M,...', or 'START:END'.

    Ranges grow geometrically (doubling, end included) or linearly with
    ``step``, per the --sweep flag; ``step`` must be at least 1.
    """
    if step < 1:
        raise UsageError(f"--step must be at least 1, got {step}")
    spec = spec.strip()
    if ":" in spec:
        start_s, end_s = spec.split(":", 1)
        start, end = int(start_s), int(end_s)
        if start < 1 or end < start:
            raise UsageError(f"bad query range {spec!r}: need 1 <= start <= end")
        if sweep == "linear":
            values = list(range(start, end + 1, step))
            if values[-1] != end:
                values.append(end)
            return values
        values = []
        q = start
        while q < end:
            values.append(q)
            q *= 2
        values.append(end)
        return values
    if "," in spec:
        values = [int(tok) for tok in spec.split(",")]
    else:
        values = [int(spec)]
    if any(v < 1 for v in values):
        raise UsageError(f"query counts must be positive: {spec!r}")
    return values


def _cmd_rank(args) -> int:
    cmap = resolve_map(args.map)
    ranks = rank_all(cmap)
    root = most_connected(ranks)
    if args.json:
        print(json.dumps({"map": cmap.name, "ranks": [int(r) for r in ranks], "root": root}, sort_keys=True))
    else:
        for q, r in enumerate(ranks):
            print(f"q{q}: rank {int(r)}")
        print(f"root: q{root} (highest rank, lowest index on ties)")
    return 0


def _build_experiment(cmap, experiment: str, n: int, pattern: str | None):
    """Returns (circuit, path, effective_a or None); validates pattern usage."""
    if experiment != "parity" and pattern is not None:
        raise UsageError(f"--pattern applies only to parity circuits, not {experiment!r}")
    if experiment == "parity":
        if pattern is None:
            raise UsageError("parity circuits need --pattern {00,10,11}")
        if n < 1:
            raise UsageError("parity circuits need at least one query qubit")
        path = path_for(cmap, n + 1)
        oracle = OraclePattern(pattern)
        return build_parity(cmap, path, oracle), path, effective_a(path, oracle)
    path = path_for(cmap, n)
    if experiment == "ghz":
        return with_measurements(build_ghz(cmap, path), path.involved()), path, None
    return build_envariance(cmap, path), path, None


def _cmd_compile(args) -> int:
    cmap = resolve_map(args.map)
    circuit, path, a_string = _build_experiment(cmap, args.experiment, args.n, args.pattern)
    qasm = _checked_qasm(cmap, circuit)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = ["circuit.qasm"]
    (out_dir / "circuit.qasm").write_text(qasm)
    if args.dump_path:
        _write_json(out_dir / "path.json", {"root": path.root, "pairs": [list(p) for p in path.pairs]})
        outputs.append("path.json")
    if args.dump_circuit:
        _write_json(out_dir / "circuit.json", circuit_to_json_dict(circuit))
        outputs.append("circuit.json")

    parameters = {"experiment": args.experiment, "n": args.n}
    if args.experiment == "parity":
        parameters["pattern"] = args.pattern
        parameters["effective_a"] = a_string
        print(f"effective a: {a_string}")
    _write_manifest(out_dir, "compile", cmap.name, parameters, outputs)
    counts = circuit.counts()
    print(f"wrote {out_dir / 'circuit.qasm'} ({circuit.width} qubits, {len(circuit.gates)} gates: {counts})")
    return 0


def _cmd_envariance(args) -> int:
    cmap = resolve_map(args.map)
    circuit = build_envariance(cmap, path_for(cmap, args.n))
    qasm = _checked_qasm(cmap, circuit)

    histograms = envariance_histograms(circuit, args.shots, args.reps, args.seed)
    report = fidelity_from_histograms(histograms, args.n)
    freq_maps = [frequencies(h) for h in histograms]
    keys = sorted({k for f in freq_maps for k in f})
    averaged = {k: sum(f.get(k, 0.0) for f in freq_maps) / len(freq_maps) for k in keys}

    b_values = b_per_repetition(histograms, args.n)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "circuit.qasm").write_text(qasm)
    _write_json(
        out_dir / "results.json",
        {
            "experiment": "envariance",
            "map": cmap.name,
            "n": args.n,
            "shots": args.shots,
            "repetitions": args.reps,
            "seed": args.seed,
            "histograms": histograms,
            "averaged_histogram": averaged,
            "b_values": b_values,
            "b_mean": report.b_mean,
            "i95": report.i95,
        },
    )
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["repetition", "b"])
        for i, b in enumerate(b_values):
            writer.writerow([i, b])
    _write_manifest(
        out_dir,
        "envariance",
        cmap.name,
        {"n": args.n, "shots": args.shots, "repetitions": args.reps, "seed": args.seed},
        ["circuit.qasm", "results.json", "results.csv"],
    )
    print(f"B = {report.b_mean:.6f} +/- {report.i95:.6f} (I95, {report.repetitions} repetitions)")
    return 0


def _cmd_parity(args) -> int:
    if not (0.0 <= args.eta < 0.5):
        raise UsageError(f"--eta must lie in [0, 0.5), got {args.eta}")
    if args.n < 1:
        raise UsageError("parity experiments need at least one query qubit")
    cmap = resolve_map(args.map)
    path = path_for(cmap, args.n + 1)
    oracle = OraclePattern(args.pattern)
    circuit = build_parity(cmap, path, oracle)
    qasm = _checked_qasm(cmap, circuit)
    a_string = effective_a(path, oracle)

    config = NoisySampleConfig(eta=args.eta, a_string=a_string)
    queries_list = parse_queries(args.queries, args.sweep, args.step)
    outcomes = perr_curve(config, queries_list, args.reps, args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "circuit.qasm").write_text(qasm)
    record = {
        "experiment": "parity",
        "map": cmap.name,
        "n": args.n,
        "pattern": args.pattern,
        "effective_a": a_string,
        "eta": args.eta,
        "repetitions": args.reps,
        "seed": args.seed,
        "p_err": [{"queries": o.queries, "p_err": o.p_err} for o in outcomes],
    }
    if args.cross_check:
        if args.n > CROSSCHECK_MAX_N:
            raise UsageError(f"--cross-check simulates the full circuit; use n <= {CROSSCHECK_MAX_N}")
        tv = circuit_oracle_crosscheck(cmap, args.n, oracle, CROSSCHECK_SHOTS, args.seed)
        record["cross_check_tv"] = tv
        print(f"cross-check TV distance (circuit vs classical oracle): {tv:.5f}")
    _write_json(out_dir / "results.json", record)
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "p_err", "repetitions"])
        for o in outcomes:
            writer.writerow([o.queries, o.p_err, o.repetitions])
    _write_manifest(
        out_dir,
        "parity",
        cmap.name,
        {
            "n": args.n,
            "pattern": args.pattern,
            "effective_a": a_string,
            "eta": args.eta,
            "queries": queries_list,
            "repetitions": args.reps,
            "seed": args.seed,
        },
        ["circuit.qasm", "results.json", "results.csv"],
    )
    print(f"effective a: {a_string}")
    for o in outcomes:
        print(f"N={o.queries}: p_err={o.p_err:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qghz", description="Coupling-map-aware GHZ/envariance/parity experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="print per-qubit reachability ranks and the chosen root")
    p_rank.add_argument("--map", required=True, help="bundled map name (qx4, qx5) or a JSON map file")
    p_rank.add_argument("--json", action="store_true", help="machine-readable output")
    p_rank.set_defaults(func=_cmd_rank)

    p_compile = sub.add_parser("compile", help="compile a circuit and write OpenQASM 2.0")
    p_compile.add_argument("--map", required=True)
    p_compile.add_argument("--experiment", required=True, choices=["ghz", "envariance", "parity"])
    p_compile.add_argument("-n", type=int, required=True, help="qubits involved (parity: query qubits)")
    p_compile.add_argument("--pattern", choices=["00", "10", "11"], help="oracle pattern (parity only)")
    p_compile.add_argument("--out", required=True, help="output directory")
    p_compile.add_argument("--dump-path", action="store_true", help="also write the connection path as JSON")
    p_compile.add_argument("--dump-circuit", action="store_true", help="also write the gate list as JSON")
    p_compile.set_defaults(func=_cmd_compile)

    p_env = sub.add_parser("envariance", help="run the envariance experiment on the simulator")
    p_env.add_argument("--map", required=True)
    p_env.add_argument("-n", type=int, required=True)
    p_env.add_argument("--shots", type=int, default=8192)
    p_env.add_argument("--reps", type=int, default=10)
    p_env.add_argument("--seed", type=int, default=0)
    p_env.add_argument("--out", required=True)
    p_env.set_defaults(func=_cmd_envariance)

    p_par = sub.add_parser("parity", help="run parity learning against the noisy oracle")
    p_par.add_argument("--map", required=True)
    p_par.add_argument("-n", type=int, required=True, help="query qubits (result qubit is extra)")
    p_par.add_argument("--pattern", required=True, choices=["00", "10", "11"])
    p_par.add_argument("--eta", type=float, default=0.0, help="oracle noise rate, in [0, 0.5)")
    p_par.add_argument("--queries", required=True, help="query counts: 'N', 'N,M,...' or 'START:END'")
    p_par.add_argument("--sweep", choices=["geometric", "linear"], default="geometric",
                       help="how START:END ranges expand (default: doubling)")
    p_par.add_argument("--step", type=int, default=1, help="step for linear sweeps")
    p_par.add_argument("--reps", type=int, default=200)
    p_par.add_argument("--seed", type=int, default=0)
    p_par.add_argument("--cross-check", action="store_true",
                       help=f"also sample the compiled circuit and report the TV distance (n <= {CROSSCHECK_MAX_N})")
    p_par.add_argument("--out", required=True)
    p_par.set_defaults(func=_cmd_parity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MapFormatError, UnreachableQubitsError, IllegalCouplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
