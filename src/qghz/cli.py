"""Command-line front end: rank, compile, envariance, parity.

Every file-writing run produces a directory with manifest.json plus its
result files; the manifest records the command, map name, parameters (seed
included) and output file names. A run on a bundled map can be replayed
byte for byte from its manifest, plus ``results.json`` for
``--cross-check``. For a map file, the manifest names the map but does not
identify its contents. Each command computes every file's text before it creates
the directory, so a run that fails on its input or in the simulator writes
no files. The simulator caps the support dimension of the measured outcomes
(at most 2^20 of them), not the qubit count; every circuit these commands
build has a 2-outcome support, so ``parity --cross-check`` runs at any n.
The argument parser is built on the first ``main`` call and reused by later
calls in the same process. ``envariance`` and ``parity`` import the
simulator and analysis modules when they run, so ``compile`` loads no
numpy at all; ``rank`` loads it for ``rank_all``'s array.
``--reps`` lies in [1, ``MAX_REPS``] (the learner holds its repetitions'
seed words and raw draws a bounded block at a time, so memory does not
grow with it), ``--shots`` in [1, ``MAX_SHOTS``] (far inside numpy's
64-bit multinomial counts), query counts in [1, ``MAX_QUERIES``],
``--seed`` is non-negative and envariance's ``-n`` is at least 2; all five
are checked before any work.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .circuits import (
    IllegalCouplingError,
    OraclePattern,
    build_envariance,
    build_ghz,
    build_parity,
    circuit_to_json_dict,
    effective_a,
    emit_qasm,
    verify_legality,
)
from .coupling import MapFormatError, most_connected, rank_all, resolve_map
from .paths import UnreachableQubitsError, path_for

CROSSCHECK_SHOTS = 100_000
MAX_QUERIES = 1 << 20
MAX_REPS = 1 << 20
MAX_SHOTS = 1 << 40


class UsageError(ValueError):
    """Bad command-line arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _path_json(path) -> str:
    """``_json_text({"root": ..., "pairs": ...})`` of a connection path, rendered in one join."""
    pairs = ",\n".join(f"    [\n      {new},\n      {anchor}\n    ]" for new, anchor in path.pairs)
    pairs = f"[\n{pairs}\n  ]" if pairs else "[]"
    return f'{{\n  "pairs": {pairs},\n  "root": {path.root}\n}}\n'


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_run(out: str, command: str, map_name: str, parameters: dict, files: dict[str, str]) -> None:
    """Create ``out``, write each named text, then manifest.json listing them in order."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, newline="")
    manifest = {"command": command, "map_name": map_name, "parameters": parameters, "output_paths": list(files)}
    (out_dir / "manifest.json").write_text(_json_text(manifest), newline="")


def _check_count(flag: str, value: int, limit: int) -> None:
    if not 1 <= value <= limit:
        raise UsageError(f"{flag} must lie in [1, {limit}], got {value}")


def parse_queries(spec: str, sweep: str, step: int) -> list[int]:
    """Expand a query-count spec: 'N', 'N,M,...', or 'START:END'.

    Ranges grow geometrically (doubling, end included) or linearly with
    ``step``, per the --sweep flag; ``step`` must be at least 1. Every count
    must be at most ``MAX_QUERIES``, checked before a range is expanded.
    """
    if step < 1:
        raise UsageError(f"--step must be at least 1, got {step}")
    spec = spec.strip()
    is_range = ":" in spec
    try:
        values = [int(tok) for tok in (spec.split(":", 1) if is_range else spec.split(","))]
    except ValueError:
        raise UsageError(f"--queries takes integer counts as 'N', 'N,M,...' or 'START:END', got {spec!r}") from None
    if max(values) > MAX_QUERIES:
        raise UsageError(f"query counts must be at most {MAX_QUERIES}: {spec!r}")
    if not is_range:
        if min(values) < 1:
            raise UsageError(f"query counts must be positive: {spec!r}")
        return values
    start, end = values
    if start < 1 or end < start:
        raise UsageError(f"bad query range {spec!r}: need 1 <= start <= end")
    if sweep == "linear":
        return list(range(start, end, step)) + [end]
    values = []
    while start < end:
        values.append(start)
        start *= 2
    return values + [end]


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


def _compiled(cmap, experiment: str, n: int, pattern: str | None):
    """Returns (circuit, path, effective a or None, legality-checked QASM); validates pattern usage."""
    if experiment != "parity" and pattern is not None:
        raise UsageError(f"--pattern applies only to parity circuits, not {experiment!r}")
    a_string = None
    if experiment == "parity":
        if pattern is None:
            raise UsageError("parity circuits need --pattern {00,10,11}")
        if n < 1:
            raise UsageError(f"parity circuits need at least one query qubit, got -n {n}")
        if n + 1 > cmap.num_qubits:
            raise UsageError(f"parity with n = {n} needs n + 1 = {n + 1} qubits (the query qubits plus the "
                             f"result qubit); map {cmap.name} has {cmap.num_qubits}")
        path = path_for(cmap, n + 1)
        oracle = OraclePattern(pattern)
        circuit, a_string = build_parity(cmap, path, oracle), effective_a(path, oracle)
    else:
        if n < 1:
            raise UsageError(f"{experiment} circuits need at least one qubit, got -n {n}")
        if n > cmap.num_qubits:
            raise UsageError(f"{experiment} with -n {n} needs {n} qubits; map {cmap.name} has {cmap.num_qubits}")
        path = path_for(cmap, n)
        circuit = (build_ghz if experiment == "ghz" else build_envariance)(cmap, path)
    violations = verify_legality(cmap, circuit)
    if violations:
        raise RuntimeError("compiler produced an illegal circuit: " + "; ".join(violations))
    return circuit, path, a_string, emit_qasm(circuit)


def _cmd_compile(args) -> int:
    cmap = resolve_map(args.map)
    circuit, path, a_string, qasm = _compiled(cmap, args.experiment, args.n, args.pattern)
    files = {"circuit.qasm": qasm}
    if args.dump_path:
        files["path.json"] = _path_json(path)
    if args.dump_circuit:
        files["circuit.json"] = _json_text(circuit_to_json_dict(circuit))
    parameters = {"experiment": args.experiment, "n": args.n}
    if a_string is not None:
        parameters.update(pattern=args.pattern, effective_a=a_string)
    _write_run(args.out, "compile", cmap.name, parameters, files)
    if a_string is not None:
        print(f"effective a: {a_string}")
    counts = circuit.counts()
    print(f"wrote {Path(args.out) / 'circuit.qasm'} ({circuit.width} qubits, {len(circuit.gates)} gates: {counts})")
    return 0


def _cmd_envariance(args) -> int:
    from .analysis import bhattacharyya, envariance_histograms, fidelity_report, frequencies, two_peak_distribution

    if args.n < 2:
        raise UsageError(f"envariance needs at least two qubits to compare, got -n {args.n}")
    _check_count("--reps", args.reps, MAX_REPS)
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    _check_count("--shots", args.shots, MAX_SHOTS)
    cmap = resolve_map(args.map)
    circuit, _, _, qasm = _compiled(cmap, "envariance", args.n, None)
    histograms = envariance_histograms(circuit, args.shots, args.reps, args.seed)
    freq_maps = [frequencies(h) for h in histograms]
    ideal = two_peak_distribution(args.n)
    b_values = [bhattacharyya(f, ideal) for f in freq_maps]
    b_mean, i95 = fidelity_report(b_values)
    keys = sorted({k for f in freq_maps for k in f})
    averaged = {k: sum(f.get(k, 0.0) for f in freq_maps) / len(freq_maps) for k in keys}
    parameters = {"n": args.n, "shots": args.shots, "repetitions": args.reps, "seed": args.seed}
    results = {
        "experiment": "envariance",
        "map": cmap.name,
        **parameters,
        "histograms": histograms,
        "averaged_histogram": averaged,
        "b_values": b_values,
        "b_mean": b_mean,
        "i95": i95,
    }
    _write_run(args.out, "envariance", cmap.name, parameters, {
        "circuit.qasm": qasm,
        "results.json": _json_text(results),
        "results.csv": _csv_text(["repetition", "b"], enumerate(b_values)),
    })
    print(f"B = {b_mean:.6f} +/- {i95:.6f} (I95, {len(b_values)} repetitions)")
    return 0


def _cmd_parity(args) -> int:
    from .analysis import circuit_oracle_crosscheck, perr_curve
    from .simulator import NoisySampleConfig

    _check_count("--reps", args.reps, MAX_REPS)
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if not (0.0 <= args.eta < 0.5):
        raise UsageError(f"--eta must lie in [0, 0.5), got {args.eta}")
    queries_list = parse_queries(args.queries, args.sweep, args.step)
    cmap = resolve_map(args.map)
    circuit, _, a_string, qasm = _compiled(cmap, "parity", args.n, args.pattern)
    common = {"n": args.n, "pattern": args.pattern, "effective_a": a_string, "eta": args.eta,
              "repetitions": args.reps, "seed": args.seed}
    record = {"experiment": "parity", "map": cmap.name, **common}
    if args.cross_check:
        # Runs first, so a simulator error ends the run before the learning curve.
        record["cross_check_tv"] = circuit_oracle_crosscheck(circuit, a_string, CROSSCHECK_SHOTS, args.seed)
    config = NoisySampleConfig(eta=args.eta, a_string=a_string)
    curve = list(zip(queries_list, perr_curve(config, queries_list, args.reps, args.seed)))
    record["p_err"] = [{"queries": q, "p_err": p_err} for q, p_err in curve]
    _write_run(args.out, "parity", cmap.name, {**common, "queries": queries_list}, {
        "circuit.qasm": qasm,
        "results.json": _json_text(record),
        "results.csv": _csv_text(["N", "p_err", "repetitions"], ((q, p_err, args.reps) for q, p_err in curve)),
    })
    if args.cross_check:
        print(f"cross-check TV distance (circuit vs classical oracle): {record['cross_check_tv']:.5f}")
    print(f"effective a: {a_string}")
    for q, p_err in curve:
        print(f"N={q}: p_err={p_err:.5f}")
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
                       help="also sample the compiled circuit and report the TV distance "
                            "against the classical oracle")
    p_par.add_argument("--out", required=True)
    p_par.set_defaults(func=_cmd_parity)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, MapFormatError, UnreachableQubitsError, IllegalCouplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
