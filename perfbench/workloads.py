"""Campaign definitions: the CLI commands each workload runs, derived from a seed.

A campaign is a fixed list of operations; one operation is one
``qghz.cli.main(argv)`` call. Every map file and every CLI ``--seed`` comes
from the workload seed, so the same seed gives the same commands and the
same input files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ENV_NS = range(2, 17)
ENV_SHOTS = 8192
ENV_REPS = 10

PARITY_N = 15
PARITY_QUERIES = "1:1024"
PARITY_REPS = 120
PARITY_PATTERNS = ("11", "10", "00")
PARITY_ETAS = ("0", "0.1", "0.25")
CROSSCHECK_N = 4
CROSSCHECK_QUERIES = "1:64"
CROSSCHECK_ETA = "0.1"

# Both maps cost the same rank work, about 614k reachable pairs (grid
# 784 x 783, line 1108 x 1107 / 2), so compile-large latencies have one mode.
GRID_SIDE = 28
LINE_QUBITS = 1108


@dataclass
class Op:
    """One CLI call. ``argv`` lacks ``--out``; the runner appends it for commands that write files."""

    label: str
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


@dataclass
class Campaign:
    workload: str
    seed: int
    ops: list[Op]
    maps: dict[str, dict]  # --map argument -> map document (parsed JSON)


def doubling(spec: str) -> list[int]:
    """Query counts of a 'START:END' doubling sweep, end included."""
    start, end = (int(tok) for tok in spec.split(":"))
    values = []
    while start < end:
        values.append(start)
        start *= 2
    return values + [end]


def _qx5_document() -> dict:
    from importlib import resources

    return json.loads(resources.files("qghz.maps").joinpath("qx5.json").read_text())


def _grid_document(rng: random.Random, side: int) -> dict:
    """side x side grid (side even) around a directed Hamiltonian cycle.

    The cycle runs along row 0, snakes back and forth over columns 1.. of the
    other rows and returns up column 0; its couplings point along it, so
    every qubit reaches every other and rank work is N(N-1) pairs at every
    seed. Every other coupling points one way or the other at random.
    """
    cycle = [(0, c) for c in range(side)]
    for r in range(1, side):
        cycle += [(r, c) for c in (range(side - 1, 0, -1) if r % 2 else range(1, side))]
    cycle += [(r, 0) for r in range(side - 1, 0, -1)]
    directed = {}
    for (r0, c0), (r1, c1) in zip(cycle, cycle[1:] + cycle[:1]):
        a, b = r0 * side + c0, r1 * side + c1
        directed[frozenset((a, b))] = (a, b)
    edges = []
    for q in range(side * side):
        right = q + 1 if (q + 1) % side else None
        down = q + side if q + side < side * side else None
        for other in (right, down):
            if other is not None:
                pair = directed.get(frozenset((q, other)))
                edges.append(list(pair or ((q, other) if rng.random() < 0.5 else (other, q))))
    return {"name": f"grid{side}x{side}", "num_qubits": side * side, "edges": edges}


def _line_document(num_qubits: int) -> dict:
    """Directed line 0 -> 1 -> ... -> num_qubits - 1."""
    edges = [[i, i + 1] for i in range(num_qubits - 1)]
    return {"name": f"line{num_qubits}", "num_qubits": num_qubits, "edges": edges}


def _cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _envariance(rng: random.Random, work: Path) -> tuple[list[Op], dict]:
    ops = [
        Op(
            f"env-n{n}",
            "envariance",
            ["envariance", "--map", "qx5", "-n", str(n), "--shots", str(ENV_SHOTS),
             "--reps", str(ENV_REPS), "--seed", _cli_seed(rng)],
            {"map": "qx5", "n": n, "shots": ENV_SHOTS, "reps": ENV_REPS},
        )
        for n in ENV_NS
    ]
    return ops, {"qx5": _qx5_document()}


def _parity(rng: random.Random, work: Path) -> tuple[list[Op], dict]:
    ops = []
    for pattern in PARITY_PATTERNS:
        for eta in PARITY_ETAS:
            ops.append(Op(
                f"parity-{pattern}-eta{eta}",
                "parity",
                ["parity", "--map", "qx5", "-n", str(PARITY_N), "--pattern", pattern, "--eta", eta,
                 "--queries", PARITY_QUERIES, "--reps", str(PARITY_REPS), "--seed", _cli_seed(rng)],
                {"map": "qx5", "n": PARITY_N, "pattern": pattern, "eta": float(eta),
                 "queries": doubling(PARITY_QUERIES), "reps": PARITY_REPS, "cross_check": False},
            ))
        ops.append(Op(
            f"crosscheck-{pattern}",
            "parity",
            ["parity", "--map", "qx5", "-n", str(CROSSCHECK_N), "--pattern", pattern, "--eta", CROSSCHECK_ETA,
             "--queries", CROSSCHECK_QUERIES, "--reps", str(PARITY_REPS), "--seed", _cli_seed(rng),
             "--cross-check"],
            {"map": "qx5", "n": CROSSCHECK_N, "pattern": pattern, "eta": float(CROSSCHECK_ETA),
             "queries": doubling(CROSSCHECK_QUERIES), "reps": PARITY_REPS, "cross_check": True},
        ))
    return ops, {"qx5": _qx5_document()}


def _compile(rng: random.Random, work: Path) -> tuple[list[Op], dict]:
    documents = {"grid": _grid_document(rng, GRID_SIDE), "line": _line_document(LINE_QUBITS)}
    maps = {}
    ops = []
    for tag, document in documents.items():
        path = work / f"{tag}.json"
        path.write_text(json.dumps(document))
        spec = str(path)
        maps[spec] = document
        width = document["num_qubits"]
        ops.append(Op(f"rank-{tag}", "rank", ["rank", "--map", spec, "--json"], {"map": spec}))
        for involved, pattern in ((width, "11"), (width // 2, "10")):
            for experiment in ("ghz", "envariance", "parity"):
                n = involved - 1 if experiment == "parity" else involved
                argv = ["compile", "--map", spec, "--experiment", experiment, "-n", str(n), "--dump-path"]
                params = {"map": spec, "experiment": experiment, "n": n}
                if experiment == "parity":
                    argv += ["--pattern", pattern]
                    params["pattern"] = pattern
                ops.append(Op(f"compile-{tag}-{experiment}-{involved}", "compile", argv, params))
    return ops, maps


BUILDERS = {
    "envariance-sweep": _envariance,
    "parity-sweep": _parity,
    "compile-large": _compile,
}


def make_campaign(workload: str, seed: int, work: Path) -> Campaign:
    """The workload's campaign at ``seed``; map files are written into ``work``."""
    ops, maps = BUILDERS[workload](random.Random(f"{workload}/{seed}"), work)
    return Campaign(workload, seed, ops, maps)
