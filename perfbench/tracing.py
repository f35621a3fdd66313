"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each qghz module and swaps
every reference to them held in any ``qghz`` module namespace (``analysis``
imports ``sample`` by name, ``cli`` imports the builders by name, the package
re-exports most of them). Each wrapper records calls and self time: its
duration minus the part covered by traced callees. Hooks add the counts the
layer metrics need, measured where the work happens. Nothing inside the
package changes and no result file is touched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("coupling", "paths", "circuits", "kernels", "simulator", "analysis", "cli")

# Per-element helpers called in the inner loop of another traced function
# (one explore per source qubit, one cnot_legal per path pair, one
# constructor per gate); wrapping them would add thousands of wrapper calls
# per command, so their time stays in the caller's self time.
INLINE = {
    "coupling.explore",
    "circuits.h",
    "circuits.x",
    "circuits.cnot",
    "circuits.measure",
    "circuits.cnot_legal",
    "circuits.ghz_gates",
}

# Layer metric prefix -> traced functions whose calls and self time it sums.
LAYERS = {
    "coupling.load_map": ("coupling.load_map",),
    "coupling.rank_all": ("coupling.rank_all",),
    "paths.create_path": ("paths.create_path",),
    "circuits.build": (
        "circuits.build_ghz",
        "circuits.build_envariance",
        "circuits.build_parity",
        "circuits.with_measurements",
    ),
    "circuits.verify_legality": ("circuits.verify_legality",),
    "circuits.emit_qasm": ("circuits.emit_qasm",),
    "kernels.apply_h": ("kernels.apply_h",),
    "kernels.apply_x": ("kernels.apply_x",),
    "kernels.apply_cnot": ("kernels.apply_cnot",),
    "kernels.marginal_probs": ("kernels.marginal_probs",),
    "simulator.run_exact": ("simulator.run_exact",),
    "simulator.sample": ("simulator.sample",),
    "simulator.sample_noisy_oracle": ("simulator.sample_noisy_oracle",),
    "analysis.parity_learn": ("analysis.parity_learn",),
    "analysis.majority_vote": ("analysis.majority_vote",),
    "analysis.envariance_histograms": ("analysis.envariance_histograms",),
    "analysis.bhattacharyya": ("analysis.bhattacharyya",),
    "analysis.circuit_oracle_crosscheck": ("analysis.circuit_oracle_crosscheck",),
    "cli.main": ("cli.main",),
}

SHARES = {
    "share.kernels": ("kernels.apply_h", "kernels.apply_x", "kernels.apply_cnot", "kernels.marginal_probs"),
    "share.learner": ("analysis.parity_learn", "analysis.majority_vote", "simulator.sample_noisy_oracle"),
    "share.rank_all": ("coupling.rank_all",),
}

# Counts the hooks accumulate; a layer that does no work reports 0.
COUNTS = (
    "coupling.rank_all.reach_pairs",
    "circuits.build.gates",
    "circuits.emit_qasm.bytes",
    "kernels.amplitudes_touched",
    "kernels.bytes_computed",
    "simulator.sample.shots",
    "simulator.sample_noisy_oracle.draws",
    "analysis.majority_vote.samples",
)

# Gate kinds of Circuit.counts() and the kernel each one runs.
KERNEL_OF_GATE = {"h": "kernels.apply_h", "x": "kernels.apply_x", "cnot": "kernels.apply_cnot"}


# Hooks run after a traced call returns; they take the target's own parameters.

def _on_rank_all(tracer, result, cmap):
    tracer.counts["coupling.rank_all.reach_pairs"] += int(result.sum())


def _on_build(tracer, result, *args, **kwargs):
    tracer.counts["circuits.build.gates"] += len(result.gates)


def _on_emit_qasm(tracer, result, circuit):
    tracer.counts["circuits.emit_qasm.bytes"] += len(result.encode())


def _on_gate(tracer, result, amps, *args, **kwargs):
    tracer.counts["kernels.amplitudes_touched"] += amps.size
    tracer.counts["kernels.bytes_computed"] += 2 * amps.nbytes  # read and write every amplitude


def _on_marginal(tracer, result, amps, qubits):
    tracer.counts["kernels.amplitudes_touched"] += amps.size
    tracer.counts["kernels.bytes_computed"] += amps.nbytes + result.nbytes


def _on_run_exact(tracer, result, circuit, *args, **kwargs):
    tracer.circuits.add(circuit)
    for kind, count in circuit.counts().items():
        tracer.counts[f"_gates.{kind}"] += count
    if circuit.measured_qubits:
        tracer.counts["_space.width"] += 2**circuit.width
        tracer.counts["_space.measured"] += 2 ** len(circuit.measured_qubits)


def _on_sample(tracer, result, circuit, shots, seed):
    tracer.counts["simulator.sample.shots"] += shots
    tracer.counts["_sample.support"] += len(result)
    tracer.counts["_sample.outcomes"] += 2 ** len(circuit.measured_qubits)


def _on_noisy_oracle(tracer, result, config, queries, seed):
    tracer.counts["simulator.sample_noisy_oracle.draws"] += queries


def _on_vote(tracer, result, samples, n):
    tracer.counts["analysis.majority_vote.samples"] += len(samples)


HOOKS = {
    "coupling.rank_all": _on_rank_all,
    "circuits.build_ghz": _on_build,
    "circuits.build_envariance": _on_build,
    "circuits.build_parity": _on_build,
    "circuits.emit_qasm": _on_emit_qasm,
    "kernels.apply_h": _on_gate,
    "kernels.apply_x": _on_gate,
    "kernels.apply_cnot": _on_gate,
    "kernels.marginal_probs": _on_marginal,
    "simulator.run_exact": _on_run_exact,
    "simulator.sample": _on_sample,
    "simulator.sample_noisy_oracle": _on_noisy_oracle,
    "analysis.majority_vote": _on_vote,
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Calls, self time and counts per traced function, reset per campaign."""

    def __init__(self):
        self.stats: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.circuits: set = set()
        self._stack: list[float] = []  # child seconds of each open traced call
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.circuits.clear()

    def _wrap(self, name: str, fn):
        stats, stack, hook, clock = self.stats, self._stack, HOOKS.get(name), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats[name]
                entry[0] += 1
                entry[1] += elapsed - children
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result

        return traced

    def install(self) -> int:
        """Wrap the traced functions everywhere qghz refers to them; return the references swapped."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"qghz.{short}")
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in INLINE):
                    wrappers[value] = self._wrap(name, value)
        namespaces = [m for key, m in sys.modules.items() if key == "qghz" or key.startswith("qghz.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def completeness_problems(self, expected_votes: int) -> list[str]:
        """Cross-check counts that only agree when every call went through a wrapper."""
        problems = []
        for kind, kernel in KERNEL_OF_GATE.items():
            calls, expected = self.stats[kernel][0], self.counts[f"_gates.{kind}"]
            if calls != expected:
                problems.append(f"{kernel} ran {calls} times; simulated circuits hold {expected} {kind} gates")
        votes = self.stats["analysis.majority_vote"][0]
        # Zero votes means the learner no longer votes per repetition; there is
        # then no call to account for.
        if votes and votes != expected_votes:
            problems.append(f"majority_vote ran {votes} times; campaign asks for {expected_votes}")
        return problems

    def snapshot(self, campaign_s: float, bytes_written: int) -> tuple[dict, dict]:
        """(counts, times) of one campaign; counts must repeat exactly across campaigns."""
        counts = {name: self.counts[name] for name in COUNTS}
        times = {}
        for layer, names in LAYERS.items():
            counts[f"{layer}.calls"] = sum(self.stats[n][0] for n in names)
            times[f"{layer}.self_ms"] = 1e3 * sum(self.stats[n][1] for n in names)
        runs = self.stats["simulator.run_exact"][0]
        counts["simulator.runs_per_circuit"] = _ratio(runs, len(self.circuits))
        counts["simulator.width_waste"] = _ratio(self.counts["_space.width"], self.counts["_space.measured"])
        counts["simulator.sample.support_ratio"] = _ratio(self.counts["_sample.support"],
                                                          self.counts["_sample.outcomes"])
        counts["cli.bytes_written"] = bytes_written
        traced_s = sum(entry[1] for entry in self.stats.values())
        layered_s = sum(self.stats[n][1] for names in LAYERS.values() for n in names)
        times["trace.unattributed_ms"] = 1e3 * (campaign_s - traced_s)
        times["trace.other_self_ms"] = 1e3 * (traced_s - layered_s)
        for share, names in SHARES.items():
            times[share] = _ratio(sum(self.stats[n][1] for n in names), campaign_s)
        return counts, times
