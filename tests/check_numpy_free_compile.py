"""Check that the golden compile cases reproduce with the standard library alone.

    python -m pip install --no-deps . && python tests/check_numpy_free_compile.py

Reads the ``compile-*`` entries of ``CASES`` and their printed lines,
``COMPILE_STDOUT``, in ``tests/test_golden.py`` with ``ast`` (that file
imports pytest, so it is not imported), runs each through
``qghz.cli.main``, compares its stdout with those lines and every written
file with ``tests/golden/<case>/`` byte for byte, and fails if numpy was
loaded. It
is not a pytest file because ``tests/conftest.py`` imports numpy, and it
runs on any supported Python with only the package installed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def golden_table(name: str) -> dict[str, list[str]]:
    """The ``compile-*`` entries of the table ``name`` in ``tests/test_golden.py``, read without importing it."""
    tree = ast.parse((TESTS / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            table = ast.literal_eval(node.value)
            return {case: lines for case, lines in table.items() if case.startswith("compile-")}
    raise SystemExit(f"tests/test_golden.py defines no {name} table")


def main() -> int:
    from qghz.cli import main as qghz_main

    cases, printed = golden_table("CASES"), golden_table("COMPILE_STDOUT")
    if not cases:
        raise SystemExit("tests/test_golden.py's CASES has no compile-* entry")
    failures = [] if sorted(printed) == sorted(cases) else ["COMPILE_STDOUT does not name every compile case"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(cases.items()):
            out, golden = Path(tmp) / name, TESTS / "golden" / name
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                status = qghz_main(argv + ["--out", str(out)])
            if status != 0:
                failures.append(f"{name}: exit {status}")
                continue
            expected_stdout = [line.replace("{qasm}", str(out / "circuit.qasm")) for line in printed.get(name, [])]
            if stdout.getvalue().splitlines() != expected_stdout:
                failures.append(f"{name}: printed {stdout.getvalue()!r}, expected {expected_stdout!r}")
            expected, written = (sorted(p.name for p in d.iterdir()) for d in (golden, out))
            if written != expected:
                failures.append(f"{name}: wrote {written}, golden has {expected}")
                continue
            failures +=[f"{name}/{file} differs from the golden copy" for file in expected
                         if (out / file).read_bytes() != (golden / file).read_bytes()]
    if "numpy" in sys.modules:
        failures.append("numpy was loaded")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(cases)} compile cases on Python {sys.version.split()[0]}: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
