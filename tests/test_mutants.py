"""A mutation gate for the program's run-time checks.

Each row changes one piece of source text in a copy of src/, runs one command
on the copy in a fresh process, and states what the program's own checks make
of the mutant:
- "exit 4": a check raises ConsistencyError;
- "false": the command prints its verdict (``intertwines`` or
  ``reconstruction_residual_zero``) as false;
- "survives": the command exits 0 and prints its verdict as true. Such a row
  is listed on purpose: it names a fault no run-time check catches, and a
  change that adds the missing check changes its verdict here.

Each old text must occur exactly once in its file, so a refactor that moves or
reshapes the code fails here loudly instead of turning the mutant into a
no-op. The gate measures the program's self-checks, not the test suite: a
mutant that a digest pin catches but every run-time check misses still
survives here.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from exactcft.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
VERDICTS = ("intertwines", "reconstruction_residual_zero")

# (file under src/exactcft, exact old text, new text, argv, expected verdict)
MUTANTS = [
    ("chiral_ops.py", "pochhammer(p + b, q)", "pochhammer(p + b + 1, q)",
     ["intertwiner", "chiral", "--h", "3", "--d1", "1/2", "--d2", "3/2"], "false"),
    ("chiral_ops.py", "factorial(p) ** 2 * factorial(q) ** 2", "factorial(p) ** 2 * factorial(q)",
     ["intertwiner", "chiral", "--h", "4", "--normalized"], "false"),
    ("amplitudes.py", "(-1) ** n * (n + 1)", "(-1) ** n * (n + 2)",
     ["exotic", "amplitudes", "--h", "2", "--hprime", "3", "--cap", "6"], "false"),
    ("tensor_ops.py", "_shift(bras[m - n][1], kappa - m - n, m, n)",
     "_shift(bras[m - n][1], kappa - m - n, n, m)",
     ["intertwiner", "tensor", "--kappa", "2", "--L", "3"], "false"),
    ("tensor_ops.py", "(m, n): 2 * k * (L + kappa - 1 - m + n),",
     "(m, n): 2 * k * (L + kappa - 1 + m + n),",
     ["intertwiner", "tensor", "--kappa", "3", "--L", "2"], "exit 4"),
    # Survivors: no check the program runs tests whether a tensor operator is
    # harmonic in v. This one is also equivalent on every command path: each
    # polynomial a command projects is free of V, so the V term of lapv never
    # fires and the output bytes do not change.
    ("tensor_ops.py", "4 * v * (s1 + s2 + v + 1)", "4 * v * (s1 + s2 + v + 2)",
     ["intertwiner", "tensor", "--kappa", "2", "--L", "3"], "survives"),
    # A wrong projection: the operator prints t12*V with -3/2 for -1, is not
    # harmonic in v, and still satisfies the intertwining residual.
    ("tensor_ops.py", "_put(out, 2 * s1 * s2,", "_put(out, 3 * s1 * s2,",
     ["intertwiner", "tensor", "--kappa", "0", "--L", "2"], "survives"),
]


def _verdict(returncode: int, stdout: str) -> str:
    if returncode:
        return f"exit {returncode}"
    out = json.loads(stdout)
    return "survives" if next(out[key] for key in VERDICTS if key in out) else "false"


@pytest.mark.parametrize("argv", sorted({tuple(row[3]) for row in MUTANTS}), ids=" ".join)
def test_each_command_holds_without_a_mutant(argv):
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert _verdict(code, stdout.getvalue()) == "survives"


@pytest.mark.parametrize("name, old, new, argv, expected", MUTANTS,
                         ids=[f"{row[0]}: {row[2]}" for row in MUTANTS])
def test_mutant_verdict(name, old, new, argv, expected, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "exactcft" / name
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: the old text must occur exactly once"
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "exactcft.cli", "--manifest", str(tmp_path / "m.json"),
                          *argv], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert _verdict(run.returncode, run.stdout) == expected, run.stderr
