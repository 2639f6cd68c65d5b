"""The CLI's self-checked commands, passed through the benchmark's independent
checks at random parameters.

cftbench/checks.py recomputes each output kind from its defining formula and
imports no exactcft. This file loads it by path, the way
tests/test_traced_targets.py loads the tracer, runs each command through
``cli.main`` and hands the printed JSON to ``check_chiral``,
``check_amplitudes`` or ``check_tensor_assembled``. It changes nothing in
cftbench/. Each check also asserts the command's own verdict (``intertwines``
or ``reconstruction_residual_zero``) is true.

Limits, by design of the checks:
- the assembled tensor operators are drawn at kappa >= 1: kappa = 0, L = 1
  prints the zero operator, and ``check_operator_poly`` refuses a zero
  operator;
- ``check_tensor_assembled`` compares with a kernel basis only when a job
  names one (``span_of``), and none does here.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from exactcft.cli import main

CHECKS_PY = Path(__file__).resolve().parent.parent / "cftbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("cftbench_checks", CHECKS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


CHECKS = _load_checks()


def _checked(check, params: dict, rng, *argv: str) -> None:
    """Run one command, which must exit 0, and pass its stdout to the check."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0, argv
    ctx = CHECKS.Context(outputs={}, rng=rng, run_cli=None)
    check(SimpleNamespace(params=params), json.loads(out.getvalue()), ctx)


dims = st.fractions(min_value=-6, max_value=9, max_denominator=6)


@given(st.integers(0, 12), dims, dims, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_chiral_operator(h, d1, d2, rng):
    params = {"h": h, "normalized": False, "d1": str(d1), "d2": str(d2)}
    _checked(CHECKS.check_chiral, params, rng,
             "intertwiner", "chiral", "--h", str(h), "--d1", str(d1), "--d2", str(d2))


@given(st.integers(1, 12), st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_normalized_chiral_operator(h, rng):
    _checked(CHECKS.check_chiral, {"h": h, "normalized": True}, rng,
             "intertwiner", "chiral", "--h", str(h), "--normalized")


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 12), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_amplitudes(h, hprime, cap, rng):
    _checked(CHECKS.check_amplitudes, {"h": h, "h_prime": hprime, "cap": cap}, rng,
             "exotic", "amplitudes", "--h", str(h), "--hprime", str(hprime), "--cap", str(cap))


@given(st.integers(1, 4), st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_assembled_tensor_operator(kappa, L, rng):
    _checked(CHECKS.check_tensor_assembled, {"kappa": kappa, "L": L}, rng,
             "intertwiner", "tensor", "--kappa", str(kappa), "--L", str(L))
