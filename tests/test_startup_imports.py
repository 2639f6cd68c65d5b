"""The CLI starts on the modules its command needs, and no others.

Every command is a fresh process, so each module the CLI imports at start-up
is paid on every run. Run as a program (``python -m exactcft.cli``), the CLI
imports a command's functions inside its handler, so each leaf command loads
only its own ``exactcft`` modules; the pins below list them, one set per leaf.
Without ``.pyc`` files that saves about 30 ms of CPU a process against
compiling all 14 modules: 106.1 -> 74.3 ms for ``exotic coeff``, 131.2 ->
98.5 ms for a 6-point wave (medians of 30 alternating fresh processes pinned
to one CPU, CPU time from ``os.wait4``, Python 3.11.7, shared 2-core x86-64).

Imported as a module, ``exactcft.cli`` still loads every command module:
cftbench/traced_cli.py wraps functions only in modules loaded before it
installs its wrappers, and it loads them by importing ``exactcft.cli``.

A second guard lists the modules a bare ``python -S`` loads for
``import exactcft.cli`` and for the stdlib imports the package uses; a new
import that pulls in anything else (hashlib, inspect-heavy helpers, numpy)
fails here before it shows up as start-up time.

``dataclasses`` is not in the list. It imports ``inspect``, and through it
``ast``, ``dis``, ``tokenize`` and ``linecache``, about 10 ms of a fresh start
without ``.pyc`` files; each frozen dataclass then builds its methods from
generated source. With the package's 13 records as frozen dataclasses,
``import exactcft.cli`` took 80 ms; as ``typing.NamedTuple`` classes it takes
64 ms (medians of 15 fresh processes, Python 3.11.7, shared 2-core x86-64).

``argparse`` and ``re`` are not in the list either. The CLI reads its command
line from one table in ``exactcft.cli``, so ``argparse`` does not come back, and
with it neither do ``gettext`` and ``locale`` (``re`` still loads, through
``json``). Reading one command with argparse cost about 7.8 ms of every fresh
process without ``.pyc`` files: 2.6 ms to import it and ``gettext``, 4.8 ms to
build the 15 parsers of every command, whose 45 ``gettext`` lookups import
``locale``, and 0.4 ms to parse (15 runs, one CPU, same host).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactcft.waves import WaveSpec, chiral_wave_series

SRC = Path(__file__).resolve().parent.parent / "src"

# the stdlib modules exactcft imports by name; __future__ is the
# `from __future__ import annotations` line every module starts with
BASELINE = ("fractions, json, types, typing, math, itertools, operator, functools, _sha256,"
            " __future__")


def _loaded(imports: str) -> set[str]:
    code = f"import sys, {imports}; print('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return set(run.stdout.split())


def test_cli_loads_no_module_beyond_its_stdlib_imports():
    cli = _loaded("exactcft.cli")
    assert "exactcft.cli" in cli
    extra = {m for m in cli - _loaded(BASELINE) if m.split(".")[0] != "exactcft"}
    assert not extra, f"importing exactcft.cli also loads {sorted(extra)}"


# what one command leaves in sys.modules when exactcft.cli runs as a program, as
# `python -m exactcft.cli` does; stdout's last line holds the exit code, then the module set
RUN_AS_PROGRAM = """
import runpy, sys
sys.argv = ["exactcft", *sys.argv[1:]]
try:
    runpy.run_module("exactcft.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code or 0
print(code, *(m[9:] for m in sys.modules if m.startswith("exactcft.")))
"""


def _run_as_program(argv) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-S", "-c", RUN_AS_PROGRAM, *argv], capture_output=True,
                         text=True, env=env, check=True)
    code, *modules = run.stdout.split("\n")[-2].split()
    return int(code), set(modules)

WAVES = {"errors", "special", "waves", "series", "poly"}
SIXPOINT = {"errors", "special", "sixpoint", "pairs", "poly", "series"}
WAVE_ARGS = ["--n", "6", "--dims", "1,1,2,2,1,1", "--proj", "2,2,5/2", "--cap", "3"]
LEAVES = [
    (["wave", *WAVE_ARGS], WAVES),
    (["casimir-check", *WAVE_ARGS, "--which", "2"], WAVES),
    (["reduce", "--wave", "WAVE.json", "--pair", "1,2", "--h", "2"], WAVES | {"chiral_ops", "pairs"}),
    (["intertwiner", "chiral", "--h", "2", "--d1", "1", "--d2", "1"],
     {"errors", "special", "chiral_ops"}),
    (["intertwiner", "tensor", "--kappa", "1", "--L", "2"],
     {"errors", "special", "tensor_ops", "linsolve", "poly"}),
    (["intertwiner", "tensor", "--kappa", "1", "--L", "0", "--d1", "3", "--d2", "1"],
     {"errors", "special", "tensor_ops", "linsolve", "poly"}),
    (["exotic", "build", "--name", "E6"], SIXPOINT),
    (["exotic", "g", "--cap", "4", "--method", "recursion"],
     {"errors", "special", "gseries", "poly", "series"}),
    (["exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"],
     {"errors", "special", "channels"}),
    (["exotic", "restrict", "--name", "B", "--cap", "2"], SIXPOINT),
    (["exotic", "reduce", "--structure", "B", "--hplus", "2", "--hminus", "1", "--hplusprime", "2",
      "--hminusprime", "1"], SIXPOINT | {"channels"}),
    (["exotic", "reduce", "--structure", "H", "--hplus", "2", "--hminus", "1", "--hplusprime", "2",
      "--hminusprime", "1"], {"errors", "special", "channels", "gseries", "poly", "series"}),
    (["exotic", "amplitudes", "--h", "2", "--hprime", "2", "--cap", "3"],
     {"errors", "special", "amplitudes"}),
    (["exotic", "positivity", "--structure", "B", "--hmax", "3", "--kmax", "1"],
     {"errors", "special", "positivity", "amplitudes", "channels", "linsolve"}),
]


@pytest.mark.parametrize("argv, expected", LEAVES, ids=[" ".join(a) for a, _ in LEAVES])
def test_a_command_run_as_a_program_loads_only_its_modules(argv, expected, tmp_path):
    argv = ["--manifest", tmp_path / "manifest.json", *argv]
    if "WAVE.json" in argv:
        argv[argv.index("WAVE.json")] = wave = tmp_path / "wave.json"
        wave.write_text(json.dumps(_wave_json()), encoding="utf-8")
    assert _run_as_program(argv) == (0, expected)


def test_a_malformed_wave_value_exits_before_waves_is_compiled():
    """The wave commands parse --dims and --proj before they import waves, so
    a value the parser refuses exits 2 having compiled neither waves nor what
    it imports."""
    argv = ["wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "1/0", "--cap", "2"]
    assert _run_as_program(argv) == (2, {"errors", "special"})


def test_a_malformed_wave_file_exits_before_the_reduction_is_compiled(tmp_path):
    """reduce reads --wave before it imports chiral_ops, so a wave file the
    parser refuses (the benchmark's cap "x") exits 2 having compiled neither
    chiral_ops nor pairs."""
    wave = tmp_path / "bad-cap.json"
    wave.write_text(json.dumps(dict(_wave_json(), cap="x")), encoding="utf-8")
    argv = ["--manifest", tmp_path / "manifest.json", "reduce", "--wave", wave, "--pair", "1,2",
            "--h", "2"]
    assert _run_as_program(argv) == (2, WAVES)


def _wave_json() -> dict:
    return chiral_wave_series(WaveSpec.from_middle((1, 1, 2, 2, 1, 1), (2, 2, 2)), 3).to_json()


def test_a_library_import_still_loads_every_command_module():
    """cftbench/traced_cli.py wraps functions only in the modules loaded when
    it installs its wrappers, and it loads them by importing exactcft.cli."""
    every = {f"exactcft.{path.stem}" for path in (SRC / "exactcft").glob("*.py")} - {"exactcft.__init__"}
    assert every <= _loaded("exactcft.cli")
