"""The CLI starts on the standard-library modules it needs, and no others.

Every command is a fresh process, so each module the CLI imports at start-up
is paid on every run. This guard lists the modules a bare ``python -S`` loads
for ``import exactcft.cli`` and for the stdlib imports the package uses; a
new import that pulls in anything else (hashlib, inspect-heavy helpers,
numpy) fails here before it shows up as start-up time.

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

import os
import subprocess
import sys
from pathlib import Path

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
