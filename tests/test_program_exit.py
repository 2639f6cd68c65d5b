"""The program's entry, ``cli.run``, exits as ``cli.main`` returns, with the heap frozen.

``run`` calls ``sys.exit(main())`` and, on every way out, ``gc.freeze()``: the
objects still alive move to the permanent generation, so the collections of
interpreter shutdown skip them. Atexit handlers, the stream flushes and
refcount deallocation still run. The tests below hold the two paths to the
same bytes and exit codes, and keep the freeze out of ``main``, which tests
and library callers run inside their own long-lived process.
"""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactcft import cli

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_the_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["exactcft"].partition(":")
    assert (module, name) == ("exactcft.cli", "run")
    assert getattr(importlib.import_module(module), name) is cli.run


# every way out of a run; the files of --out and --manifest are named relative to
# the working directory, so the manifest's command line is the same on both paths
EXITS = {
    # the waves benchmark's wave-n10 job: about 350 KB of stdout through a pipe
    "wave-n10": (["wave", "--n", "10", "--dims", "1,1,2,2,1,1,2,2,1,1",
                  "--proj", "2,2,5/2,2,3/2,2,5/2", "--cap", "8"], 0),
    "positivity-files": (["--manifest", "manifest.json", "exotic", "positivity", "--structure", "B",
                          "--hmax", "4", "--kmax", "2", "--out", "report.json"], 0),
    "usage-error": (["wave", "--n", "4", "--badflag"], 2),  # SystemExit from parse_args
    "help": (["exotic", "g", "-h"], 0),  # SystemExit from parse_args
    "value-error": (["wave", "--n", "5", "--dims", "1,1", "--cap", "2"], 2),
    "domain-error": (["wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "0", "--cap", "2"], 3),
}
FILES = ("report.json", "manifest.json")


def _in_process(argv, capsys) -> tuple[int, bytes, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


@pytest.mark.parametrize("name", EXITS)
def test_the_program_and_main_agree_on_every_exit(name, tmp_path, capsys, monkeypatch):
    argv, code = EXITS[name]
    program, library = tmp_path / "program", tmp_path / "library"
    program.mkdir(), library.mkdir()
    run = subprocess.run([sys.executable, "-m", "exactcft.cli", *argv], cwd=program, env=ENV,
                         capture_output=True)
    monkeypatch.chdir(library)
    assert (run.returncode, run.stdout, run.stderr.decode()) == _in_process(argv, capsys)
    assert run.returncode == code
    written = [f for f in FILES if (program / f).exists()]
    assert written == [f for f in FILES if (library / f).exists()]
    for f in written:
        text = (program / f).read_bytes()
        assert text == (library / f).read_bytes()
        assert text.endswith(b"}\n")
    if written:
        assert (program / "report.json").read_bytes() == run.stdout


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["exotic", "coeff", "--hplus", "2", "--hminus", "1", "--structure", "H"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["wave", "--n", "4", "--badflag"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# runs exactcft.cli as __main__, as `python -m exactcft.cli` does, and prints how it
# ended and the freeze count after it; "raise" makes the wave walk raise TypeError,
# which no handler catches
RUN_AS_PROGRAM = """
import gc, runpy, sys
if sys.argv[1] == "raise":
    import exactcft.waves
    def walk(*_):
        raise TypeError("unhandled")
    exactcft.waves.chiral_wave_series = walk
sys.argv = ["exactcft", *sys.argv[2:]]
try:
    runpy.run_module("exactcft.cli", run_name="__main__")
    ended = "returned"
except SystemExit as exc:
    ended = exc.code or 0
except TypeError:
    ended = "TypeError"
print(ended, gc.get_freeze_count() > 0, file=sys.stderr)
"""
WAVE4 = ["wave", "--n", "4", "--dims", "1,1,1,1", "--proj", "2", "--cap", "2"]


@pytest.mark.parametrize("mode, argv, ended", [
    ("run", WAVE4, "0"),
    ("run", EXITS["usage-error"][0], "2"),
    ("run", EXITS["help"][0], "0"),
    ("run", EXITS["domain-error"][0], "3"),
    ("raise", WAVE4, "TypeError"),
], ids=["success", "usage-error", "help", "domain-error", "uncaught-exception"])
def test_the_program_freezes_the_heap_on_every_exit(mode, argv, ended):
    run = subprocess.run([sys.executable, "-c", RUN_AS_PROGRAM, mode, *argv], env=ENV,
                         capture_output=True, text=True, check=True)
    assert run.stderr.split("\n")[-2].split() == [ended, "True"]
