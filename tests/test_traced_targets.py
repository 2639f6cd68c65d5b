"""Every function the benchmark tracer wraps still exists.

cftbench/traced_cli.py names its targets as (module, attribute, class) and
looks them up only when it installs its wrappers, so a refactor that drops or
renames one would first show up as a crash of a traced benchmark run. This
test loads the tracer by path and resolves every target the way it does. The
tracer wraps only modules loaded before it installs, so the last tests run it
on commands whose functions are imported lazily, by the CLI or inside
chiral_ops, and count their calls.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactcft.waves import WaveSpec, chiral_wave_series

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "cftbench" / "traced_cli.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("name", sorted(TRACER.TARGETS))
def test_trace_target_resolves(name):
    mod_name, attr, cls_name = TRACER.TARGETS[name]
    module = importlib.import_module(f"exactcft.{mod_name}")
    if cls_name:
        # the tracer wraps cls.__dict__[attr]: an inherited method is not enough
        assert callable(vars(getattr(module, cls_name)).get(attr)), name
    else:
        assert callable(getattr(module, attr, None)), name


def test_entry_points_and_extras_are_targets():
    assert set(TRACER.ENTRY_POINTS) <= set(TRACER.TARGETS)
    assert set(TRACER.EXTRAS) <= set(TRACER.TARGETS)


def _traced_calls(argv: str, tmp_path) -> dict:
    """{target: calls} of one traced CLI run in a fresh process."""
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(TRACED_CLI), str(stats), *argv.split()], cwd=tmp_path,
                   env=env, capture_output=True, check=True)
    return {name: row["calls"] for name, row in json.loads(stats.read_text(encoding="utf-8")).items()}


def test_a_traced_run_counts_the_calls_of_lazily_imported_functions(tmp_path):
    """The CLI imports a command's functions inside its handler; the tracer
    must still have wrapped them, or their calls would read 0."""
    wave = _traced_calls("wave --n 6 --dims 1,1,2,2,1,1 --proj 2,2,5/2 --cap 8", tmp_path)
    assert wave["waves.chiral_wave_series"] == 1
    kernel = _traced_calls("intertwiner tensor --kappa 1 --L 2 --d1 3 --d2 1", tmp_path)
    assert kernel["linsolve.linear_solve_exact"] >= 1


def test_a_traced_reduce_counts_its_reference_wave(tmp_path):
    """chiral_ops imports waves inside the reduction functions; the reference
    wave that a matched reduction builds must still be counted. The reduced
    wave itself is read from JSON, so it adds no call."""
    wave = tmp_path / "wave.json"
    spec = WaveSpec.from_middle((1, 1, 2, 2, 1, 1), (2, 2, 2))
    wave.write_text(json.dumps(chiral_wave_series(spec, 3).to_json()), encoding="utf-8")
    calls = _traced_calls(f"reduce --wave {wave} --pair 1,2 --h 2", tmp_path)
    assert calls["chiral_ops.reduce_wave"] == 1
    assert calls["chiral_ops.match_reduction"] == 1
    assert calls["waves.chiral_wave_series"] == 1
