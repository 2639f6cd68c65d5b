"""Every function the benchmark tracer wraps still exists.

cftbench/traced_cli.py names its targets as (module, attribute, class) and
looks them up only when it installs its wrappers, so a refactor that drops or
renames one would first show up as a crash of a traced benchmark run. This
test loads the tracer by path and resolves every target the way it does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parent.parent / "cftbench" / "traced_cli.py"


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
