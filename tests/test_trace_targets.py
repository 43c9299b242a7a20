"""Every function the traced benchmark run patches exists in ndtsim.

The benchmark's tracer (perfbench/tracing.py) names its targets as
(module, qualified name) pairs; a rename or removal in ndtsim would
otherwise only surface as a failed traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, qualname, span", _traced())
def test_traced_target_resolves(module_name, qualname, span):
    owner = importlib.import_module(f"ndtsim.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{qualname} is not defined on the class itself"
        target = vars(owner)[attr]
    else:
        target = getattr(owner, qualname)
    assert callable(target), f"ndtsim.{module_name}.{qualname} is not callable"
