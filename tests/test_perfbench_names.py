"""The names ``perfbench`` reaches in ``rdts`` still exist.

``perfbench/spans.py`` wraps every function that ``perfbench/layers.json``
lists, looked up with ``getattr`` on ``rdts.<module>``, and rebinds
``outcome_support`` wherever a module imported it by name. A deletion in
``src/rdts`` that removes one of these names breaks the traced benchmark
runs; these tests make it fail here instead. They only read ``perfbench/``.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = json.loads((Path(__file__).parents[1] / "perfbench" / "layers.json").read_text())


@pytest.mark.parametrize("module_name", sorted(LAYERS))
def test_every_traced_function_resolves(module_name):
    module = importlib.import_module(f"rdts.{module_name}")
    missing = [name for name in LAYERS[module_name]["functions"] if not hasattr(module, name)]
    assert not missing, f"rdts.{module_name} lacks {missing}"


@pytest.mark.parametrize("module_name", ["inference", "information", "policy"])
def test_outcome_support_is_bound_where_perfbench_rebinds_it(module_name):
    from rdts.model import outcome_support

    module = importlib.import_module(f"rdts.{module_name}")
    assert getattr(module, "outcome_support", None) is outcome_support
