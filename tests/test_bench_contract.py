"""The benchmark's tracing wraps names of the program; each must exist.

``perfbench/tracing.py`` wraps every name in its ``LAYERS`` table with
``getattr`` on ``opext.<layer>``, and its own tests are outside this suite.
Without this check, removing or renaming a wrapped function (even one no
library path calls any more, such as ``numkit.independent_columns``) would
break only traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_tracing().LAYERS.items():
        module = importlib.import_module(f"opext.{layer}")
        for name in names:
            target = module
            for part in name.split("."):  # a method resolves on its class
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{layer}.{name}")
    assert missing == []
