"""The traced benchmark's layer wrappers must still find what they wrap.

``perfbench/layers.py`` installs its wrappers with ``vars(owner)[name]``,
so renaming or moving a wrapped function (or turning it into an inherited
one) breaks ``perfbench/run.py --trace 1``.  This checks every target
without running the benchmark.
"""

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    layers = _load_layers()
    targets = layers._targets(layers.LayerClock())
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, *_ in targets
        if name not in vars(owner)
    ]
    assert missing == []

