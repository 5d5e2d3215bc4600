"""The benchmark's tracer (``perfbench/tracing.py``) wraps named layers of
``src/`` by ``(module, class, attribute)``. A rename in ``src/`` would
only show when a traced benchmark run fails, so every name it lists is
resolved here, the same way ``Tracer.install`` resolves it."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = load_tracing()


@pytest.mark.parametrize(
    "mod_name, cls_name, attr",
    [layer[:3] for layer in tracing.LAYERS],
    ids=[".".join(x for x in layer[:3] if x) for layer in tracing.LAYERS],
)
def test_layer_resolves(mod_name, cls_name, attr):
    module = importlib.import_module(mod_name)
    if cls_name:
        owner = getattr(module, cls_name)
        assert attr in owner.__dict__, f"{cls_name} defines no {attr}"
        fn = owner.__dict__[attr]
    else:
        fn = getattr(module, attr)
    assert callable(fn)


def test_install_and_uninstall_round_trip():
    originals = []
    for mod_name, cls_name, attr, *_ in tracing.LAYERS:
        owner = importlib.import_module(mod_name)
        owner = getattr(owner, cls_name) if cls_name else owner
        originals.append((owner, attr, getattr(owner, attr)))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert all(getattr(o, a) is not fn for o, a, fn in originals)
    finally:
        tr.uninstall()
    assert all(getattr(o, a) is fn for o, a, fn in originals)
