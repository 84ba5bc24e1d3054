import sys

import snkron

LAYERS = ("partitions", "characters", "kronecker", "closed_forms", "weights")


def test_package_exports_exactly_the_layers():
    # Through sys.modules: the function snkron.kronecker shadows its submodule.
    modules = [sys.modules[f"snkron.{layer}"] for layer in LAYERS]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(snkron.__all__) == len(set(snkron.__all__))
    assert set(snkron.__all__) == set(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(snkron, name) is getattr(module, name), (module.__name__, name)
