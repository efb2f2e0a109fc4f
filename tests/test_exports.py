"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import soundreach as sr


def test_every_exported_name_resolves():
    modules = [sr] + [
        importlib.import_module(f"soundreach.{info.name}")
        for info in pkgutil.iter_modules(sr.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        exported = module.__all__
        assert len(exported) == len(set(exported)), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
