import importlib
import inspect

import pytest


@pytest.mark.parametrize("name", ["data", "engine", "metrics", "nn_core"])
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"pseudosup.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    public = {
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(public - set(module.__all__)) == []
