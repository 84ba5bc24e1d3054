import sys

import pytest

import snkron  # noqa: F401  (loads every layer module)


def package_memos():
    """Every module-level memo in snkron, by qualified name.

    A memo is a functools cache (anything with ``cache_clear``) or a
    module-level dict whose name is not an UPPER_CASE constant.  Found by
    walking the loaded snkron modules, so a new memo is cleared without being
    named here.  A memo imported by name into another module is listed once.
    """
    memos = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("snkron."):
            for key, value in vars(module).items():
                if hasattr(value, "cache_clear"):
                    memos[id(value)] = (f"{value.__module__}.{value.__qualname__}", value)
                elif type(value) is dict and not key.startswith("__") and not key.isupper():
                    memos.setdefault(id(value), (f"{name}.{key}", value))
    return dict(memos.values())


def _size(memo):
    return len(memo) if isinstance(memo, dict) else memo.cache_info().currsize


def clear_character_memos():
    memos = package_memos()
    assert memos
    for memo in memos.values():
        if isinstance(memo, dict):
            memo.clear()
        else:
            memo.cache_clear()
    assert all(_size(memo) == 0 for memo in memos.values())


@pytest.fixture
def cold_memo():
    """Start the test with every memo of the package empty."""
    clear_character_memos()
    yield clear_character_memos
