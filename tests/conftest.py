import sys

import pytest

import snkron  # noqa: F401  (loads every layer module)


def package_memos():
    """Every module-level memo (anything with ``cache_clear``) in snkron.

    Found by walking the loaded snkron modules, so a new memo is cleared
    without being named here.  A memo imported by name into another module
    is listed once.
    """
    memos = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("snkron."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    memos[id(value)] = value
    return list(memos.values())


def clear_character_memos():
    memos = package_memos()
    assert memos
    for memo in memos:
        memo.cache_clear()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


@pytest.fixture
def cold_memo():
    """Start the test with every memo of the package empty."""
    clear_character_memos()
    yield clear_character_memos
