import pytest

import snkron.characters as characters


def clear_character_memos():
    characters._char.cache_clear()
    characters._rows.clear()
    characters._class_sizes.clear()


@pytest.fixture
def cold_memo():
    """Start the test with every character memo empty."""
    clear_character_memos()
    yield clear_character_memos
