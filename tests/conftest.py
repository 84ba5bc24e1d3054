import pytest

import snkron.characters as characters
import snkron.partitions as partitions


def clear_character_memos():
    characters._char.cache_clear()
    characters.class_sizes.cache_clear()
    partitions.enumerate_partitions.cache_clear()


@pytest.fixture
def cold_memo():
    """Start the test with the character and partition memos empty."""
    clear_character_memos()
    yield clear_character_memos
