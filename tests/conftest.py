import pytest

from bn2 import relations, verify


@pytest.fixture
def fresh_memos():
    """Empty the one-genus system memo and the closed-formula memo before and
    after the test, so a patched build function is called and its result not kept."""
    relations._genus.cache_clear()
    verify._closed_form.cache_clear()
    yield
    relations._genus.cache_clear()
    verify._closed_form.cache_clear()
