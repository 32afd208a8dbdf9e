import pytest

from bn2 import triangular, verify


@pytest.fixture
def fresh_memos():
    """Empty the one-genus system memo and the closed-formula and solution
    memos before and after the test, so a patched build function is called and
    its result not kept."""
    memos = (triangular._genus, verify._closed_form, verify._solved)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
