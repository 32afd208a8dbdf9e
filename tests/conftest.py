import pytest

from bn2 import triangular, verify

# every bounded module-level memo of the package: the one-genus system memo
# and the closed-formula and solution memos (test_source checks the list)
MEMOS = (triangular._genus, verify._closed_form, verify._solved)


@pytest.fixture
def fresh_memos():
    """Empty every memo of ``MEMOS`` before and after the test, so a patched
    build function is called and its result not kept."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
