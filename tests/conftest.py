import pytest

from bn2 import triangular, verify

# every module-level memo of the package: the one-genus system memo and the
# closed-formula memo (test_source checks the list, and that the benchmark's
# commands hit each one)
MEMOS = (triangular._genus, verify._closed_form)


@pytest.fixture
def fresh_memos():
    """Empty every memo of ``MEMOS`` before and after the test, so a patched
    build function is called and its result not kept."""
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()
