import pytest

from gradecat import division


@pytest.fixture(autouse=True)
def fresh_catalog():
    """Each test starts from an empty `canonical` cache: a shared entry keeps
    what a test memoized on it (beta, the Weyl chain, the export), stubs included."""
    division._canonical_entry.cache_clear()
