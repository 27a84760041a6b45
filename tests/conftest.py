import pytest

from gradecat import division, structconst, verify


@pytest.fixture(autouse=True)
def fresh_catalog():
    """Each test starts from empty `canonical`, `verify.fixture` and H x H
    caches: a shared entry or fixture keeps what a test memoized on it (beta,
    the Weyl chain, the export, the M_k(D) with their harvested groups,
    inverses and centres), stubs included.  The M_k(D) live on their
    entries, so clearing `canonical` drops them too."""
    division._canonical_entry.cache_clear()
    verify.fixture.cache_clear()
    structconst.quaternion_pair_algebra.cache_clear()
