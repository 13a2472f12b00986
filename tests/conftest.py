import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def no_bridges(monkeypatch):
    """Fail the test if it simulates a bridge supremum or touches a cache file."""
    from cssm import critval

    def forbidden(*args, **kwargs):
        raise AssertionError("bridge simulation or cache access")

    for name in ("simulate_bridge_sup", "_cache_lookup", "_cache_append"):
        monkeypatch.setattr(critval, name, forbidden)
