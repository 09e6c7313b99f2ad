"""Every test starts with the library's memo tables empty, so an entry
left warm by one test never hides a fault that another test injects."""

import pytest

from proflq import cache


@pytest.fixture(autouse=True)
def _cold_cache():
    cache.clear()
