import pytest
from hypothesis import settings

from wwl import WeylGroup, build_root_system

# Property tests draw the same examples on every run and are never cut
# short by a per-example deadline.
settings.register_profile("wwl", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("wwl")


@pytest.fixture(scope="session")
def group_for():
    """Shared WeylGroup instances so tables are built once per session."""
    cache = {}

    def get(type_letter, rank):
        key = (type_letter, rank)
        if key not in cache:
            cache[key] = WeylGroup(build_root_system(type_letter, rank))
        return cache[key]

    return get
