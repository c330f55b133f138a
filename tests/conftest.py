import pytest

from rfactor import verify


@pytest.fixture
def fresh_lax_tables():
    """Compiled Lax product tables are cached per process
    (`verify._lax_table`), so a test that changes a Lax builder would read
    the table compiled before the change: this clears the cache before the
    test and after it."""
    verify._lax_table.cache_clear()
    yield
    verify._lax_table.cache_clear()
