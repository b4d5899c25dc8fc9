import pytest

from expsums import bernoulli, power_sums


@pytest.fixture
def cold_closed_forms():
    # Empty the closed-form memos of power sums and of retrieval before and
    # after, so no other test sees the forms built here.
    caches = (power_sums._h_numerators, bernoulli._lower_form,
              bernoulli.retrieve_bernoulli_detail)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
