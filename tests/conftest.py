import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def peak_bytes():
    """Peak bytes allocated by call(), numpy's buffers included: numpy reports them to tracemalloc."""
    def measure(call):
        call()      # warm-up: first-call caches are not the call's working set
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
