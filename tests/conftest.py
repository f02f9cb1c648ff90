import os

import pytest


@pytest.fixture(autouse=True)
def real_affinity_mask():
    """Puts the process's affinity mask back after each test. Forked
    shares pin the process and then restore the mask they read, which is
    the faked one in a test that fakes os.sched_getaffinity."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)
