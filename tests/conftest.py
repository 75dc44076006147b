import random
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def recursion_limit():
    """set_limit(frames) lets a test run at most that many frames deeper
    than its caller; the interpreter's limit is restored afterwards."""
    old = sys.getrecursionlimit()

    def set_limit(frames: int) -> None:
        depth, frame = 0, sys._getframe(1)
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + frames)

    yield set_limit
    sys.setrecursionlimit(old)
