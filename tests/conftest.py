import os
import signal

import pytest
from hypothesis import settings

settings.register_profile("default", max_examples=60, deadline=None)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("COLLABSC_HYPOTHESIS_PROFILE", "default"))

# Every test fails once it has run this long, so a hang fails the suite
# instead of stalling it. The slowest test takes about 22 s under the ci
# profile; test_perfbench gives its subprocesses the same 300 s.
TEST_TIME_LIMIT_S = 300


def _time_is_up(signum, frame):
    pytest.fail(f"test ran longer than its {TEST_TIME_LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _time_is_up)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
