"""The per-test time limit of conftest.py: a hang fails its test."""

import signal

import pytest

from conftest import TEST_TIME_LIMIT_S


def test_every_test_runs_under_the_limit():
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    assert interval == 0


def test_a_hang_fails_once_the_limit_runs_out():
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match="ran longer than"):
        while True:
            pass
