"""The one time check and the one count check, shared by the library and the command line."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbforge.bb_synthesis import TargetSpec, solve_storage
from bbforge.cli import ConfigError, _config_number
from bbforge.errors import DomainError
from bbforge.open_system_sim import PulseGroup, _check_count, _check_time
from bbforge.optimizer import CostFunction, LearningLoopConfig

from conftest import I2

finite_non_negative = st.one_of(
    st.floats(0.0, allow_infinity=False),
    st.integers(0, 2**1000),
    st.floats(0.0, allow_infinity=False).map(np.float64),
    st.fractions(0, 10**300),
)
NOT_A_TIME = [True, False, "1.0", None, [1.0], float("nan"), float("inf"), -float("inf"), 10**400]
NOT_A_COUNT = [True, False, "3", None, 3.0, 2.5, np.float64(3.0), float("nan"), Fraction(3)]

# Anything a JSON config can hold where a number is expected, and more.
config_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.integers(2**1020, 2**1030),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(t=finite_non_negative)
def test_finite_non_negative_real_is_a_time(t):
    assert _check_time(t) == float(t) and type(_check_time(t)) is float
    if t > 0:
        assert _check_time(t, "t", True) == float(t)
    else:
        with pytest.raises(DomainError):
            _check_time(t, "t", True)


@pytest.mark.parametrize("value", NOT_A_TIME, ids=repr)
@pytest.mark.parametrize("positive", [False, True])
def test_not_a_time(value, positive):
    with pytest.raises(DomainError, match="finite"):
        _check_time(value, "t", positive)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(-(2**70), 2**70), minimum=st.integers(0, 3), wrap=st.sampled_from([int, np.int64, np.uint64]))
def test_integer_at_or_above_minimum_is_a_count(n, minimum, wrap):
    assume(wrap is int or np.iinfo(wrap).min <= n <= np.iinfo(wrap).max)
    if n >= minimum:
        assert _check_count(wrap(n), "n", minimum) == n and type(_check_count(wrap(n), "n", minimum)) is int
    else:
        with pytest.raises(DomainError, match="integer >= "):
            _check_count(wrap(n), "n", minimum)


@settings(max_examples=200, deadline=None)
@given(x=st.floats().filter(lambda x: not float(x).is_integer()))
def test_non_integral_number_is_not_a_count(x):
    with pytest.raises(DomainError, match="integer"):
        _check_count(x, "n", 0)


@pytest.mark.parametrize("value", NOT_A_COUNT, ids=repr)
def test_not_a_count(value):
    with pytest.raises(DomainError, match="integer"):
        _check_count(value, "n", 0)


def _outcome(make, read):
    """What the library stores for a value, or ``DomainError``."""
    try:
        return read(make())
    except DomainError:
        return DomainError


def _cli_outcome(*args):
    try:
        return _config_number(*args)
    except ConfigError:
        return DomainError


@settings(max_examples=300, deadline=None)
@given(value=config_values)
def test_cli_and_library_agree_on_times(value):
    cli = _cli_outcome(value, "t")
    assert _outcome(lambda: PulseGroup.from_pulses([I2], value), lambda g: g.delta_t) == cli
    assert _outcome(lambda: LearningLoopConfig(delta_t=value), lambda c: c.delta_t) == cli
    if value is not None:  # None asks the loop for its default probe time
        assert _outcome(lambda: LearningLoopConfig(probe_time=value), lambda c: c.probe_time) == cli


@settings(max_examples=300, deadline=None)
@given(value=config_values)
def test_cli_and_library_agree_on_counts(value):
    bound = _cli_outcome(value, "n", 2)
    assert _outcome(lambda: solve_storage(np.zeros(3), 0, value), lambda r: value) == bound
    assert _outcome(lambda: LearningLoopConfig(group_size_bound=value), lambda c: c.group_size_bound) == bound
    storage = TargetSpec(kind="storage")
    assert _outcome(lambda: CostFunction(storage, cycles=value), lambda c: c.cycles) == _cli_outcome(value, "n", 1)
    assert _outcome(lambda: LearningLoopConfig(seed=value), lambda c: c.seed) == _cli_outcome(value, "n", 0)
