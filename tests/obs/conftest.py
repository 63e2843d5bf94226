"""Shared fixtures: observability state is process-global, so every
test in this package runs against a clean, disabled state and restores
it afterwards (other suites assume observability is off by default)."""

import pytest

from repro import obs


def reset_perf_counters():
    """Zero the solver's ``perf.*`` registry counters."""
    for name in obs.REGISTRY.names():
        if name.startswith("perf."):
            obs.REGISTRY.get(name).reset()


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs._STATE.enabled = False
    obs.reset()
    reset_perf_counters()
    yield
    obs._STATE.enabled = False
    obs.reset()
    reset_perf_counters()
