import sys

import numpy as np
import pytest

from regflood import fit as fit_module
from regflood import lmoments as lmoments_module
from regflood.pot import DischargeSeries, PotSeries


def make_pot(peaks, threshold, years, station="S1", start="1970-01-01"):
    """Build an event series with evenly spaced synthetic event times."""
    peaks = np.asarray(peaks, dtype=float)
    t0 = np.datetime64(start + "T00:00:00", "s")
    step_days = max(1, int(years * 365.25 / max(peaks.size, 1)) - 1)
    times = t0 + (1 + np.arange(peaks.size)) * np.timedelta64(step_days * 86400, "s")
    return PotSeries(
        station=station,
        threshold=float(threshold),
        times=times,
        peaks=peaks,
        record_years=float(years),
    )


def make_daily_series(discharge, start="1970-01-01", station="S1"):
    q = np.asarray(discharge, dtype=float)
    t0 = np.datetime64(start + "T00:00:00", "s")
    times = t0 + np.arange(q.size) * np.timedelta64(86400, "s")
    return DischargeSeries(station=station, times=times, discharge=q)


def make_spike_series(n_days, spikes, base=1.0, start="1970-01-01", station="S1"):
    """Flat baseline with single-day spikes at the given (day, value) pairs."""
    q = np.full(n_days, float(base))
    for day, value in spikes:
        q[day] = value
    return make_daily_series(q, start=start, station=station)


@pytest.fixture
def daily_series():
    return make_daily_series


@pytest.fixture
def spike_series():
    return make_spike_series


def _record_calls(monkeypatch, original, record):
    """Log ``record(first argument)`` of every call of a regflood function.

    ``from .fit import gp_fit_mle`` binds the function in each importing
    module, so the counting wrapper replaces every such binding.
    """
    calls = []

    def counted(arg, *args, **kwargs):
        calls.append(record(arg))
        return original(arg, *args, **kwargs)

    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "regflood" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def fit_calls(monkeypatch):
    """The station of every ``gp_fit_mle`` call, whichever regflood module makes it."""
    return _record_calls(monkeypatch, fit_module.gp_fit_mle, lambda pot: pot.station)


@pytest.fixture
def lmoment_calls(monkeypatch):
    """The sample size of every ``sample_lmoments`` call, whichever module makes it."""
    return _record_calls(monkeypatch, lmoments_module.sample_lmoments, len)
