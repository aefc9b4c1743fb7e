import sys

import numpy as np
import pytest

from regflood import fit as fit_module
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


@pytest.fixture
def fit_calls(monkeypatch):
    """Record every ``gp_fit_mle`` call, whichever regflood module makes it.

    ``from .fit import gp_fit_mle`` binds the function in each importing
    module, so the counting wrapper replaces every such binding.
    """
    original = fit_module.gp_fit_mle
    calls = []

    def counted(pot, *args, **kwargs):
        calls.append(pot.station)
        return original(pot, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "regflood" and getattr(module, "gp_fit_mle", None) is original:
            monkeypatch.setattr(module, "gp_fit_mle", counted)
    return calls
