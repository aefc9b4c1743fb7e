import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflood import pot as pot_module
from regflood.errors import InputError, InsufficientDataError, SelectionError
from regflood.pot import (
    DischargeSeries,
    IndependenceRule,
    PotSeries,
    _candidate_peaks,
    _event_indices,
    extract_pot,
    record_years,
    select_threshold,
)

from conftest import make_daily_series, make_spike_series


def test_close_spikes_merge_into_larger(spike_series):
    for heights in [(10.0, 8.0), (8.0, 10.0)]:
        series = spike_series(60, [(20, heights[0]), (23, heights[1])])
        pot = extract_pot(series, threshold=5.0)
        assert len(pot) == 1
        assert pot.peaks[0] == 10.0


def test_separated_spikes_stay_apart(spike_series):
    series = spike_series(60, [(20, 10.0), (35, 8.0)], base=1.0)
    pot = extract_pot(series, threshold=5.0)
    assert len(pot) == 2
    assert list(pot.peaks) == [10.0, 8.0]


def test_high_trough_blocks_separation(spike_series):
    # valley stays at 7 > (2/3) * 8, so the events are dependent
    q = np.full(60, 1.0)
    q[20] = 10.0
    q[21:35] = 7.0
    q[35] = 8.0
    pot = extract_pot(make_daily_series(q), threshold=5.0)
    assert len(pot) == 1
    assert pot.peaks[0] == 10.0


def test_single_spike(spike_series):
    series = spike_series(30, [(12, 7.5)])
    pot = extract_pot(series, threshold=5.0)
    assert len(pot) == 1
    assert pot.peaks[0] == 7.5
    assert pot.times[0] == series.times[12]


def test_no_exceedances_is_an_error(spike_series):
    with pytest.raises(InsufficientDataError):
        extract_pot(spike_series(30, [(12, 4.0)]), threshold=5.0)


def test_rate_matches_count_over_years(spike_series):
    series = spike_series(365 * 4, [(100, 9.0), (500, 8.0), (900, 7.0)])
    pot = extract_pot(series, threshold=5.0)
    assert pot.rate == pytest.approx(len(pot) / pot.record_years)
    assert pot.record_years == pytest.approx(4.0, abs=0.01)


def test_record_years_discounts_long_gaps():
    t0 = np.datetime64("1970-01-01T00:00:00", "s")
    day = np.timedelta64(86400, "s")
    times = np.concatenate([t0 + np.arange(150) * day, t0 + (240 + np.arange(126)) * day])
    q = np.ones(times.size)
    q[50] = 5.0
    series = DischargeSeries("S1", times, q)
    # 365-day span + 1, minus the (91 - 1) day hole
    assert record_years(series) == pytest.approx((366.0 - 90.0) / 365.25, abs=1e-9)
    # the gap is kept when the allowance is large enough
    assert record_years(series, max_missing_gap_days=120.0) == pytest.approx(
        366.0 / 365.25, abs=1e-9
    )


def _random_series(seed, n_days=2000):
    rng = np.random.default_rng(seed)
    q = rng.gamma(1.1, 0.8, size=n_days)
    n_spikes = rng.integers(15, 60)
    days = rng.choice(n_days, size=n_spikes, replace=False)
    q[days] += rng.pareto(1.5, size=n_spikes) * 3.0 + 2.0
    return make_daily_series(q)


@pytest.mark.parametrize("seed", range(6))
def test_adjacent_events_satisfy_rule(seed):
    rule = IndependenceRule()
    series = _random_series(seed)
    pot = extract_pot(series, threshold=3.0, rule=rule)
    days = series.day_offsets()
    q = series.discharge
    event_idx = np.searchsorted(series.times, pot.times)
    for a, b in zip(event_idx[:-1], event_idx[1:]):
        gap = days[b] - days[a]
        trough = np.min(q[a + 1 : b])
        assert gap >= rule.min_gap_days
        assert trough < rule.trough_fraction * min(q[a], q[b])


@pytest.mark.parametrize("seed", range(6))
def test_event_count_monotone_in_threshold(seed):
    series = _random_series(seed)
    thresholds = np.quantile(series.discharge, np.linspace(0.5, 0.999, 40))
    counts = []
    for th in np.unique(thresholds):
        try:
            counts.append(len(extract_pot(series, float(th))))
        except InsufficientDataError:
            counts.append(0)
    assert all(a >= b for a, b in zip(counts[:-1], counts[1:]))


def _declustered_by_loop(series, threshold, rule):
    """Event indices by the per-gap loop that ``extract_pot`` replaced: the oracle."""
    q = series.discharge
    cand = _candidate_peaks(q, threshold)
    if cand.size == 0:
        return None
    days = series.day_offsets()
    kept = []
    cur = int(cand[0])
    cur_val = q[cur]
    trough = np.inf
    for j in range(1, cand.size):
        idx = int(cand[j])
        prev = int(cand[j - 1])
        if idx > prev + 1:
            trough = min(trough, float(np.min(q[prev + 1 : idx])))
        separated = (
            days[idx] - days[cur] >= rule.min_gap_days
            and trough < rule.trough_fraction * min(cur_val, q[idx])
        )
        if separated:
            kept.append(cur)
            cur = idx
            cur_val = q[idx]
            trough = np.inf
        elif q[idx] > cur_val:
            cur = idx
            cur_val = q[idx]
            trough = np.inf
    kept.append(cur)
    return np.asarray(kept, dtype=int)


@st.composite
def _records(draw):
    """A short record of small integer levels (plateaus, ties) with time gaps."""
    n = draw(st.integers(2, 120))
    levels = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    if draw(st.booleans()):
        # a deep trough after the last candidate, where reduceat's last
        # segment would reach if the gaps were not closed
        levels[-1] = 0
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 12, 45]), min_size=n - 1, max_size=n - 1))
    t0 = np.datetime64("1970-01-01T00:00:00", "s")
    offsets = np.concatenate([[0], np.cumsum(steps)]) * 86400
    times = t0 + offsets.astype("timedelta64[s]")
    q = np.asarray(levels, dtype=float) * draw(st.sampled_from([1.0, 0.1, 3.7]))
    return DischargeSeries("S1", times, q)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    series=_records(),
    level=st.floats(0.0, 1.0),
    rule=st.builds(
        IndependenceRule,
        min_gap_days=st.sampled_from([0.0, 1.0, 2.5, 10.0]),
        trough_fraction=st.sampled_from([0.25, 2.0 / 3.0, 1.0]),
        max_missing_gap_days=st.sampled_from([5.0, 30.0]),
    ),
)
def test_extract_pot_equals_the_per_gap_loop(series, level, rule):
    # thresholds on the levels themselves make plateaus and ties bite
    threshold = float(np.quantile(series.discharge, level, method="lower"))
    kept = _declustered_by_loop(series, threshold, rule)
    # select_threshold counts the events of this sweep without a PotSeries
    expected = [] if kept is None else kept.tolist()
    assert _event_indices(series, threshold, rule).tolist() == expected
    if kept is None:
        with pytest.raises(InsufficientDataError):
            extract_pot(series, threshold, rule)
        return
    pot = extract_pot(series, threshold, rule)
    assert np.array_equal(pot.times, series.times[kept])
    assert np.array_equal(pot.peaks, series.discharge[kept])
    assert pot.record_years == record_years(series, rule.max_missing_gap_days)


def _grid(series):
    return np.unique(np.quantile(series.discharge, np.linspace(0.5, 0.9999, 200)))


def _scan_rates(series, rule):
    """(threshold, rate) at every grid level, rate None where no event is
    left: the linear scan's sweeps."""
    out = []
    for th in _grid(series):
        try:
            out.append((float(th), extract_pot(series, float(th), rule).rate))
        except InsufficientDataError:
            out.append((float(th), None))
    return out


def _assert_selects_as_the_scan(series, target, rule, scan=None):
    # the answer is the last grid threshold whose rate meets the target
    scan = _scan_rates(series, rule) if scan is None else scan
    met = [(th, rate) for th, rate in scan if rate is not None and rate >= target]
    if not met:
        with pytest.raises(SelectionError, match=rf"\(best {scan[0][1]:.3f}\)"):
            select_threshold(series, target, rule)
        return
    assert select_threshold(series, target, rule) == met[-1]


@pytest.mark.parametrize("seed,n_days,rule,target", [
    (99, 3650, IndependenceRule(), 2.0),
    (0, 2000, IndependenceRule(), 3.0),
    (1, 2000, IndependenceRule(min_gap_days=3.0, trough_fraction=0.9), 1.5),
    (2, 5000, IndependenceRule(min_gap_days=0.0, trough_fraction=1.0), 5.0),
    (3, 3000, IndependenceRule(min_gap_days=20.0, trough_fraction=0.3), 1.0),
    (4, 2000, IndependenceRule(), 400.0),
])
def test_select_threshold_matches_linear_scan(seed, n_days, rule, target):
    _assert_selects_as_the_scan(_random_series(seed, n_days), target, rule)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    n_days=st.integers(400, 3000),
    rule=st.builds(
        IndependenceRule,
        min_gap_days=st.sampled_from([0.0, 3.0, 10.0, 20.0]),
        trough_fraction=st.sampled_from([0.3, 2.0 / 3.0, 0.9, 1.0]),
    ),
    # each target is the rate at a drawn grid level, met there exactly or
    # missed there by a hair, so the crossings lie anywhere on the grid
    levels=st.lists(st.integers(0, 199), min_size=1, max_size=12),
    nudge=st.sampled_from([1.0, 1.0 + 1e-9]),
)
def test_select_threshold_matches_linear_scan_on_drawn_series(seed, n_days, rule, levels, nudge):
    series = _random_series(seed, n_days)
    scan = _scan_rates(series, rule)
    # a rate no level meets, then the drawn levels' rates
    _assert_selects_as_the_scan(series, 400.0, rule, scan)
    for level in levels:
        rate = scan[min(level, len(scan) - 1)][1]
        if rate is not None:
            _assert_selects_as_the_scan(series, rate * nudge, rule, scan)


def test_select_threshold_probes_stay_near_the_crossing(monkeypatch):
    # the work that matters is the low thresholds' sweeps: with the answer
    # d levels below the top, no probe lies below top - 2d, and the search
    # takes at most 2 * bit_length(d) probes (1 when d = 0)
    probes = []

    def counted(series, threshold, rule):
        probes.append(threshold)
        return _event_indices(series, threshold, rule)

    monkeypatch.setattr(pot_module, "_event_indices", counted)
    for seed in range(4):
        series = _random_series(seed, 3650)
        grid = _grid(series).tolist()
        top = len(grid) - 1
        for target in (0.5, 1.5, 2.0, 3.0, 400.0):
            probes.clear()
            try:
                chosen = select_threshold(series, target).threshold
            except SelectionError:
                # every level missed: grid[0] was probed last, for the message
                assert probes[-1] == grid[0]
                assert len(probes) <= 9
                continue
            d = top - grid.index(chosen)
            assert min(grid.index(th) for th in probes) >= top - 2 * d
            assert len(probes) <= max(1, 2 * d.bit_length())


def test_select_threshold_unreachable_rate(spike_series):
    series = spike_series(365, [(50, 9.0), (180, 8.0)])
    with pytest.raises(SelectionError):
        select_threshold(series, 50.0)
    with pytest.raises(InputError):
        select_threshold(series, -1.0)


def test_pot_rescaled():
    pot = PotSeries(
        station="S1",
        threshold=2.0,
        times=np.array(["1970-02-01", "1970-06-01"], dtype="datetime64[s]"),
        peaks=np.array([3.0, 5.0]),
        record_years=1.0,
    )
    scaled = pot.rescaled(0.5)
    assert scaled.threshold == 1.0
    assert list(scaled.peaks) == [1.5, 2.5]
    assert scaled.rate == pot.rate
    with pytest.raises(InputError):
        pot.rescaled(0.0)


def test_pot_series_validation():
    times = np.array(["1970-02-01", "1970-06-01"], dtype="datetime64[s]")
    with pytest.raises(InputError):
        PotSeries("S1", 2.0, times, np.array([1.0, 5.0]), 1.0)  # peak below threshold
    with pytest.raises(InputError):
        PotSeries("S1", 2.0, times[::-1], np.array([3.0, 5.0]), 1.0)
    with pytest.raises(InputError):
        PotSeries("S1", 2.0, times, np.array([3.0, 5.0]), 0.0)
    empty = PotSeries("S1", 2.0, times[:0], np.array([]), 10.0)
    assert empty.rate == 0.0


def test_series_validation():
    times = np.array(["1970-01-01", "1970-01-02"], dtype="datetime64[s]")
    with pytest.raises(InputError):
        DischargeSeries("", times, np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        DischargeSeries("S1", times, np.array([1.0, -2.0]))
    with pytest.raises(InputError):
        DischargeSeries("S1", times[:1], np.array([1.0]))
    with pytest.raises(InputError):
        IndependenceRule(trough_fraction=0.0)
    with pytest.raises(InputError):
        IndependenceRule(min_gap_days=-1.0)
