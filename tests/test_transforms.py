import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cantornormal import (
    ArgumentError,
    ConstantSequence,
    IndexLogSequence,
    PeriodicSequence,
    PointwiseSequence,
    PresetSequence,
    ScanBoundError,
    Schedule,
    UDSource,
    build_orbit_sink,
    build_patched_uniform,
    build_half_range,
    constructed_digits,
    count_block_checkpoints,
    finite_digits,
    clip_digits,
)
from cantornormal import transforms
from cantornormal.transforms import divergence_modulus

from schedule_oracles import (
    count_threshold_predicate,
    farey_table,
    log_mass_predicate,
    segment_positions,
)


# -- clip map ---------------------------------------------------------------

def test_clip_examples():
    donor = finite_digits(ConstantSequence(3), [2, 1, 2, 0])
    assert clip_digits(donor, ConstantSequence(2)).prefix(4).tolist() == [1, 1, 1, 0]
    wide = clip_digits(finite_digits(ConstantSequence(2), [1, 0, 1]), ConstantSequence(5))
    assert wide.prefix(3).tolist() == [1, 0, 1]


def test_clip_identity_when_same_sequence():
    x = finite_digits(ConstantSequence(4), [3, 0, 2, 1])
    assert clip_digits(x, ConstantSequence(4)).prefix(4).tolist() == [3, 0, 2, 1]


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=30))
def test_clip_never_increases_digits(raw):
    donor_seq = ConstantSequence(9)
    x = finite_digits(donor_seq, raw)
    for target in (ConstantSequence(2), ConstantSequence(5), PeriodicSequence([3, 7])):
        out = clip_digits(x, target).prefix(len(raw))
        assert (out <= np.asarray(raw)).all()
        assert (out <= target.bases(1, len(raw)) - 1).all()


def test_clip_chain_example():
    x = finite_digits(ConstantSequence(4), [3, 2, 1])
    chain = clip_digits(clip_digits(x, ConstantSequence(3)), ConstantSequence(2))
    assert chain.prefix(3).tolist() == [1, 1, 1]


def test_clip_chain_identity_and_min_law():
    c5 = ConstantSequence(5)
    x = finite_digits(c5, [4, 0, 3])
    assert clip_digits(clip_digits(x, c5), c5).prefix(3).tolist() == [4, 0, 3]
    p25, c4 = PeriodicSequence([2, 5]), ConstantSequence(4)
    donor = finite_digits(ConstantSequence(6), [5, 5, 1, 0])
    out = clip_digits(clip_digits(donor, p25), c4).prefix(4)
    caps = np.minimum(p25.bases(1, 4) - 1, c4.bases(1, 4) - 1)
    assert (out == np.minimum([5, 5, 1, 0], caps)).all()


def test_chain_count_stability_donor3_to_4():
    x = constructed_digits(ConstantSequence(3))
    y = clip_digits(x, ConstantSequence(4))
    cps = [100, 1000, 10**4]
    for block in ([0], [1], [2], [0, 1], [2, 2], [1, 0]):
        # digits below 3 are never clipped by base 4
        assert count_block_checkpoints(y, block, cps) == count_block_checkpoints(x, block, cps)


# -- uniformly distributed drivers -----------------------------------------

def test_vdc_values():
    assert UDSource("vdc").value(1) == Fraction(1, 2)
    assert UDSource("vdc").value(2) == Fraction(1, 4)
    assert UDSource("vdc").value(3) == Fraction(3, 4)
    assert UDSource("vdc").value(4) == Fraction(1, 8)


def test_farey_values():
    got = [UDSource("farey").value(n) for n in range(1, 11)]
    assert got == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 5),
        Fraction(2, 5),
        Fraction(3, 5),
        Fraction(4, 5),
    ]


def test_farey_terms_equal_the_table():
    size = 10**5
    num, den = farey_table(size)
    n = np.arange(1, size + 1, dtype=np.int64)
    got_num, got_den = UDSource("farey")._farey_terms(n)
    assert got_num.tolist() == num[:size].tolist()
    assert got_den.tolist() == den[:size].tolist()
    # the last and first two terms of each denominator, read out of order by
    # a fresh source, then one at a time through value
    seams = np.flatnonzero(np.diff(den)) + 1
    idx = np.random.default_rng(3).permutation(
        np.unique(np.clip(np.concatenate([seams - 1, seams, seams + 1]), 0, den.size - 1)))
    got_num, got_den = UDSource("farey")._farey_terms(idx + 1)
    assert got_num.tolist() == num[idx].tolist()
    assert got_den.tolist() == den[idx].tolist()
    far = UDSource("farey")
    assert [far.value(int(i) + 1) for i in idx[:200]] == [
        Fraction(int(num[i]), int(den[i])) for i in idx[:200]]


def test_ud_sources_live_in_unit_interval():
    src = UDSource("vdc")
    vals = [src.value(n) for n in range(1, 400)]
    assert all(0 <= v < 1 for v in vals)
    assert len(set(vals)) == len(vals)  # radical inverse is injective
    far = UDSource("farey")
    fvals = [far.value(n) for n in range(1, 200)]
    assert all(0 <= v < 1 for v in fvals)


def test_unknown_ud_kind():
    with pytest.raises(ArgumentError):
        UDSource("halton")


# -- witnesses ---------------------------------------------------------------

def test_orbit_sink_digit_bound(log_preset):
    y = build_orbit_sink(log_preset)
    digits = y.prefix(10**4)
    cap = PointwiseSequence(log_preset, "log-of").bases(1, 10**4) - 1
    assert (digits <= cap).all()


def test_orbit_sink_prefix_holds_one_copy_of_its_digits():
    # each clip reads its inner window into the outer array, so no inner
    # stream caches a prefix; three int64 copies of 2e6 digits took 61 MiB
    y = build_orbit_sink(PresetSequence("iterated-log"))
    tracemalloc.start()
    try:
        y.prefix(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_orbit_sink_refuses_bounded_bases():
    with pytest.raises(ArgumentError):
        build_orbit_sink(ConstantSequence(10))
    with pytest.raises(ArgumentError):
        build_half_range(PeriodicSequence([3, 5]))


def test_half_range_witness(log_preset):
    y = build_half_range(log_preset)
    digits = y.prefix(5000)
    cap = PointwiseSequence(log_preset, "half-of").bases(1, 5000) - 1
    assert (digits <= cap).all()


def test_half_range_ratio_balance(log_preset):
    y = build_half_range(log_preset)
    n = 3 * 10**4
    [n0] = count_block_checkpoints(y, [0], [n])
    [n1] = count_block_checkpoints(y, [1], [n])
    assert abs(n0 / n1 - 1) < 0.05
    # absolute frequency drifts high: digits live in the lower half
    from cantornormal import expected_count

    assert n0 / float(expected_count(log_preset, [0], n)) > 1.3


# -- schedule ----------------------------------------------------------------

def test_log_mass_example_constant2():
    s = Schedule(ConstantSequence(2))
    assert s.log_mass_threshold(1) == 2
    assert not log_mass_predicate(s, 1, 1)
    assert log_mass_predicate(s, 1, 2)


def test_log_mass_with_injected_level():
    s = Schedule(ConstantSequence(2))
    s._levels = [0, 10]
    # exact product comparison: (2*2)**2 < 2**(j-10) first at j - 10 = 5
    assert s.log_mass_threshold(2) == 15
    assert not log_mass_predicate(s, 2, 14)
    assert log_mass_predicate(s, 2, 15)


def test_log_mass_monotone_stop():
    s = Schedule(PeriodicSequence([2, 3]))
    t = s.log_mass_threshold(1)
    assert all(log_mass_predicate(s, 1, j) for j in range(t, t + 10))
    assert not any(log_mass_predicate(s, 1, j) for j in range(1, t))


def test_count_threshold_example():
    # the goal for each one-digit block is 1 * 1/4; the donor index-log
    # first reaches base 4 at position 8, so block (3) has donor count 1/4
    # at 8 (not above the goal) and 1/4 + 2/4 at 9
    s = Schedule(ConstantSequence(4))
    assert s.count_threshold(1, 1) == 9
    assert count_threshold_predicate(s, 1, 1, 9)
    assert not count_threshold_predicate(s, 1, 1, 8)
    with pytest.raises(ArgumentError):
        s.count_threshold(1, 2)  # block length above the step


def test_count_threshold_certificate(log_preset):
    s = Schedule(log_preset)
    for n, k in ((2, 1), (2, 2), (3, 2)):
        t = s.count_threshold(n, k)
        assert count_threshold_predicate(s, n, k, t)
        assert t == 1 or not count_threshold_predicate(s, n, k, t - 1)


@pytest.mark.parametrize(
    "target",
    [ConstantSequence(3), ConstantSequence(4), PeriodicSequence([2, 3]),
     PresetSequence("log"), PresetSequence("iterated-log"), IndexLogSequence()],
    ids=lambda seq: seq.spec_string(),
)
def test_count_threshold_is_least_passing_position(monkeypatch, target):
    # the threshold is the least j at which the predicate holds, and a scan
    # limit below that j, even one below the block length, is refused
    s = Schedule(target)
    for n in range(1, 4):
        for k in range(1, n + 1):
            j = next(j for j in itertools.count(1) if count_threshold_predicate(s, n, k, j))
            assert s.count_threshold(n, k) == j
            for limit in sorted({0, k - 1, k, j - 1, j}):
                monkeypatch.setattr(transforms, "DEFAULT_SCAN_LIMIT", limit)
                if j <= limit:
                    assert s.count_threshold(n, k) == j
                    continue
                with pytest.raises(ScanBoundError) as info:
                    s.count_threshold(n, k)
                assert str(info.value) == (f"expected-count threshold for step {n}, "
                                           f"length {k} not found within {limit} positions")
            monkeypatch.undo()


def test_schedule_ladder_log_preset(log_preset):
    s = Schedule(log_preset)
    assert [s.level(n) for n in (1, 2, 3)] == [4, 252, 2097148]
    for n in (1, 2, 3):
        terms = s.level_terms(n)
        assert s.level(n) == max(terms.values())
        assert s.level(n) >= s.level(n - 1) + n * n
        assert s.level(n) >= s.level(n - 1) + s.log_mass_threshold(n)
        assert s.level(n) >= max(s.count_threshold(n, k) for k in range(1, n + 1))
        assert s.level(n) >= terms["modulus"]
    assert s.segment_index(3) == 0
    assert s.segment_index(4) == 1
    assert s.segment_index(251) == 1
    assert s.segment_index(252) == 2


def test_schedule_segments_and_digits(log_preset):
    s = Schedule(log_preset)
    assert segment_positions(s, 10**4) == [4, 252, 253]
    donor_prefix = s.donor_digits.prefix(2)
    d = s.prefix(300)
    assert d[3] == donor_prefix[0]
    assert d[251] == donor_prefix[0] and d[252] == donor_prefix[1]
    q = log_preset.bases(1, 300)
    assert (d <= q - 1).all()
    assert s.clamp_events == 0


def test_schedule_floor_term(log_preset):
    # past the second segment the non-donor digits respect ceil(log i(n)) = 1
    s = Schedule(log_preset)
    d = s.prefix(300)
    for n in range(254, 300):
        assert d[n - 1] >= 1


def test_schedule_digits_follow_driver(log_preset):
    s = Schedule(log_preset)
    d = s.prefix(250)
    ud = UDSource("vdc")
    for n in (5, 6, 100, 249):
        q = log_preset.base_at(n)
        x = ud.value(n)
        assert d[n - 1] == max((x.numerator * q) // x.denominator, 0)


def test_modulus_of_divergence(log_preset, iterated_log):
    assert divergence_modulus(log_preset, 0) == 1
    assert divergence_modulus(log_preset, 1) == 4        # first base >= 3
    assert divergence_modulus(log_preset, 2) == 252      # first base >= 8
    assert divergence_modulus(log_preset, 3) == 2097148
    assert divergence_modulus(iterated_log, 1) == 252    # iterated log reaches 3 at 2**8 - 4
    with pytest.raises(ArgumentError):
        divergence_modulus(ConstantSequence(5), 0)


def test_modulus_past_the_float_levels_is_a_scan_bound():
    # e**6 > 400 asks for base-10 levels past 308, where 10.0**c overflows
    for seq in (IndexLogSequence("10"),
                PointwiseSequence(PresetSequence("log"), "log-of", "10")):
        with pytest.raises(ScanBoundError):
            divergence_modulus(seq, 6)


@pytest.mark.parametrize("log_base, last", [("10", 308), ("e", 709)])
def test_position_search_at_the_last_float_level(log_base, last):
    # index-log reaches base c at level c - 2: the last level whose start
    # b**c is a finite float is found, the next one is refused
    seq = IndexLogSequence(log_base)
    t = seq.first_position(last + 2)
    assert seq.base_at(t) == last + 2 and seq.base_at(t - 1) == last + 1
    with pytest.raises(ScanBoundError):
        seq.first_position(last + 3)
    # log-of hands level `last` to the inner sequence, which refuses its own
    # scale; level last + 1 is refused before any float overflows
    pointwise = PointwiseSequence(PresetSequence("log"), "log-of", log_base)
    with pytest.raises(ScanBoundError, match="preset:log"):
        pointwise.first_position(last)
    with pytest.raises(ScanBoundError, match=f"level {last + 1} "):
        pointwise.first_position(last + 1)


def test_modulus_runtime_checks(monkeypatch):
    # a first_position one step early breaks log q_t > n, one step late
    # breaks minimality (log q_{t-1} <= n); both are caught at call time
    for seq in (PresetSequence("log"), PresetSequence("iterated-log"), IndexLogSequence()):
        first_position = seq.first_position
        for shift, error in ((-1, "inconsistent"), (1, "not minimal")):
            monkeypatch.setattr(seq, "first_position",
                                lambda c, s=shift: first_position(c) + s)
            with pytest.raises(ArgumentError, match=error):
                divergence_modulus(seq, 2)


def test_patched_stream_wiring(log_preset):
    x = build_patched_uniform(log_preset)
    d = x.prefix(400)
    assert x.schedule.clamp_events == 0
    assert d.min() >= 0
    assert x.description["op"] == "schedule-patch"
    with pytest.raises(ArgumentError):
        build_patched_uniform(ConstantSequence(3))


class _FixedLevels(Schedule):
    """A schedule with given levels: reaches segment indices and bases that
    the real ladder only reaches astronomically far out."""

    def __init__(self, target, levels, **kwargs):
        super().__init__(target, **kwargs)
        self.fixed = levels

    def level(self, n):
        if n >= len(self.fixed):
            raise ScanBoundError(f"no level {n}")
        return self.fixed[n]


_PRESETS = [PresetSequence("log"), PresetSequence("iterated-log"), IndexLogSequence()]


# caplog is cleared before each input's two runs
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(_PRESETS),
    kind=st.sampled_from(UDSource.KINDS),
    gaps=st.one_of(st.none(), st.lists(st.integers(1, 9), min_size=1, max_size=60)),
    count=st.integers(0, 700),
    chunk=st.integers(1, 300),
)
def test_schedule_prefix_matches_digit(caplog, target, kind, gaps, count, chunk):
    # gaps None runs the real ladder; short gaps give segment indices whose
    # digit floor ceil(log i) passes the base, which forces clamps
    def make():
        if gaps is None:
            return Schedule(target, ud=UDSource(kind))
        levels = [0]
        for g in gaps:
            levels.append(levels[-1] + g)
        return _FixedLevels(target, levels + [2**300], ud=UDSource(kind))

    caplog.clear()
    with caplog.at_level("WARNING", logger="cantornormal"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_PREFIX_CHUNK", chunk)
        bulk = make()
        got = bulk.prefix(count).tolist()
        bulk_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        oracle = make()
        want = [oracle.digit(n) for n in range(1, count + 1)]
        oracle_log = [r.getMessage() for r in caplog.records]
    assert got == want
    assert bulk.clamp_events == oracle.clamp_events == len(oracle_log)
    assert bulk_log == oracle_log


def test_schedule_prefix_clamps_in_order(caplog):
    # iterated-log bases are 2 below position 252: driver digits from
    # segment 3 on (floor ceil(ln i) >= 2) and donor digits above 1 clamp
    levels = [0] + list(range(5, 400, 5)) + [2**300]
    with caplog.at_level("WARNING", logger="cantornormal"):
        s = _FixedLevels(PresetSequence("iterated-log"), levels)
        s.prefix(400)
        bulk_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        oracle = _FixedLevels(PresetSequence("iterated-log"), levels)
        [oracle.digit(n) for n in range(1, 401)]
    assert s.clamp_events == oracle.clamp_events > 40
    assert bulk_log == [r.getMessage() for r in caplog.records]
    assert bulk_log[0] == "clamped digit at position 18"


def test_schedule_prefix_clamps_before_a_failing_level(caplog):
    # level 40 cannot be computed; digit(n) first needs it at n = L(39) = 195
    levels = [0] + list(range(5, 200, 5))
    with caplog.at_level("WARNING", logger="cantornormal"):
        s = _FixedLevels(PresetSequence("iterated-log"), levels)
        with pytest.raises(ScanBoundError, match="no level 40"):
            s.prefix(400)
        bulk_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        oracle = _FixedLevels(PresetSequence("iterated-log"), levels)
        with pytest.raises(ScanBoundError, match="no level 40"):
            [oracle.digit(n) for n in range(1, 401)]
    assert s.clamp_events == oracle.clamp_events > 20
    assert bulk_log == [r.getMessage() for r in caplog.records]
    assert bulk_log[-1] == "clamped digit at position 194"


@pytest.mark.parametrize("kind, count, bits", [("vdc", 100, 7), ("farey", 100, 5)])
def test_schedule_prefix_lead_width_edge(kind, count, bits):
    # vdc leads are rev(n) * q with rev(n) < 2**bits(n); farey leads are
    # a * q with a < d; both are formed in int64
    levels = [0, 3, 9, 2**300]
    q = 2 ** (63 - bits) - 1
    s = _FixedLevels(ConstantSequence(q), levels, ud=UDSource(kind))
    assert s.prefix(count).tolist() == [s.digit(n) for n in range(1, count + 1)]
    wide = _FixedLevels(ConstantSequence(q + 1), levels, ud=UDSource(kind))
    with pytest.raises(ArgumentError, match="does not fit an int64"):
        wide.prefix(count)
    assert wide.digit(count) >= 0  # the big-int oracle has no such limit


def test_patched_stream_farey_driver(log_preset):
    x = build_patched_uniform(log_preset, ud=UDSource("farey"))
    d = x.prefix(100)
    q = log_preset.bases(1, 100)
    assert (d <= q - 1).all()
