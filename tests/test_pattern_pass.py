"""The stacked kernel's pattern pass against the per-alert path and the spec.

A windowed step that touches pattern state -- a match advances, or its
first step is evicted and the match is rescanned -- is taken by the
kernel's pattern pass (``BatchedDecodeKernel._advance_patterned``) many
steps and rows at a time, and by ``streaming.slide`` one step at
a time.  Pinned here, on streams where every symbol is in some pattern:

* **the property** -- random catalogues (lengths 1-5, symbols repeated
  inside a pattern), windows of 2, 3, 5 and 32 steps and random
  sub-batch splits give the detections of ``observe`` and of
  ``engine="naive"``, and leave every slot's match arrays and every
  arena row (unary ring, ``agg_max``, start / boundary / end) exactly as
  ``observe`` leaves them;
* **named rescans** -- a rescan relocating a bonus onto the new head, and
  onto a step on each side of the two-stack boundary, through both
  drivers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AttackTagger, default_parameters
from repro.core.alerts import Alert
from repro.core.attack_tagger import PatternSpec
from repro.core.sequences import matched_prefix_length

from test_batch_kernel import _match_state
from test_sliding_window import assert_same_window, matched_prefix_lengths, unary_table, window_of

SYMBOLS = ["alert_port_scan", "alert_ssh_key_enumeration", "alert_vuln_scan", "alert_address_sweep"]
FILLER = "alert_login_normal"


def _detections(pairs):
    return [
        (position, d.entity, d.alert_index, d.confidence, d.matched_patterns, d.state_trajectory)
        for position, d in pairs
    ]


def _drive(stream, splits, **kwargs):
    """``(stacked, per_alert, naive)`` taggers after ``stream``, and their
    detections; the stacked one takes it in sub-batches of ``splits``."""
    stacked, per_alert, naive = (
        AttackTagger(engine=engine, **kwargs) for engine in ("streaming", "streaming", "naive")
    )
    found = []
    low = 0
    for size in splits:
        if low >= len(stream):
            break
        found += [(low + position, d) for position, d in stacked.observe_batch_indexed(stream[low : low + size])]
        low += size
    found += [(low + position, d) for position, d in stacked.observe_batch_indexed(stream[low:])]
    hits = [_detections(found)]
    for tagger in (per_alert, naive):
        pairs = [(position, tagger.observe(alert)) for position, alert in enumerate(stream)]
        hits.append(_detections([(position, d) for position, d in pairs if d is not None]))
    return (stacked, per_alert, naive), hits


def _assert_same_state(stacked, per_alert, naive):
    """Matches and arena rows as ``observe`` leaves them, read-outs as ``naive``."""
    for entity in naive.entities():
        track_s, track_p = stacked.track(entity), per_alert.track(entity)
        assert (track_s.detected is None) == (track_p.detected is None)
        if track_s.detected is not None:
            continue
        assert _match_state(stacked, track_s) == _match_state(per_alert, track_p)
        windowed = stacked._arena.slots.row[track_s.slot] >= 0
        assert windowed == (per_alert._arena.slots.row[track_p.slot] >= 0)
        if windowed:
            assert_same_window(window_of(stacked, entity), window_of(per_alert, entity))
        window = list(naive.track(entity).names)
        unary, matched = naive._build_unary(window)
        assert np.array_equal(unary_table(stacked, entity), unary)
        assert matched_prefix_lengths(stacked, entity) == [
            matched_prefix_length(pattern.names, window) for pattern in stacked._arena.matches.patterns
        ]
        states, marginal, names = naive.infer(entity)
        for tagger in (stacked, per_alert):
            got = tagger.infer(entity)
            assert np.array_equal(got[0], states) and np.array_equal(got[1], marginal)
            assert got[2] == names == matched


@st.composite
def _case(draw):
    shapes = draw(
        st.lists(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=5).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    used = sorted({symbol for shape in shapes for symbol in shape})
    max_window = draw(st.sampled_from((2, 3, 5, 32)))
    n_entities = draw(st.integers(1, 4))
    # Enough for every entity's window to slide.
    length = draw(st.integers(n_entities * (max_window + 1), n_entities * (2 * max_window + 4)))
    picks = draw(st.lists(st.tuples(st.sampled_from(used), st.integers(0, n_entities - 1)), min_size=length, max_size=length))
    splits = draw(st.lists(st.integers(1, 2 * max_window + 8), min_size=1, max_size=12))
    threshold = draw(st.sampled_from((0.5, 0.9, 1 - 1e-9)))
    # Weights whose bonuses round differently when summed out of order.
    weights = draw(st.lists(st.sampled_from((0.1, 0.7, 1.3, 2.9, 3.7)), min_size=len(shapes), max_size=len(shapes)))
    return shapes, max_window, picks, splits, threshold, weights


class TestPatternPassIsThePerAlertPath:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_case())
    def test_random_catalogues_streams_and_splits(self, case):
        shapes, max_window, picks, splits, threshold, weights = case
        patterns = [PatternSpec(f"P{index}", shape) for index, shape in enumerate(shapes)]
        parameters = default_parameters()
        parameters.pattern_weights = {pattern.name: weight for pattern, weight in zip(patterns, weights)}
        stream = [Alert(float(t), name, f"entity:{e}") for t, (name, e) in enumerate(picks)]
        taggers, hits = _drive(
            stream,
            splits,
            parameters=parameters,
            patterns=patterns,
            max_window=max_window,
            detection_threshold=threshold,
        )
        assert hits[0] == hits[1] == hits[2]
        _assert_same_state(*taggers)


class TestNamedRescans:
    """Pattern (A, B) at W = 8: after the window opens at step 8 it holds
    steps 1-8, all in the front (boundary 9), and A at step 2 is the
    match.  Step 10 evicts it, and the rescan moves the bonus to the next
    A: here step 3 (the new head), step 5 (a front step) or step 9 (pushed
    at step 9, a back step).  The stream goes on long enough for the
    kernel to take the rescan through its pattern pass."""

    A, B = "alert_port_scan", "alert_ssh_key_enumeration"
    WINDOW = 8

    def _stream(self, second):
        names = [FILLER] * 24
        names[2] = names[second] = self.A
        return [Alert(float(t), name, "entity:x") for t, name in enumerate(names)]

    @pytest.mark.parametrize("second, side", [(3, "head"), (5, "front"), (9, "back")])
    def test_rescan_relocates_the_bonus(self, second, side):
        stream = self._stream(second)
        common = dict(patterns=[PatternSpec("P", (self.A, self.B))], max_window=self.WINDOW, detection_threshold=1 - 1e-9)
        # Where the relocated bonus lands, read off the per-alert path.
        probe = AttackTagger(**common)
        for alert in stream[:10]:
            probe.observe(alert)
        row = window_of(probe, "entity:x")[1]
        start, boundary = int(probe._arena.start[row]), int(probe._arena.boundary[row])
        assert probe._arena.matches.first[probe._arena.slots.match[probe.track("entity:x").slot], 0] == start
        probe.observe(stream[10])  # evicts step 2
        last = _match_state(probe, probe.track("entity:x"))[2][0]
        assert last == second
        landed = "head" if last == start + 1 else ("front" if last < boundary else "back")
        assert landed == side
        for splits in ([len(stream)], [9, 15], [1] * len(stream)):
            taggers, hits = _drive(stream, splits, **common)
            assert hits[0] == hits[1] == hits[2] == []
            _assert_same_state(*taggers)
            # The pattern pass took the rescan, unless one-alert batches left it too few steps.
            assert (taggers[0]._batch_kernel.rows_patterned > 0) == (len(splits) < len(stream))
