"""Delta-debugging shrinker for failing campaigns.

When the differential oracle finds a divergence (or a crash), the raw
campaign is typically hundreds of alerts across dozens of entities --
useless as a regression artefact.  :func:`shrink_campaign` reduces it
to a (locally) minimal failing campaign with classic ddmin-style
passes:

1. **Event-level** reduction: remove contiguous chunks of events
   (halving granularity, like ddmin) while the failure persists.
2. **Batch-level** reduction: within each surviving batch event,
   remove contiguous chunks of alerts.
3. **Control stripping**: drop control events that are not needed for
   the failure.

The failure predicate is caller-supplied (usually "the oracle reports a
divergence for this campaign" against the configs that failed), so the
shrinker never needs to know *why* the campaign fails -- it only
preserves the property.  Every candidate evaluation replays the
campaign, so the predicate budget is bounded by ``max_evaluations``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from .campaign import Campaign, CampaignEvent

FailurePredicate = Callable[[Campaign], bool]


class _Budget:
    """Evaluation counter shared by all passes."""

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit


def _with_events(campaign: Campaign, events: list[CampaignEvent]) -> Campaign:
    label = campaign.label
    if not label.endswith("-shrunk"):
        label = f"{label}-shrunk" if label else "shrunk"
    return dataclasses.replace(campaign, events=tuple(events), label=label)


def _still_fails(
    campaign: Campaign, failing: FailurePredicate, budget: _Budget
) -> bool:
    if budget.exhausted:
        return False
    budget.used += 1
    try:
        return bool(failing(campaign))
    except Exception:
        # A predicate crash counts as a failure reproduction: the
        # shrinker's job is to keep whatever misbehaviour it was given.
        return True


def _ddmin_chunks(
    items: list, keep_failing: Callable[[list], bool], budget: _Budget
) -> list:
    """Classic ddmin over a list: remove chunks at halving granularity."""
    n_chunks = 2
    while len(items) >= 2 and not budget.exhausted:
        size = max(1, len(items) // n_chunks)
        reduced = False
        start = 0
        while start < len(items) and not budget.exhausted:
            candidate = items[:start] + items[start + size :]
            if candidate != items and keep_failing(candidate):
                items = candidate
                reduced = True
            else:
                start += size
        if reduced:
            n_chunks = max(n_chunks - 1, 2)
        elif size <= 1:
            break
        else:
            n_chunks = min(n_chunks * 2, len(items))
    return items


def shrink_campaign(
    campaign: Campaign,
    failing: FailurePredicate,
    *,
    max_evaluations: int = 400,
) -> Campaign:
    """Reduce a failing campaign to a (locally) minimal one.

    ``failing(campaign)`` must return ``True`` while the campaign still
    reproduces the original failure.  If the input campaign does not
    fail under the predicate it is returned unchanged (nothing to
    preserve, nothing to shrink).
    """
    budget = _Budget(max_evaluations)
    if not _still_fails(campaign, failing, budget):
        return campaign

    # Pass 1: event-level ddmin.
    events = _ddmin_chunks(
        list(campaign.events),
        lambda candidate: _still_fails(
            _with_events(campaign, candidate), failing, budget
        ),
        budget,
    )

    # Pass 2: alert-level ddmin inside each batch event.
    for index, event in enumerate(events):
        if event.kind != "batch" or not event.alerts or budget.exhausted:
            continue

        def fails_with_alerts(alerts: list) -> bool:
            candidate = list(events)
            candidate[index] = CampaignEvent(kind="batch", alerts=tuple(alerts))
            return _still_fails(_with_events(campaign, candidate), failing, budget)

        kept = _ddmin_chunks(list(event.alerts), fails_with_alerts, budget)
        events[index] = CampaignEvent(kind="batch", alerts=tuple(kept))

    # Pass 3: drop now-empty batches and unnecessary control events.
    for index in reversed(range(len(events))):
        if budget.exhausted:
            break
        event = events[index]
        removable = event.kind != "batch" or not event.alerts
        if not removable:
            continue
        candidate = events[:index] + events[index + 1 :]
        if _still_fails(_with_events(campaign, candidate), failing, budget):
            events = candidate

    return _with_events(campaign, events)


def shrink_for_oracle(
    campaign: Campaign,
    oracle,
    *,
    verdict=None,
    max_evaluations: int = 200,
) -> Optional[Campaign]:
    """Shrink a campaign that diverged under ``oracle``.

    Pass the failing :class:`~repro.fuzz.oracle.CampaignVerdict` as
    ``verdict`` to avoid re-replaying the full matrix; it is computed
    here otherwise.  Returns ``None`` if the campaign does not actually
    fail (nothing to record).

    The shrink predicate replays only the configurations that diverged
    (plus the reference), not the whole matrix: each candidate
    evaluation is then a handful of pipeline replays instead of one per
    matrix entry, which is what makes ``max_evaluations`` candidates
    affordable.
    """
    if verdict is None:
        verdict = oracle.run(campaign)
    if verdict.ok:
        return None
    diverged = list(dict.fromkeys(d.config for d in verdict.divergences))
    focused = type(oracle)(diverged, reference=oracle.reference)
    return shrink_campaign(
        campaign,
        lambda candidate: not focused.run(candidate).ok,
        max_evaluations=max_evaluations,
    )


__all__ = ["FailurePredicate", "shrink_campaign", "shrink_for_oracle"]
