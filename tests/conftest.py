"""Shared fixtures for the test suite.

Expensive objects (the full synthetic corpus, trained parameters, the
honeypot) are built once per session; tests that mutate state build
their own instances.

The shared-memory transport additionally arms an autouse leak hunter:
every test runs between two snapshots of the ``/dev/shm`` ring
segments and of the parent-side resource-tracker registrations, so any
lifecycle path that forgets to ``unlink()`` a ring (close, escalated
close, reshard, crash+heal, ``__exit__`` on error, ...) fails the test
that leaked it rather than surfacing as a tracker warning at exit.
Only segments this process registered count: a ring that another
process on the host creates meanwhile is none of the test's doing.
"""

from __future__ import annotations

import multiprocessing.resource_tracker as _resource_tracker
import os

import pytest

from repro.core import DEFAULT_VOCABULARY, train_from_incidents
from repro.incidents import DEFAULT_CATALOGUE, IncidentGenerator
from repro.testbed import Honeypot, build_default_topology
from repro.testbed.shm_ring import SEGMENT_PREFIX

from ring_leaks import leaked_segments

# -- shm leak hunting -------------------------------------------------
#
# ``SharedMemory`` registers segments with the resource tracker under
# their leading-slash posix name; wrapping register/unregister at
# import time lets the fixture assert that every ring created in the
# parent process was balanced by an unlink before the test ended --
# which is exactly the condition for "no resource_tracker warnings at
# interpreter exit".  Only ring-prefixed names are tracked; all other
# shared memory is passed through untouched.

_LIVE_RING_REGISTRATIONS: set = set()
# Every ring name this process ever registered (never shrinks).
_RING_REGISTRATIONS_SEEN: set = set()
_original_register = _resource_tracker.register
_original_unregister = _resource_tracker.unregister


def _tracking_register(name, rtype):
    if rtype == "shared_memory" and SEGMENT_PREFIX in name:
        _LIVE_RING_REGISTRATIONS.add(name)
        _RING_REGISTRATIONS_SEEN.add(name)
    return _original_register(name, rtype)


def _tracking_unregister(name, rtype):
    if rtype == "shared_memory" and SEGMENT_PREFIX in name:
        _LIVE_RING_REGISTRATIONS.discard(name)
    return _original_unregister(name, rtype)


_resource_tracker.register = _tracking_register
_resource_tracker.unregister = _tracking_unregister


def ring_segments_on_disk() -> set:
    """Names of ring segments currently backing files in ``/dev/shm``."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except OSError:  # pragma: no cover - non-POSIX /dev/shm layout
        return set()


@pytest.fixture(autouse=True)
def no_leaked_ring_segments():
    """Fail any test that leaks a ring segment or tracker registration."""
    disk_before = ring_segments_on_disk()
    tracked_before = set(_LIVE_RING_REGISTRATIONS)
    seen_before = set(_RING_REGISTRATIONS_SEEN)
    yield
    leaked = leaked_segments(disk_before, ring_segments_on_disk(), _RING_REGISTRATIONS_SEEN - seen_before)
    assert not leaked, f"leaked /dev/shm ring segment(s): {sorted(leaked)}"
    dangling = _LIVE_RING_REGISTRATIONS - tracked_before
    assert not dangling, (
        "ring segment(s) left registered with the resource tracker "
        f"(unlink never ran): {sorted(dangling)}"
    )


@pytest.fixture
def ring_registrations() -> set:
    """Every ring name this process registered so far (a live set, never
    shrinking): a test diffs it to tell its own rings from another
    process's, by the rule of ``ring_leaks.leaked_segments``."""
    return _RING_REGISTRATIONS_SEEN


@pytest.fixture(scope="session")
def generator():
    """A seeded incident generator (session-wide)."""
    return IncidentGenerator(seed=7)


@pytest.fixture(scope="session")
def corpus(generator):
    """The default 228-incident synthetic corpus."""
    return generator.generate_corpus()


@pytest.fixture(scope="session")
def benign_sequences():
    """Benign per-entity sequences for training/evaluation negatives."""
    return IncidentGenerator(seed=99).generate_benign_sequences(120)


@pytest.fixture(scope="session")
def trained_parameters(corpus, benign_sequences):
    """Factor parameters trained on the full corpus plus benign traffic."""
    return train_from_incidents(
        corpus.attack_sequences(),
        benign_sequences,
        vocabulary=DEFAULT_VOCABULARY,
        patterns=list(DEFAULT_CATALOGUE),
    )


@pytest.fixture()
def honeypot():
    """A fresh honeypot per test (tests compromise it)."""
    return Honeypot()


@pytest.fixture(scope="session")
def topology():
    """The default simulated cluster topology (read-mostly)."""
    return build_default_topology()
