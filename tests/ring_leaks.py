"""The verdict of the suite's shared-memory leak hunter, as a pure function.

``conftest.no_leaked_ring_segments`` snapshots the ``/dev/shm`` ring
segments and this process's resource-tracker registrations around
every test; :func:`leaked_segments` decides from those snapshots alone,
so it is unit-tested without making a ring.
"""

from __future__ import annotations


def leaked_segments(disk_before: set, disk_after: set, registered: set) -> set:
    """Ring segments a test leaked: on disk after it and not before, and
    among the names this process ``registered`` while it ran (posix
    names, with their leading slash; the disk listing has none).  A
    segment another process made meanwhile is not the test's leak."""
    ours = {name.lstrip("/") for name in registered}
    return (disk_after - disk_before) & ours
