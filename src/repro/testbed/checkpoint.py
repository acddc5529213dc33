"""Durable pipeline checkpoints: atomic, versioned snapshot files.

The ROADMAP's north-star is an always-on detection service; a service
that loses every per-entity decoder window on restart is not one.  This
module provides the persistence layer:

* :func:`write_checkpoint` / :func:`read_checkpoint` -- one snapshot
  payload per file, framed as ``magic || version || pickle`` and
  written *atomically*: the bytes go to a temp file in the destination
  directory, are fsynced, and are renamed over the target
  (``os.replace``), followed by a directory fsync, so a crash mid-write
  can never leave a torn checkpoint behind -- the file either is the
  complete new snapshot or does not exist.
* :class:`CheckpointStore` -- a directory of numbered checkpoints with
  monotonically increasing sequence numbers, optional retention
  (``keep_last``), and ``save``/``load_latest`` convenience wrappers
  around :meth:`repro.testbed.pipeline.TestbedPipeline.checkpoint` /
  :meth:`~repro.testbed.pipeline.TestbedPipeline.restore`.

The payload itself is produced by the pipeline (see
``TestbedPipeline._checkpoint_payload``); this module only frames and
persists it, and provides :func:`model_digest`, the value fingerprint
of a pool's template that the payload's config records.  The format is
versioned: :data:`CHECKPOINT_VERSION` bumps whenever the payload schema
changes, and a mismatched version fails loudly with
:class:`CheckpointError` before anything is unpickled.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
from pathlib import Path
from typing import List, Optional

#: File magic: identifies a repro testbed checkpoint ("RePRo ChecKPoinT").
CHECKPOINT_MAGIC = b"RPRCKPT1"

#: Payload schema version (little-endian u32 after the magic).  A file
#: of any other version is refused, not migrated.  Version 4: shards
#: hold exported tracks, not pickled replicas; the config holds each
#: pool's :func:`model_digest`; no wall clock, scan records, audit log
#: or scan filter stats.  Version 5: the payload is grouped by declared
#: component (``{component: {attribute: value}}``, see
#: ``TestbedPipeline._stateful``), carries the normaliser's counters,
#: and holds no honeypot.  Version 6: it carries the sanitiser's audit
#: report.  Version 7: a tagger's track holds its alert names, not
#: :class:`~repro.core.alerts.Alert` objects.
CHECKPOINT_VERSION = 7

_HEADER = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """A checkpoint file could not be written, read, or validated."""


class _CanonicalPickler(pickle._Pickler):
    """Pickler whose bytes are a pure function of the payload *values*.

    The stock pickler memoises by object identity, so two payloads with
    equal values serialise differently depending on which equal strings
    happen to be the same object -- a live pipeline shares e.g. the
    detector-name string between its config and its detection log,
    while a restored one holds distinct (equal) copies.  Checkpoint
    byte-identity (checkpoint -> restore -> checkpoint) requires the
    bytes not to depend on such identity accidents, so equal ``str`` /
    ``bytes`` atoms are mapped to one representative before
    memoisation: sharing becomes by value, deterministically.  A set is
    written in sorted order, never in the process's hash order.  (The
    pure-Python pickler is used because the C pickler's memoisation is
    not overridable; checkpoint I/O is not on the per-batch hot path.)
    """

    def __init__(self, file, protocol: int) -> None:
        super().__init__(file, protocol)
        self._canonical: dict = {}

    def save(self, obj, save_persistent_id: bool = True):
        if type(obj) in (str, bytes):
            obj = self._canonical.setdefault(obj, obj)
        return super().save(obj, save_persistent_id)

    def save_set(self, obj: set) -> None:
        self.save_reduce(set, (sorted(obj),), obj=obj)

    dispatch = {**pickle._Pickler.dispatch, set: save_set}


def _canonical_dumps(payload: object) -> bytes:
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


class _ModelPickler(pickle.Pickler):
    """Pickler for :func:`model_digest`: a set is written as its sorted
    members, never in the process's hash order (as a persistent id: the
    C pickler has no other hook for a set, and the bytes are only hashed)."""

    def persistent_id(self, obj):
        if type(obj) in (set, frozenset):
            return type(obj).__name__, sorted(obj, key=repr)
        return None


def model_digest(detector: object) -> str:
    """sha256 of a pristine detector's pickle: the same in every process
    that builds the model the same way, whatever its hash seed."""
    buffer = io.BytesIO()
    _ModelPickler(buffer, pickle.HIGHEST_PROTOCOL).dump(detector)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss (POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory handle
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dir unsupported
        pass
    finally:
        os.close(fd)


def write_checkpoint(path: os.PathLike, payload: object) -> int:
    """Atomically persist one checkpoint payload to ``path``.

    Serialises ``payload``, writes ``magic || version || body`` to a
    temp file next to the destination, fsyncs, renames over ``path``,
    and fsyncs the directory.  Returns the file size in bytes.  Raises
    :class:`CheckpointError` if the payload cannot be pickled; any
    partially written temp file is removed on failure.
    """
    path = Path(path)
    try:
        body = _canonical_dumps(payload)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload is not picklable: {exc!r}") from exc
    blob = CHECKPOINT_MAGIC + _HEADER.pack(CHECKPOINT_VERSION) + body
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
    return len(blob)


def read_checkpoint(path: os.PathLike) -> object:
    """Load and validate one checkpoint file; return its payload.

    Raises :class:`CheckpointError` on a missing file, bad magic,
    unsupported version, or a corrupt/truncated body.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"{path} is not a checkpoint file (bad magic "
            f"{blob[: len(CHECKPOINT_MAGIC)]!r})"
        )
    offset = len(CHECKPOINT_MAGIC)
    if len(blob) < offset + _HEADER.size:
        raise CheckpointError(f"{path} is truncated (no version header)")
    (version,) = _HEADER.unpack_from(blob, offset)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}"
        )
    try:
        return pickle.loads(blob[offset + _HEADER.size :])
    except Exception as exc:
        raise CheckpointError(f"{path} body is corrupt: {exc!r}") from exc


class CheckpointStore:
    """A directory of numbered pipeline checkpoints.

    Files are named ``checkpoint-{seq:08d}.ckpt`` with strictly
    increasing sequence numbers; :meth:`save` writes the next sequence
    atomically and (with ``keep_last``) prunes the oldest files beyond
    the retention bound *after* the new checkpoint is durable, so the
    store never transitions through a state with fewer checkpoints
    than it had before.
    """

    _PATTERN = "checkpoint-{seq:08d}.ckpt"

    def __init__(self, directory: os.PathLike, *, keep_last: Optional[int] = None) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None for unbounded)")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- enumeration -----------------------------------------------------
    def sequences(self) -> List[int]:
        """Sorted sequence numbers of the checkpoints on disk."""
        found = []
        for entry in self.directory.glob("checkpoint-*.ckpt"):
            stem = entry.name[len("checkpoint-") : -len(".ckpt")]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def path_for(self, sequence: int) -> Path:
        """The file path a sequence number maps to."""
        return self.directory / self._PATTERN.format(seq=sequence)

    def latest(self) -> Optional[Path]:
        """Path of the newest checkpoint, or ``None`` if the store is empty."""
        sequences = self.sequences()
        if not sequences:
            return None
        return self.path_for(sequences[-1])

    # -- save / load -----------------------------------------------------
    def save(self, pipeline) -> Path:
        """Checkpoint ``pipeline`` as the next sequence; prune retention."""
        sequences = self.sequences()
        next_seq = (sequences[-1] + 1) if sequences else 1
        path = self.path_for(next_seq)
        pipeline.checkpoint(path)
        if self.keep_last is not None:
            for stale in sequences[: max(0, len(sequences) + 1 - self.keep_last)]:
                self.path_for(stale).unlink(missing_ok=True)
        return path

    def load_latest(self, pipeline) -> Path:
        """Restore ``pipeline`` from the newest checkpoint in the store."""
        path = self.latest()
        if path is None:
            raise CheckpointError(f"no checkpoints in {self.directory}")
        pipeline.restore(path)
        return path


__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointStore",
    "model_digest",
    "read_checkpoint",
    "write_checkpoint",
]
