"""On-disk simulator checkpoints: versioned, atomic, self-describing.

A checkpoint is one pickle file holding a :class:`Checkpoint` payload —
the session's identity (prefetcher registry name, workload label, full
:class:`~repro.config.SimConfig`), its stream position, and the deep
:meth:`~repro.sim.engine.SystemSimulator.state_dict` snapshot.  Restoring
rebuilds the simulator from the stored config through the prefetcher
registry and loads the state on top, so a resumed session continues
bit-identically to the original run (``tests/test_service_state.py``).

Files are written to a temporary sibling and :func:`os.replace`\\ d into
place, so a crash mid-write leaves the previous checkpoint intact —
readers only ever observe complete files.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.config import SimConfig
from repro.errors import CheckpointError, CheckpointMismatchError
from repro.obs import attach_lineage, attach_observability
from repro.prefetch.registry import make_prefetcher
from repro.sim.engine import SystemSimulator
# Re-exported: the fingerprint moved to the shared provenance helper so
# campaign-cell provenance and BENCH writers use the same hash, but every
# service-layer caller keeps importing it from here.
from repro.utils.provenance import config_fingerprint  # noqa: F401

PathLike = Union[str, Path]

#: First bytes of every checkpoint payload; rejects arbitrary pickles.
CHECKPOINT_MAGIC = "planaria-checkpoint"
#: Bump on any incompatible change to the state layout.  Version 2: TLP
#: state carries the RPT bucket index and per-entry access stamps.
CHECKPOINT_VERSION = 2


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename).

    The temporary file lives in the target directory so the final
    :func:`os.replace` is a same-filesystem rename (atomic on POSIX):
    a crash — up to and including ``kill -9`` — mid-write leaves the
    previous file intact, and readers only ever observe complete files.
    Shared by simulator checkpoints and campaign progress state.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


@dataclass
class Checkpoint:
    """Everything needed to rebuild and resume one simulation session."""

    prefetcher: str
    workload: str
    config: SimConfig
    records_fed: int
    chunks_fed: int
    state: dict
    magic: str = CHECKPOINT_MAGIC
    version: int = CHECKPOINT_VERSION
    extra: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """The prefetcher/config fingerprint this checkpoint was written
        under (derived, so checkpoints from older builds carry it too)."""
        return config_fingerprint(self.prefetcher, self.config)


def validate_restore(name: str, checkpoint: Checkpoint,
                     prefetcher: Optional[str] = None,
                     config: Optional[SimConfig] = None) -> None:
    """Refuse to restore a checkpoint into a differently-configured engine.

    ``prefetcher``/``config`` describe the engine the caller is about to
    ``load_state()`` into (``None`` means "taken from the checkpoint
    itself", which is always compatible).  Raises
    :class:`~repro.errors.CheckpointMismatchError` naming both
    fingerprints on any divergence — *before* any state is loaded, so a
    mismatched restore can never leave a half-loaded simulator behind.
    """
    target_prefetcher = (checkpoint.prefetcher if prefetcher is None
                         else prefetcher)
    target_config = checkpoint.config if config is None else config
    expected = checkpoint.fingerprint
    actual = config_fingerprint(target_prefetcher, target_config)
    if expected != actual:
        details = []
        if target_prefetcher != checkpoint.prefetcher:
            details.append(f"prefetcher {checkpoint.prefetcher!r} != "
                           f"{target_prefetcher!r}")
        if config is not None and config != checkpoint.config:
            details.append("config differs")
        raise CheckpointMismatchError(name, expected, actual,
                                      detail="; ".join(details))


def save_checkpoint(path: PathLike, checkpoint: Checkpoint) -> Path:
    """Atomically write a checkpoint; returns the final path."""
    return atomic_write_bytes(
        path, pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises:
        CheckpointError: missing file, not a checkpoint, or an
            incompatible version.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint: {exc}") from exc
    if not isinstance(payload, Checkpoint) or payload.magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a planaria checkpoint")
    if payload.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {payload.version}, "
            f"this build reads version {CHECKPOINT_VERSION}")
    return payload


def build_simulator(prefetcher: str, config: SimConfig,
                    extra: Optional[dict] = None) -> SystemSimulator:
    """A fresh registry-built simulator with every hook ``extra`` names.

    ``extra`` uses :attr:`Checkpoint.extra`'s vocabulary:
    ``epoch_records`` attaches timelines and events, ``lineage`` attaches
    lineage.  New sessions and restores both build here.
    """
    simulator = SystemSimulator(
        config, lambda layout, channel: make_prefetcher(prefetcher, layout,
                                                        channel))
    extra = extra or {}
    if extra.get("epoch_records"):
        attach_observability(simulator,
                             epoch_records=int(extra["epoch_records"]))
    if extra.get("lineage"):
        attach_lineage(simulator)
    return simulator


def restore_simulator(checkpoint: Checkpoint,
                      prefetcher: Optional[str] = None,
                      config: Optional[SimConfig] = None) -> SystemSimulator:
    """Rebuild a live simulator from a checkpoint, mid-trace state loaded.

    The one restore path (``Session.from_checkpoint`` builds on it):
    every hook ``checkpoint.extra`` names is re-attached *before* the
    state loads, so each collector resumes where its session left off.
    Request spans are not simulator state; a tracing caller re-attaches
    its recorder.  Passing ``prefetcher``/``config`` asserts the engine
    the caller expects to restore into; a fingerprint mismatch raises
    :class:`~repro.errors.CheckpointMismatchError` before any state loads.
    """
    validate_restore("<restore>", checkpoint, prefetcher=prefetcher,
                     config=config)
    simulator = build_simulator(checkpoint.prefetcher, checkpoint.config,
                                checkpoint.extra)
    simulator.load_state(checkpoint.state)
    return simulator
