"""Exception hierarchy for the Planaria reproduction.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still distinguishing configuration problems from runtime simulation
faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration object failed validation (bad sizes, thresholds...)."""


class TraceFormatError(ReproError):
    """A trace file or trace record is malformed."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class TraceOrderError(SimulationError):
    """A chunk's arrival times step back by more than one refresh interval.

    Raised where a chunk enters ``run``/``feed``, before any simulator
    state changes, identically on the scalar and batch engines.
    """


class AddressError(ReproError):
    """An address is out of range or violates the configured layout."""


class UnknownPrefetcherError(ConfigError, KeyError):
    """A prefetcher name is not in the registry.

    Subclasses :class:`KeyError` too, since the registry is a mapping and
    many callers probe it like one; the message names the unknown
    prefetcher and lists every registered name.
    """

    def __init__(self, name: str, known: "tuple[str, ...]") -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown prefetcher {name!r}; registered: {', '.join(self.known)}"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the lone argument; keep the message.
        return self.args[0]


class UnknownDeviceError(ConfigError, KeyError):
    """A device / tenant name is not a :class:`~repro.trace.record.DeviceID`.

    Raised at the CLI and trace-merger boundaries (and by way-partition
    validation) when a tenant is tagged with a device name outside the
    enum; the message names the unknown device and lists every valid
    member, mirroring :class:`UnknownPrefetcherError`.
    """

    def __init__(self, name: str, known: "tuple[str, ...]") -> None:
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown device {name!r}; valid devices: {', '.join(self.known)}"
        )

    def __str__(self) -> str:
        # KeyError.__str__ repr()s the lone argument; keep the message.
        return self.args[0]


class ServiceError(ReproError):
    """The streaming simulation service hit a protocol or session fault."""


class CampaignError(ReproError):
    """A campaign run failed: dispatch exhausted its retries, the progress
    state does not match the spec, or a completed cell failed fingerprint
    re-verification on resume."""


class CampaignSpecError(CampaignError, ConfigError):
    """A campaign YAML spec failed schema validation.

    Raised at parse time for unknown keys, wrong value types, empty grid
    axes or malformed nested sections — always *before* any cell runs,
    so a typo cannot burn half a sweep.  Subclasses :class:`ConfigError`
    so config-level handlers (the CLI's ``error:`` path included) catch
    it uniformly.
    """


class SessionNotFoundError(ServiceError, KeyError):
    """A service request named a session that is not open (or checkpointed)."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"no open session {name!r} and no checkpoint to resume")

    def __str__(self) -> str:
        return self.args[0]


class SessionExistsError(ServiceError):
    """``open`` named a session that is already live."""


class CheckpointError(ServiceError):
    """A checkpoint file is missing, corrupt, or from a different setup."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was restored into a differently-configured engine.

    Raised *before* ``load_state()`` when the prefetcher/config
    fingerprint of the engine a checkpoint is being restored into does
    not match the fingerprint the checkpoint was written under — loading
    state across configurations is undefined behaviour, so cross-worker
    migration refuses it up front.  The message names both fingerprints.
    """

    def __init__(self, name: str, checkpoint_fingerprint: str,
                 target_fingerprint: str, detail: str = "") -> None:
        self.checkpoint_fingerprint = checkpoint_fingerprint
        self.target_fingerprint = target_fingerprint
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"checkpoint for session {name!r} was written under "
            f"prefetcher/config fingerprint {checkpoint_fingerprint}, but "
            f"the target engine has fingerprint {target_fingerprint}; "
            f"refusing to load_state() across configurations{suffix}")
