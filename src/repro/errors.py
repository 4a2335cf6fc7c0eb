"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch one base class.  Sub-hierarchies mirror the package layout:
simulation faults, pipeline construction faults, profiling faults and codec
faults each have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SimulationError(ReproError):
    """A discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class ResourceError(SimulationError):
    """Illegal use of a simulated resource (double release, bad capacity)."""


class PipelineError(ReproError):
    """A preprocessing pipeline was constructed or used incorrectly."""


class StepNotFoundError(PipelineError):
    """A referenced step name does not exist in the pipeline."""

    def __init__(self, step: str, available: list[str]):
        self.step = step
        self.available = list(available)
        super().__init__(
            f"step {step!r} not in pipeline; available steps: {available}"
        )


class NonDeterministicSplitError(PipelineError):
    """A strategy tried to move a non-deterministic step offline.

    Steps such as random-crop or shuffling must run online in every epoch
    (paper Sec. 2); caching their output would freeze the randomness.
    """


class SpecError(ReproError):
    """An experiment specification is invalid or names unknown entities.

    Raised by the declarative API (:mod:`repro.api`) with actionable
    messages: every "unknown name" error lists the valid registry names
    so a typo in a spec file or on the command line is a one-line fix,
    never a traceback.
    """


class ControlError(ReproError):
    """The serving control plane was configured or driven incorrectly."""


class LedgerError(ControlError):
    """An illegal job-state transition or a non-monotone ledger append.

    The execution ledger is append-only and every entry must follow the
    lifecycle transition table (:data:`repro.ctl.ledger.TRANSITIONS`);
    violating either invariant is a programming error in the control
    plane, never a recoverable condition.
    """


class ProfilingError(ReproError):
    """A profiling run could not be completed."""


class SweepError(ProfilingError):
    """The sweep engine was configured or used incorrectly."""


class CacheError(ReproError):
    """A profile-cache entry could not be read or written."""


class DiagnosisError(ReproError):
    """The bottleneck doctor was asked something it cannot answer."""


class CodecError(ReproError):
    """Encoding or decoding a payload failed."""


class FrameError(ReproError):
    """Invalid operation on a :class:`repro.core.frame.Frame`."""


class StorageError(ReproError):
    """A simulated storage operation failed (missing object, overflow)."""


class FaultError(ReproError):
    """The chaos engine was configured or driven incorrectly.

    Raised by :mod:`repro.faults` for malformed fault plans (negative
    windows, zero slowdown factors, blackouts on workload kinds without
    a retry path) -- configuration mistakes, never injected faults.
    """


class InjectedFaultError(FaultError):
    """A deliberately injected fault fired inside a simulation.

    Carried by failed transfer events during a storage blackout window;
    it unwinds the affected epoch and is caught by the control plane's
    retry path.  Reaching user code means the workload ran a blackout
    without a dispatcher in front of it.
    """


class ObservabilityError(ReproError):
    """Telemetry was configured incorrectly or produced an invalid export.

    Raised by :mod:`repro.obs` for malformed Chrome-trace payloads, trend
    snapshots that do not look like ``SIMBENCH.json``, and telemetry
    flags that conflict with the requested run shape.
    """
