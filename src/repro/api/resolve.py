"""Shared name resolvers with actionable errors.

Every registry-backed name in an experiment -- pipelines, storage
devices, scheduler policies, trace shapes, backends -- is
resolved through one of these helpers.  On an unknown name they raise
:class:`~repro.errors.SpecError` listing the valid names (and a
nearest-match suggestion when one is close), so both the classic CLI
subcommands and the declarative ``presto run`` path fail with::

    presto: error: unknown pipeline 'CV3'; did you mean 'CV'? valid
    pipelines: CV, CV+greyscale-after, ...

instead of a traceback.  The resolvers are the single validation
authority: ``argparse`` no longer carries ``choices`` lists for these
names, so the CLI and spec files cannot drift apart.
"""

from __future__ import annotations

import difflib
from typing import Optional, Sequence

from repro.errors import SpecError

#: Execution backends understood by the API.
BACKEND_NAMES = ("simulated", "inprocess")


def _unknown(kind: str, name: object, valid: Sequence[str],
             plural: Optional[str] = None) -> SpecError:
    """Build the one-line "unknown name" error with suggestions."""
    names = sorted(valid)
    plural = plural or f"{kind}s"
    hint = ""
    if isinstance(name, str):
        close = difflib.get_close_matches(name, names, n=1)
        if close:
            hint = f" did you mean {close[0]!r}?"
        label = repr(name)
    else:
        label = f"{name!r} (expected a string)"
    return SpecError(
        f"unknown {kind} {label};{hint} valid {plural}: {', '.join(names)}")


def resolve_pipeline_name(name: str) -> str:
    """Validate a pipeline name against the registry."""
    from repro.pipelines.registry import registered_names
    if name not in registered_names():
        raise _unknown("pipeline", name, registered_names())
    return name


def resolve_pipeline(name: str):
    """Build a fresh :class:`~repro.pipelines.base.PipelineSpec`."""
    from repro.pipelines.registry import get_pipeline
    return get_pipeline(resolve_pipeline_name(name))


def resolve_strategy_name(pipeline_name: str,
                          strategy: Optional[str]) -> str:
    """Validate a split/strategy name of ``pipeline_name``.

    ``None`` selects the pipeline's last (most materialised) strategy,
    matching the historical ``presto fanout`` default.
    """
    pipeline = resolve_pipeline(pipeline_name)
    names = pipeline.strategy_names()
    if strategy is None:
        return names[-1]
    if strategy not in names:
        raise SpecError(
            f"unknown strategy {strategy!r} for pipeline "
            f"{pipeline_name!r}; valid strategies: {', '.join(names)}")
    return strategy


def resolve_storage(name: str):
    """Look up a storage :class:`~repro.sim.storage.DeviceProfile`."""
    from repro.sim.storage import DEVICE_PROFILES
    if not isinstance(name, str) or name not in DEVICE_PROFILES:
        raise _unknown("storage device", name, DEVICE_PROFILES,
                       plural="storage devices")
    return DEVICE_PROFILES[name]


def resolve_policy(name: str) -> str:
    """Validate a scheduler policy name (``"all"`` = compare every one)."""
    from repro.serve.policies import POLICY_NAMES
    valid = (*POLICY_NAMES, "all")
    if name not in valid:
        raise _unknown("policy", name, valid, plural="policies")
    return name


def resolve_trace(kind: str) -> str:
    """Validate an arrival-trace shape name."""
    from repro.serve.jobs import TRACE_KINDS
    if kind not in TRACE_KINDS:
        raise _unknown("trace", kind, TRACE_KINDS)
    return kind


def resolve_arrival(kind: str) -> str:
    """Validate a streaming arrival-process shape name."""
    from repro.stream.requests import ARRIVAL_KINDS
    if kind not in ARRIVAL_KINDS:
        raise _unknown("arrival", kind, ARRIVAL_KINDS)
    return kind


def resolve_backend_name(name: str) -> str:
    """Validate an execution-backend name."""
    if name not in BACKEND_NAMES:
        raise _unknown("backend", name, BACKEND_NAMES)
    return name
