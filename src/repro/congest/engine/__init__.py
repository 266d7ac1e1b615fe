"""Pluggable CONGEST execution engines.

One protocol, two interchangeable backends (see
:class:`~repro.congest.engine.base.CongestEngine` for the contract):

* ``reference`` — the original per-node lock-step simulation, with a
  per-message bit audit.  Always available.
* ``fast`` — batched numpy execution over CSR adjacency arrays with an
  aggregate (per-sender) bit audit.  Requires numpy
  (``pip install repro-cycles[fast]``) and node IDs below ``2**32``.

Select a backend by name::

    from repro.congest.engine import create_engine

    engine = create_engine("fast", network, strict_bandwidth=True)
    run = engine.run_tester_repetition(k=5, rep_seed=42)

or end to end through ``CkFreenessTester(..., engine="fast")``,
``detect_cycle_through_edge(..., engine="fast")``, the CLI's
``--engine`` flag, and the campaign runner's ``engines`` factor.
:func:`parse_engine_spec` is the one validator for engine names.

Both backends are verdict-equivalent under fixed seeds; see
``docs/engines.md`` and :func:`repro.testing.engine_equivalence_report`.
"""

from __future__ import annotations

from typing import Tuple

from ...errors import ConfigurationError, EngineUnavailableError
from ..network import Network
from .base import CongestEngine
from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    validate_profile,
)

__all__ = [
    "ENGINE_NAMES",
    "NULL_PROFILER",
    "CongestEngine",
    "NullProfiler",
    "PhaseProfiler",
    "available_engines",
    "create_engine",
    "ensure_engine_available",
    "parse_engine_spec",
    "validate_profile",
]

#: All backend names, in preference order for documentation/CLI listings.
ENGINE_NAMES: Tuple[str, ...] = ("reference", "fast")


def _numpy_missing() -> str:
    """Import-check numpy; return an empty string or the failure reason."""
    try:
        import numpy  # noqa: F401
    except ImportError as exc:  # pragma: no cover - numpy ships in [test]
        return str(exc)
    return ""


def parse_engine_spec(spec: str) -> str:
    """Validate an engine spec and return the backend name.

    A spec is exactly one of :data:`ENGINE_NAMES`; no backend takes
    options.  This is the check behind every engine-name position (the
    CLI's ``--engine``, the campaign ``engines`` factor, service session
    specs); it raises :class:`~repro.errors.ConfigurationError` for
    anything else.
    """
    if spec not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {spec!r}; choose from {', '.join(ENGINE_NAMES)}"
        )
    return spec


def ensure_engine_available(spec: str) -> None:
    """Validate an engine spec and this environment's ability to run it.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    and :class:`~repro.errors.EngineUnavailableError` when the backend's
    dependencies are missing (e.g. ``fast`` without numpy).
    """
    name = parse_engine_spec(spec)
    if name == "fast":
        reason = _numpy_missing()
        if reason:
            raise EngineUnavailableError(
                f"the {name!r} engine requires numpy, which is not installed "
                f"({reason}); install it with `pip install repro-cycles[fast]` "
                "or run with --engine reference"
            )


def available_engines() -> Tuple[str, ...]:
    """The subset of :data:`ENGINE_NAMES` that can run here."""
    out = []
    for name in ENGINE_NAMES:
        try:
            ensure_engine_available(name)
        except ConfigurationError:
            continue
        out.append(name)
    return tuple(out)


def create_engine(spec: str, network: Network, **kwargs) -> CongestEngine:
    """Instantiate the backend named by ``spec`` for ``network``.

    ``spec`` is an engine name (see :func:`parse_engine_spec`).
    ``kwargs`` are forwarded to the engine constructor (``size_model``,
    ``strict_bandwidth``, ``faults`` — only honoured by the reference
    backend — ``telemetry`` and ``profiler``, a :class:`PhaseProfiler`
    attributing wall time to protocol phases).
    """
    ensure_engine_available(spec)
    if spec == "reference":
        from .reference import ReferenceEngine

        return ReferenceEngine(network, **kwargs)
    from .fast import FastEngine

    return FastEngine(network, **kwargs)
