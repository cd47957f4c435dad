"""EngineOptions — one frozen configuration object for the whole stack.

The paper's configurations are ``mode`` × ``bgp_engine`` (§7.1), with
``fixed_fraction`` as CP's threshold; :class:`EngineOptions` carries
exactly those three knobs.  FILTER / DISTINCT / LIMIT pushdown is not a
knob: it is the only query pipeline.  It is a frozen dataclass that
pickles through ``spawn`` (worker pools), prints its non-defaults, and
is the one place a knob is declared.

Construction::

    engine = SparqlUOEngine(store, options=EngineOptions(mode="cp"))
    engine = SparqlUOEngine(store, mode="cp")         # keyword shorthand

Keyword arguments are merged *over* a supplied ``options`` value, so a
caller can take a baseline configuration and override one knob.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional as Opt, Union as U

__all__ = ["EngineOptions", "resolve_options"]


@dataclass(frozen=True)
class EngineOptions:
    """Every knob of a :class:`~repro.core.engine.SparqlUOEngine`.

    ``bgp_engine`` and ``mode`` accept the same strings (or instances)
    the engine constructor always did; validation happens at engine
    construction, so an ``EngineOptions`` is a plain value object that
    can be built anywhere (config files, spawn args) without importing
    engine machinery.
    """

    #: ``"wco"`` / ``"hashjoin"``, or an already-constructed BGPEngine
    #: instance.
    bgp_engine: U[str, object] = "wco"
    #: §7.1 strategy: ``"base"`` / ``"tt"`` / ``"cp"`` / ``"full"``.
    mode: U[str, object] = "full"
    #: CP-mode fixed candidate threshold (fraction of the store).
    fixed_fraction: float = 0.01

    def replace(self, **changes) -> "EngineOptions":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def __repr__(self) -> str:
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value!r}")
        return f"EngineOptions({', '.join(parts)})"


_FIELD_NAMES = frozenset(f.name for f in fields(EngineOptions))


def resolve_options(
    options: Opt[EngineOptions],
    kwargs: Opt[dict] = None,
    where: str = "SparqlUOEngine",
) -> EngineOptions:
    """Merge per-knob keyword overrides over an explicit baseline.

    Precedence: ``kwargs`` > ``options`` > defaults.  An unknown
    keyword raises ``TypeError``, like any unexpected Python argument.
    """
    unknown = set(kwargs or ()) - _FIELD_NAMES
    if unknown:
        raise TypeError(
            f"{where} got unexpected configuration option(s): "
            f"{', '.join(sorted(unknown))}"
        )
    if options is None:
        options = EngineOptions()
    elif not isinstance(options, EngineOptions):
        raise TypeError(f"options must be EngineOptions, got {type(options).__name__}")
    return replace(options, **kwargs) if kwargs else options
