"""Process-global deterministic fault injection.

Production-shaped failure paths (torn snapshot writes, worker crashes,
pipe errors, cache backend failures) are unreachable from ordinary
tests: they depend on the kernel, the scheduler or the disk failing at
exactly the wrong moment.  This module gives every layer a *named
injection point* and a single process-global :class:`FaultPlan` that
decides — deterministically — which points fire, when, and how.

Usage at an injection site (the hot-path pattern; one module-attribute
load and an ``is None`` check when nothing is armed)::

    from .. import faults as _faults

    if _faults.ACTIVE is not None:
        _faults.ACTIVE.fire("worker.exec")

Cold paths may call the module-level :func:`fire` convenience instead.

A plan is parsed from a spec string (CLI ``repro serve --faults`` or
the ``REPRO_FAULTS`` environment variable, which spawn-based worker
processes inherit)::

    snapshot.read_section:io_error@3;worker.exec:crash@0.1#seed=7

Grammar::

    spec    := rule (";" rule)* ["#" options]
    rule    := site ":" kind ["=" arg] ["@" trigger]
    trigger := INT          fire on exactly the Nth hit of the site (1-based)
             | INT "+"      fire on every hit from the Nth onward
             | FLOAT (0,1)  fire per hit with that probability (seeded)
             | "*"          fire on every hit (the default)
    options := "seed=" INT  seed for probabilistic triggers (default 0)

Kinds:

``io_error``   raise :class:`InjectedFaultError` (an ``OSError``), so
               existing I/O error handling is exercised unchanged;
``oom``        raise ``MemoryError`` (the worker pool's "crashed" path);
``crash``      hard process death via ``os._exit`` — no cleanup, no
               reply, exactly like a segfault or OOM kill;
``delay``      sleep ``arg`` seconds (default 0.05) — stalls that push
               a request past its deadline without killing anything.

Probabilistic triggers are deterministic: each rule draws from its own
``random.Random`` seeded from ``(seed, site, kind)``, so the same spec
produces the same schedule in every run and in every spawned worker.
Plans are picklable; per-site injection counts are kept on the plan and
exposed through ``/metrics`` as ``repro_faults_injected_total``.
"""

from __future__ import annotations

import os
import time
import zlib
from random import Random
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "ACTIVE",
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFaultError",
    "KNOWN_SITES",
    "arm",
    "arm_from_env",
    "disarm",
    "fire",
    "injected_counts",
]

ENV_VAR = "REPRO_FAULTS"

#: Every injection point threaded through the stack.  Parsing rejects
#: unknown sites so a typo in a chaos schedule fails loudly instead of
#: silently testing nothing.
KNOWN_SITES = frozenset(
    {
        # storage
        "snapshot.open",          # SnapshotReader header open / mmap
        "snapshot.read_section",  # lazy section read + CRC verify
        "snapshot.write",         # snapshot publish, between tmp write and rename
        "bulkload.line",          # bulk loader parse loop, per statement line
        "delta.apply",            # write batch admission into the delta layer
        "compact.publish",        # delta compaction, before the snapshot publish
        "wal.append",             # WAL frame write, before the ack
        "wal.fsync",              # WAL durability fsync (group-commit leader)
        "wal.replay",             # WAL scan, per frame read on recovery
        # worker pool
        "worker.spawn",           # parent-side process/pipe creation
        "worker.exec",            # worker-side, before executing each query
        "worker.send",            # parent-side request send
        "worker.recv",            # parent-side reply receive, and each raw frame read
        # HTTP server
        "server.respond",         # response serialization onto the socket
        "cache.get",              # result-cache lookup
        "cache.put",              # result-cache admission
        # engine
        "engine.checkpoint",      # cooperative deadline checkpoint ticks
    }
)

_KINDS = ("io_error", "oom", "crash", "delay")


class FaultSpecError(ValueError):
    """A fault spec string could not be parsed."""


class InjectedFaultError(OSError):
    """The error raised by ``io_error`` faults.

    An ``OSError`` subclass: injection sites sit where real I/O errors
    occur, so the *existing* handlers must catch the injected error —
    that equivalence is what makes the chaos suite meaningful.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site!r}")
        self.site = site


class FaultRule:
    """One ``site:kind[=arg][@trigger]`` rule with its runtime state."""

    __slots__ = ("site", "kind", "arg", "at", "repeat", "probability", "hits", "fired", "_rng")

    def __init__(
        self,
        site: str,
        kind: str,
        arg: Optional[float],
        at: Optional[int],
        repeat: bool,
        probability: Optional[float],
        seed: int,
    ):
        self.site = site
        self.kind = kind
        self.arg = arg
        #: Count trigger: 1-based hit number (None for probabilistic/always).
        self.at = at
        #: With a count trigger: keep firing from ``at`` onward.
        self.repeat = repeat
        self.probability = probability
        self.hits = 0
        self.fired = 0
        # Per-rule RNG keyed on (seed, site, kind): deterministic per
        # spec, independent across rules, picklable.
        self._rng = Random(zlib.crc32(f"{site}:{kind}".encode("utf-8")) ^ seed)

    def should_fire(self) -> bool:
        self.hits += 1
        if self.probability is not None:
            return self._rng.random() < self.probability
        if self.at is None:
            return True
        if self.repeat:
            return self.hits >= self.at
        return self.hits == self.at

    def __repr__(self) -> str:
        trigger = (
            f"@{self.probability}"
            if self.probability is not None
            else "@*" if self.at is None else f"@{self.at}{'+' if self.repeat else ''}"
        )
        arg = f"={self.arg:g}" if self.arg is not None else ""
        return f"FaultRule({self.site}:{self.kind}{arg}{trigger}, fired={self.fired})"


def _parse_rule(text: str, seed: int) -> FaultRule:
    site, sep, rest = text.partition(":")
    site = site.strip()
    if not sep or not rest:
        raise FaultSpecError(f"rule {text!r}: expected site:kind[=arg][@trigger]")
    if site not in KNOWN_SITES:
        raise FaultSpecError(
            f"rule {text!r}: unknown injection site {site!r} "
            f"(known: {', '.join(sorted(KNOWN_SITES))})"
        )
    kind_part, _, trigger_part = rest.partition("@")
    kind, _, arg_text = kind_part.partition("=")
    kind = kind.strip()
    if kind not in _KINDS:
        raise FaultSpecError(
            f"rule {text!r}: unknown fault kind {kind!r} (known: {', '.join(_KINDS)})"
        )
    arg: Optional[float] = None
    if arg_text:
        try:
            arg = float(arg_text)
        except ValueError:
            raise FaultSpecError(f"rule {text!r}: bad argument {arg_text!r}") from None
    elif kind == "delay":
        arg = 0.05

    at: Optional[int] = None
    repeat = False
    probability: Optional[float] = None
    trigger = trigger_part.strip() or "*"
    if trigger != "*":
        repeat = trigger.endswith("+")
        body = trigger[:-1] if repeat else trigger
        try:
            if "." in body or "e" in body.lower():
                probability = float(body)
            else:
                at = int(body)
        except ValueError:
            raise FaultSpecError(f"rule {text!r}: bad trigger {trigger!r}") from None
        if probability is not None:
            if repeat or not 0.0 < probability < 1.0:
                raise FaultSpecError(
                    f"rule {text!r}: probability must be in (0, 1), got {trigger!r}"
                )
        elif at is not None and at < 1:
            raise FaultSpecError(f"rule {text!r}: hit counts are 1-based, got {at}")
    return FaultRule(site, kind, arg, at, repeat, probability, seed)


class FaultPlan:
    """A parsed fault schedule: per-site rules plus injection counts."""

    def __init__(self, spec: str):
        self.spec = spec
        body, _, options = spec.partition("#")
        self.seed = 0
        for option in filter(None, (part.strip() for part in options.split(";"))):
            name, _, value = option.partition("=")
            if name.strip() != "seed":
                raise FaultSpecError(f"unknown option {option!r} (only seed=N)")
            try:
                self.seed = int(value)
            except ValueError:
                raise FaultSpecError(f"bad seed {value!r}") from None
        self._by_site: Dict[str, List[FaultRule]] = {}
        for text in filter(None, (part.strip() for part in body.split(";"))):
            rule = _parse_rule(text, self.seed)
            self._by_site.setdefault(rule.site, []).append(rule)
        if not self._by_site:
            raise FaultSpecError(f"fault spec {spec!r} contains no rules")

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Apply whatever this plan owes ``site`` on this hit.

        A miss (no rule for the site) is one dict lookup.  ``io_error``
        and ``oom`` raise; ``delay`` sleeps; ``crash`` exits the
        process without cleanup.
        """
        rules = self._by_site.get(site)
        if rules is None:
            return
        for rule in rules:
            if not rule.should_fire():
                continue
            rule.fired += 1
            if rule.kind == "delay":
                time.sleep(rule.arg or 0.0)
            elif rule.kind == "io_error":
                raise InjectedFaultError(site)
            elif rule.kind == "oom":
                raise MemoryError(f"injected MemoryError at {site!r}")
            else:  # crash: die exactly like SIGKILL would have us die
                os._exit(86)

    def wants(self, site: str) -> bool:
        """Whether any rule targets ``site`` (hot paths skip wrapping)."""
        return site in self._by_site

    def counts(self) -> Dict[str, int]:
        """site → injections fired so far (the /metrics series)."""
        return {
            site: total
            for site, rules in sorted(self._by_site.items())
            if (total := sum(rule.fired for rule in rules))
        }

    def rules(self) -> List[FaultRule]:
        return [rule for rules in self._by_site.values() for rule in rules]

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec!r})"


#: The process-global armed plan; None means fault injection is off and
#: every site costs exactly one attribute load and an ``is None`` test.
ACTIVE: Optional[FaultPlan] = None


def arm(plan: Union[str, FaultPlan]) -> FaultPlan:
    """Arm a plan (or parse and arm a spec string) process-globally."""
    global ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan(plan)
    ACTIVE = plan
    return plan


def disarm() -> None:
    global ACTIVE
    ACTIVE = None


def arm_from_env() -> Optional[FaultPlan]:
    """Arm from ``$REPRO_FAULTS`` if set; returns the armed plan."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    return arm(spec)


def fire(site: str) -> None:
    """Convenience for cold paths: fire ``site`` on the active plan."""
    plan = ACTIVE
    if plan is not None:
        plan.fire(site)


def injected_counts() -> Dict[str, int]:
    """Per-site injection counts of the active plan ({} when disarmed)."""
    plan = ACTIVE
    return plan.counts() if plan is not None else {}
