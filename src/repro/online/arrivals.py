"""Arrival-time sources for the online engine.

Besides hand-passed arrival arrays, :func:`repro.online.simulate_online`
takes *generated* and *replayed* streams from this module, all plain
``float64`` arrival-time arrays the engine (and the shared event
kernel) consume unchanged:

``batch[:at=T]``
    Everyone at one instant (the paper's static setting when ``T=0``).
``constant:period=P[,start=S]``
    Deterministic constant-rate arrivals ``S, S+P, S+2P, ...`` — the
    in-situ pipeline's regular batch cadence.
``poisson:rate=R[,burst=B,period=P]``
    A Poisson process with peak rate ``R`` (arrivals per time unit).
    With ``burst``/``period`` the process is *inhomogeneous*: the
    intensity is sinusoidally modulated,

        ``lambda(t) = R * (1 + B * sin(2 pi t / P)) / (1 + B)``,

    and sampled by Lewis–Shedler thinning (candidates from the
    homogeneous bound ``R``, each accepted with probability
    ``lambda(t) / R``) — the standard IPPP construction (Hohmann
    2019).  ``burst=0`` degenerates to the homogeneous process.
``trace:PATH``
    Replay recorded instants from a text file (one float per line;
    blank lines and ``#`` comments ignored).

Every source is a frozen dataclass with a ``times(n, rng)`` method;
:func:`parse_arrival_spec` turns the CLI spec strings above into
sources.  Generation is reproducible: the same ``rng`` seed yields the
same stream (deterministic sources ignore the generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from ..types import ModelError

__all__ = [
    "ArrivalSource",
    "BatchSource",
    "ConstantRate",
    "PoissonProcess",
    "TraceSource",
    "parse_arrival_spec",
    "ARRIVAL_KINDS",
]

#: Spec prefixes understood by :func:`parse_arrival_spec`.
ARRIVAL_KINDS: tuple[str, ...] = ("batch", "constant", "poisson", "trace")


@runtime_checkable
class ArrivalSource(Protocol):
    """Anything that can produce ``n`` nondecreasing arrival instants."""

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` arrival instants (``float64``, nondecreasing)."""
        ...  # pragma: no cover - protocol


def _check_n(n: int) -> None:
    if n < 1:
        raise ModelError(f"need at least one arrival, got n={n}")


@dataclass(frozen=True)
class BatchSource:
    """Everyone arrives at the same instant (default: 0)."""

    at: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0 or not math.isfinite(self.at):
            raise ModelError(f"batch instant must be finite and >= 0, got {self.at}")

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_n(n)
        return np.full(n, self.at, dtype=np.float64)


@dataclass(frozen=True)
class ConstantRate:
    """Deterministic arrivals every *period* time units from *start*."""

    period: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0 or not math.isfinite(self.period):
            raise ModelError(f"period must be positive and finite, got {self.period}")
        if self.start < 0 or not math.isfinite(self.start):
            raise ModelError(f"start must be finite and >= 0, got {self.start}")

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_n(n)
        return self.start + np.arange(n, dtype=np.float64) * self.period


@dataclass(frozen=True)
class PoissonProcess:
    """(In)homogeneous Poisson arrivals via Lewis–Shedler thinning.

    Parameters
    ----------
    rate : float
        Peak intensity ``R`` (arrivals per time unit) — also the
        thinning bound.
    burst : float
        Modulation amplitude in ``[0, 1)``; 0 means homogeneous.
    period : float
        Modulation period of the sinusoidal intensity (required
        positive and finite when ``burst > 0``).
    """

    rate: float
    burst: float = 0.0
    period: float = math.inf

    def __post_init__(self) -> None:
        if self.rate <= 0 or not math.isfinite(self.rate):
            raise ModelError(f"rate must be positive and finite, got {self.rate}")
        if not 0.0 <= self.burst < 1.0:
            raise ModelError(f"burst must be in [0, 1), got {self.burst}")
        if self.burst > 0 and not (self.period > 0 and math.isfinite(self.period)):
            raise ModelError(
                f"a bursty process needs a positive finite period, got {self.period}"
            )

    def intensity(self, t: float) -> float:
        """The instantaneous rate ``lambda(t)`` (peak = ``rate``)."""
        if self.burst == 0.0:
            return self.rate
        return (self.rate * (1.0 + self.burst * math.sin(2.0 * math.pi * t / self.period))
                / (1.0 + self.burst))

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_n(n)
        out = np.empty(n, dtype=np.float64)
        t = 0.0
        for k in range(n):
            while True:
                # Candidate from the homogeneous bounding process...
                t += rng.exponential(1.0 / self.rate)
                if self.burst == 0.0:
                    break
                # ...thinned by the relative intensity at its instant.
                if rng.random() <= self.intensity(t) / self.rate:
                    break
            out[k] = t
        return out


@dataclass(frozen=True)
class TraceSource:
    """Replay arrival instants recorded in a text file."""

    path: Path

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_n(n)
        path = Path(self.path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ModelError(f"cannot read arrival trace {path}: {exc}") from None
        values: list[float] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            payload = line.split("#", 1)[0].strip()
            if not payload:
                continue
            try:
                values.append(float(payload))
            except ValueError:
                raise ModelError(
                    f"{path}:{lineno}: cannot parse arrival instant {payload!r}"
                ) from None
        if len(values) < n:
            raise ModelError(
                f"trace {path} holds {len(values)} arrivals; {n} needed"
            )
        arr = np.asarray(values[:n], dtype=np.float64)
        if np.any(arr < 0):
            raise ModelError(f"trace {path} contains negative arrival instants")
        if np.any(np.diff(arr) < 0):
            raise ModelError(f"trace {path} arrivals must be nondecreasing")
        return arr


_SPEC_EXAMPLES = (
    "batch, batch:at=T, constant:period=P[,start=S], "
    "poisson:rate=R[,burst=B,period=P], trace:PATH"
)


def parse_kv(body: str, spec: str, allowed: dict[str, float],
              what: str = "arrival") -> dict[str, float]:
    """Parse ``key=value`` float pairs, seeded with *allowed* defaults.

    *what* names the spec kind in error messages (``arrival``,
    ``fault``).
    """
    out = dict(allowed)
    if not body:
        return out
    for item in body.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise ModelError(
                f"bad {what} spec {spec!r}: unknown or malformed field {item!r} "
                f"(known: {', '.join(allowed)})"
            )
        try:
            out[key] = float(value)
        except ValueError:
            raise ModelError(
                f"bad {what} spec {spec!r}: {key} needs a number, got {value!r}"
            ) from None
    return out


def parse_arrival_spec(spec: str) -> ArrivalSource:
    """Turn a CLI spec string into an :class:`ArrivalSource`.

    Examples: ``batch``, ``constant:period=2e8``,
    ``poisson:rate=5e-9,burst=0.8,period=1e9``, ``trace:runs/arrivals.txt``.
    """
    kind, _, body = spec.strip().partition(":")
    kind = kind.lower()
    if kind == "batch":
        fields = parse_kv(body, spec, {"at": 0.0})
        return BatchSource(at=fields["at"])
    if kind == "constant":
        fields = parse_kv(body, spec, {"period": math.nan, "start": 0.0})
        if math.isnan(fields["period"]):
            raise ModelError(f"bad arrival spec {spec!r}: constant needs period=P")
        return ConstantRate(period=fields["period"], start=fields["start"])
    if kind == "poisson":
        fields = parse_kv(body, spec,
                          {"rate": math.nan, "burst": 0.0, "period": math.inf})
        if math.isnan(fields["rate"]):
            raise ModelError(f"bad arrival spec {spec!r}: poisson needs rate=R")
        return PoissonProcess(rate=fields["rate"], burst=fields["burst"],
                              period=fields["period"])
    if kind == "trace":
        if not body:
            raise ModelError(f"bad arrival spec {spec!r}: trace needs a file path")
        return TraceSource(path=Path(body))
    raise ModelError(
        f"unknown arrival spec {spec!r}; expected one of: {_SPEC_EXAMPLES}"
    )
