"""The package's two dataclasses, kept for the benchmark's gate tests.

perfbench/tests/test_gate.py fails a check by dataclasses.replace on each.
geometry.report_type imports this module on first use, since dataclasses
loads inspect, ast and dis: no CLI command loads it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the Hamiltonian maximality check for a profile's slopes."""

    passed: bool
    lam: float
    gap: float
    h_max: float
    segment_values: tuple[float, ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class CollisionReport:
    """Reflected-ray re-intersection diagnostics per segment."""

    reintersections: tuple[tuple[int, int], ...]
    passed: bool
    notes: tuple[str, ...] = ()
