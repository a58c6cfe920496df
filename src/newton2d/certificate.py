"""The certificate check's report, the one dataclass of the closed-form layer.

CertificateReport stays a frozen dataclass, so dataclasses.replace applies
to it: the benchmark's gate tests inject a failing check that way.
Importing dataclasses loads inspect, ast and dis with it, so
extremal.check_certificate imports this module on its first call, and
``import newton2d`` and the closed-form CLI commands never load it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the Hamiltonian maximality check for a profile's slopes."""

    passed: bool
    lam: float
    worst_violation: float
    h_max: float
    segment_values: tuple[float, ...]
    notes: tuple[str, ...] = ()
