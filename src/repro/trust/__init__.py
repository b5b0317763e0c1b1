"""Trust layer: certified UNSAT answers.

The solver's SAT answers have always been validated by re-evaluating
the original terms under the decoded model (``SmtSolver._validate``).
This package closes the other half of the trust gap: UNSAT answers can
carry a :class:`Certificate` — the original clauses its proof cites
plus the CDCL solver's hinted (LRAT-style) proof log — replayed by an
independent, from-scratch checker (:mod:`repro.trust.drat`).
``analyze(certify=True)`` and ``REPRO_CERTIFY=1`` refuse to report
UNSAT-backed verdicts unless the certificate checks.
"""

from __future__ import annotations

from .drat import Certificate, LratChecker, LratError, check_lrat
from .proof import ProofLog, Step

__all__ = [
    "Certificate",
    "LratChecker",
    "LratError",
    "ProofLog",
    "Step",
    "check_lrat",
]
