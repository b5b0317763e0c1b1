"""repro — a reproduction of *Buffy: A Formal Language-Based Framework
for Network Performance Analysis* (HotNets '24).

The package provides:

* :mod:`repro.lang` — the Buffy language: parser, type checker,
  reference interpreter, pretty printer, and an embedded builder API;
* :mod:`repro.buffers` — packet buffers at two precision levels
  (packet-list and per-flow counters), concrete and symbolic;
* :mod:`repro.compiler` — symbolic execution of Buffy programs into
  SMT terms, plus program composition by buffer connection;
* :mod:`repro.backends` — analysis back ends: bounded SMT
  verification/synthesis, FPerf-style workload synthesis, Dafny-style
  annotation checking, and a BMC/k-induction model checker;
* :mod:`repro.smt` — the from-scratch SMT substrate (terms,
  bit-blasting, CDCL SAT) standing in for Z3;
* :mod:`repro.runtime` — resource governance: budgets/deadlines with
  cooperative cancellation, structured UNKNOWN reports, escalation
  portfolios, and a seeded fault-injection harness;
* :mod:`repro.netmodels` — the paper's case-study models (FQ-CoDel
  style schedulers, CCAC's AIMD/path/delay network);
* :mod:`repro.baselines` — hand-written FPerf-style encodings used as
  the Table-1 comparison and for cross-validation;
* :mod:`repro.analysis` — queries, workloads, trace replay, LoC
  accounting;
* :mod:`repro.obs` — zero-dependency observability: hierarchical
  spans, a metrics registry, and JSONL / Chrome-trace / Prometheus
  exporters across the whole compile–solve pipeline;
* :mod:`repro.trust` — certified answers: hinted (LRAT) proof logging in
  the CDCL core, an independent proof checker, and unsat cores, so
  UNSAT/VERIFIED claims can be machine-checked
  (``analyze(certify=True)`` / ``REPRO_CERTIFY=1``);
* :mod:`repro.persist` — durability: a checksummed write-ahead
  journal, CDCL checkpoint/resume (``REPRO_CHECKPOINT_DIR``), and the
  crash-recoverable batch queue behind :func:`repro.analyze_many` and
  ``repro batch run/resume``;
* :mod:`repro.serve` — the overload-safe analysis service (``repro
  serve``): bounded admission with per-tenant rate limits, a
  degrade-then-shed overload ladder, a circuit breaker around the
  solve path, and graceful drain into the batch journal;
* :mod:`repro.client` — the matching HTTP client with retry/backoff
  honoring ``Retry-After``.

Quickstart::

    import repro
    from repro.analysis.queries import starvation

    outcome = repro.analyze(
        SRC, lambda bk: starvation(bk, "ibs[0]"),
        steps=6, jobs=4, consts={"N": 2},
    )
    print(outcome.verdict)        # Verdict.PROVED / VIOLATED / ...
    raise SystemExit(outcome.exit_code)
"""

from .analysis.facade import analyze, analyze_many
from .analysis.result import (
    EXIT_CERTIFICATION,
    EXIT_DEADLETTER,
    EXIT_ERROR,
    AnalysisOutcome,
    Verdict,
)
from .backends.dafny import DafnyBackend, StateView
from .backends.fperf import FPerfBackend
from .backends.mc import ModelChecker
from .backends.network import NetworkBackend
from .backends.smt_backend import SmtBackend, Status
from .buffers.packets import Packet
from .runtime import (
    Budget,
    BudgetExhausted,
    EscalationPolicy,
    ExhaustionReason,
    ResourceReport,
    SolverFault,
    inject_faults,
)
from .compiler.composition import ConcreteNetwork, Connection, SymbolicNetwork
from .compiler.symexec import EncodeConfig, SymbolicMachine
from .lang.builder import ProgramBuilder
from .lang.checker import CheckedProgram, check_program
from .lang.interp import Interpreter
from .lang.parser import parse_expr, parse_program
from .lang.pretty import pretty_program
from .obs import METRICS, TRACER, TelemetrySnapshot, telemetry
from .persist import BatchRunner, CheckpointStore, Journal
from .trust import Certificate, LratChecker, LratError, ProofLog, check_lrat
from .client import ServiceClient, ServiceUnavailable
from .serve import AnalysisService, ReproServer, ServeConfig

__version__ = "1.0.0"

__all__ = [
    "AnalysisOutcome",
    "AnalysisService",
    "BatchRunner",
    "Budget",
    "BudgetExhausted",
    "CheckedProgram",
    "CheckpointStore",
    "ConcreteNetwork",
    "Connection",
    "Certificate",
    "DafnyBackend",
    "EXIT_CERTIFICATION",
    "EXIT_DEADLETTER",
    "EXIT_ERROR",
    "EncodeConfig",
    "EscalationPolicy",
    "ExhaustionReason",
    "FPerfBackend",
    "Interpreter",
    "Journal",
    "LratChecker",
    "LratError",
    "METRICS",
    "ModelChecker",
    "NetworkBackend",
    "Packet",
    "ProgramBuilder",
    "ProofLog",
    "ReproServer",
    "ResourceReport",
    "ServeConfig",
    "ServiceClient",
    "ServiceUnavailable",
    "SmtBackend",
    "SolverFault",
    "StateView",
    "Status",
    "SymbolicMachine",
    "SymbolicNetwork",
    "TRACER",
    "TelemetrySnapshot",
    "Verdict",
    "analyze",
    "analyze_many",
    "check_lrat",
    "check_program",
    "inject_faults",
    "parse_expr",
    "parse_program",
    "pretty_program",
    "telemetry",
]
