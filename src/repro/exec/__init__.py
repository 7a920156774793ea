"""Shared execution spine: per-graph contexts and batched evaluation.

``repro.exec`` is the layer between the matching substrate and the
debugging engines: :class:`ExecutionContext` bundles the per-graph
evaluation stack (matcher, result cache, statistics, candidate cache,
attribute domain, preference models) so every engine constructs itself
*from* a context instead of wiring its own, and
:class:`CandidateEvaluator` evaluates batches of independent query
variants through a pluggable executor under a shared
:class:`EvaluationBudget`.  The in-process executor is
:class:`SerialExecutor` (one task after another, the default and the
semantics oracle); CPU-parallel evaluation is the process-backed
:class:`~repro.shard.ProcessExecutor`.
"""

from repro.exec.context import ExecutionContext, execution_context
from repro.exec.evaluator import (
    BatchExecutor,
    CandidateEvaluator,
    EvaluatedCandidate,
    EvaluationBudget,
    SerialExecutor,
)

__all__ = [
    "BatchExecutor",
    "CandidateEvaluator",
    "EvaluatedCandidate",
    "EvaluationBudget",
    "ExecutionContext",
    "SerialExecutor",
    "execution_context",
]
