"""Fork/join evaluation of stream pipelines.

The parallel terminal operations mirror ``java.util.stream.AbstractTask``:
starting from the source spliterator, a task tree is grown by repeatedly
calling ``try_split`` until a node's estimated size drops to the *target
size* (``source size / (4 × parallelism)``, Java's heuristic) or the
spliterator refuses to split.  Each leaf runs the terminal spec's sink
(:mod:`repro.streams.terminal` — for collect, a fresh container from the
collector's ``supplier`` filled by its ``accumulator``) over the fused op
chain, and the interior nodes merge partials with the spec's ``merge`` in
encounter order — prefix (the spliterator returned by ``try_split``)
first.  :func:`run_threads` is the one driver for all five terminal
families.

Fail-fast error propagation (``docs/robustness.md``): every terminal runs
its task tree under one :class:`_TerminalContext`.  The first exception
raised by any leaf or combiner is recorded there and trips a shared cancel
event — sibling subtrees stop splitting, skip their leaves, forked-but-
unclaimed tasks are cancelled so workers never claim them, and in-flight
leaves abort at their next poll point.  The root then re-raises
the *original* exception to the caller, instead of burning the remaining
2^k-element workload first.

Only *stateless* ops reach :func:`run_threads`; :mod:`repro.streams.stream`
segments pipelines at stateful operations first.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

from repro.common import CancellationError, IllegalArgumentError
from repro.faults.plan import current_fault_plan
from repro.faults.policy import Deadline
from repro.forkjoin.pool import ForkJoinPool, current_worker
from repro.forkjoin.task import RecursiveTask
from repro.obs.profile import current_profiler
from repro.obs.tracer import EXTERNAL_WORKER, current_tracer
from repro.streams import adaptive
from repro.streams.fusion import maybe_fuse
from repro.streams.ops import LimitOp, Op
from repro.streams.spliterator import Spliterator
from repro.streams.terminal import PrefixBudget, TerminalSpec

# --------------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------------- #

#: The recognized execution backends for parallel terminals:
#:
#: * ``threads``    — the fork/join thread pool (default; zero shipping
#:   cost, but pure-Python leaves serialize on the GIL);
#: * ``process``    — worker processes via
#:   :mod:`repro.streams.process_backend` (Python-heavy leaves scale with
#:   cores; crossing functions must pickle);
#: * ``sequential`` — run the terminal in the calling thread (baseline for
#:   benchmarks and a degraded mode for constrained environments).
VALID_BACKENDS = ("threads", "process", "sequential")


def _validate_backend(name: str) -> str:
    if name not in VALID_BACKENDS:
        raise IllegalArgumentError(
            f"unknown parallel backend {name!r}: valid backends are "
            + ", ".join(repr(b) for b in VALID_BACKENDS)
        )
    return name


def _backend_from_env() -> str:
    name = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip()
    return _validate_backend(name) if name else "threads"


_backend = _backend_from_env()


def parallel_backend_name() -> str:
    """The currently selected default backend for parallel terminals."""
    return _backend


def set_parallel_backend(name: str) -> str:
    """Select the default backend for parallel terminals; returns the
    previous one.  Validates the name (:data:`VALID_BACKENDS`).  Per-stream
    ``Stream.with_backend`` and the ``backend=`` terminal kwarg override
    this; the ``REPRO_PARALLEL_BACKEND`` environment variable sets the
    initial value at import."""
    global _backend
    previous = _backend
    _backend = _validate_backend(name)
    return previous


@contextmanager
def parallel_backend(name: str):
    """Context manager scoping :func:`set_parallel_backend`."""
    previous = set_parallel_backend(name)
    try:
        yield
    finally:
        set_parallel_backend(previous)


def resolve_backend(backend: str | None) -> str:
    """An explicit backend (validated) or the session default."""
    return _validate_backend(backend) if backend is not None else _backend


def _worker_id() -> int:
    """Index of the calling pool worker, or EXTERNAL_WORKER outside one."""
    worker = current_worker()
    return worker.index if worker is not None else EXTERNAL_WORKER


def _attach_profiler(pool: ForkJoinPool) -> None:
    """Give an active profiler the pool so it can report counter deltas."""
    profiler = current_profiler()
    if profiler is not None:
        profiler.profile.attach_pool(pool)


def _resolve_threshold(
    spliterator: Spliterator,
    ops: list[Op],
    pool: ForkJoinPool,
    requested,
    observe: bool = True,
) -> tuple["adaptive.ThresholdDecision", "adaptive.RunObservation | None"]:
    """Resolve one terminal's split threshold through the shared decision
    function (:func:`repro.streams.adaptive.decide_threshold` — the same
    one ``Stream.explain()`` consults, so plans cannot drift).

    Returns ``(decision, observer)``.  Every run is observed so the memo
    learns each shape's cost, which the inline verdict reads; the observer
    is None only for ``observe=False`` (find terminals and budgeted
    collects, whose leaves stop early by design and would poison the
    per-element cost estimate).
    """
    key = adaptive.shape_key(ops, spliterator, pool.parallelism, backend="threads")
    decision = adaptive.decide_threshold(
        spliterator.estimate_size(), pool.parallelism,
        explicit=requested, key=key,
    )
    observer = None
    if observe:
        # An inline run touches no worker: no steal/idle deltas to read.
        observer = adaptive.RunObservation(
            key, pool.parallelism, decision.target_size,
            pool_snapshot=None if decision.inline else pool.scheduling_snapshot(),
        )
    return decision, observer


class _TerminalContext:
    """Shared cancellation state for one parallel terminal's task tree.

    Carries two distinct stop signals:

    * :attr:`cancel` — the *success* short-circuit used by match/find
      ("the answer is known, stop traversing"); leaves still run, but
      their sinks refuse elements immediately.
    * :attr:`failure` — the *error* short-circuit: the first exception
      recorded by :meth:`fail` wins, trips :attr:`cancel` too (stopping
      in-flight polled leaves), and makes every still-unsplit subtree
      return without touching its data.

    :attr:`cancel` is also every leaf sink's cancel token, so in-flight
    leaves abort at their next poll point (a chunk boundary on the bulk
    path) once either signal fires.
    """

    __slots__ = ("cancel", "failure", "_lock", "pool", "observer")

    def __init__(self, pool: ForkJoinPool | None = None, observer=None) -> None:
        self.cancel = threading.Event()
        self.failure: BaseException | None = None
        self._lock = threading.Lock()
        self.pool = pool
        #: The run's RunObservation (None for find terminals); leaves
        #: record their span durations here for the split policy.
        self.observer = observer

    def fail(self, exc: BaseException) -> None:
        """Record the first failure and cancel the remaining tree."""
        with self._lock:
            if self.failure is not None:
                return
            self.failure = exc
        self.cancel.set()
        if self.pool is not None:
            self.pool._note_failfast_cancellation()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "cancel", worker=_worker_id(), error=type(exc).__name__
            )


def _leaf_origin(spliterator: Spliterator) -> int | None:
    """The absolute source position a leaf starts at, for spliterator
    types whose splits tile the source contiguously; None disables
    cross-leaf budget cancellation (per-leaf truncation still applies)."""
    from repro.streams.spliterators import ListSpliterator, RangeSpliterator

    if isinstance(spliterator, ListSpliterator):
        return spliterator._index
    if isinstance(spliterator, RangeSpliterator):
        return spliterator._lo
    return None


class _ReduceTask(RecursiveTask):
    """Generic ordered divide-and-conquer over a spliterator.

    Parameterized by a ``leaf`` function (spliterator → partial result) and
    a ``merge`` function (prefix result, suffix result → result), it
    expresses every parallel terminal operation in this module.  All tasks
    of one terminal share a :class:`_TerminalContext` for fail-fast and
    short-circuit cancellation.
    """

    __slots__ = ("spliterator", "target_size", "leaf", "merge", "ctx", "depth")

    def __init__(
        self,
        spliterator: Spliterator,
        target_size: int,
        leaf: Callable[[Spliterator], Any],
        merge: Callable[[Any, Any], Any],
        ctx: _TerminalContext,
        depth: int = 0,
    ) -> None:
        super().__init__()
        self.spliterator = spliterator
        self.target_size = target_size
        self.leaf = leaf
        self.merge = merge
        self.ctx = ctx
        self.depth = depth

    def compute(self) -> Any:
        # The tracer is fetched once per task; with tracing disabled each
        # event site below costs one ``enabled`` attribute check.
        ctx = self.ctx
        tracer = current_tracer()
        spliterator = self.spliterator
        while True:
            if ctx.failure is not None:
                # A sibling already failed: skip this whole subtree.  The
                # value is irrelevant — the root re-raises the failure.
                return None
            if ctx.cancel.is_set():
                # Success short-circuit (match/find): stop splitting; the
                # leaf's sink refuses elements, so this returns instantly
                # with the terminal's identity result.
                return self._leaf(spliterator, tracer)
            size = spliterator.estimate_size()
            if size <= self.target_size:
                return self._leaf(spliterator, tracer)
            if tracer.enabled:
                start = time.perf_counter_ns()
                prefix = spliterator.try_split()
                tracer.emit(
                    "split",
                    worker=_worker_id(),
                    start_ns=start,
                    end_ns=time.perf_counter_ns(),
                    size=size,
                )
            else:
                prefix = spliterator.try_split()
            if prefix is None:
                return self._leaf(spliterator, tracer)
            left = _ReduceTask(
                prefix, self.target_size, self.leaf, self.merge, ctx,
                self.depth + 1,
            )
            left.fork()
            try:
                right_result = _ReduceTask(
                    spliterator, self.target_size, self.leaf, self.merge, ctx,
                    self.depth + 1,
                ).compute()
            except BaseException as exc:
                ctx.fail(exc)
                # The forked sibling would otherwise run to completion on
                # another worker; cancelling it here lets an unclaimed
                # task die on the deque without ever being executed.
                left.cancel()
                raise
            try:
                left_result = left.join()
            except BaseException as exc:
                ctx.fail(exc)
                raise
            if ctx.failure is not None:
                return None  # partials are garbage once the tree failed
            if tracer.enabled:
                start = time.perf_counter_ns()
                result = self._merge(left_result, right_result)
                tracer.emit(
                    "combine",
                    worker=_worker_id(),
                    start_ns=start,
                    end_ns=time.perf_counter_ns(),
                    size=size,
                )
                return result
            return self._merge(left_result, right_result)

    def _merge(self, left_result: Any, right_result: Any) -> Any:
        try:
            plan = current_fault_plan()
            if plan is not None:
                action = plan.fire(
                    "combine", allowed=("raise", "delay", "corrupt"),
                    depth=self.depth, worker=_worker_id(),
                )
                if action is not None:
                    action.apply_before()
                    return action.apply_result(
                        self.merge(left_result, right_result)
                    )
            return self.merge(left_result, right_result)
        except BaseException as exc:  # combiner failure is fail-fast too
            self.ctx.fail(exc)
            raise

    def _leaf(self, spliterator: Spliterator, tracer) -> Any:
        try:
            action = None
            plan = current_fault_plan()
            if plan is not None:
                action = plan.fire(
                    "leaf", allowed=("raise", "delay", "corrupt"),
                    depth=self.depth, size=spliterator.estimate_size(),
                    worker=_worker_id(),
                )
                if action is not None:
                    action.apply_before()
            profiler = current_profiler()
            observer = self.ctx.observer
            if not tracer.enabled and profiler is None and observer is None:
                result = self.leaf(spliterator)
            else:
                size = spliterator.estimate_size()
                start = time.perf_counter_ns()
                result = self.leaf(spliterator)
                end = time.perf_counter_ns()
                if tracer.enabled:
                    tracer.emit(
                        "leaf",
                        worker=_worker_id(),
                        start_ns=start,
                        end_ns=end,
                        size=size,
                    )
                if observer is not None:
                    observer.record_leaf(end - start, size)
                if profiler is not None:
                    profiler.profile.record_leaf(end - start, size)
                    pool = self.ctx.pool
                    if pool is not None:
                        pool._observe_leaf_duration(end - start)
            if action is not None:
                result = action.apply_result(result)
            return result
        except BaseException as exc:
            self.ctx.fail(exc)
            raise


def _invoke_fail_fast(
    pool: ForkJoinPool,
    root: _ReduceTask,
    ctx: _TerminalContext,
    deadline: Deadline | None = None,
    inline: bool = False,
):
    """Run ``root`` on ``pool``, guaranteeing the *original* failure wins.

    Once a leaf has failed, sibling tasks may settle as cancelled; which
    exception reaches the root first is a race.  This entry point pins the
    contract: the caller always sees the first recorded failure, never a
    secondary :class:`CancellationError`.

    A ``deadline`` bounds the external wait: the remaining budget becomes
    ``pool.invoke``'s timeout, so an overrunning terminal surfaces as
    :class:`~repro.common.TaskTimeoutError` instead of blocking forever.
    An ``inline`` root (a one-leaf tree) runs in the calling thread
    instead, with the deadline checked before and after it.
    """
    timeout = None
    if deadline is not None:
        deadline.check("parallel terminal")
        timeout = deadline.remaining()
    try:
        if not inline:
            return pool.invoke(root, timeout=timeout)
        result = root.invoke()
        if deadline is not None:
            deadline.check("parallel terminal")
        return result
    except BaseException as exc:
        original = ctx.failure
        if original is not None and exc is not original:
            raise original from None
        raise


def run_threads(
    spliterator: Spliterator,
    ops: list[Op],
    spec: TerminalSpec,
    pool: ForkJoinPool,
    target_size: int | None = None,
    deadline: Deadline | None = None,
    budget: int | None = None,
) -> Any:
    """Evaluate ``spec`` over a fork/join task tree on ``pool``.

    This is the paper's template method: each leaf runs the spec's sink
    over its sub-spliterator, interior nodes merge partials with the
    spec's ``merge`` in encounter order.  Runs fail-fast: the first leaf
    or combiner exception cancels the remaining tree and re-raises
    promptly.  The context's cancel event is every leaf sink's token, so
    in-flight leaves abort at their next poll point once a sibling fails
    or a broadcasting spec (match, ``find_any``) hits.

    ``budget`` is set by ``Stream`` when the stateful cut is a
    ``limit(n)``: each leaf gets a per-leaf ``LimitOp(n)`` appended
    (sound — the global first n outputs never need more than the first n
    of any leaf, and the counted fused kernel stops that leaf's scan at
    its cut), and a :class:`~repro.streams.terminal.PrefixBudget` over
    source positions cancels still-running sibling leaves once the
    contiguous prefix of completed leaves has produced ``n`` outputs.
    The caller truncates the merged buffer.

    When the decision's inline verdict holds (the forks cannot repay
    themselves, see :mod:`repro.streams.adaptive`), the tree is one leaf
    and its root runs in the calling thread, not on the pool; a pool
    that was shut down still rejects the run.
    """
    # A budgeted run cancels leaves mid-scan once the limit is met, so its
    # spans would teach the memo a cost far below the shape's real one.
    decision, observer = _resolve_threshold(
        spliterator, ops, pool, target_size,
        observe=spec.observes and budget is None,
    )
    chunk_size = decision.chunk_size
    inline = decision.inline and not pool.is_shutdown()
    prefix = None
    if budget is not None:
        root_origin = _leaf_origin(spliterator)
        if root_origin is not None:
            prefix = PrefixBudget(budget, root_origin)
        ops = list(ops) + [LimitOp(budget)]
    ops = maybe_fuse(ops)
    ctx = _TerminalContext(pool, observer)
    _attach_profiler(pool)
    cancel = ctx.cancel

    def leaf(leaf_spliterator: Spliterator) -> Any:
        origin = None
        span = 0
        if prefix is not None:
            origin = _leaf_origin(leaf_spliterator)
            span = leaf_spliterator.estimate_size()
        partial = spec.leaf(leaf_spliterator, ops, cancel, chunk_size)
        if ctx.failure is not None:
            raise CancellationError("leaf aborted by sibling failure")
        if (
            origin is not None
            and not cancel.is_set()
            and isinstance(partial, list)
            and prefix.note(origin, origin + span, len(partial))
        ):
            # Only completed leaves may report: a partial (aborted) leaf's
            # interval would break the contiguous-prefix soundness rule.
            cancel.set()
        return partial

    root = _ReduceTask(spliterator, decision.target_size, leaf, spec.merge, ctx)
    merged = _invoke_fail_fast(pool, root, ctx, deadline, inline)
    if observer is not None and spec.feeds_memo(merged):
        # An explicit integer target is never inlined: no dispatch probe.
        observer.complete(pool, probe_dispatch=not isinstance(target_size, int))
    return spec.finish(merged)
