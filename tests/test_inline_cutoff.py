"""The inline verdict of the split decision: tiny parallel queries run in
the caller.

After one warm-up run has taught the memo a shape's per-element cost and
the pool's dispatch cost, a thread-backend run whose forks cannot repay
themselves — ``work × (1 − 1/min(p, leaves)) ≤ leaves × dispatch`` —
is one leaf computed in the calling thread: no pool task, no combiner
call, but the same leaf span, ``leaf`` fault site and deadline checks.
Large queries of the same shape keep Java's tree, and ``explain()``
predicts both through the same decision.
"""

import time

import pytest

from repro.common import RejectedExecutionError, TaskTimeoutError
from repro.faults import FaultInjected, FaultPlan, fault_injection
from repro.forkjoin import ForkJoinPool, RecursiveTask
from repro.obs import tracing
from repro.obs.tracer import EXTERNAL_WORKER
from repro.streams import Collector, Stream, adaptive

SMALL = 64
LARGE = 1 << 16
PARALLELISM = 2


def _work(x):
    return x * 3 + 1


def _keep(x):
    return x % 3 != 0


_SLOW = {"on": False}


def _maybe_slow(x):
    if _SLOW["on"]:
        time.sleep(0.002)
    return x


@pytest.fixture
def pool():
    with ForkJoinPool(parallelism=PARALLELISM, name="inline-test") as p:
        yield p


def _query(pool, n, **kw):
    stream = Stream.range(0, n).parallel().with_pool(pool)
    if "target" in kw:
        stream = stream.with_target_size(kw["target"])
    return stream.map(_work).filter(_keep)


def _expected(n):
    return [y for y in map(_work, range(n)) if _keep(y)]


def _tasks(pool):
    """``tasks_executed`` once it settles: a worker counts a task just
    after the task's joiner is released."""
    value = pool.stats()["tasks_executed"]
    while True:
        time.sleep(0.01)
        again = pool.stats()["tasks_executed"]
        if again == value:
            return value
        value = again


def _leaf_spans(tracer):
    return [s for s in tracer.spans() if s.kind == "leaf"]


class TestInlineVerdict:
    def test_tiny_query_runs_no_pool_task_after_warmup(self, pool):
        assert _query(pool, SMALL).to_list() == _expected(SMALL)  # warm-up
        before = _tasks(pool)
        assert _query(pool, SMALL).to_list() == _expected(SMALL)
        assert _tasks(pool) - before == 0
        assert adaptive.split_policy_stats()["inlined"] == 1

    def test_first_run_of_a_shape_builds_java_tree(self, pool):
        # Nothing measured yet: no verdict, Java's rule splits.
        with tracing() as tracer:
            _query(pool, SMALL).to_list()
        assert len(_leaf_spans(tracer)) == SMALL // (SMALL // (4 * PARALLELISM))

    def test_large_query_of_same_shape_still_splits(self, pool):
        _query(pool, SMALL).to_list()  # warm-up
        with tracing() as tracer:
            assert _query(pool, LARGE).to_list() == _expected(LARGE)
        assert len(_leaf_spans(tracer)) >= 2 * PARALLELISM

    def test_explain_predicts_both_cases(self, pool):
        _query(pool, SMALL).to_list()  # warm-up
        small = _query(pool, SMALL).explain()["execution"]
        large = _query(pool, LARGE).explain()["execution"]
        assert small["cutoff"]["inline"] is True
        assert small["split_tree"] == {"leaves": 1, "depth": 0}
        assert small["target_size"] == SMALL
        assert large["cutoff"]["inline"] is False
        assert large["cutoff"]["leaves"] == large["split_tree"]["leaves"]
        assert "cutoff: inline in the caller" in _query(pool, SMALL).explain().render()
        with tracing() as tracer:
            _query(pool, SMALL).to_list()
            small_leaves = len(_leaf_spans(tracer))
            tracer.clear()
            _query(pool, LARGE).to_list()
            large_leaves = len(_leaf_spans(tracer))
        assert small_leaves == small["split_tree"]["leaves"]
        assert large_leaves == large["split_tree"]["leaves"]

    def test_explain_does_not_count_inline_decisions(self, pool):
        _query(pool, SMALL).to_list()
        _query(pool, SMALL).explain()
        assert adaptive.split_policy_stats()["inlined"] == 0

    def test_explicit_target_size_is_never_inlined(self, pool):
        _query(pool, SMALL).to_list()  # warm-up teaches the cost
        before = _tasks(pool)
        with tracing() as tracer:
            assert _query(pool, SMALL, target=8).to_list() == _expected(SMALL)
        assert len(_leaf_spans(tracer)) == SMALL // 8
        assert _tasks(pool) - before > 0
        assert "cutoff" not in _query(pool, SMALL, target=8).explain()["execution"]

    def test_auto_policy_gets_the_same_verdict(self, pool):
        with adaptive.split_policy("auto"):
            _query(pool, SMALL).to_list()
            before = _tasks(pool)
            _query(pool, SMALL).to_list()
            plan = _query(pool, SMALL).explain()["execution"]
        assert _tasks(pool) - before == 0
        assert plan["threshold_source"] == "auto"
        assert plan["cutoff"]["inline"] is True

    def test_unsized_source_is_never_judged(self, pool):
        def source():
            return Stream.of_iterable(iter(range(SMALL))).parallel().with_pool(pool)

        source().map(_work).to_list()
        assert "cutoff" not in source().map(_work).explain()["execution"]

    def test_shut_down_pool_still_rejects(self):
        p = ForkJoinPool(parallelism=PARALLELISM, name="inline-shutdown")
        _query(p, SMALL).to_list()
        p.shutdown()
        with pytest.raises(RejectedExecutionError):
            _query(p, SMALL).to_list()


class TestInlineRunKeepsTheLeafContract:
    def test_leaf_span_from_the_calling_thread(self, pool):
        _query(pool, SMALL).to_list()
        with tracing() as tracer:
            _query(pool, SMALL).to_list()
        leaves = _leaf_spans(tracer)
        assert len(leaves) == 1
        assert leaves[0].worker == EXTERNAL_WORKER
        assert not [s for s in tracer.spans() if s.kind in ("split", "combine")]

    def test_leaf_fault_site_fires(self, pool):
        _query(pool, SMALL).to_list()
        plan = FaultPlan().inject("leaf", "raise", times=1)
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                _query(pool, SMALL).to_list()
        assert adaptive.split_policy_stats()["inlined"] == 1

    def test_combiner_not_called(self, pool):
        merges = []

        def combine(a, b):
            merges.append(1)
            a.extend(b)
            return a

        def collector():
            return Collector.of(list, list.append, combine)

        def run():
            return _query(pool, SMALL).collect(collector())

        assert run() == _expected(SMALL)
        assert merges  # the warm-up split and merged
        merges.clear()
        assert run() == _expected(SMALL)
        assert merges == []

    def test_leaf_exception_propagates(self, pool):
        def run(fail):
            def f(x):
                if fail and x == 17:
                    raise ValueError("boom")
                return x

            return Stream.range(0, SMALL).parallel().with_pool(pool).map(f).to_list()

        assert run(False) == list(range(SMALL))
        with pytest.raises(ValueError, match="boom"):
            run(True)

    def test_deadline_checked_before_and_after_the_leaf(self, pool):
        def query():
            return (
                Stream.range(0, SMALL).parallel().with_pool(pool)
                .map(_maybe_slow)
            )

        query().to_list()  # warm-up on the fast path
        assert query().with_deadline(60.0).to_list() == list(range(SMALL))
        _SLOW["on"] = True
        try:
            with pytest.raises(TaskTimeoutError):
                query().with_deadline(0.02).to_list()
        finally:
            _SLOW["on"] = False
        assert adaptive.split_policy_stats()["inlined"] == 2


class TestEveryRunFeedsTheMemo:
    def test_default_policy_runs_are_observed(self, pool):
        _query(pool, SMALL).to_list()
        key = adaptive.shape_key(
            _query(pool, SMALL)._ops, Stream.range(0, 1)._spliterator,
            PARALLELISM,
        )
        entry = adaptive._policy.memo_entry(key)
        assert entry is not None and entry["cost_per_element_ns"] > 0
        assert adaptive.split_policy_stats()["dispatch_cost_ns"]["threads"] > 0

    def test_budgeted_runs_do_not_feed_the_memo(self, pool):
        out = Stream.range(0, LARGE).parallel().with_pool(pool).map(_work).limit(5)
        assert out.to_list() == [_work(x) for x in range(5)]
        # The limit segment cancelled leaves mid-scan: only the op-free
        # tail segment over the 5-element buffer was observed.
        assert adaptive.split_policy_stats()["observed_runs"] == 1

    def test_nested_runs_do_not_probe_dispatch(self, pool):
        class Outer(RecursiveTask):
            def compute(self):
                return (
                    Stream.range(0, SMALL).parallel().with_pool(pool)
                    .map(_work).to_list()
                )

        for _ in range(3):
            assert pool.invoke(Outer()) == list(map(_work, range(SMALL)))
        stats = adaptive.split_policy_stats()
        assert stats["observed_runs"] == 3
        assert "threads" not in stats["dispatch_cost_ns"]
