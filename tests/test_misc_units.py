"""Direct unit tests for helpers only exercised indirectly elsewhere."""

import threading

import pytest

from repro.common import IllegalArgumentError, IllegalStateError
from repro.forkjoin import ForkJoinPool, RecursiveTask
from repro.forkjoin.pool import current_worker
from repro.powerlist import PowerList
from repro.powerlist.operators import elementwise
from repro.simcore import CostModel, SimMachine
from repro.simcore.dag import build_nway_dag
from repro.streams.adaptive import compute_target_size
from repro.streams.spliterator import UNKNOWN_SIZE


class TestCurrentWorker:
    def test_none_outside_pool(self):
        assert current_worker() is None

    def test_set_inside_pool(self):
        seen = []

        class Probe(RecursiveTask):
            def compute(self):
                worker = current_worker()
                seen.append((worker is not None, worker.pool if worker else None))
                return None

        with ForkJoinPool(parallelism=2, name="probe") as pool:
            pool.invoke(Probe())
            assert seen == [(True, pool)]

    def test_common_pool_parallelism_lock(self):
        from repro.forkjoin import common_pool, set_common_pool_parallelism

        common_pool()  # ensure created
        with pytest.raises(IllegalStateError):
            set_common_pool_parallelism(2)

    def test_common_pool_reconfigurable_after_shutdown(self):
        from repro.forkjoin import (
            common_pool,
            set_common_pool_parallelism,
            shutdown_common_pool,
        )

        first = common_pool()
        retired = shutdown_common_pool()
        assert retired is first
        assert retired.is_terminated()
        # With the singleton retired, reconfiguration is legal again and
        # the next common_pool() call builds a fresh pool at the new width.
        set_common_pool_parallelism(2)
        fresh = common_pool()
        try:
            assert fresh is not first
            assert fresh.parallelism == 2

            class Sum(RecursiveTask):
                def compute(self):
                    return 21 + 21

            assert fresh.invoke(Sum()) == 42
        finally:
            # Retire the narrow pool and restore the default width so later
            # tests see a pristine common-pool configuration.
            shutdown_common_pool()
            import repro.forkjoin.pool as fjp

            with fjp._common_lock:
                fjp._common_parallelism = None

    def test_shutdown_common_pool_without_pool_is_noop(self):
        from repro.forkjoin import shutdown_common_pool

        shutdown_common_pool()  # retire whatever earlier tests created
        assert shutdown_common_pool() is None


class TestComputeTargetSize:
    def test_java_rule(self):
        assert compute_target_size(1024, 8) == 1024 // 32

    def test_minimum_one(self):
        assert compute_target_size(3, 8) == 1

    def test_unknown_size_scales_with_parallelism(self):
        # The unsized default is divided across workers, not a constant:
        # eight workers must not all get the single-worker leaf size.
        assert compute_target_size(UNKNOWN_SIZE, 8) == (1 << 12) // 8
        assert compute_target_size(UNKNOWN_SIZE, 1) == 1 << 12
        assert compute_target_size(UNKNOWN_SIZE, 1 << 14) == 1


class TestBuildNwayDag:
    def test_three_way_shape(self):
        dag = build_nway_dag(27, 1, CostModel(), arity=3)
        kinds = [s.kind for s in dag.strands]
        assert kinds.count("leaf") == 27
        assert kinds.count("split") == 13  # 1 + 3 + 9
        assert kinds.count("combine") == 13
        dag.validate()

    def test_indivisible_becomes_leaf(self):
        dag = build_nway_dag(10, 1, CostModel(), arity=3)
        assert dag.leaf_count() == 1

    def test_schedulable(self):
        dag = build_nway_dag(81, 3, CostModel(), arity=3)
        result = SimMachine(8).run(dag)
        assert sorted(t.sid for t in result.trace) == list(range(len(dag.strands)))

    def test_higher_arity_shallower(self):
        deep = build_nway_dag(64, 1, CostModel(), arity=2)
        shallow = build_nway_dag(64, 1, CostModel(), arity=8)
        assert shallow.critical_path() < deep.critical_path()

    def test_zip_strides_charged(self):
        m = CostModel(stride_penalty=0.3)
        tie = build_nway_dag(81, 3, m, arity=3, operator="tie")
        zipped = build_nway_dag(81, 3, m, arity=3, operator="zip")
        assert zipped.total_work() > tie.total_work()

    @pytest.mark.parametrize("bad", [(0, 1, 2), (4, 0, 2), (4, 1, 1)])
    def test_validation(self, bad):
        n, t, arity = bad
        with pytest.raises(IllegalArgumentError):
            build_nway_dag(n, t, CostModel(), arity=arity)

    def test_unknown_operator(self):
        with pytest.raises(IllegalArgumentError):
            build_nway_dag(4, 1, CostModel(), arity=2, operator="bogus")


class TestElementwise:
    def test_custom_operator(self):
        out = elementwise(lambda a, b: f"{a}{b}", PowerList(["x", "y"]),
                          PowerList(["1", "2"]))
        assert out.to_list() == ["x1", "y2"]

    def test_similarity_required(self):
        from repro.common import NotSimilarError

        with pytest.raises(NotSimilarError):
            elementwise(lambda a, b: a, PowerList([1]), PowerList([1, 2]))


class TestGridSub:
    def test_subtracts(self):
        from repro.powerlist.grid import Grid, grid_sub

        x = Grid.from_rows([[5, 6], [7, 8]])
        y = Grid.from_rows([[1, 2], [3, 4]])
        assert grid_sub(x, y).to_rows() == [[4, 4], [4, 4]]

    def test_similarity(self):
        from repro.powerlist.grid import Grid, grid_sub

        with pytest.raises(IllegalArgumentError):
            grid_sub(Grid.filled(1, 2, 2), Grid.filled(1, 4, 4))


class TestDescendSpliteratorDirect:
    def test_transforms_on_split(self):
        from repro.core.extended_ops import (
            DescendTieSpliterator,
            DescendTransformCollector,
        )

        collector = DescendTransformCollector(
            op_plus=lambda a, b: a + b, op_times=lambda a, b: a - b
        )
        s = DescendTieSpliterator([1.0, 2.0, 3.0, 4.0], 0, 4, 1, collector)
        prefix = s.try_split()
        left, right = [], []
        # Elements must already be the (p⊕q) and (p⊗q) halves — but note
        # the leaf basic_case applies the remaining recursion too.
        collector.basic_case = None  # observe raw storage
        prefix.for_each_remaining(left.append)
        s.for_each_remaining(right.append)
        assert left == [1 + 3, 2 + 4]
        assert right == [1 - 3, 2 - 4]

    def test_singleton_refuses(self):
        from repro.core.extended_ops import (
            DescendTieSpliterator,
            DescendTransformCollector,
        )

        collector = DescendTransformCollector(lambda a, b: a, lambda a, b: b)
        s = DescendTieSpliterator([1.0], 0, 1, 1, collector)
        assert s.try_split() is None
