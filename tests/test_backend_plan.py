"""Compiled execution-plan tests: bit-exactness, fusion passes, memory plan.

The plan layer's contract is *exact* numeric parity with the interpreted
executors — same graph, same backend options, same bits — plus safety of
the liveness-analysed buffer reuse under aliasing (views of live buffers
must never be clobbered by in-place rewrites).  The bounded
``prepare_cached`` executor cache and the instrumented plan run are
covered here too.
"""

import gc

import numpy as np
import pytest

from repro.backend import (BACKEND_PRESETS, DeploymentExecutor, GraphBuilder,
                           PLAN_PASSES, ReferenceExecutor, compile_plan,
                           export_module, fold_movement, fuse_conv_bn_relu,
                           fuse_conv_relu, fuse_elementwise, infer_shapes,
                           profile_graph, quantize_graph, render_profile)
from repro.backend.executor import (clear_prepared_cache, prepare_cached,
                                    prepared_cache_stats)
from repro.models import create_model

RNG = np.random.default_rng(7)
X = RNG.normal(size=(4, 3, 32, 32))


def graph_for(name: str):
    return export_module(create_model(name, num_classes=5, seed=0), name)


# ---------------------------------------------------------------------------
# Bit-exact parity: interpreted vs compiled
# ---------------------------------------------------------------------------

class TestPlanParity:
    @pytest.mark.parametrize("model_name", [
        "resnet18x0.25", "mcunet-293kb", "mobilenetv2-0.5", "vit-tiny",
    ])
    @pytest.mark.parametrize("backend", ["reference", "gpu-fp16", "dsp"])
    def test_bit_exact_across_zoo_and_backends(self, model_name, backend):
        g = graph_for(model_name)
        ex = (ReferenceExecutor() if backend == "reference"
              else DeploymentExecutor(BACKEND_PRESETS[backend]))
        want = ex.run(g, X)
        got = ex.compile(g).run(X)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_bit_exact_int8_graph(self):
        """The QDQ-quantised graph runs bit-equal through the plan (fp32 and
        int8 deployment flavours of the backend stack)."""
        g = graph_for("resnet18x0.25")
        qg = quantize_graph(g, X)
        for ex in (ReferenceExecutor(),
                   DeploymentExecutor(BACKEND_PRESETS["dsp"])):
            np.testing.assert_array_equal(ex.compile(qg).run(X),
                                          ex.run(qg, X))

    def test_unoptimized_plan_is_also_exact(self):
        g = graph_for("mcunet-293kb")
        ex = ReferenceExecutor()
        plan = compile_plan(g, ex, optimize=False)
        np.testing.assert_array_equal(plan.run(X), ex.run(g, X))

    def test_plan_handles_varying_batch_sizes(self):
        g = graph_for("resnet18x0.25")
        ex = ReferenceExecutor()
        plan = ex.compile(g)
        for b in (1, 2, 7):
            xb = RNG.normal(size=(b, 3, 32, 32))
            np.testing.assert_array_equal(plan.run(xb), ex.run(g, xb))

    def test_plan_does_not_mutate_caller_input(self):
        b = GraphBuilder("g")
        out = b.emit("relu", ["x"])
        g = b.finish(out)
        x = RNG.normal(size=(2, 3, 4, 4))
        keep = x.copy()
        ReferenceExecutor().compile(g).run(x)
        np.testing.assert_array_equal(x, keep)


# ---------------------------------------------------------------------------
# run_batch
# ---------------------------------------------------------------------------

class TestRunBatch:
    def test_single_batch_equals_run(self):
        g = graph_for("resnet18x0.25")
        plan = ReferenceExecutor().compile(g)
        np.testing.assert_array_equal(plan.run_batch([X]), plan.run(X))

    def test_pieces_are_carried_in_one_pass(self):
        g = graph_for("resnet18x0.25")
        plan = ReferenceExecutor().compile(g)
        a, b = X[:1], X[1:]
        np.testing.assert_array_equal(
            plan.run_batch([a, b]), plan.run(np.concatenate([a, b])))

    def test_empty_rejected(self):
        g = graph_for("resnet18x0.25")
        plan = ReferenceExecutor().compile(g)
        with pytest.raises(ValueError):
            plan.run_batch([])


# ---------------------------------------------------------------------------
# Buffer reuse / aliasing safety
# ---------------------------------------------------------------------------

class TestMemoryPlan:
    def test_slots_fewer_than_values(self):
        """Liveness analysis must actually reuse arena slots."""
        g = graph_for("resnet18x0.25")
        plan = ReferenceExecutor().compile(g)
        assert plan.n_slots < len(plan.graph.nodes) + 1

    def test_view_of_live_buffer_is_not_clobbered(self):
        """relu would write in place if the slice view did not pin its base
        buffer's alias group; the late concat still needs the original."""
        b = GraphBuilder("alias")
        h = b.emit("relu", ["x"])                       # fresh buffer
        view = b.emit("slice", [h], attrs=dict(axis=2, start=0, stop=2))
        gated = b.emit("relu", [view])                  # in-place candidate
        cat = b.emit("concat", [gated, h], attrs=dict(axis=2))
        g = b.finish(cat)
        x = RNG.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(
            ReferenceExecutor().compile(g).run(x),
            ReferenceExecutor().run(g, x))

    def test_concurrent_runs_share_one_plan_safely(self):
        """compile_cached hands the same plan to every caller and sweeps run
        from thread pools: concurrent run() calls must not corrupt the
        per-closure scratch buffers."""
        from concurrent.futures import ThreadPoolExecutor

        g = graph_for("resnet18x0.25")
        ex = ReferenceExecutor()
        plan = ex.compile(g)
        want = ex.run(g, X)
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(lambda _: plan.run(X), range(8)))
        for out in outs:
            np.testing.assert_array_equal(out, want)

    def test_shared_input_of_binary_op_stays_intact(self):
        """add(y, y) and a later reader of y: in-place must not fire while
        another consumer still needs the operand."""
        b = GraphBuilder("shared")
        y = b.emit("relu", ["x"])
        s = b.emit("add", [y, y])
        m = b.emit("mul", [s, y])
        g = b.finish(m)
        x = RNG.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(
            ReferenceExecutor().compile(g).run(x),
            ReferenceExecutor().run(g, x))


# ---------------------------------------------------------------------------
# Fusion passes
# ---------------------------------------------------------------------------

class TestFusionPasses:
    def test_fuse_conv_relu_marks_convs_and_is_exact(self):
        # Direct conv->relu pairs appear once BN is folded away (the raw
        # export interleaves batchnorm); the relu attachment itself must be
        # numerically exact on that graph.
        from repro.backend import fuse_conv_bn
        g = fuse_conv_bn(graph_for("resnet18x0.25"))
        fused = fuse_conv_relu(g)
        marked = [n for n in fused.nodes
                  if n.op == "conv2d" and n.attrs.get("activation") == "relu"]
        assert marked
        assert len(fused.nodes) < len(g.nodes)
        np.testing.assert_array_equal(ReferenceExecutor().run(fused, X),
                                      ReferenceExecutor().run(g, X))

    def test_fuse_conv_bn_relu_folds_bn_and_attaches_relu(self):
        g = graph_for("resnet18x0.25")
        fused = fuse_conv_bn_relu(g)
        assert not any(n.op == "batchnorm" for n in fused.nodes)
        assert any(n.attrs.get("activation") == "relu" for n in fused.nodes
                   if n.op == "conv2d")
        # BN folding is numerically non-neutral by design; the relu
        # attachment itself must be exact on the BN-folded graph.
        from repro.backend import fuse_conv_bn
        np.testing.assert_array_equal(
            ReferenceExecutor().run(fused, X),
            ReferenceExecutor().run(fuse_conv_bn(g), X))

    def test_fuse_elementwise_collapses_chains_exactly(self):
        b = GraphBuilder("chain")
        h = b.emit("relu", ["x"])
        h = b.emit("scale", [h], attrs=dict(factor=1.5))
        h = b.emit("clip", [h], attrs=dict(lo=-1.0, hi=1.0))
        h = b.emit("sigmoid", [h])
        g = b.finish(h)
        fused = fuse_elementwise(g)
        assert [n.op for n in fused.nodes] == ["fused_elementwise"]
        assert len(fused.nodes[0].attrs["chain"]) == 4
        x = RNG.normal(size=(2, 3, 4, 4))
        for ex in (ReferenceExecutor(),
                   DeploymentExecutor(BACKEND_PRESETS["dsp"])):
            np.testing.assert_array_equal(ex.run(fused, x), ex.run(g, x))

    def test_fuse_elementwise_respects_fan_out(self):
        b = GraphBuilder("fan")
        h = b.emit("relu", ["x"])
        s = b.emit("sigmoid", [h])       # h also feeds the add below
        g = b.finish(b.emit("add", [h, s]))
        fused = fuse_elementwise(g)
        assert all(n.op != "fused_elementwise" for n in fused.nodes)

    def test_fold_movement_composes_transposes(self):
        b = GraphBuilder("t")
        h = b.emit("transpose", ["x"], attrs=dict(perm=(0, 2, 3, 1)))
        h = b.emit("transpose", [h], attrs=dict(perm=(0, 3, 1, 2)))
        h = b.emit("relu", [h])
        g = b.finish(h)
        folded = fold_movement(g)
        # perm composition yields the identity permutation -> both vanish
        assert [n.op for n in folded.nodes] == ["relu"]
        x = RNG.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(ReferenceExecutor().run(folded, x),
                                      ReferenceExecutor().run(g, x))

    def test_fold_movement_merges_reshapes(self):
        b = GraphBuilder("r")
        h = b.emit("reshape", ["x"], attrs=dict(shape=(2, 48)))
        h = b.emit("reshape", [h], attrs=dict(shape=(2, 3, 16)))
        g = b.finish(b.emit("relu", [h]))
        folded = fold_movement(g)
        assert sum(n.op == "reshape" for n in folded.nodes) == 1
        x = RNG.normal(size=(2, 3, 4, 4))
        np.testing.assert_array_equal(ReferenceExecutor().run(folded, x),
                                      ReferenceExecutor().run(g, x))

    def test_plan_passes_preserve_shapes(self):
        g = graph_for("vit-tiny")
        opt = g
        for p in PLAN_PASSES:
            opt = p(opt)
        assert (infer_shapes(opt, (None, 3, 32, 32))[opt.output]
                == infer_shapes(g, (None, 3, 32, 32))[g.output])


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    def test_compile_is_memoised_per_graph_and_options(self):
        g = graph_for("resnet18x0.25")
        ex = ReferenceExecutor()
        assert ex.compile(g) is ex.compile(g)
        dep = DeploymentExecutor(BACKEND_PRESETS["gpu-fp16"])
        assert dep.compile(g) is not ex.compile(g)

    def test_distinct_graphs_do_not_share_plans(self):
        ga, gb = graph_for("resnet18x0.25"), graph_for("resnet18x0.25")
        ex = ReferenceExecutor()
        assert ex.compile(ga) is not ex.compile(gb)


# ---------------------------------------------------------------------------
# Instrumented run: per-node wall time, same bits
# ---------------------------------------------------------------------------

class TestInstrumentedRun:
    def test_instrumented_run_matches_plain_run(self):
        g = graph_for("mcunet-293kb")
        plan = ReferenceExecutor().compile(g)
        y, records = plan.run_instrumented(X)
        np.testing.assert_array_equal(y, plan.run(X))
        assert len(records) == len(plan.graph.nodes)
        for rec in records:
            assert set(rec) == {"name", "op", "time_s"}
            assert rec["time_s"] >= 0.0


class TestCompiledProfile:
    """``profile_graph(compiled=True)`` keeps one per-node timing pass."""

    def test_node_times_are_per_node(self):
        g = graph_for("mcunet-293kb")
        profile = profile_graph(g, x=X, compiled=True, repeats=1)
        assert len(profile.node_times) == len(g.nodes)
        assert all(rec["time_s"] >= 0.0 for rec in profile.node_times)

    def test_render_includes_node_time_section(self):
        g = graph_for("mcunet-293kb")
        profile = profile_graph(g, x=X, compiled=True, repeats=1)
        text = render_profile(profile, top=5)
        assert "% time" in text and "(compiled plan)" in text

    def test_uncompiled_profile_has_no_node_times(self):
        g = graph_for("mcunet-293kb")
        assert profile_graph(g, x=X, repeats=1).node_times is None
        assert "% time" not in render_profile(profile_graph(g))


# ---------------------------------------------------------------------------
# Bounded prepare_cached (byte- and entry-bounded LRU)
# ---------------------------------------------------------------------------

class _Carrier:
    """A graph-shaped cache key owner with a measurable payload."""

    def __init__(self, nbytes: int):
        self.initializers = {"w": np.zeros(nbytes, dtype=np.uint8)}


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestPreparedCache:
    def setup_method(self):
        clear_prepared_cache()

    def teardown_method(self):
        clear_prepared_cache()

    def test_hit_and_miss_accounting(self):
        g = _Carrier(64)
        calls = []
        for _ in range(3):
            prepare_cached(g, "k", lambda graph: (calls.append(1), graph)[1])
        stats = prepared_cache_stats()
        assert len(calls) == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_entry_bound_evicts_lru(self, monkeypatch):
        from repro.backend import executor as executor_mod
        monkeypatch.setattr(executor_mod, "PREPARED_CACHE_ENTRIES", 3)
        carriers = [_Carrier(16) for _ in range(5)]
        for g in carriers:
            prepare_cached(g, "k", lambda graph: graph)
        assert prepared_cache_stats()["entries"] == 3
        # The survivors are the most recently used; re-preparing the
        # evicted head is a miss again.
        before = prepared_cache_stats()["misses"]
        prepare_cached(carriers[0], "k", lambda graph: graph)
        assert prepared_cache_stats()["misses"] == before + 1

    def test_byte_bound_evicts(self, monkeypatch):
        from repro.backend import executor as executor_mod
        monkeypatch.setattr(executor_mod, "PREPARED_CACHE_BYTES", 3000)
        carriers = [_Carrier(1024) for _ in range(4)]
        for g in carriers:
            prepare_cached(g, "k", lambda graph: graph)
        stats = prepared_cache_stats()
        assert stats["entries"] < 4
        assert stats["bytes"] <= 3000

    def test_dead_graph_entries_are_reclaimed(self):
        g = _Carrier(128)
        # The cached value must not be the graph itself (as in real use,
        # where transforms return new graphs/plans) or the cache's strong
        # reference would keep the key's graph alive forever.
        prepare_cached(g, "k", lambda graph: _Carrier(8))
        assert prepared_cache_stats()["entries"] == 1
        del g
        gc.collect()
        assert prepared_cache_stats()["entries"] == 0
