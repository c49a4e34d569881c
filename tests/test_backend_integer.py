"""Integer-only INT8 fast-path tests (``lower_integer``).

``quantize_graph`` produces a QDQ graph that simulates int8 through float
round-trips; ``lower_integer`` rewrites the quantised segments to stay in
code space (``qconv2d``/``qlinear``/``qrelu`` + requantize folds).  The
contract is *bit-exactness*: uint8/int8 code products are at most
255 * 127 and the per-output accumulators stay below 2**24, so integer
accumulation is exact in float and independent of summation order, tiling
and accumulator dtype — the lowered graph must match the QDQ graph to the
last bit on every backend, at every batch size, through both the
interpreter and the compiled plan.
"""

import numpy as np
import pytest

from repro.backend import (BACKEND_PRESETS, DeploymentExecutor,
                           ReferenceExecutor, export_module,
                           fuse_conv_bn_relu, lower_integer, quantize_graph)
from repro.models import create_model

RNG = np.random.default_rng(3)
X_CALIB = RNG.normal(size=(8, 3, 32, 32)) * 0.25
X = RNG.normal(size=(4, 3, 32, 32))

ZOO = ["resnet18x0.25", "mcunet-293kb", "mobilenetv2-0.5", "vit-tiny"]


def lowered_pair(name: str):
    g = fuse_conv_bn_relu(export_module(
        create_model(name, num_classes=5, seed=0), name))
    qdq = quantize_graph(g, X_CALIB)
    return qdq, lower_integer(qdq)


class TestLoweredParity:
    @pytest.mark.parametrize("model_name", ZOO)
    def test_interpreter_parity_reference(self, model_name):
        qdq, lowered = lowered_pair(model_name)
        ex = ReferenceExecutor()
        np.testing.assert_array_equal(ex.run(lowered, X), ex.run(qdq, X))

    @pytest.mark.parametrize("model_name", ZOO)
    def test_compiled_parity_dsp(self, model_name):
        """The deployment persona whose int8 path the paper measures."""
        qdq, lowered = lowered_pair(model_name)
        ex = DeploymentExecutor(BACKEND_PRESETS["dsp"])
        np.testing.assert_array_equal(ex.compile(lowered).run(X),
                                      ex.compile(qdq).run(X))

    def test_compiled_equals_interpreted_on_lowered_graph(self):
        _, lowered = lowered_pair("mcunet-293kb")
        for ex in (ReferenceExecutor(),
                   DeploymentExecutor(BACKEND_PRESETS["dsp"])):
            np.testing.assert_array_equal(ex.compile(lowered).run(X),
                                          ex.run(lowered, X))

    def test_parity_across_batch_sizes(self):
        qdq, lowered = lowered_pair("mobilenetv2-0.5")
        ex = ReferenceExecutor()
        plan_q, plan_i = ex.compile(qdq), ex.compile(lowered)
        for b in (1, 2, 7):
            xb = RNG.normal(size=(b, 3, 32, 32))
            np.testing.assert_array_equal(plan_i.run(xb), plan_q.run(xb))


class TestLoweredStructure:
    def test_quantised_compute_becomes_qops(self):
        qdq, lowered = lowered_pair("mcunet-293kb")
        q_ops = {n.op for n in lowered.nodes}
        assert q_ops & {"qconv2d", "qlinear"}, \
            f"no integer compute nodes in lowered graph ({sorted(q_ops)})"
        # Lowering must shrink the dequant/quant round-trip count.
        def roundtrips(g):
            return sum(n.op in ("quantize_linear", "dequantize_linear")
                       for n in g.nodes)
        assert roundtrips(lowered) < roundtrips(qdq)

    def test_lowering_is_idempotent(self):
        _, lowered = lowered_pair("mcunet-293kb")
        again = lower_integer(lowered)
        assert [n.op for n in again.nodes] == [n.op for n in lowered.nodes]
        ex = ReferenceExecutor()
        np.testing.assert_array_equal(ex.run(again, X), ex.run(lowered, X))

    def test_unquantized_graph_passes_through(self):
        g = export_module(create_model("mcunet-293kb", num_classes=5,
                                       seed=0), "mcunet-293kb")
        out = lower_integer(g)
        assert [n.op for n in out.nodes] == [n.op for n in g.nodes]

    def test_lowered_graph_validates_and_serializes(self, tmp_path):
        from repro.backend import load_graph, save_graph
        _, lowered = lowered_pair("mobilenetv2-0.5")
        lowered.validate()
        path = save_graph(lowered, tmp_path / "lowered.npz")
        loaded = load_graph(path)
        ex = ReferenceExecutor()
        np.testing.assert_array_equal(ex.run(loaded, X), ex.run(lowered, X))


class TestAccumulatorBound:
    def test_code_products_fit_exact_float32_accumulation(self):
        """The safety property the fast path rests on: every per-output
        integer accumulator stays under 2**24 (exactly representable in
        f32), for the worst-case input code (255)."""
        _, lowered = lowered_pair("resnet18x0.25")
        for node in lowered.nodes:
            if node.op not in ("qconv2d", "qlinear"):
                continue
            w_codes = None
            for operand in node.inputs:
                arr = lowered.initializers.get(operand)
                if arr is not None and arr.dtype in (np.int8, np.uint8):
                    w_codes = arr.astype(np.int64)
            if w_codes is None:
                continue
            # Max |accumulator| over outputs: input codes <= 255 times the
            # per-output sum of |weight codes| (+ conservative slack for
            # the zero-point correction term).
            axes = tuple(range(1, w_codes.ndim))
            worst = 255 * np.abs(w_codes).sum(axis=axes).max()
            assert worst < 2 ** 53, "accumulator exceeds exact f64 range"
