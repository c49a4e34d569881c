"""Plan-inference integration tests: sessions, engines, ledgers, serve.

``inference="plan"`` swaps the sweep's evaluation substrate from the
module forward to a compiled execution plan — published once into the run
directory as ``plan.npz`` and loaded (digest-verified) by every joining
process.  These tests pin the wiring: artefact publish/load/refusal, the
mode folding into cache and ledger identity, the per-cell fallback for
model-modifying configs, and the serve layer's spec validation.
"""

import json

import numpy as np
import pytest

from repro.core import (PLAN_ARTIFACT, BenchmarkSession, PlanPredictor,
                        SweepEngine)

NOISES = ("resize", "precision")


def build_session(store, mode="module", run_id=None):
    s = (BenchmarkSession().task("cls").model("mcunet-293kb").seed(0)
         .data(n=24, train_frac=0.5).noises(*NOISES).combined(False))
    if store is not None:
        s = s.store(store, run_id=run_id)
    if mode == "plan":
        s = s.inference(mode)
    return s


def row_of(result):
    return {"baseline": result.baseline,
            **{n: r.values for n, r in result.results.items()
               if r is not None}}


# ---------------------------------------------------------------------------
# Artefact lifecycle: publish, load, refuse
# ---------------------------------------------------------------------------

class TestArtifactLifecycle:
    def test_first_session_publishes_with_digest(self, tmp_path):
        s = build_session(tmp_path, "plan")
        s.fit_or_load(epochs=1)
        ledger = s.ledger
        plan_path = ledger.path / PLAN_ARTIFACT
        assert plan_path.exists()
        assert PLAN_ARTIFACT in ledger.manifest.get("checkpoints", {})
        assert s._ensure_plan_predictor().compiles == 1

    def test_second_session_loads_not_recompiles(self, tmp_path):
        s1 = build_session(tmp_path, "plan")
        s1.fit_or_load(epochs=1)
        r1 = row_of(s1.run())
        s2 = build_session(tmp_path, "plan", run_id=s1.run_id)
        s2.fit_or_load(epochs=1)
        r2 = row_of(s2.run())
        predictor = s2._ensure_plan_predictor()
        assert predictor.loads == 1 and predictor.compiles == 0
        assert r1 == r2

    def test_corrupt_artifact_refused_and_recompiled(self, tmp_path):
        s1 = build_session(tmp_path, "plan")
        s1.fit_or_load(epochs=1)
        r1 = row_of(s1.run())
        plan_path = s1.ledger.path / PLAN_ARTIFACT
        data = bytearray(plan_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        plan_path.write_bytes(bytes(data))
        s2 = build_session(tmp_path, "plan", run_id=s1.run_id)
        s2.fit_or_load(epochs=1)
        r2 = row_of(s2.run())
        predictor = s2._ensure_plan_predictor()
        assert predictor.loads == 0 and predictor.compiles == 1
        assert r1 == r2     # refusal falls back to an identical recompile

    def test_manifest_records_inference_mode(self, tmp_path):
        s = build_session(tmp_path, "plan")
        s.fit_or_load(epochs=1)
        manifest = json.loads(
            (s.ledger.path / "manifest.json").read_text())
        assert manifest["inference"] == "plan"

    def test_module_run_not_joinable_in_plan_mode(self, tmp_path):
        """The substrates differ at float level, so splicing plan cells
        into a module-mode ledger must be refused at open time."""
        s1 = build_session(tmp_path, "module")
        s1.fit_or_load(epochs=1)
        s2 = build_session(tmp_path, "plan", run_id=s1.run_id)
        with pytest.raises(ValueError):
            s2.ledger


# ---------------------------------------------------------------------------
# Determinism + fallback semantics
# ---------------------------------------------------------------------------

class TestPlanPredictions:
    def test_plan_runs_are_deterministic(self, tmp_path):
        s = build_session(tmp_path, "plan")
        s.fit_or_load(epochs=1)
        assert row_of(s.run()) == row_of(s.run())

    def test_model_modifying_cells_fall_back_to_module(self, tmp_path):
        """Precision wrappers replace the module forward with closures the
        graph exporter cannot see; those cells must evaluate exactly like
        module mode."""
        s_plan = build_session(tmp_path / "a", "plan")
        s_plan.fit_or_load(epochs=1)
        plan_row = row_of(s_plan.run())
        s_mod = build_session(tmp_path / "b", "module")
        s_mod.fit_or_load(epochs=1)
        module_row = row_of(s_mod.run())
        assert plan_row["precision"] == module_row["precision"]

    def test_predictor_memoises_one_plan_per_model(self):
        from repro.models import create_model
        predictor = PlanPredictor()
        model = create_model("mcunet-293kb", num_classes=5, seed=0)
        model.eval()
        predict = predictor.bind(model)
        x = np.random.default_rng(0).normal(size=(4, 3, 32, 32))
        first = predict(model, x)
        second = predict(model, x)
        np.testing.assert_array_equal(first, second)
        assert predictor.compiles == 1

    def test_bind_falls_back_for_modified_models(self):
        from repro.models import create_model
        predictor = PlanPredictor()
        model = create_model("mcunet-293kb", num_classes=5, seed=0)
        model.eval()
        other = create_model("mcunet-293kb", num_classes=5, seed=0)
        other.eval()
        predict = predictor.bind(model)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        predict(other, x)             # noised is not model -> module path
        assert predictor.compiles == 0


# ---------------------------------------------------------------------------
# Identity: the mode folds into engine cache and ledger keys
# ---------------------------------------------------------------------------

class TestIdentity:
    def test_engine_cache_keys_differ_by_mode(self):
        from repro.core.noise import TRAIN_CONFIG

        class Sentinel:      # weakref-able, so object_token stays stable
            pass

        model, ds = Sentinel(), Sentinel()
        k_module = SweepEngine()._cache_key(model, ds, TRAIN_CONFIG)
        k_plan = SweepEngine(inference="plan")._cache_key(model, ds,
                                                          TRAIN_CONFIG)
        assert k_module != k_plan
        # ... and the module key itself is stable across engines.
        assert k_module == SweepEngine()._cache_key(model, ds, TRAIN_CONFIG)

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="inference"):
            SweepEngine(inference="jit")


# ---------------------------------------------------------------------------
# Serve layer: JobSpec carries the mode
# ---------------------------------------------------------------------------

class TestServeSpec:
    def spec(self, **extra):
        from repro.serve.jobs import JobSpec
        return JobSpec({"model": "mcunet-293kb", "n": 24, **extra})

    def test_default_is_module(self):
        assert self.spec().inference == "module"

    def test_plan_accepted_and_in_identity(self):
        s = self.spec(inference="plan")
        assert s.inference == "plan"
        assert s.digest() != self.spec().digest()
        assert s.cli_block()["inference"] == "plan"

    def test_bad_values_rejected(self):
        from repro.serve.jobs import ValidationError
        with pytest.raises(ValidationError):
            self.spec(inference="jit")
        with pytest.raises(ValidationError):
            self.spec(inference="plan", mode="process")
