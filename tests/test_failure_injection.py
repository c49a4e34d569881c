"""Failure-injection tests: corrupted inputs must fail loudly, not silently.

SysNoise is *silent* degradation; the library's job is to make every other
failure mode *loud*.  These tests corrupt bitstreams, checkpoints, graphs,
and configuration values and assert a clear exception (never a wrong
answer).

The sweep layer is the exception to "loud": a full sweep is the
longest-running workload, so there one failing *cell* must degrade into a
structured failure (``!`` in the table, an error entry in the run ledger)
instead of aborting the row — and an interrupted threaded sweep must resume
from its ledger to a bit-identical table.  ``TestSweepFaultIsolation`` and
``TestCrashResume`` cover that contract.
"""

import threading

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (TRAIN_CONFIG, EvalCache, RunStore, SweepEngine,
                        preprocess, run_manifest)
from repro.image import decode_with, resize
from repro.image.color import color_roundtrip
from repro.image.jpeg import JpegBitstream, decode, encode

RNG = np.random.default_rng(0)
# A smooth gradient-plus-texture image: JPEG assumes spatial coherence, so
# pure random noise would measure codec worst-case loss instead of behaviour.
_ramp = np.linspace(0, 200, 24)
IMAGE = np.clip(
    _ramp[:, None, None] + _ramp[None, :, None] * 0.25
    + RNG.normal(0, 8, size=(24, 24, 3)), 0, 255).astype(np.uint8)


class TestCorruptBitstreams:
    def test_wrong_magic_rejected(self):
        raw = encode(IMAGE).tobytes()
        with pytest.raises(ValueError, match="not an RJPG"):
            JpegBitstream.frombytes(b"JUNK" + raw[4:])

    def test_truncated_payload_fails_loudly(self):
        raw = encode(IMAGE).tobytes()
        clipped = JpegBitstream.frombytes(raw[: len(raw) // 2])
        with pytest.raises((ValueError, IndexError)):
            decode(clipped)

    def test_bitflipped_payload_fails_or_stays_in_range(self):
        """Random corruption either raises or still yields valid uint8 pixels
        of the right shape — never silently returns garbage shapes/dtypes."""
        stream = encode(IMAGE)
        payload = bytearray(stream.payload)
        for pos in (3, len(payload) // 2, len(payload) - 2):
            payload[pos] ^= 0xFF
        corrupt = JpegBitstream(stream.height, stream.width, stream.quality,
                                stream.subsample, bytes(payload),
                                stream.n_blocks)
        try:
            out = decode(corrupt)
        except (ValueError, IndexError, KeyError):
            return
        assert out.shape == IMAGE.shape and out.dtype == np.uint8

    def test_unknown_decoder_persona(self):
        with pytest.raises(ValueError):
            decode_with(encode(IMAGE), "turbojpeg")

    def test_roundtrip_sanity_after_corruption_tests(self):
        """The happy path still holds (guards against test pollution)."""
        out = decode_with(encode(IMAGE, quality=95), "pil")
        assert np.abs(out.astype(int) - IMAGE.astype(int)).mean() < 12


class TestBadConfiguration:
    def test_unknown_resize_method(self):
        with pytest.raises(ValueError, match="choose from"):
            resize(IMAGE, (16, 16), "pillow-gaussian")

    def test_unknown_color_pipeline(self):
        with pytest.raises(ValueError, match="colour pipeline"):
            color_roundtrip(IMAGE, "nv21-integer")

    def test_preprocess_rejects_bad_config(self):
        cfg = TRAIN_CONFIG.with_(resize_method="no-such-kernel")
        with pytest.raises(ValueError):
            preprocess(IMAGE, 16, cfg)

    def test_noise_config_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            TRAIN_CONFIG.with_(decoder_version=2)

    def test_unknown_model_and_lm_names(self):
        from repro.models import create_model
        from repro.nlp import create_lm
        with pytest.raises(ValueError, match="unknown model"):
            create_model("lenet-5")
        with pytest.raises(ValueError, match="unknown LM"):
            create_lm("opt-175b-turbo")


class TestCorruptArtifacts:
    def test_truncated_checkpoint(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 4))
        path = nn.save_checkpoint(model, tmp_path / "w.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(Exception):      # zipfile/np.load error surface
            nn.load_checkpoint(model, path)

    def test_checkpoint_with_extra_key(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 4))
        path = nn.save_checkpoint(model, tmp_path / "w.npz")
        with np.load(path) as data:
            blobs = dict(data)
        blobs["stowaway"] = np.ones(3)
        np.savez(path, **blobs)
        with pytest.raises(nn.CheckpointError, match="unexpected"):
            nn.load_checkpoint(model, path)

    def test_graph_with_tampered_json(self, tmp_path):
        from repro.backend import (GraphBuilder, GraphError, load_graph,
                                   save_graph)
        b = GraphBuilder("g")
        out = b.emit("relu", ["x"])
        path = save_graph(b.finish(out), tmp_path / "g.npz")
        with np.load(path) as data:
            blobs = {k: data[k] for k in data.files}
        doc = bytes(blobs["__graph_json__"]).decode()
        blobs["__graph_json__"] = np.frombuffer(
            doc.replace('"relu"', '"hcf"').encode(), dtype=np.uint8)
        np.savez(path, **blobs)
        with pytest.raises(GraphError, match="unknown op"):
            load_graph(path)


class TestNumericEdgeCases:
    def test_pipeline_handles_flat_images(self):
        """Constant-colour images (zero AC coefficients) survive the chain."""
        flat = np.full((24, 24, 3), 77, dtype=np.uint8)
        for persona in ("pil", "opencv", "ffmpeg", "dali"):
            out = decode_with(encode(flat), persona)
            assert np.abs(out.astype(int) - 77).max() <= 3
        assert color_roundtrip(flat).shape == flat.shape
        assert resize(flat, (7, 7), "cv-area").shape == (7, 7, 3)

    def test_quantizing_constant_tensor(self):
        from repro.nn.quant import compute_qparams, fake_quant
        x = np.zeros(16)
        qp = compute_qparams(x.min(), x.max())
        np.testing.assert_array_equal(fake_quant(x, qp), x)

    def test_resize_to_one_pixel(self):
        for method in ("pillow-bilinear", "cv-nearest", "cv-area"):
            out = resize(IMAGE, (1, 1), method)
            assert out.shape == (1, 1, 3)

    def test_upscale_then_downscale_identity_nearest(self):
        up = resize(IMAGE, (48, 48), "pillow-nearest")
        back = resize(up, (24, 24), "pillow-nearest")
        np.testing.assert_array_equal(back, IMAGE)


# ---------------------------------------------------------------------------
# Sweep-layer fault isolation + crash resume
# ---------------------------------------------------------------------------

class _Raw:
    def __init__(self, b):
        self._b = b

    def tobytes(self):
        return self._b


class _SweepDataset:
    """Picklable dataset stand-in with content-stable identity."""

    def __init__(self, payloads=(b"alpha", b"beta")):
        self.streams = [_Raw(p) for p in payloads]


class _SweepModel:
    """Picklable, weak-referenceable model stand-in."""


def _metric(cfg) -> float:
    return (90.0 - 2.0 * (cfg.decoder != "dali")
            - 1.0 * (cfg.resize_method != "pillow-bilinear")
            - 4.0 * (cfg.precision != "fp32"))


def _safe_eval(model, ds, cfg):
    return _metric(cfg)


def _raise_on_opencv(model, ds, cfg):
    if cfg.decoder == "opencv":
        raise RuntimeError("decoder backend segfault (simulated)")
    return _metric(cfg)


class TestSweepFaultIsolation:
    def test_one_raising_variant_keeps_the_others(self):
        row = SweepEngine(eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        decoder = row["noises"]["decoder"]
        assert decoder.n_failed == 1 and not decoder.all_failed
        survivors = [v for v in decoder.values if not np.isnan(v)]
        assert len(survivors) == 2            # pil + ffmpeg still measured
        assert not np.isnan(decoder.mean_delta)
        # The unaffected noise column is intact; the combined config stacks
        # the *worst* decoder variant (opencv) so it fails — as a recorded
        # NaN cell, not an aborted sweep.
        assert row["noises"]["precision"].errors == {}
        assert np.isnan(row["combined"])
        assert "segfault" in row["combined_error"]

    def test_every_variant_failing_yields_all_failed(self):
        def always(model, ds, cfg):
            raise ValueError("nothing works")

        result = SweepEngine(eval_cache=EvalCache()).sweep_noise(
            always, _SweepModel(), _SweepDataset(), "decoder", baseline=90.0)
        assert result.all_failed
        assert np.isnan(result.mean_delta)
        from repro.core import format_cell
        assert format_cell(result, multi=True) == "!"

    def test_partial_failure_renders_bang_suffix(self):
        result = SweepEngine(eval_cache=EvalCache()).sweep_noise(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), "decoder",
            baseline=90.0)
        from repro.core import format_cell
        cell = format_cell(result, multi=True)
        assert cell.endswith("!") and cell != "!"

    def test_failing_combined_keeps_noise_columns(self):
        def no_combined(model, ds, cfg):
            if cfg.decoder != "dali" and cfg.precision != "fp32":
                raise RuntimeError("stacked config unsupported")
            return _metric(cfg)

        row = SweepEngine(eval_cache=EvalCache()).noise_row(
            no_combined, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        assert np.isnan(row["combined"])
        assert "stacked config unsupported" in row["combined_error"]
        assert row["noises"]["decoder"].errors == {}
        from repro.core import render_table
        text = render_table({"m": row}, ["decoder", "precision"], "ACC", "t")
        assert text.splitlines()[-1].rstrip().endswith("!")

    def test_worst_case_curve_survives_one_failure(self):
        # Raise only for the decoder-stage stacked config (opencv @ fp32);
        # the later precision point (opencv + int8) still evaluates, so one
        # failing point must not truncate the curve.
        def decoder_point_fails(model, ds, cfg):
            if cfg.decoder == "opencv" and cfg.precision == "fp32":
                raise RuntimeError("decoder backend segfault (simulated)")
            return _metric(cfg)

        curve = SweepEngine(eval_cache=EvalCache()).worst_case_curve(
            decoder_point_fails, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        deltas = dict(curve)
        assert np.isnan(deltas["decoder"])    # worst decoder variant raises
        assert not np.isnan(deltas["precision"])

    def test_thread_mode_isolation_matches_serial(self):
        serial = SweepEngine(eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), ["decoder"])
        threaded = SweepEngine(workers=4, eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), ["decoder"])
        assert serial["noises"]["decoder"].errors.keys() \
            == threaded["noises"]["decoder"].errors.keys()
        np.testing.assert_array_equal(serial["noises"]["decoder"].values,
                                      threaded["noises"]["decoder"].values)

    def test_baseline_failure_is_strict(self):
        def broken_baseline(model, ds, cfg):
            raise RuntimeError("cannot even decode cleanly")

        with pytest.raises(RuntimeError, match="cannot even decode"):
            SweepEngine(eval_cache=EvalCache()).noise_row(
                broken_baseline, _SweepModel(), _SweepDataset(), ["decoder"])


class TestCrashResume:
    """A threaded sweep with failed cells must resume to an identical
    table."""

    def _manifest(self):
        return run_manifest(task="cls", model="fake", seed=0,
                            noises=["decoder", "precision"], metric="ACC")

    def test_worker_crash_is_isolated_and_resumable(self, tmp_path,
                                                    monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        store = RunStore(tmp_path)
        ledger = store.open_or_create(self._manifest(), run_id="crash")
        engine = SweepEngine(workers=2, eval_cache=EvalCache(),
                             mode="thread", ledger=ledger,
                             model_key="fake")
        # The sweep survives a crashing cell: no exception, a row comes
        # back, and the cells that completed around the crash are on disk.
        row = engine.noise_row(_raise_on_opencv, _SweepModel(),
                               _SweepDataset(), ["decoder", "precision"])
        assert row["trained"] == _metric(TRAIN_CONFIG)
        counts = ledger.counts()
        assert counts["ok"] >= 1              # at least the baseline landed
        assert counts["error"] >= 1           # the crash was recorded
        opencv_idx = 1                        # decoder variants: pil, opencv, ffmpeg
        assert opencv_idx in row["noises"]["decoder"].errors

        # Resume with a healthy evaluator (the "transient crash" cleared):
        # only the not-yet-complete cells re-execute, and the final table is
        # bit-identical to an uninterrupted serial run.
        before = store.open("crash").counts()
        resumed_engine = SweepEngine(eval_cache=EvalCache(),
                                     ledger=store.open("crash"),
                                     model_key="fake")
        calls = []

        def counting_safe(model, ds, cfg):
            calls.append(cfg)
            return _metric(cfg)

        resumed = resumed_engine.noise_row(counting_safe, _SweepModel(),
                                           _SweepDataset(),
                                           ["decoder", "precision"])
        total_cells = 7                       # baseline + 3 + 2 + combined
        assert len(calls) == total_cells - before["ok"]   # <= the remainder
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        assert resumed["trained"] == clean["trained"]
        assert resumed["combined"] == clean["combined"]
        for name in ("decoder", "precision"):
            assert (resumed["noises"][name].values
                    == clean["noises"][name].values)
            assert resumed["noises"][name].errors == {}

    def test_thread_retry_budget_reruns_failed_cell(self, monkeypatch):
        """A transient failure is healed *within* one threaded sweep when
        the retry budget allows another attempt."""
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        lock = threading.Lock()
        failed: list = []

        def raise_once_on_opencv(model, ds, cfg):
            with lock:
                first = cfg.decoder == "opencv" and not failed
                if first:
                    failed.append(cfg)
            if first:
                raise RuntimeError("transient decoder crash (simulated)")
            return _metric(cfg)

        engine = SweepEngine(workers=2, eval_cache=EvalCache(),
                             mode="thread", retries=1)
        result = engine.sweep_noise(raise_once_on_opencv, _SweepModel(),
                                    _SweepDataset(), "decoder")
        assert len(failed) == 1               # the failure really happened
        assert result.errors == {}
        assert result.values == [
            _metric(TRAIN_CONFIG.with_(decoder=d))
            for d in ("pil", "opencv", "ffmpeg")]
