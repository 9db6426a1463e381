"""Trainer checkpoint/resume: bit-equal continuation and telemetry parity."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import AdaptPNC, CHECKPOINT_FILENAME, Trainer, TrainingConfig
from repro.core.training import TrainingHistory, _restore_rng, _rng_state
from repro.data import load_dataset
from repro.telemetry import Run, read_events
from repro.utils.serialization import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("Slope", n_samples=40, seed=0)


def tiny_config(**overrides):
    merged = {"max_epochs": 6, "lr_patience": 2, **overrides}
    return replace(TrainingConfig.ci(), **merged)


def make_trainer(config, seed=7):
    model = AdaptPNC(3, rng=np.random.default_rng(seed))
    return Trainer(model, config, variation_aware=True, seed=seed)


class TestRngSnapshot:
    def test_round_trips_raw_stream(self):
        rng = np.random.default_rng(42)
        rng.normal(size=10)  # advance
        clone = _restore_rng(_rng_state(rng))
        assert np.array_equal(rng.normal(size=16), clone.normal(size=16))

    def test_round_trips_spawn_counter(self):
        # Generator.spawn advances the SeedSequence spawn counter, which
        # bit_generator.state does NOT capture — the regression this
        # snapshot format exists to prevent.
        rng = np.random.default_rng(42)
        rng.spawn(3)
        clone = _restore_rng(_rng_state(rng))
        a = [s.normal() for s in rng.spawn(2)]
        b = [s.normal() for s in clone.spawn(2)]
        assert a == b


class TestResumeBitEquality:
    def test_resume_reproduces_uninterrupted_history(self, dataset, tmp_path):
        cfg = tiny_config()
        uninterrupted = make_trainer(cfg)
        expected = uninterrupted.fit(
            dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val
        )

        # "Kill" after 3 epochs: same protocol, shorter horizon.
        partial = make_trainer(tiny_config(max_epochs=3))
        partial.fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
        )
        assert (tmp_path / CHECKPOINT_FILENAME).exists()

        resumed_trainer = make_trainer(cfg)
        resumed = resumed_trainer.fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.train_loss == expected.train_loss
        assert resumed.val_loss == expected.val_loss
        assert resumed.learning_rate == expected.learning_rate
        assert resumed.best_val_loss == expected.best_val_loss
        assert resumed.best_epoch == expected.best_epoch
        final = uninterrupted.model.state_dict()
        restored = resumed_trainer.model.state_dict()
        assert all(np.array_equal(final[k], restored[k]) for k in final)

    def test_resume_of_finished_run_is_a_noop(self, dataset, tmp_path):
        cfg = tiny_config(max_epochs=3)
        first = make_trainer(cfg)
        expected = first.fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
        )
        again = make_trainer(cfg)
        resumed = again.fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.train_loss == expected.train_loss
        assert resumed.epochs_run == expected.epochs_run

    def test_fingerprint_mismatch_refused(self, dataset, tmp_path):
        make_trainer(tiny_config(max_epochs=2)).fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
        )
        other = make_trainer(tiny_config(max_epochs=2, mc_samples=3))
        with pytest.raises(ValueError, match="fingerprint"):
            other.fit(
                dataset.x_train,
                dataset.y_train,
                dataset.x_val,
                dataset.y_val,
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_extending_max_epochs_is_allowed(self, dataset, tmp_path):
        # max_epochs is a horizon, not part of the protocol identity.
        make_trainer(tiny_config(max_epochs=2)).fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
        )
        extended = make_trainer(tiny_config(max_epochs=4))
        history = extended.fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert history.epochs_run == 4


class TestLegacyGraphBackendFingerprint:
    """Checkpoints written while ``TrainingConfig`` still had the
    ``graph_backend`` field carry it in their fingerprint."""

    @staticmethod
    def _legacy_checkpoint(dataset, path, graph_backend):
        make_trainer(tiny_config(max_epochs=2)).fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=path,
        )
        ckpt = path / CHECKPOINT_FILENAME
        arrays, meta = load_checkpoint(ckpt)
        meta["fingerprint"]["config"]["graph_backend"] = graph_backend
        save_checkpoint(arrays, meta, ckpt)

    def test_interpreted_entry_resumes(self, dataset, tmp_path):
        expected = make_trainer(tiny_config(max_epochs=4)).fit(
            dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val
        )
        self._legacy_checkpoint(dataset, tmp_path, "interpreted")
        history = make_trainer(tiny_config(max_epochs=4)).fit(
            dataset.x_train,
            dataset.y_train,
            dataset.x_val,
            dataset.y_val,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert history.train_loss == expected.train_loss
        assert history.val_loss == expected.val_loss

    def test_tape_entry_refused(self, dataset, tmp_path):
        self._legacy_checkpoint(dataset, tmp_path, "tape")
        with pytest.raises(ValueError, match="fingerprint"):
            make_trainer(tiny_config(max_epochs=4)).fit(
                dataset.x_train,
                dataset.y_train,
                dataset.x_val,
                dataset.y_val,
                checkpoint_dir=tmp_path,
                resume=True,
            )


class TestTelemetryParity:
    def test_epoch_events_reproduce_history_exactly(self, dataset, tmp_path):
        cfg = tiny_config(max_epochs=4)
        with Run(root=tmp_path, name="parity", seed=7, dataset="Slope") as run:
            history = make_trainer(cfg).fit(
                dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val
            )
            events_path = run.events_path
        rebuilt = TrainingHistory.from_epoch_events(
            read_events(events_path, kind="epoch")
        )
        assert rebuilt.train_loss == history.train_loss
        assert rebuilt.val_loss == history.val_loss
        assert rebuilt.learning_rate == history.learning_rate
        assert rebuilt.best_val_loss == history.best_val_loss
        assert rebuilt.best_epoch == history.best_epoch
        assert rebuilt.epochs_run == history.epochs_run

    def test_epoch_events_carry_mc_distribution(self, dataset, tmp_path):
        cfg = tiny_config(max_epochs=2)
        with Run(root=tmp_path, seed=7) as run:
            make_trainer(cfg).fit(
                dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val
            )
            events_path = run.events_path
        for event in read_events(events_path, kind="epoch"):
            assert event["mc_draws"] == cfg.mc_samples
            assert event["mc_loss_std"] >= 0.0

    def test_default_checkpoint_under_active_run(self, dataset, tmp_path):
        cfg = tiny_config(max_epochs=2)
        with Run(root=tmp_path, seed=7) as run:
            make_trainer(cfg).fit(
                dataset.x_train, dataset.y_train, dataset.x_val, dataset.y_val
            )
            run_dir = run.dir
        assert (run_dir / "checkpoints" / CHECKPOINT_FILENAME).exists()
        events = read_events(run_dir / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "fit_start"
        assert "checkpoint" in kinds and kinds[-1] == "run_end"
        (fit_end,) = [e for e in events if e["kind"] == "fit_end"]
        assert fit_end["epochs_run"] == 2
