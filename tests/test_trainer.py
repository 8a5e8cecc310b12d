import dataclasses
import math

import numpy as np
import pytest

from delta_ctr import data as data_mod
from delta_ctr import model as model_mod
from delta_ctr import numerics as nm
from delta_ctr import trainer as trainer_mod
from delta_ctr.model import ModelConfig, ModelParams
from delta_ctr.numerics import ParameterError, Rng, Tensor
from delta_ctr.trainer import CurriculumState, OptimizerState, curriculum_step


def curriculum_oracle(losses, c_max, delta, lr0, lr_decay, c_min=2):
    """Hand-executable reference of the schedule: returns the (C, lr, flag)
    trace after each epoch, comparing against the best loss so far."""
    c, lr, flag = c_max, lr0, False
    best = math.inf
    trace = []
    for loss in losses:
        if loss > best:
            if not flag:
                c = max(c_min, c - delta)
                flag = True
            else:
                lr = lr_decay * lr
                flag = False
        else:
            flag = False
        best = min(best, loss)
        trace.append((c, lr, flag))
    return trace


def run_schedule(losses, **kw):
    s = CurriculumState.initial(**kw)
    trace = []
    for loss in losses:
        s = curriculum_step(s, loss)
        trace.append((s.c, s.lr, s.flag))
    return trace


class TestCurriculumStep:
    def test_first_bad_epoch_shrinks_bottleneck(self):
        s = CurriculumState.initial(c_max=39, lr=1e-4, delta=5)
        s = curriculum_step(s, 0.5)  # establishes best
        s2 = curriculum_step(s, 0.6)
        assert s2.c == 34 and s2.flag is True and s2.lr == 1e-4

    def test_second_bad_epoch_decays_lr(self):
        s = CurriculumState.initial(c_max=39, lr=1e-4, delta=5, lr_decay=0.1)
        s = curriculum_step(s, 0.5)
        s = curriculum_step(s, 0.6)
        s = curriculum_step(s, 0.6)
        assert s.c == 34 and s.flag is False
        assert s.lr == pytest.approx(1e-5)

    def test_improvement_only_clears_flag(self):
        s = CurriculumState.initial(c_max=39, lr=1e-4, delta=5)
        s = curriculum_step(s, 0.5)
        s = curriculum_step(s, 0.6)  # shrink, flag up
        s2 = curriculum_step(s, 0.4)  # improvement
        assert (s2.c, s2.lr, s2.flag) == (s.c, s.lr, False)
        assert s2.best_loss == 0.4

    def test_floor(self):
        s = CurriculumState.initial(c_max=10, lr=1e-4, delta=6, c_min=2)
        s = curriculum_step(s, 0.5)
        s = curriculum_step(s, 0.9)
        assert s.c == 4
        s = curriculum_step(s, 0.9)  # lr decay turn
        s = curriculum_step(s, 0.9)  # shrink turn, floored
        assert s.c == 2
        for _ in range(4):
            s = curriculum_step(s, 0.9)
        assert s.c == 2  # never below the floor

    def test_scripted_sequence_hand_trace(self):
        losses = [0.50, 0.48, 0.49, 0.47, 0.48, 0.48]
        got = run_schedule(losses, c_max=39, lr=1e-4, delta=5, lr_decay=0.1)
        want = curriculum_oracle(losses, 39, 5, 1e-4, 0.1)
        assert got == want
        # hand check of the final state: epochs 3 (0.49>0.48) shrink,
        # 5 (0.48>0.47) shrink after flag reset at 4
        assert got[-1][0] == 29

    @pytest.mark.parametrize("seed", range(10))
    def test_random_sequences_match_oracle(self, seed):
        r = Rng(seed)
        losses = list(0.4 + 0.2 * r.random((30,)))
        got = run_schedule(losses, c_max=39, lr=1e-4, delta=5, lr_decay=0.1)
        assert got == curriculum_oracle(losses, 39, 5, 1e-4, 0.1)

    def test_monotone_non_increasing(self):
        r = Rng(3)
        losses = list(0.4 + 0.2 * r.random((50,)))
        trace = run_schedule(losses, c_max=39, lr=1e-4, delta=5, lr_decay=0.1)
        cs = [t[0] for t in trace]
        lrs = [t[1] for t in trace]
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert min(cs) >= 2

    def test_visited_grid_matches_delta_5(self):
        # worst-case alternating sequence from C=39 with delta=5 visits
        # 39,34,29,24,19,14
        s = CurriculumState.initial(c_max=39, lr=1e-4, delta=5, c_min=14)
        visited = [s.c]
        s = curriculum_step(s, 0.5)
        for _ in range(12):
            s = curriculum_step(s, 1.0)
            if s.c != visited[-1]:
                visited.append(s.c)
        assert visited == [39, 34, 29, 24, 19, 14]

    def test_initial_defaults_are_the_train_settings_defaults(self):
        s, settings = CurriculumState.initial(c_max=39, lr=1e-4), trainer_mod.TrainSettings()
        assert (s.lr_decay, s.c_min) == (settings.lr_decay, settings.c_min)


class TestOptimizerStep:
    def make(self, vocab_sizes=(3, 3)):
        cfg = ModelConfig(n_fields=2, embed_dim=2, tower1_layers=[3], tower2_layers=[3], dropout_rate=0.0)
        params = ModelParams.init(cfg, list(vocab_sizes), seed=0)
        return params, OptimizerState.init(params)

    def test_zero_gradients_no_change(self):
        params, state = self.make()
        before = params.copy_values()
        grads = {n: np.zeros_like(p.value) for n, p in params.named_params()}
        trainer_mod.optimizer_step(params, grads, state, lr=0.1)
        assert state.step == 1
        for n, p in params.named_params():
            assert np.array_equal(p.value, before[n])

    def test_first_step_closed_form(self):
        # with constant gradient g, the bias-corrected first step is
        # -lr * g / (|g| + eps) = approximately -lr
        params, state = self.make()
        before = params.copy_values()
        grads = {n: np.ones_like(p.value) for n, p in params.named_params()}
        trainer_mod.optimizer_step(params, grads, state, lr=0.1)
        for n, p in params.named_params():
            np.testing.assert_allclose(before[n] - p.value, 0.1, rtol=1e-6)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params, state = self.make()
            grads = {n: np.full_like(p.value, 0.3) for n, p in params.named_params()}
            trainer_mod.optimizer_step(params, grads, state, lr=0.01)
            trainer_mod.optimizer_step(params, grads, state, lr=0.01)
            results.append(params.copy_values())
        for n in results[0]:
            assert np.array_equal(results[0][n], results[1][n])

    def split_on_both_threads(self, monkeypatch):
        """Lower the split floor under this parameter set; return the list
        that each numerics.concurrently call appends to."""
        monkeypatch.setattr(trainer_mod, "ADAM_SPLIT", 1)
        calls = []
        concurrently = nm.concurrently

        def counted(first, second):
            calls.append(first)
            return concurrently(first, second)

        monkeypatch.setattr(nm, "concurrently", counted)
        return calls

    def test_bit_equal_to_the_out_of_place_formula(self):
        self.check_formula()

    def test_split_step_bit_equal_to_the_out_of_place_formula(self, monkeypatch):
        calls = self.split_on_both_threads(monkeypatch)
        self.check_formula((40, 40))
        assert len(calls) == 4  # one per step

    def test_caller_updates_the_first_half_of_the_rows_of_every_tensor(self, monkeypatch):
        # the worker's side is dropped, so only the caller's rows move
        monkeypatch.setattr(trainer_mod, "ADAM_SPLIT", 1)
        monkeypatch.setattr(nm, "concurrently", lambda first, second: (first(), None))
        params, state = self.make((7, 4))  # odd and even row counts, and (1,) biases
        before = params.copy_values()
        grads = {n: np.ones_like(p.value) for n, p in params.named_params()}
        trainer_mod.optimizer_step(params, grads, state, lr=0.1)
        for n, p in params.named_params():
            half = len(p.value) // 2
            assert (p.value[:half] != before[n][:half]).all(), n
            assert np.array_equal(p.value[half:], before[n][half:]), n
            assert state.m[n][:half].all() and not state.m[n][half:].any(), n

    def test_nan_in_the_workers_share_changes_nothing(self, monkeypatch):
        calls = self.split_on_both_threads(monkeypatch)
        params, state = self.make()
        before = params.copy_values()
        grads = {n: np.ones_like(p.value) for n, p in params.named_params()}
        last = params.named_params()[-1][0]  # in the second half, which the worker updates
        grads[last].reshape(-1)[-1] = np.nan
        with pytest.raises(trainer_mod.TrainingError, match=last):
            trainer_mod.optimizer_step(params, grads, state, lr=0.1)
        assert state.step == 0 and calls == []
        for n, p in params.named_params():
            assert np.array_equal(p.value, before[n]), n
            assert not np.any(state.m[n]) and not np.any(state.v[n]), n

    def check_formula(self, vocab_sizes=(3, 3)):
        params, state = self.make(vocab_sizes)
        values = params.copy_values()
        m = {n: np.zeros_like(v) for n, v in values.items()}
        v = {n: np.zeros_like(x) for n, x in values.items()}
        rng = np.random.default_rng(0)
        for t in range(1, 5):
            grads = {n: rng.normal(size=x.shape) * 10.0 ** rng.integers(-9, 4, x.shape) for n, x in values.items()}
            grads["gate1"][0] = 0.0
            trainer_mod.optimizer_step(params, grads, state, lr=0.03)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for n, g in grads.items():  # the formula the step evaluates in place
                m[n] = 0.9 * m[n] + (1 - 0.9) * g
                v[n] = 0.999 * v[n] + (1 - 0.999) * g * g
                values[n] = values[n] - 0.03 * (m[n] / c1) / (np.sqrt(v[n] / c2) + 1e-8)
            for n, p in params.named_params():
                assert p.value.tobytes() == values[n].tobytes(), n
                assert state.m[n].tobytes() == m[n].tobytes() and state.v[n].tobytes() == v[n].tobytes(), n

    def test_nan_gradient_aborts_with_name(self):
        params, state = self.make()
        grads = {n: np.zeros_like(p.value) for n, p in params.named_params()}
        grads["gate1"][0] = np.nan
        with pytest.raises(trainer_mod.TrainingError, match="gate1"):
            trainer_mod.optimizer_step(params, grads, state, lr=0.1)

    def test_nan_gradient_changes_nothing(self):
        params, state = self.make()
        before = params.copy_values()
        grads = {n: np.ones_like(p.value) for n, p in params.named_params()}
        grads["final.w"][0] = np.nan
        with pytest.raises(trainer_mod.TrainingError, match="final.w"):
            trainer_mod.optimizer_step(params, grads, state, lr=0.1)
        assert state.step == 0
        for n, p in params.named_params():
            assert np.array_equal(p.value, before[n]), n
            assert not np.any(state.m[n]), n


def small_data(seed=0, rows=400):
    ds = data_mod.generate_synthetic(4, 2, 8, rows, seed=seed)
    return data_mod.split_dataset(ds, seed=seed)


def small_config(**kw):
    defaults = dict(
        n_fields=4, embed_dim=3, tower1_layers=[8], tower2_layers=[8],
        dropout_rate=0.0, cross_depth=2, lam=0.5, variant="full",
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestFit:
    def test_built_settings_cannot_be_changed(self):
        settings = trainer_mod.TrainSettings(batch_size=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.lr = -1.0
        assert settings == trainer_mod.TrainSettings(batch_size=64)

    def test_t_max_zero(self):
        tr, va, _ = small_data()
        with pytest.raises(ParameterError, match="trainer t_max must be an integer >= 1, got 0"):
            trainer_mod.fit(small_config(), trainer_mod.TrainSettings(batch_size=64, t_max=0), tr, va, seed=0)

    @pytest.mark.parametrize("bad, says", [
        (dict(lr=-0.05), "trainer lr must be a number > 0, got -0.05"),
        (dict(c_min=0), "trainer c_min must be an integer >= 1, got 0"),
        (dict(fixed_k=5), r"trainer fixed_k must be null or an integer in \[1, 4\], got 5"),
    ], ids=["lr", "c_min", "fixed_k"])
    def test_bad_settings_raise_before_the_first_batch(self, bad, says, monkeypatch):
        def reached(*args):
            raise AssertionError("a batch was trained")

        monkeypatch.setattr(model_mod, "backward_and_accumulate", reached)
        tr, va, _ = small_data()
        with pytest.raises(ParameterError, match=says):
            trainer_mod.fit(small_config(), trainer_mod.TrainSettings(batch_size=64, **bad), tr, va, seed=0)

    def test_bad_config_is_named_before_the_settings_read_its_n_fields(self):
        tr, va, _ = small_data()
        with pytest.raises(ParameterError, match="n_fields must be an integer >= 1, got '4'"):
            trainer_mod.fit(small_config(n_fields="4"), trainer_mod.TrainSettings(fixed_k=2), tr, va, seed=0)

    def test_unknown_variant_raises(self):
        tr, va, _ = small_data()
        with pytest.raises(ParameterError, match="unknown variant 'bogus'"):
            trainer_mod.fit(small_config(variant="bogus"), trainer_mod.TrainSettings(), tr, va, seed=0)

    @pytest.mark.parametrize("scope", ["row", "global"])
    @pytest.mark.parametrize("variant", list(model_mod.VARIANTS))
    def test_same_seed_same_params_and_predictions(self, variant, scope):
        tr, va, te = small_data()
        cfg = small_config(variant=variant, truncation_scope=scope, dropout_rate=0.3)
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=2, fixed_k=2)
        runs = [trainer_mod.fit(cfg, st, tr, va, seed=7)[0] for _ in range(2)]
        a, b = (p.copy_values() for p in runs)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[n], b[n]) for n in a)
        assert np.array_equal(trainer_mod.predict(runs[0], te, 2), trainer_mod.predict(runs[1], te, 2))

    def test_reproducible_history(self):
        tr, va, _ = small_data()
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=3)
        h1 = trainer_mod.fit(small_config(), st, tr, va, seed=5)[1]
        h2 = trainer_mod.fit(small_config(), st, tr, va, seed=5)[1]
        assert [r.__dict__ for r in h1.records] == [r.__dict__ for r in h2.records]

    def test_best_checkpoint_rule(self):
        tr, va, _ = small_data()
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=5)
        params, history, k = trainer_mod.fit(small_config(), st, tr, va, seed=1)
        best = min(r.val_logloss for r in history.records)
        got = trainer_mod.evaluate(params, va, k)
        assert got.logloss == pytest.approx(best, abs=1e-12)

    def copies(self, monkeypatch):
        """The dicts each ModelParams.copy_values call returns."""
        made, copy_values = [], ModelParams.copy_values
        monkeypatch.setattr(ModelParams, "copy_values", lambda self: made.append(copy_values(self)) or made[-1])
        return made

    def test_one_epoch_never_copies_the_parameters(self, monkeypatch):
        # the epoch's values are the last and are returned as they stand,
        # and the initial values are never kept: epoch 0 replaces them
        tr, va, _ = small_data()
        made = self.copies(monkeypatch)
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=1)
        params, history, _ = trainer_mod.fit(small_config(), st, tr, va, seed=3)
        assert made == [] and len(history.records) == 1

    @pytest.mark.parametrize("t_max", [1, 3])
    def test_never_finite_validation_loss_returns_the_last_parameters_uncopied(self, t_max, monkeypatch):
        # no epoch counts as the best, so nothing is copied and the
        # parameters stay as the last epoch left them, at bottleneck n
        tr, va, _ = small_data()
        made = self.copies(monkeypatch)
        monkeypatch.setattr(trainer_mod, "evaluate", lambda params, ds, k: trainer_mod.EvalResult(
            auc=0.5, logloss=math.nan, n_instances=len(ds)))
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=t_max)
        params, history, k = trainer_mod.fit(small_config(), st, tr, va, seed=3)
        assert len(history.records) == t_max and k == 4 and made == []
        initial = ModelParams.init(small_config(), tr.vocab_sizes, 3)
        assert params.final_w.value.tobytes() != initial.final_w.value.tobytes()

    @pytest.mark.parametrize("variant", list(model_mod.VARIANTS))
    def test_nan_parameter_raises_before_any_update(self, variant, monkeypatch):
        """A NaN final.b makes the loss and a gradient NaN; optimizer_step
        rejects the first step, so every parameter stays as initialised."""
        tr, va, _ = small_data()
        made, init = [], ModelParams.init.__func__

        def planted(cls, config, vocab_sizes, seed):
            params = init(cls, config, vocab_sizes, seed)
            params.final_b.value[:] = np.nan
            made.append((params, {n: p.value.tobytes() for n, p in params.named_params()}))
            return params

        monkeypatch.setattr(ModelParams, "init", classmethod(planted))
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=2)
        with pytest.raises(trainer_mod.TrainingError, match="NaN/Inf gradient"):
            trainer_mod.fit(small_config(variant=variant), st, tr, va, seed=3)
        [(params, initial)] = made
        assert {n: p.value.tobytes() for n, p in params.named_params()} == initial

    def test_history_file_format(self, tmp_path):
        tr, va, _ = small_data()
        st = trainer_mod.TrainSettings(batch_size=64, lr=1e-2, t_max=2)
        _, history, _ = trainer_mod.fit(small_config(), st, tr, va, seed=2)
        p = tmp_path / "hist.tsv"
        history.write(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0].split("\t") == ["epoch", "train_loss", "val_logloss", "val_auc", "C", "R", "Flag"]
        assert len(lines) == 3


class TestEvaluate:
    def test_idempotent(self):
        tr, va, _ = small_data()
        params = ModelParams.init(small_config(), tr.vocab_sizes, seed=3)
        a = trainer_mod.evaluate(params, va, 2)
        b = trainer_mod.evaluate(params, va, 2)
        assert a == b

    def test_memorization_perfect_auc(self):
        # 2 fields, labels = deterministic function of field values the
        # embedding table can memorize
        ds = data_mod.generate_synthetic(4, 2, 4, 600, seed=7)
        ds.labels = ((ds.indices[:, 0] + ds.indices[:, 1]) % 2).astype(np.uint8)
        tr, va, te = data_mod.split_dataset(ds, seed=0)
        cfg = small_config(lam=0.0)
        st = trainer_mod.TrainSettings(batch_size=64, lr=3e-2, t_max=40, lr_floor=1e-9)
        params, history, k = trainer_mod.fit(cfg, st, tr, tr, seed=0)
        res = trainer_mod.evaluate(params, tr, k)
        assert res.auc > 0.99

    def test_matches_manual_loop(self):
        tr, va, _ = small_data()
        params = ModelParams.init(small_config(), tr.vocab_sizes, seed=4)
        sub = va.subset(np.arange(min(50, len(va))))
        res = trainer_mod.evaluate(params, sub, 3)
        scores = []
        for i in range(len(sub)):
            out = model_mod.delta_forward(sub.indices[i : i + 1], params, 3, mode="infer")
            scores.append(float(out.y_main.value[0]))
        from delta_ctr import metrics

        assert res.auc == pytest.approx(metrics.auc(scores, sub.labels), abs=1e-12)
        assert res.logloss == pytest.approx(metrics.logloss(scores, sub.labels), abs=1e-12)
