import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netinv import ood
from netinv.data import SynthSpec, synth_dataset
from netinv.errors import ContractError, DivergenceError, DomainError
from netinv.inversion import InversionConfig
from netinv.models import Classifier, ClassifierSpec, Generator, GeneratorSpec
from netinv.ood import (OodCycleConfig, class_weights, evaluate_grid, init_garbage,
                        ood_predict, ood_training_cycle, threshold_report,
                        uncertainty)
from netinv.training import predict_probs, train_classifier


class TestUncertainty:
    def test_one_hot_is_zero(self):
        for m in (2, 3, 5, 11):
            p = np.zeros(m)
            p[m // 2] = 1.0
            assert uncertainty(p) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_is_one(self):
        for m in (2, 3, 5, 11):
            assert uncertainty(np.full(m, 1.0 / m)) == pytest.approx(1.0, abs=1e-9)

    def test_hand_case(self):
        assert uncertainty(np.array([0.75, 0.25])) == pytest.approx(0.75, abs=1e-12)

    def test_denominator_closed_form(self):
        # one-hot distance from uniform must equal (m-1)/m
        for m in (2, 3, 5, 11):
            onehot = np.zeros(m)
            onehot[0] = 1.0
            den = np.sum((onehot - 1.0 / m) ** 2)
            assert den == pytest.approx((m - 1) / m, abs=1e-12)
            # and the score built on it is exactly 0 at the one-hot point
            assert uncertainty(onehot) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5, 11])
    def test_bounds_on_random_simplex(self, m):
        rng = np.random.default_rng(m)
        samples = rng.dirichlet(np.ones(m), size=2000)
        for p in samples:
            assert 0.0 <= uncertainty(p) <= 1.0

    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, m, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m))
        perm = rng.permutation(m)
        assert uncertainty(p[perm]) == pytest.approx(uncertainty(p), abs=1e-12)

    @pytest.mark.parametrize("row", [
        [0.7, 0.7],
        [1.1, -0.1],                    # sums to 1
        [0.5 + 2e-6, 0.5],
        [math.nan, 0.5, 0.5],
        [0.5, 0.5, math.nan],
    ], ids=["sum-1.4", "negative", "sum-1+2e-6", "nan-first", "nan-last"])
    def test_malformed_distribution(self, row):
        row = np.array(row)
        with pytest.raises(ContractError, match="row 0"):
            uncertainty(row)
        # the batched form rejects the same row
        valid = np.full(len(row), 1.0 / len(row))
        with pytest.raises(ContractError, match="row 1"):
            uncertainty(np.stack([valid, row]))

    def test_within_tolerance_accepted(self):
        for p in (np.array([0.5 + 5e-7, 0.5]), np.array([1.0 + 1e-13, -1e-13])):
            assert 0.0 <= uncertainty(p) <= 1.0
            assert uncertainty(p[None]).shape == (1,)

    def test_tie_breaks_to_lowest_index(self):
        p = np.array([0.4, 0.4, 0.2])
        # both argmax candidates give the same one-hot distance, so the
        # tie-break cannot change the value; check it simply evaluates
        assert 0.0 < uncertainty(p) < 1.0


class TestClassWeights:
    def test_equal_counts(self):
        np.testing.assert_allclose(class_weights([50, 50, 50]), 1.0)

    def test_inverse_frequency(self):
        np.testing.assert_allclose(class_weights([900, 100]), [0.2, 1.8])

    def test_scale_invariance(self):
        np.testing.assert_allclose(class_weights([9000, 1000]),
                                   class_weights([900, 100]))

    def test_zero_count_rejected(self):
        with pytest.raises(DomainError):
            class_weights([10, 0])


class TestGarbage:
    def test_count_zero_rejected(self):
        with pytest.raises(DomainError):
            init_garbage(0, (1, 4, 4), np.random.default_rng(0), capacity=10)

    def test_sampling_mean(self):
        g = init_garbage(100, (1, 100, 100), np.random.default_rng(1), capacity=1000)
        assert 0.45 <= g.images.mean() <= 0.55

    def test_deterministic(self):
        a = init_garbage(10, (1, 4, 4), np.random.default_rng(2), capacity=100)
        b = init_garbage(10, (1, 4, 4), np.random.default_rng(2), capacity=100)
        np.testing.assert_array_equal(a.images, b.images)

    def test_capacity_never_evicts_noise(self):
        g = init_garbage(5, (1, 2, 2), np.random.default_rng(3), capacity=8)
        g.add(np.zeros((4, 1, 2, 2)), "inverted@cycle_1")
        g.add(np.ones((4, 1, 2, 2)), "inverted@cycle_2")
        assert len(g) == 8
        assert g.provenance[:5] == ["noise"] * 5
        assert all(p.startswith("inverted") for p in g.provenance[5:])
        # oldest inverted batch was evicted first
        assert "inverted@cycle_2" in g.provenance


class TestPredictAndThreshold:
    def test_forced_garbage_logits(self, bars_data):
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(4))
        # bias the output layer so the garbage logit dominates
        clf.params["b2"].data[:] = 0.0
        clf.params["b2"].data[0, 3] = 50.0
        clf.params["w2"].data[:] = 0.0
        pred = ood_predict(clf, train.images[0])
        assert pred.is_ood
        assert pred.ue == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_tie_rule(self, bars_data):
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(5))
        clf.params["w2"].data[:] = 0.0
        clf.params["b2"].data[:] = 0.0
        pred = ood_predict(clf, train.images[0])
        assert pred.index == 0
        assert pred.ue == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_probs_bit_equal_to_predict_probs(self, kind):
        clf = Classifier(ClassifierSpec(kind=kind, classes=4), rng=np.random.default_rng(8))
        probes = np.random.default_rng(9).uniform(size=(40, 1, 12, 12)).astype(np.float32)
        for img in probes:
            want = predict_probs(clf, img[None])[0].astype(np.float64)
            want = want / want.sum()
            assert ood_predict(clf, img).probs.tobytes() == want.tobytes()

    def test_one_forward_and_its_scores(self, trained_mlp, monkeypatch):
        """One ``Classifier.predict`` per prediction; ``ue`` is ``uncertainty``
        of the returned probabilities, looked up through the ``ood`` module so
        a wrapper installed there sees every call."""
        predicts, scored = [], []
        predict, score = Classifier.predict, ood.uncertainty

        def counted_predict(clf, batch):
            predicts.append(batch.shape)
            return predict(clf, batch)

        def counted_uncertainty(p):
            scored.append(p)
            return score(p)

        monkeypatch.setattr(Classifier, "predict", counted_predict)
        monkeypatch.setattr(ood, "uncertainty", counted_uncertainty)
        probes = np.random.default_rng(11).uniform(size=(5, 1, 12, 12)).astype(np.float32)
        for i, img in enumerate(probes, 1):
            pred = ood_predict(trained_mlp, img)
            assert predicts == [(1, 1, 12, 12)] * i
            assert len(scored) == i and scored[-1] is pred.probs
            assert type(pred.ue) is float and pred.ue == score(pred.probs)
            assert pred.index == int(np.argmax(pred.probs))

    @pytest.mark.parametrize("kind", ["mlp", "cnn"])
    def test_routing_matches_batched_argmax(self, kind, bars_data):
        """A one-row forward rounds differently from the same row inside a
        batch; away from near-ties that must never change the routed class."""
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(kind=kind, classes=4), rng=np.random.default_rng(12))
        garbage = np.random.default_rng(13).uniform(size=(100, 1, 12, 12)).astype(np.float32)
        images = np.concatenate([train.images, garbage])
        labels = np.concatenate([train.labels, np.full(len(garbage), 3)])
        train_classifier(clf, images, labels, epochs=5, rng=np.random.default_rng(14))
        rng = np.random.default_rng(15)
        crosses, _ = synth_dataset(SynthSpec(family="crosses", classes=3, size=12, noise=0.1,
                                             seed=int(rng.integers(2 ** 31))), 100, 3)
        probes = np.concatenate([rng.random((100, 1, 12, 12)).astype(np.float32),
                                 crosses.images])
        batch = predict_probs(clf, probes)
        top2 = np.sort(batch, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-4
        assert clear.sum() >= len(probes) // 2
        for img, want in zip(probes[clear], batch[clear].argmax(axis=1)):
            assert ood_predict(clf, img).index == want

    def test_non_finite_logits_diverge(self, bars_data):
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(10))
        clf.params["b2"].data[0, 1] = np.nan
        with pytest.raises(DivergenceError, match="non-finite classifier output"):
            ood_predict(clf, train.images[0])

    def test_fuzz_sweep(self, trained_mlp):
        rng = np.random.default_rng(6)
        probes = rng.uniform(size=(200, 1, 12, 12)).astype(np.float32)
        for img in probes[:50]:
            pred = ood_predict(trained_mlp, img)
            assert pred.probs.sum() == pytest.approx(1.0, abs=1e-6)
            assert 0.0 <= pred.ue <= 1.0

    def test_all_routed_flag(self, bars_data):
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(7))
        clf.params["w2"].data[:] = 0.0
        clf.params["b2"].data[:] = 0.0
        clf.params["b2"].data[0, 3] = 50.0   # everything goes to garbage
        ood = np.random.default_rng(8).uniform(size=(10, 1, 12, 12))
        rep = threshold_report(predict_probs(clf, train.images[:20]), train.labels[:20],
                               predict_probs(clf, ood))
        assert rep.n_ood_misrouted == 0
        assert rep.gap == float("inf")

    def test_constructed_negative_gap(self, bars_data):
        """Toy fixture: one OOD sample misrouted with higher confidence than
        the weakest correct ID sample gives a negative gap."""
        train, _ = bars_data
        clf = Classifier(ClassifierSpec(kind="mlp", classes=4),
                         rng=np.random.default_rng(9))
        labels4 = train.labels[:40]
        train_classifier(clf, train.images[:40], labels4, epochs=10,
                         rng=np.random.default_rng(10))
        ood = train.images[40:41]            # an ID-looking probe as "OOD"
        rep = threshold_report(predict_probs(clf, train.images[:40]), labels4,
                               predict_probs(clf, ood))
        if rep.n_ood_misrouted:
            assert rep.gap == pytest.approx(
                rep.min_id_confidence - rep.max_ood_confidence)


class TestThresholdReport:
    """Hand-built probabilities over 2 ID classes plus the garbage class (column 2)."""

    ID = np.array([[0.9, 0.05, 0.05], [0.2, 0.7, 0.1], [0.6, 0.3, 0.1]])

    def test_all_routed_gives_inf_gap(self):
        rep = threshold_report(self.ID, [0, 1, 0], np.array([[0.1, 0.1, 0.8]]))
        assert rep.n_ood_misrouted == 0
        assert rep.gap == rep.max_ood_confidence == float("inf")
        assert rep.min_id_confidence == 0.6

    def test_negative_gap(self):
        ood = np.array([[0.95, 0.03, 0.02], [0.1, 0.1, 0.8], [0.3, 0.5, 0.2]])
        rep = threshold_report(self.ID, [0, 1, 0], ood)
        assert rep.n_ood_misrouted == 2
        assert rep.max_ood_confidence == 0.95
        assert rep.gap == pytest.approx(0.6 - 0.95)

    def test_no_correct_id_gives_nan(self):
        rep = threshold_report(self.ID, [1, 0, 1], np.array([[0.5, 0.2, 0.3]]))
        assert np.isnan(rep.min_id_confidence) and np.isnan(rep.gap)
        assert rep.n_ood_misrouted == 1

    def test_empty_sets_rejected(self):
        with pytest.raises(ContractError):
            threshold_report(self.ID[:0], [], self.ID)
        with pytest.raises(ContractError):
            threshold_report(self.ID, [0, 1, 0], self.ID[:0])


def tiny_cycle_config(cycles, steps=60):
    inv = InversionConfig(steps=steps, batch_size=16, eval_every=10 ** 6,
                          eval_samples=64, target_accuracy=2.0)
    return OodCycleConfig(cycles=cycles, epochs_per_cycle=4, garbage_init=30,
                          budget=40, inversion=inv)


@pytest.fixture(scope="module")
def small_id_data():
    spec = SynthSpec(family="bars", classes=3, size=12, noise=0.1, seed=11)
    return synth_dataset(spec, 150, 60)


class TestCycle:
    def test_zero_cycles_trains_baseline(self, small_id_data):
        train, test = small_id_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(12))
        clf, reports = ood_training_cycle(
            clf, lambda c: None, train, test, tiny_cycle_config(0),
            rng=np.random.default_rng(13))
        assert reports == []
        # the garbage class exists and noise probes can reach it
        probs = np.zeros(4)

    def test_garbage_bookkeeping(self, small_id_data):
        train, test = small_id_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(14))
        cfg = tiny_cycle_config(2)

        def factory(cycle):
            return Generator(GeneratorSpec(classes=4, hidden=(32, 32), z_dim=8),
                             rng=np.random.default_rng(100 + cycle))

        clf, reports = ood_training_cycle(clf, factory, train, test, cfg,
                                          rng=np.random.default_rng(15))
        assert [r.cycle for r in reports] == [1, 2]
        for c, r in enumerate(reports, start=1):
            assert r.garbage_size == cfg.garbage_init + c * cfg.budget
            assert 0.0 <= r.id_train_accuracy <= 1.0
            assert 0.0 <= r.mean_ue_inverted <= 1.0

    def test_one_classifier_pass_per_state_and_set(self, small_id_data, monkeypatch):
        """Each cycle classifies id_train once and its inverted batch once; the
        final retraining classifies nothing."""
        from netinv import inversion, ood, training
        train, test = small_id_data
        calls = []
        real = training.predict_logits

        def spy(model, images, *args):
            calls.append(np.asarray(images).tobytes())
            return real(model, images, *args)

        for module in (training, inversion, ood):
            monkeypatch.setattr(module, "predict_logits", spy, raising=False)
        batches, seen = [], []

        def on_cycle(report, images):
            batches.append(images.tobytes())
            seen.append(len(calls))

        def factory(cycle):
            return Generator(GeneratorSpec(classes=4, hidden=(32, 32), z_dim=8),
                             rng=np.random.default_rng(100 + cycle))

        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(14))
        ood_training_cycle(clf, factory, train, test, tiny_cycle_config(2, steps=5),
                           rng=np.random.default_rng(15), on_cycle=on_cycle)
        id_train = train.images.tobytes()
        cycle_calls = [calls[:seen[0]], calls[seen[0]:seen[1]]]
        for batch, cycle in zip(batches, cycle_calls):
            assert cycle.count(id_train) == 1
            assert cycle.count(batch) == 1
        assert len(calls) == seen[-1]

    def test_label_range_contract(self, small_id_data):
        train, test = small_id_data
        # no room for garbage
        clf = Classifier(ClassifierSpec(classes=3), rng=np.random.default_rng(0))
        with pytest.raises(ContractError):
            ood_training_cycle(clf, lambda c: None, train, test, tiny_cycle_config(1),
                               rng=np.random.default_rng(0))


class TestEvaluateGrid:
    def test_degenerate_always_garbage(self, small_id_data):
        train, test = small_id_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(16))
        clf.params["w2"].data[:] = 0.0
        clf.params["b2"].data[:] = 0.0
        clf.params["b2"].data[0, 3] = 50.0
        spec2 = SynthSpec(family="crosses", classes=3, size=12, noise=0.1, seed=17)
        _, other = synth_dataset(spec2, 30, 30)
        names, cols, matrix, reports = evaluate_grid({"bars": clf},
                                                     {"bars": test, "crosses": other},
                                                     {"bars": 3})
        assert matrix[0, cols.index("bars")] == 0.0
        assert matrix[0, cols.index("crosses")] == 1.0
        # every ID image is misclassified and every OOD image routed
        assert list(reports) == [("bars", "crosses")]
        rep = reports["bars", "crosses"]
        assert math.isnan(rep.min_id_confidence)
        assert rep.n_ood_misrouted == 0 and rep.gap == math.inf

    def test_missing_pairing(self, small_id_data):
        _, test = small_id_data
        clf = Classifier(ClassifierSpec(classes=4), rng=np.random.default_rng(0))
        with pytest.raises(ContractError):
            evaluate_grid({"bars": clf}, {"crosses": test}, {"bars": 3})
