import math
import tracemalloc

import numpy as np
import pytest

from uavdsa import iqsynth, nnet, sensing
from uavdsa.channel import TransitionMatrix, stationary_sampler
from uavdsa.seeds import derive_rng

GRID = (-10.0, 0.0, 10.0, 20.0)  # an SINR grid: the config's default dataset.sinr_grid_db


def make_dataset(m=8, n=256, grid=(20.0,), count=200, seed=21, p01=0.2, p10=0.3):
    cfg = iqsynth.SynthConfig(seed=seed, num_subchannels=m,
                              samples_per_observation=n,
                              subcarriers_per_subchannel=n // m,
                              sinr_grid_db=grid)
    source = stationary_sampler([TransitionMatrix(p01, p10)] * m)
    return iqsynth.generate_dataset(cfg, source, count_per_sinr=count)


def best_constant_f1(truths, m):
    candidates = []
    for bit in (0, 1):
        preds = [tuple([bit] * m)] * len(truths)
        candidates.append(sensing.micro_metrics(preds, truths).micro_f1)
    return max(c for c in candidates if not math.isnan(c))


class TestBandEnergies:
    def test_zero_input(self):
        energies = sensing.band_energies(np.zeros((3, 64), dtype=complex), 4)
        assert energies.shape == (3, 4) and np.all(energies == 0.0)

    def test_single_busy_band_concentration(self):
        cfg = iqsynth.SynthConfig(seed=1, num_subchannels=4,
                                  samples_per_observation=256,
                                  subcarriers_per_subchannel=32, sinr_grid_db=GRID)
        x = np.fft.ifft(iqsynth.clean_spectrum((0, 0, 1, 0), cfg, derive_rng(3)), norm="ortho")
        energies = sensing.band_energies(x, 4)
        assert energies[2] >= 0.9 * energies.sum()

    def test_white_noise_is_flat(self):
        rng = derive_rng(4)
        ratios = []
        for _ in range(100):
            noise = rng.normal(size=(1024, 2)) @ np.array([1.0, 1.0j])
            energies = sensing.band_energies(noise, 16)
            ratios.append(energies.max() / energies.min())
        assert np.mean(ratios) <= 2.0

    def test_rejects_short_observation(self):
        with pytest.raises(ValueError):
            sensing.band_energies(np.zeros(4, dtype=complex), 8)

    def test_complex64_captures_give_the_bits_of_their_upcast(self):
        # loaded datasets hold complex64 samples, and NumPy >= 2 transforms
        # complex64 in single precision: every path must upcast first, so
        # energies, features, probabilities and reports of both kinds are
        # bit for bit those of the complex128 upcast
        single = np.fft.ifft(iqsynth.synthesize_block(
            np.eye(4, dtype=int)[[0, 1, 2, 3, 0, 2]], (0.0,), iqsynth.SynthConfig(
                seed=1, num_subchannels=4, samples_per_observation=64,
                subcarriers_per_subchannel=16, sinr_grid_db=GRID),
            [derive_rng(6)] * 6)[:, 0]).astype(np.complex64)
        double = single.astype(complex)

        def same(got, want):
            return got.dtype == want.dtype and got.tobytes() == want.tobytes()

        energies = sensing.band_energies(double, 4)
        assert same(sensing.band_energies(single, 4), energies)
        for mode in sensing.INPUT_MODES:
            assert same(sensing.feature_vector(single, 4, mode),
                        sensing.feature_vector(double, 4, mode))
        network = nnet.build_network([4, 8, 4], ["relu", "sigmoid"], seed=2)
        classifier = sensing.SensingModel(kind="dense-classifier", num_subchannels=4,
                                          network=network, input_mode="band-energy")
        probabilities = sensing.classify(classifier, double)
        assert same(sensing.classify(classifier, single), probabilities)
        # thresholds at the double-precision values make each report hinge on its last bit
        for model in (sensing.SensingModel(kind="energy-threshold", num_subchannels=4,
                                           thresholds=energies[0]),
                      sensing.SensingModel(kind="dense-classifier", num_subchannels=4,
                                           network=network, input_mode="band-energy",
                                           decision_threshold=float(probabilities[0, 0]))):
            assert same(sensing.detect(model, single), sensing.detect(model, double))


class TestEnergyDetect:
    def test_all_below_and_all_above(self):
        thr = np.ones(4)
        for energy, bit in ((0.0, 0), (9.0, 1)):
            reports = sensing.energy_detect(np.full((2, 3, 4), energy), thr)
            assert reports.dtype == np.int8 and reports.shape == (2, 3, 4)
            assert np.all(reports == bit)
        with pytest.raises(ValueError):
            sensing.energy_detect(np.zeros((2, 4)), np.ones(3))

    def test_monotone_in_threshold(self):
        energies = np.array([1.0, 5.0, 3.0, 0.5])
        low = sensing.energy_detect(energies, np.full(4, 1.0))
        high = sensing.energy_detect(energies, np.full(4, 4.0))
        for a, b in zip(high, low):
            assert a <= b  # raising thresholds never flips vacant -> busy

    def test_configured_thresholds_f1_at_20db(self):
        # At 20 dB a vacant band holds 32 bins of noise power 0.01 (energy
        # about 0.32) and a busy band 32 unit-power subcarriers (about 32),
        # so one fixed threshold per band separates them.
        ds = make_dataset(m=8, n=256, grid=(20.0,), count=300)
        model = sensing.SensingModel(kind="energy-threshold", num_subchannels=8,
                                     thresholds=np.full(8, 8.0))
        metrics = sensing.evaluate_model(model, ds, split="test")
        assert metrics.micro_f1 >= 0.85

    def test_evaluation_is_one_pass_over_the_slice(self):
        # for either kind, the slice's stacked captures give what one
        # detect per capture gives; a slice without
        # observations has undefined (NaN) metrics
        ds = make_dataset(m=4, n=64, grid=(0.0, 10.0), count=40)
        network = nnet.build_network([4, 16, 4], ["relu", "sigmoid"], seed=3)
        for kind in ("energy-threshold", "dense-classifier"):
            model = sensing.SensingModel(kind=kind, num_subchannels=4,
                                         thresholds=np.full(4, 24.0), network=network,
                                         input_mode="band-energy")
            for sinr in (0.0, 10.0, None):
                idx = [i for i in ds.split["test"]
                       if sinr is None or ds.observations[i].sinr_db == sinr]
                want = sensing.micro_metrics(
                    [tuple(sensing.detect(model, ds.observations[i].samples).tolist())
                     for i in idx],
                    [ds.observations[i].label for i in idx])
                got = sensing.evaluate_model(model, ds, sinr_db=sinr)
                assert (got.tp, got.fp, got.fn, got.tn) == (want.tp, want.fp, want.fn, want.tn)
                assert got.fp + got.fn > 0 or sinr == 10.0  # 0 dB makes mistakes
            empty = sensing.evaluate_model(model, ds, sinr_db=5.0)
            assert (empty.tp, empty.fp, empty.fn, empty.tn) == (0, 0, 0, 0)
            assert np.isnan(empty.micro_precision) and np.isnan(empty.micro_f1)


class TestMicroMetrics:
    def test_perfect_predictions(self):
        vecs = [(0, 1, 0), (1, 1, 0)]
        m = sensing.micro_metrics(vecs, vecs)
        assert m.micro_precision == 1.0 and m.micro_recall == 1.0 and m.micro_f1 == 1.0

    def test_hand_counts(self):
        # tp=2, fp=1, fn=1 on the vacant class
        preds = [(0, 0), (0, 1)]
        truths = [(0, 1), (0, 0)]
        m = sensing.micro_metrics(preds, truths)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 0)
        assert m.micro_precision == pytest.approx(2 / 3)
        assert m.micro_recall == pytest.approx(2 / 3)
        assert m.micro_f1 == pytest.approx(2 / 3)

    def test_counts_are_the_one_tally(self):
        preds, truths = [(0, 0), (0, 1)], [(0, 1), (0, 0)]
        m = sensing.micro_metrics(preds, truths)
        assert [m.tp, m.fp, m.fn, m.tn] == [2, 1, 1, 0]
        assert [m.tp, m.fp, m.fn, m.tn] == \
            sensing.confusion_tally(np.array(preds)[:, None], truths)[0].tolist()
        one = sensing.micro_metrics((0, 1), (0, 0))  # a single observation
        assert (one.tp, one.fp, one.fn, one.tn) == (1, 0, 1, 0)

    def test_all_positive_recall_one(self):
        preds = [(0, 0, 0, 0)] * 50
        rng = derive_rng(5)
        truths = [tuple(int(b) for b in rng.random(4) < 0.4) for _ in range(50)]
        m = sensing.micro_metrics(preds, truths)
        prevalence = np.mean([t.count(0) / 4 for t in truths])
        assert m.micro_recall == 1.0
        assert m.micro_precision == pytest.approx(prevalence)

    def test_undefined_flagged_not_zero(self):
        # no positive (vacant) predictions and no positive truths: NaN is
        # the one marker of an undefined ratio
        m = sensing.micro_metrics([(1, 1)], [(1, 1)])
        assert (m.tp, m.fp, m.fn, m.tn) == (0, 0, 0, 2)
        assert math.isnan(m.micro_precision)
        assert math.isnan(m.micro_recall)
        assert math.isnan(m.micro_f1)

    def test_f1_zero_iff_no_tp(self):
        m = sensing.micro_metrics([(1, 0)], [(0, 1)])
        assert m.tp == 0 and m.micro_f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sensing.micro_metrics([(0,)], [(0,), (1,)])


class TestDetect:
    def test_shape_and_alphabet(self):
        ds = make_dataset(m=4, n=64, count=20)
        model = sensing.SensingModel(
            kind="dense-classifier", num_subchannels=4,
            network=nnet.build_network([4, 16, 4], ["relu", "sigmoid"], seed=0),
            input_mode="band-energy")
        for obs in list(ds.observations)[:10]:
            out = sensing.detect(model, obs.samples)
            assert out.shape == (4,) and set(out.tolist()) <= {0, 1}

    def test_deterministic(self):
        ds = make_dataset(m=4, n=64, count=10)
        model = sensing.SensingModel(
            kind="dense-classifier", num_subchannels=4,
            network=nnet.build_network([128, 16, 4], ["relu", "sigmoid"], seed=0),
            input_mode="iq")
        samples = ds.observations[0].samples
        assert np.array_equal(sensing.detect(model, samples), sensing.detect(model, samples))

    def test_untrained_never_beats_constant_baseline(self):
        # random weights carry no information about the labels, so they
        # cannot outdo the best constant predictor by more than noise
        ds = make_dataset(m=8, n=256, grid=(20.0,), count=400)
        truths = [ds.observations[i].label for i in ds.split["test"]]
        baseline = best_constant_f1(truths, 8)
        for seed in (0, 1, 2):
            net = nnet.build_network([8, 128, 128, 8],
                                     ["relu", "relu", "sigmoid"], seed=seed)
            model = sensing.SensingModel(kind="dense-classifier", num_subchannels=8,
                                         network=net, input_mode="band-energy")
            f1 = sensing.evaluate_model(model, ds).micro_f1
            assert f1 <= baseline + 0.1


    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_decision_threshold_outside_the_unit_interval_is_refused(self, threshold):
        # against a sigmoid output, such a threshold makes the reports constant
        with pytest.raises(ValueError, match="decision_threshold"):
            sensing.SensingModel(
                kind="dense-classifier", num_subchannels=2,
                network=nnet.build_network([2, 2], ["sigmoid"], seed=0),
                decision_threshold=threshold)

    def test_unknown_input_mode_is_refused(self):
        # the one owner of the input modes; any other would pass as band-energy
        with pytest.raises(ValueError, match="unknown input mode 'fft'"):
            sensing.feature_vector(np.ones((3, 8), dtype=complex), 2, "fft")


class TestTrainClassifier:
    def test_loss_decreases_on_learnable_data(self):
        # 20 dB, 2k samples; strict decrease over the first 3 epochs in at
        # least one of 3 seeds
        ds = make_dataset(m=8, n=256, grid=(20.0,), count=2000, seed=41)
        ok = False
        for seed in (0, 1, 2):
            spec = sensing.SensingSpec(hidden=(64, 64), epochs=3, input_mode="band-energy")
            model = sensing.train_classifier(ds, spec, seed)
            c = model.training_curve
            if c[0] > c[1] > c[2]:
                ok = True
                break
        assert ok

    def test_no_signal_matches_constant_predictor(self):
        ds = make_dataset(m=4, n=64, grid=(0.0,), count=500, seed=51)
        rng = derive_rng(99)
        for label in ds.labels:
            label[:] = rng.random(4) < 0.4
        spec = sensing.SensingSpec(hidden=(32,), epochs=10, input_mode="band-energy")
        model = sensing.train_classifier(ds, spec, 0)
        metrics = sensing.evaluate_model(model, ds)
        truths = [ds.observations[i].label for i in ds.split["test"]]
        assert abs(metrics.micro_f1 - best_constant_f1(truths, 4)) <= 0.1

    def test_same_seed_identical_weights(self):
        ds = make_dataset(m=4, n=64, count=60)
        spec = sensing.SensingSpec(hidden=(16,), epochs=3, input_mode="band-energy")
        m1 = sensing.train_classifier(ds, spec, 7)
        m2 = sensing.train_classifier(ds, spec, 7)
        for l1, l2 in zip(m1.network.layers, m2.network.layers):
            assert np.array_equal(l1.w, l2.w) and np.array_equal(l1.b, l2.b)

    def test_divergence_stops_at_the_gradient_check(self):
        # backward refuses a non-finite gradient before any loss is non-finite
        ds = make_dataset(m=4, n=64, count=60)
        spec = sensing.SensingSpec(hidden=(8,), epochs=3, learning_rate=1e300,
                                   input_mode="band-energy")
        with np.errstate(all="ignore"), pytest.raises(nnet.NonFiniteLossError,
                                                      match="non-finite gradient signal"):
            sensing.train_classifier(ds, spec, 7)

    @pytest.mark.parametrize("mode", sensing.INPUT_MODES)
    def test_equals_training_on_the_whole_splits_feature_matrix(self, mode):
        """Either input mode trains, bit for bit, the network and curve of
        one feature matrix of the whole train split indexed per batch (raw
        I/Q features are made per minibatch instead), all in float32; the
        split (84 rows) ends in a partial batch, and its raw I/Q features
        span two feature blocks."""
        ds = make_dataset(m=8, n=256, grid=(0.0, 10.0), count=60, seed=13)
        spec = sensing.SensingSpec(hidden=(16,), epochs=3, batch_size=16, input_mode=mode)
        model = sensing.train_classifier(ds, spec, 5)
        want_params, want_curve = reference_training(ds, spec, 5)
        assert model.network.params.tobytes() == want_params.tobytes()
        assert np.array(model.training_curve).tobytes() == np.array(want_curve).tobytes()

    def test_iq_training_holds_no_feature_matrix(self):
        """The traced peak of raw-I/Q training stays below the bytes of the
        train split's (n_train, 2N) float64 feature matrix: features are
        made a minibatch at a time, and the small network's parameters and
        Adam moments are a fraction of that matrix."""
        ds = make_dataset(m=8, n=256, grid=(10.0,), count=400, seed=17)
        matrix = len(ds.split["train"]) * 2 * 256 * 8
        spec = sensing.SensingSpec(hidden=(4,), epochs=1, batch_size=16, input_mode="iq")
        tracemalloc.start()
        try:
            sensing.train_classifier(ds, spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix

    @pytest.mark.parametrize("mode", sensing.INPUT_MODES)
    def test_checkpoint_holds_the_trained_network(self, mode, tmp_path):
        """Training is float32, as checkpoints store weights, so the network
        loaded from the checkpoint is the trained one bit for bit, and
        evaluates to the same metrics."""
        ds = make_dataset(m=4, n=64, grid=(0.0, 10.0), count=40, seed=9)
        spec = sensing.SensingSpec(hidden=(16,), epochs=3, batch_size=8, input_mode=mode)
        model = sensing.train_classifier(ds, spec, 3)
        path = str(tmp_path / "sensor.ckpt")
        nnet.save_checkpoint(model.network, path)
        loaded = nnet.load_checkpoint(path)
        assert loaded.params.dtype == np.float32
        assert loaded.params.tobytes() == model.network.params.tobytes()
        reloaded = sensing.SensingModel(kind="dense-classifier", num_subchannels=4,
                                        network=loaded, input_mode=mode)
        assert sensing.evaluate_model(reloaded, ds) == sensing.evaluate_model(model, ds)

    def test_empty_train_split_rejected(self):
        ds = make_dataset(m=4, n=64, count=20)
        ds.split["train"] = ()
        with pytest.raises(ValueError):
            sensing.train_classifier(ds, sensing.SensingSpec(), 0)


def reference_training(dataset, spec, seed):
    """train_classifier's loop over one float32 feature matrix of the whole
    train split, indexed per batch: (parameters, training curve)."""
    train_idx = np.asarray(dataset.split["train"], dtype=np.intp)
    m = dataset.config.num_subchannels
    feats = sensing.feature_vector(dataset.samples[train_idx], m, spec.input_mode)
    labels = dataset.labels[train_idx].astype(np.float32)
    net = nnet.build_network([feats.shape[1], *spec.hidden, m],
                             ["relu"] * len(spec.hidden) + ["sigmoid"], seed=seed,
                             dtype=np.float32)
    opt = nnet.OptimizerState(learning_rate=spec.learning_rate)
    rng = derive_rng(seed, 0x5E25)
    curve, order = [], np.arange(len(train_idx))
    for _ in range(spec.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), spec.batch_size):
            batch = order[start:start + spec.batch_size]
            x, t = feats[batch], labels[batch]
            trace = nnet.forward_trace(net, x)
            nnet.backward(net, x, t, trace)
            nnet.optimizer_step(net, opt)
            losses.append(nnet.output_loss(trace[1][-1], t))
        curve.append(float(np.mean(losses)))
    return net.params, curve


@pytest.mark.parametrize("mode", sensing.INPUT_MODES)
def test_rows_are_standardized_with_np_std_bit_for_bit(mode):
    """Each row is its raw features (I/Q parts, or log band energies) in
    float32, less their mean, over their np.std plus 1e-12: the centred
    pass that feature_vector makes in place gives np.std's bits."""
    ds = make_dataset(m=8, n=256, grid=(-10.0, 20.0), count=10, seed=6)
    raw = (np.concatenate([ds.samples.real, ds.samples.imag], axis=-1) if mode == "iq"
           else np.log10(sensing.band_energies(ds.samples, 8) + 1e-12)).astype(np.float32)
    mean, std = raw.mean(axis=-1, keepdims=True), raw.std(axis=-1, keepdims=True)
    want = (raw - mean) / (std + 1e-12)
    assert sensing.feature_vector(ds.samples, 8, mode).tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", sensing.INPUT_MODES)
@pytest.mark.parametrize("subset", [[3], [1, 2, 3, 4], [7, 0, 5, 2, 2], list(range(20))[::-1]])
def test_features_of_any_rows_equal_those_rows_of_the_stack(mode, subset, monkeypatch):
    """Each row is standardized on its own, so the features of any subset
    of captures, in any order, are bit for bit those rows of the whole
    stack's features, whichever blocks of 3 rows they fall in."""
    ds = make_dataset(m=8, n=256, grid=(0.0, 10.0), count=10, seed=5)
    monkeypatch.setattr(sensing, "BLOCK_ELEMENTS", 3 * 512)
    whole = sensing.feature_vector(ds.samples, 8, mode)
    got = sensing.feature_vector(ds.samples[subset], 8, mode)
    assert got.tobytes() == whole[subset].tobytes()


@pytest.mark.parametrize("mode", sensing.INPUT_MODES)
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_features_do_not_depend_on_the_block_size(mode, rows, monkeypatch):
    """Blocks of `rows` captures give, bit for bit, the features of one
    block over the whole stack; band energies are taken a block at a time."""
    ds = make_dataset(m=8, n=256, grid=(0.0, 10.0), count=10, seed=5)
    width = 512 if mode == "iq" else 256  # the larger of a row's input and output
    sizes = []
    energies = sensing.band_energies
    monkeypatch.setattr(sensing, "band_energies",
                        lambda x, m: sizes.append(len(x)) or energies(x, m))
    monkeypatch.setattr(sensing, "BLOCK_ELEMENTS", rows * width + width // 2)
    got = sensing.feature_vector(ds.samples, 8, mode)
    if mode == "band-energy":
        assert sizes == [rows] * (20 // rows) + [20 % rows] * (20 % rows > 0)
    monkeypatch.setattr(sensing, "BLOCK_ELEMENTS", 20 * width)
    want = sensing.feature_vector(ds.samples, 8, mode)
    assert got.shape == want.shape == (20, 512 if mode == "iq" else 8)
    assert got.tobytes() == want.tobytes()
