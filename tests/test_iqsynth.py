import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

import exact
from uavdsa import core, iqsynth
from uavdsa.channel import TransitionMatrix, stationary_sampler
from uavdsa.seeds import derive_rng

GRID = (-10.0, 0.0, 10.0, 20.0)  # an SINR grid: the config's default dataset.sinr_grid_db


def small_config(**overrides):
    kw = dict(seed=5, num_subchannels=4, samples_per_observation=256,
              subcarriers_per_subchannel=32, sinr_grid_db=(0.0, 20.0))
    kw.update(overrides)
    return iqsynth.SynthConfig(**kw)


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            small_config(samples_per_observation=300)

    def test_rejects_oversized_blocks(self):
        with pytest.raises(ValueError):
            small_config(subcarriers_per_subchannel=100)


class TestCleanWaveform:
    def test_parseval(self):
        cfg = small_config()
        rng = derive_rng(1)
        x = np.fft.ifft(iqsynth.clean_spectrum((1, 0, 1, 1), cfg, rng), norm="ortho")
        spectrum = np.fft.fft(x, norm="ortho")
        t_energy = np.sum(np.abs(x) ** 2)
        f_energy = np.sum(np.abs(spectrum) ** 2)
        assert abs(t_energy - f_energy) <= 1e-6 * f_energy
        # unit-power subcarriers: 3 busy channels x 32 bins
        assert t_energy == pytest.approx(96.0, rel=1e-9)

    def test_vacant_bands_exactly_zero(self):
        cfg = small_config()
        spectrum = iqsynth.clean_spectrum((0, 1, 0, 0), cfg, derive_rng(2))
        bins = iqsynth.active_bins(256, 4, 32)
        busy = np.zeros(256, dtype=bool)
        busy[bins[1]] = True
        assert np.all(spectrum[~busy] == 0.0)
        # and the ifft/fft roundtrip leaks nothing measurable into them
        power = np.abs(np.fft.fft(np.fft.ifft(spectrum, norm="ortho"),
                                  norm="ortho")) ** 2
        assert power[~busy].max() <= 1e-20 * power.sum()

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            iqsynth.clean_spectrum((0, 1), small_config(), derive_rng(0))
        with pytest.raises(ValueError):  # and an entry that is not a bit
            iqsynth.clean_spectrum((0, 2, 0, 0), small_config(), derive_rng(0))


class TestCapture:
    def test_output_length(self):
        cfg = small_config()
        for label in ((0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 1)):
            samples = exact.capture(label, 10.0, cfg, derive_rng(3))
            assert len(samples) == cfg.samples_per_observation

    def test_all_vacant_power_matches_reference_noise(self):
        cfg = small_config()
        rng = derive_rng(4)
        sinr_db = 3.0
        powers = [np.mean(np.abs(exact.capture((0, 0, 0, 0), sinr_db, cfg, rng)) ** 2)
                  for _ in range(100)]
        assert np.mean(powers) == pytest.approx(iqsynth.noise_power(sinr_db), rel=0.05)

    def test_single_busy_band_concentration(self):
        cfg = small_config()
        rng = derive_rng(6)
        x = np.fft.ifft(iqsynth.clean_spectrum((0, 0, 1, 0), cfg, rng), norm="ortho")
        power = np.abs(np.fft.fft(x, norm="ortho")) ** 2
        start, stop = iqsynth.band_edges(256, 4)[2]
        assert power[start:stop].sum() >= 0.9 * power.sum()

    def test_realized_sinr_within_half_db(self):
        # wide transform keeps the estimator variance well under the 0.5 dB
        # tolerance even at -10 dB
        cfg = small_config(samples_per_observation=2048,
                           subcarriers_per_subchannel=256)
        label = (1, 0, 1, 0)
        bins = iqsynth.active_bins(2048, 4, 256)
        occupied = np.concatenate([bins[0], bins[2]])
        vacant_band = np.concatenate([bins[1], bins[3]])
        for target in (-10.0, 0.0, 20.0):
            rng = derive_rng(7, int(target) & 0xFF)
            sig_est, noise_est = [], []
            for _ in range(150):
                samples = exact.capture(label, target, cfg, rng)
                spectrum = np.abs(np.fft.fft(samples, norm="ortho")) ** 2
                noise_est.append(spectrum[vacant_band].mean())
                sig_est.append(spectrum[occupied].mean())
            noise = np.mean(noise_est)
            signal = np.mean(sig_est) - noise
            realized_db = 10 * np.log10(signal / noise)
            assert abs(realized_db - target) <= 0.5


def time_domain_interference(cfg, source, count_per_sinr):
    """generate_dataset as it was when interference was added in the time
    domain: each observation's capture, then every neighbor's clean
    waveform (the inverse transform of its clean spectrum) scaled and
    added to it. Returns the (label, samples) pairs and the observations'
    generators."""
    pairs, rngs, idx = [], [], 0
    for sinr_db in cfg.sinr_grid_db:
        for _ in range(count_per_sinr):
            rng = derive_rng(cfg.seed, iqsynth._OBS_KEY, idx)
            label = source(rng)
            samples = np.fft.ifft(iqsynth.synthesize_block([label], (sinr_db,), cfg, [rng])[0],
                                  norm="ortho")[0]
            neighbors = [source(rng) for _ in cfg.interference_gains_db]
            for neighbor, gain in zip(neighbors, cfg.interference_gains_db):
                samples += 10.0 ** (gain / 20.0) * np.fft.ifft(
                    iqsynth.clean_spectrum(neighbor, cfg, rng), norm="ortho")
            pairs.append((label, samples))
            rngs.append(rng)
            idx += 1
    return pairs, rngs


def generate_recording_rngs(cfg, source, count_per_sinr, monkeypatch):
    """generate_dataset, plus the generator each observation drew from."""
    rngs = []

    def recording(*key):
        rngs.append(derive_rng(*key))
        return rngs[-1]

    monkeypatch.setattr(iqsynth, "derive_rng", recording)
    return iqsynth.generate_dataset(cfg, source, count_per_sinr), rngs


class TestAddInterference:
    @pytest.mark.parametrize("gains", [(-3.0,), (0.0, -6.0, -20.0)], ids=["one", "three"])
    def test_matches_time_domain_path(self, gains, monkeypatch):
        cfg = small_config(interference_gains_db=gains)
        source = stationary_sampler([TransitionMatrix(0.3, 0.3)] * 4)
        ds, rngs = generate_recording_rngs(cfg, source, 50, monkeypatch)
        want, want_rngs = time_domain_interference(cfg, source, 50)
        assert len(ds.observations) == len(want) == len(rngs)
        for obs, rng, (label, samples), want_rng in zip(ds.observations, rngs, want,
                                                        want_rngs):
            assert np.array_equal(obs.label, label)
            assert rng.bit_generator.state == want_rng.bit_generator.state
            assert np.allclose(obs.samples, samples.astype(np.complex64), rtol=0.0, atol=1e-12)

    def test_empty_neighbor_list_identity(self, monkeypatch):
        """Without interference each observation is, bit for bit, the
        single capture of its substream rounded to complex64."""
        cfg = small_config()
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 4)
        ds, rngs = generate_recording_rngs(cfg, source, 50, monkeypatch)
        for idx, (obs, rng) in enumerate(zip(ds.observations, rngs)):
            want_rng = derive_rng(cfg.seed, iqsynth._OBS_KEY, idx)
            label = source(want_rng)
            plain = exact.capture(label, obs.sinr_db, cfg, want_rng)
            assert np.array_equal(bits(ds.samples[idx]), bits(plain.astype(np.complex64)))
            assert np.array_equal(obs.label, label)
            assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_minus_inf_gain_skips(self):
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 4)
        plain = iqsynth.generate_dataset(small_config(), source, count_per_sinr=10)
        muted = iqsynth.generate_dataset(
            small_config(interference_gains_db=(float("-inf"),)), source, count_per_sinr=10)
        for a, b in zip(plain.observations, muted.observations):
            assert np.array_equal(a.samples, b.samples)
            assert np.array_equal(a.label, b.label)

    def test_power_additivity(self):
        gain_db = -3.0
        # every label, serving or neighbor, is (1, 1, 0, 0); expected
        # neighbor power per sample: 10^(gain/10) * busy_bins / N
        expected_extra = 10 ** (gain_db / 10) * 64 / 256

        def source(rng):
            return (1, 1, 0, 0)

        plain = iqsynth.generate_dataset(small_config(), source, count_per_sinr=50)
        loud = iqsynth.generate_dataset(small_config(interference_gains_db=(gain_db,)),
                                        source, count_per_sinr=50)
        deltas = [np.mean(np.abs(b.samples) ** 2) - np.mean(np.abs(a.samples) ** 2)
                  for a, b in zip(plain.observations, loud.observations)]
        assert np.mean(deltas) == pytest.approx(expected_extra, rel=0.10)


class TestGenerateDataset:
    def test_counts_and_split_arithmetic(self):
        cfg = small_config(sinr_grid_db=GRID)
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 4)
        ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=100)
        assert len(ds.observations) == 400
        assert len(ds.split["train"]) == 280
        assert len(ds.split["val"]) == 60
        assert len(ds.split["test"]) == 60

    def test_splits_disjoint_and_exhaustive(self):
        cfg = small_config()
        source = stationary_sampler([TransitionMatrix(0.5, 0.5)] * 4)
        ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=37)
        combined = sorted(ds.split["train"] + ds.split["val"] + ds.split["test"])
        assert combined == list(range(len(ds.observations)))

    def test_same_seed_byte_identical_file(self, tmp_path):
        cfg = small_config()
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 4)
        paths = []
        for name in ("a.iq", "b.iq"):
            ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=25)
            p = tmp_path / name
            iqsynth.save_dataset(ds, str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_label_marginals_match_stationary(self):
        mats = [TransitionMatrix(0.2, 0.3), TransitionMatrix(0.4, 0.1)]
        cfg = iqsynth.SynthConfig(seed=13, num_subchannels=2,
                                  samples_per_observation=64,
                                  subcarriers_per_subchannel=16,
                                  sinr_grid_db=(0.0,))
        source = stationary_sampler(mats)
        ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=10 ** 4)
        rates = np.mean([o.label for o in ds.observations], axis=0)
        from uavdsa.channel import stationary_distribution
        for rate, mat in zip(rates, mats):
            assert rate == pytest.approx(stationary_distribution(mat)[1], abs=0.05)

    def test_roundtrip(self, tmp_path):
        cfg = small_config()
        source = stationary_sampler([TransitionMatrix(0.3, 0.3)] * 4)
        ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=20)
        path = str(tmp_path / "ds.iq")
        iqsynth.save_dataset(ds, path, num_uavs=3)
        loaded = iqsynth.load_dataset(path)
        assert len(loaded.observations) == len(ds.observations)
        assert loaded.split == ds.split
        assert loaded.config.sinr_grid_db == cfg.sinr_grid_db
        assert loaded.config.seed == cfg.seed
        for a, b in zip(ds.observations, loaded.observations):
            assert np.array_equal(a.label, b.label)
            assert b.sinr_db == np.float32(a.sinr_db)
            assert np.allclose(a.samples, b.samples, atol=1e-6)

    def test_generated_samples_are_the_reloaded_files_bit_for_bit(self, tmp_path):
        """generate_dataset holds its captures as complex64, the dtype that
        IQDS stores, so generate -> save -> load returns its samples bit
        for bit."""
        cfg = small_config(interference_gains_db=(-3.0,))
        source = stationary_sampler([TransitionMatrix(0.3, 0.3)] * 4)
        ds = iqsynth.generate_dataset(cfg, source, count_per_sinr=20)
        path = str(tmp_path / "ds.iq")
        iqsynth.save_dataset(ds, path)
        loaded = iqsynth.load_dataset(path)
        assert ds.samples.dtype == loaded.samples.dtype == np.complex64
        assert ds.samples.tobytes() == loaded.samples.tobytes()

    def test_load_is_one_buffer(self, tmp_path):
        """load_dataset reads the record block into one buffer and views the
        samples in it as complex64: its traced peak stays within 1.25x of
        the block's bytes, and nothing is mapped, so saving the loaded
        dataset over its own path leaves its samples readable."""
        cfg = iqsynth.SynthConfig(seed=3, num_subchannels=16, samples_per_observation=1024,
                                  subcarriers_per_subchannel=64, sinr_grid_db=GRID)
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 16)
        path = str(tmp_path / "ds.iq")
        iqsynth.save_dataset(iqsynth.generate_dataset(cfg, source, count_per_sinr=50), path)
        with open(path, "rb") as f:
            saved = f.read()
        block = len(saved) - (4 + 20 + 4 * len(cfg.sinr_grid_db) + 8)
        tracemalloc.start()
        try:
            loaded = iqsynth.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.samples.dtype == np.complex64 and loaded.samples.shape == (200, 1024)
        assert peak <= 1.25 * block
        iqsynth.save_dataset(loaded, path)
        assert os.path.getsize(path) == len(saved)
        assert loaded.samples.astype(complex).view(np.uint64).tobytes() == \
            iqsynth.load_dataset(path).samples.astype(complex).view(np.uint64).tobytes()
        with open(path, "rb") as f:
            assert f.read() == saved

    def test_save_refuses_labels_wider_than_a_mask(self, tmp_path):
        cfg = small_config(num_subchannels=33, samples_per_observation=64,
                           subcarriers_per_subchannel=1)
        ds = iqsynth.generate_dataset(cfg, lambda rng: (1,) * 33, 1)
        with pytest.raises(ValueError, match="M=33 sub-channels do not fit a u32 label mask"):
            iqsynth.save_dataset(ds, str(tmp_path / "ds.iq"))

    def test_mask_roundtrip(self):
        label = (1, 0, 1, 1, 0, 0, 0, 1)
        mask = core.occupancy_codes(label)
        assert mask == 0b10001101
        assert core.code_bits(mask, 8).tolist() == list(label)

    def test_rejects_bad_count(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            iqsynth.generate_dataset(cfg, lambda rng: (0, 0, 0, 0), 0)


IQDS_HEADER = 4 + 20 + 4 * 2 + 8  # magic, five u32, a two-point grid, seed
IQDS_RECORD = 8 + 8 * 256

# (defect, mutation of the valid file's bytes)
TRUNCATED = [
    ("magic only", lambda d: d[:4]),
    ("partial fixed header", lambda d: d[:10]),
    ("partial grid", lambda d: d[:4 + 20 + 4]),
    ("partial seed", lambda d: d[:IQDS_HEADER - 3]),
    ("partial record header", lambda d: d[:IQDS_HEADER + IQDS_RECORD + 3]),
    ("record cut by 3 bytes", lambda d: d[:-3]),
    ("record missing 32 samples", lambda d: d[:-256]),
]


@pytest.mark.parametrize("defect,mutate", TRUNCATED, ids=[d for d, _ in TRUNCATED])
def test_dataset_reader_rejects_partial_files(defect, mutate, tmp_path):
    good, bad = str(tmp_path / "good.iq"), str(tmp_path / "bad.iq")
    ds = iqsynth.generate_dataset(small_config(), lambda rng: (0, 1, 0, 1), 4)
    iqsynth.save_dataset(ds, good)
    with open(good, "rb") as f:
        data = f.read()
    assert len(data) == IQDS_HEADER + 8 * IQDS_RECORD
    assert len(iqsynth.load_dataset(good).observations) == 8
    with open(bad, "wb") as f:
        f.write(mutate(data))
    with pytest.raises(ValueError, match=f"{re.escape(bad)}: truncated"):
        iqsynth.load_dataset(bad)


def test_dataset_reader_rejects_bad_header_fields(tmp_path):
    good, bad = str(tmp_path / "good.iq"), str(tmp_path / "bad.iq")
    iqsynth.save_dataset(iqsynth.generate_dataset(small_config(),
                                                  lambda rng: (0, 1, 0, 1), 2), good)
    with open(good, "rb") as f:
        data = f.read()
    # M and N are the third and fourth u32 after the magic
    for m, n in ((0, 256), (4, 48), (512, 256)):
        with open(bad, "wb") as f:
            f.write(data[:8] + struct.pack("<II", m, n) + data[16:])
        with pytest.raises(ValueError, match=f"{re.escape(bad)}: header has M={m}"):
            iqsynth.load_dataset(bad)


def time_domain_captures(label, sinrs_db, cfg, rng):
    """The time-domain synthesis the frequency-domain kernel replaced, as a
    per-capture loop: one np.exp per busy sub-channel, one ifft per
    capture, then white noise drawn per sample."""
    n, m, sc = cfg.samples_per_observation, cfg.num_subchannels, cfg.subcarriers_per_subchannel
    bins = iqsynth.active_bins(n, m, sc)
    rows = []
    for sinr_db in sinrs_db:
        spectrum = np.zeros(n, dtype=complex)
        for ch, busy in enumerate(label):
            if busy:
                quadrant = rng.integers(0, 4, size=sc)
                spectrum[bins[ch]] = np.exp(1j * (np.pi / 4 + quadrant * np.pi / 2))
        signal = np.fft.ifft(spectrum, norm="ortho")
        sigma2 = 10.0 ** (-sinr_db / 10.0)
        noise = rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=(n, 2))
        rows.append(signal + noise[:, 0] + 1j * noise[:, 1])
    return rows


def reference_spectra(label, sinrs_db, cfg, rng):
    """The documented draw order written out per capture and per
    sub-channel: every row's (N, 2) noise block in row order, then the
    quadrants of each busy sub-channel, row by row, with one np.exp per
    sub-channel."""
    n, m, sc = cfg.samples_per_observation, cfg.num_subchannels, cfg.subcarriers_per_subchannel
    bins = iqsynth.active_bins(n, m, sc)
    rows = []
    for sinr_db in sinrs_db:
        sigma2 = 10.0 ** (-sinr_db / 10.0)
        noise = rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=(n, 2))
        rows.append(noise[:, 0] + 1j * noise[:, 1])
    for spectrum in rows:
        for ch, busy in enumerate(label):
            if busy:
                quadrant = rng.integers(0, 4, size=sc)
                spectrum[bins[ch]] += np.exp(1j * (np.pi / 4 + quadrant * np.pi / 2))
    return rows


def reference_energy_draws(label, sinrs_db, cfg, central_rng, shift_rng):
    """draw_band_energies of one label written out per capture and per
    band, in its documented draw order: every (row, band)'s chi-square
    draw with that band's own 2B - 1 degrees of freedom from central_rng,
    then every (row, band)'s normal shift from shift_rng, each in
    row-major order, combined in Python floats."""
    edges = iqsynth.band_edges(cfg.samples_per_observation, cfg.num_subchannels)
    central = [[central_rng.chisquare(2 * (b - a) - 1) for a, b in edges] for _ in sinrs_db]
    shift = [[shift_rng.standard_normal() for _ in edges] for _ in sinrs_db]
    amplitude = math.sqrt(cfg.subcarriers_per_subchannel)
    rows = []
    for sinr_db, c_row, z_row in zip(sinrs_db, central, shift):
        half = 10.0 ** (-sinr_db / 10.0) / 2.0
        rows.append([half * c + (math.sqrt(half) * z + amplitude * busy) ** 2
                     for c, z, busy in zip(c_row, z_row, label)])
    return np.array(rows).reshape(len(sinrs_db), cfg.num_subchannels)


def reference_band_energies(spectrum, m):
    """Squared magnitudes, then a slice sum per band."""
    power = np.abs(spectrum) ** 2
    return np.array([power[a:b].sum() for a, b in iqsynth.band_edges(len(spectrum), m)])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 16])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_batched_captures_are_bitwise_per_capture(m, n):
    from uavdsa.sensing import band_energies, spectrum_band_energies
    cfg = iqsynth.SynthConfig(seed=1, num_subchannels=m, samples_per_observation=n,
                              subcarriers_per_subchannel=n // m, sinr_grid_db=GRID)
    labels = [(0,) * m, (1,) * m, tuple(i % 2 for i in range(m)),
              tuple(int(i % 3 == 1) for i in range(m))]
    for k in (1, 2, 3):
        sinrs = (-10.0, 0.0, 7.5)[:k]
        for label in labels:
            seed = (m, n, k, labels.index(label))
            rng, ref_rng = derive_rng(*seed), derive_rng(*seed)
            spectra = iqsynth.synthesize_block([label], sinrs, cfg, [rng])[0]
            want = reference_spectra(label, sinrs, cfg, ref_rng)
            assert spectra.shape == (k, n)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert np.array_equal(bits(spectra), bits(np.array(want)))
            captures = np.fft.ifft(spectra, norm="ortho")
            for capture, spectrum in zip(captures, want):
                assert np.array_equal(bits(capture),
                                      bits(np.fft.ifft(spectrum, norm="ortho")))
            energies = spectrum_band_energies(spectra, m)
            batched = band_energies(captures, m)
            assert energies.shape == batched.shape == (k, m)
            # The fft round trip only moves the last bits: relative error
            # stays within N * float64 eps.
            assert np.allclose(batched, energies, rtol=n * 1e-15, atol=0.0)
            for i, spectrum in enumerate(want):
                assert np.array_equal(bits(reference_band_energies(spectrum, m)),
                                      bits(energies[i]))
                assert np.array_equal(bits(spectrum_band_energies(spectrum, m)),
                                      bits(energies[i]))
                assert np.array_equal(bits(band_energies(captures[i], m)), bits(batched[i]))
    label = labels[2]
    rng, ref_rng = derive_rng(7), derive_rng(7)
    samples = exact.capture(label, 3.0, cfg, rng)
    spectrum = reference_spectra(label, (3.0,), cfg, ref_rng)[0]
    assert np.array_equal(bits(samples), bits(np.fft.ifft(spectrum, norm="ortho")))
    assert rng.bit_generator.state == ref_rng.bit_generator.state



@pytest.mark.parametrize("m,n", [(1, 64), (4, 256), (5, 64), (16, 1024)])
@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
def test_block_synthesis_is_bitwise_per_label(m, n, shared):
    """synthesize_block over T labels is, bit for bit, reference_spectra of
    each label in turn on that label's generator, and leaves every
    generator where that reference does: K of 0 to 3 rows, all-vacant and
    all-busy labels among mixed ones, a generator of its own per label or
    one shared by all. With a shared generator, consecutive blocks of any
    sizes draw what one block over all the labels draws."""
    cfg = iqsynth.SynthConfig(seed=1, num_subchannels=m, samples_per_observation=n,
                              subcarriers_per_subchannel=n // m, sinr_grid_db=GRID)
    labels = [(0,) * m, (1,) * m, tuple(i % 2 for i in range(m)), (0,) * m,
              tuple(int(i % 3 != 1) for i in range(m)), (1,) * m]
    for k in (0, 1, 3):
        sinrs = (-10.0, 0.0, 7.5)[:k]
        keys = [(m, n, k, t) for t in range(len(labels))]
        if shared:
            rngs, ref_rngs = [derive_rng(m, n, k)] * len(labels), [derive_rng(m, n, k)]
        else:
            rngs, ref_rngs = [derive_rng(*key) for key in keys], [derive_rng(*key) for key in keys]
        spectra = iqsynth.synthesize_block(labels, sinrs, cfg, rngs)
        want = [reference_spectra(label, sinrs, cfg, ref_rngs[t % len(ref_rngs)])
                for t, label in enumerate(labels)]
        assert spectra.shape == (len(labels), k, n)
        assert np.array_equal(bits(spectra), bits(np.array(want, complex).reshape(spectra.shape)))
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    if shared:
        for sizes in ((1, 5), (2, 3, 1), (6,)):
            rng, ref_rng = derive_rng(m, n, 9), derive_rng(m, n, 9)
            whole = iqsynth.synthesize_block(labels, (3.0, -2.0), cfg, [ref_rng] * len(labels))
            starts = np.cumsum((0,) + sizes)
            parts = [iqsynth.synthesize_block(labels[a:b], (3.0, -2.0), cfg, [rng] * (b - a))
                     for a, b in zip(starts, starts[1:])]
            assert np.array_equal(bits(np.concatenate(parts)), bits(whole))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_synthesis_refuses_malformed_labels():
    cfg = small_config()
    rng = derive_rng(0)
    state = rng.bit_generator.state
    for labels, problem in (([(0, 1, 0)], "labels of length 4"),
                            ([(0, 1, 2, 0)], "must be 0 or 1"),
                            ([(0, 1, 1, 0)] * 2, "1 generators for 2 labels")):
        with pytest.raises(ValueError, match=problem):
            iqsynth.synthesize_block(labels, (0.0,), cfg, [rng])
    assert rng.bit_generator.state == state
    empty = iqsynth.synthesize_block(np.zeros((0, 4), np.int8), (0.0, 5.0), cfg, [])
    assert empty.shape == (0, 2, cfg.samples_per_observation)


def reference_clean_spectrum(label, cfg, rng):
    """clean_spectrum written out per sub-channel, one np.exp each."""
    spectrum = np.zeros(cfg.samples_per_observation, dtype=complex)
    bins = iqsynth.active_bins(cfg.samples_per_observation, cfg.num_subchannels,
                               cfg.subcarriers_per_subchannel)
    for ch, busy in enumerate(label):
        if busy:
            quadrant = rng.integers(0, 4, size=cfg.subcarriers_per_subchannel)
            spectrum[bins[ch]] += np.exp(1j * (np.pi / 4 + quadrant * np.pi / 2))
    return spectrum


@pytest.mark.parametrize("gains", [(), (-3.0,), (0.0, -6.0, -20.0)], ids=["none", "one", "three"])
def test_dataset_is_bitwise_its_per_observation_reference(gains, monkeypatch):
    """generate_dataset, one block per SINR stratum, writes bit for bit what
    the documented per-observation order gives: the label, its spectrum
    row, every neighbor label, then each neighbor's clean spectrum added
    in turn, then one inverse transform rounded to complex64; every
    observation's generator ends where that reference leaves it."""
    cfg = small_config(interference_gains_db=gains, sinr_grid_db=(-5.0, 0.0, 20.0))
    source = stationary_sampler([TransitionMatrix(0.3, 0.3)] * 4)
    ds, rngs = generate_recording_rngs(cfg, source, 20, monkeypatch)
    assert len(ds.observations) == len(rngs) == 60
    for idx, (obs, rng) in enumerate(zip(ds.observations, rngs)):
        want_rng = derive_rng(cfg.seed, iqsynth._OBS_KEY, idx)
        label = source(want_rng)
        sinr_db = cfg.sinr_grid_db[idx // 20]
        spectrum = reference_spectra(label, (sinr_db,), cfg, want_rng)[0]
        neighbors = [source(want_rng) for _ in gains]
        for neighbor, gain in zip(neighbors, gains):
            spectrum += 10.0 ** (gain / 20.0) * reference_clean_spectrum(neighbor, cfg,
                                                                          want_rng)
        assert np.array_equal(obs.label, label) and obs.sinr_db == sinr_db
        want = np.fft.ifft(spectrum, norm="ortho").astype(np.complex64)
        assert np.array_equal(bits(ds.samples[idx]), bits(want))
        assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n,rows", [(256, 1), (256, 3), (256, 7), (65536, 1)],
                         ids=["1-row", "3-rows", "7-rows", "fft-65536"])
def test_dataset_does_not_depend_on_the_block_size(n, rows, monkeypatch):
    """Blocks of `rows` rows (of one row when BLOCK_ELEMENTS is below N,
    as with the default at N = 65536) write the dataset that one block per
    SINR stratum writes, bit for bit."""
    cfg = small_config(samples_per_observation=n, subcarriers_per_subchannel=8,
                       interference_gains_db=(-3.0,))
    source = stationary_sampler([TransitionMatrix(0.3, 0.3)] * 4)
    count = 10 if n == 256 else 2
    if n == 256:
        monkeypatch.setattr(iqsynth, "BLOCK_ELEMENTS", rows * n + n // 2)
    got = iqsynth.generate_dataset(cfg, source, count)
    monkeypatch.setattr(iqsynth, "BLOCK_ELEMENTS", count * n)
    want = iqsynth.generate_dataset(cfg, source, count)
    assert np.array_equal(bits(got.samples), bits(want.samples))
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.sinr_db, want.sinr_db) and got.split == want.split


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.abs(np.searchsorted(a, grid, side="right") / len(a)
                  - np.searchsorted(b, grid, side="right") / len(b)).max()


def variance_se(x):
    """Standard error of the sample variance, from the fourth central moment."""
    c = x - x.mean()
    return np.sqrt(max((c ** 4).mean() - (c ** 2).mean() ** 2, 0.0) / len(x))


# Every moment bound below is 5 standard errors (two-sided p < 1e-6 per
# check), and the KS bound is the two-sample critical value at alpha = 1e-6,
# c(alpha) * sqrt(2 / n) with c(alpha) = sqrt(-ln(alpha / 2) / 2).
Z = 5.0
KS_C = np.sqrt(-np.log(1e-6 / 2) / 2)


@pytest.mark.parametrize("sinr_db", [-10.0, 0.0, 10.0, 20.0])
def test_frequency_domain_band_energies_match_time_domain_synthesis(sinr_db):
    """The spectra the energy detectors read give band energies distributed
    as those of the time-domain synthesis they replaced (inverse transform,
    white noise per sample, forward transform), for vacant and busy bands."""
    from uavdsa.sensing import band_energies, spectrum_band_energies
    cfg = iqsynth.SynthConfig(seed=1, num_subchannels=4, samples_per_observation=64,
                              subcarriers_per_subchannel=12,  # 4 guard bins per band
                              sinr_grid_db=GRID)
    label, captures = (0, 1, 0, 1), 4000
    spectra = iqsynth.synthesize_block([label], [sinr_db] * captures, cfg,
                                       [derive_rng(11, int(sinr_db) + 10)])[0]
    new = spectrum_band_energies(spectra, 4)
    rng = derive_rng(12, int(sinr_db) + 10)
    old = np.array([band_energies(x, 4) for x in
                    time_domain_captures(label, [sinr_db] * captures, cfg, rng)])
    for bands in ((0, 2), (1, 3)):  # vacant, busy
        a, b = new[:, bands].ravel(), old[:, bands].ravel()
        n = len(a)
        assert abs(a.mean() - b.mean()) <= Z * np.sqrt((a.var() + b.var()) / n)
        assert abs(a.var() - b.var()) <= Z * np.hypot(variance_se(a), variance_se(b))
        assert ks_statistic(a, b) <= KS_C * np.sqrt(2.0 / n)
    sigma2 = iqsynth.noise_power(sinr_db)
    assert abs(new[:, [0, 2]].mean() / (16 * sigma2) - 1.0) <= Z / np.sqrt(2 * 16 * captures)


@pytest.mark.parametrize("sinr_db", [-10.0, 20.0])
def test_noise_only_captures_are_white(sinr_db):
    """Noise-only time-domain captures have per-sample variance
    noise_power, split evenly between I and Q, and no lag-1 correlation,
    as the per-sample noise of the time-domain synthesis did."""
    cfg = small_config()
    captures, n = 400, cfg.samples_per_observation
    sigma2 = iqsynth.noise_power(sinr_db)
    new = np.fft.ifft(iqsynth.synthesize_block([(0,) * 4], [sinr_db] * captures, cfg,
                                               [derive_rng(13)])[0], norm="ortho")
    old = np.array(time_domain_captures((0,) * 4, [sinr_db] * captures, cfg, derive_rng(14)))
    count = captures * n
    for x in (new, old):
        assert abs(np.mean(np.abs(x) ** 2) / sigma2 - 1.0) <= Z / np.sqrt(count)
        for part in (x.real, x.imag):  # each part has variance sigma2 / 2
            assert abs(np.mean(part ** 2) / (sigma2 / 2) - 1.0) <= Z * np.sqrt(2.0 / count)
        lag1 = np.mean(x[:, 1:] * np.conj(x[:, :-1])) / sigma2
        assert abs(lag1) <= Z / np.sqrt(captures * (n - 1))


@pytest.mark.parametrize("m,n", [(1, 64), (4, 64), (5, 64), (16, 1024)])
def test_band_energy_draws_follow_their_documented_order(m, n):
    """draw_band_energies over a block of labels is bitwise its per-label,
    per-band reference and leaves both generators where that reference
    does, for any labels and row count; a call with no rows draws
    nothing."""
    cfg = iqsynth.SynthConfig(seed=1, num_subchannels=m, samples_per_observation=n,
                              subcarriers_per_subchannel=n // m - 1, sinr_grid_db=GRID)
    labels = [(0,) * m, (1,) * m, tuple(i % 2 for i in range(m))]
    for k in (0, 1, 3):
        sinrs = (-10.0, 0.0, 7.5)[:k]
        for t in (1, 3):
            block = labels[3 - t:]
            seed = (m, n, k, t)
            rngs = derive_rng(*seed, 0), derive_rng(*seed, 1)
            ref_rngs = derive_rng(*seed, 0), derive_rng(*seed, 1)
            energies = iqsynth.draw_band_energies(block, sinrs, cfg, *rngs)
            want = [reference_energy_draws(label, sinrs, cfg, *ref_rngs) for label in block]
            assert energies.shape == (t, k, m)
            assert np.array_equal(bits(energies), bits(np.array(want)))
            for rng, ref_rng in zip(rngs, ref_rngs):
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    rng = derive_rng(0)
    state = rng.bit_generator.state
    iqsynth.draw_band_energies(labels, [], cfg, rng, rng)
    assert rng.bit_generator.state == state


# (M, N, subcarriers): 4 guard bins per band; the uneven 12/13-bin
# partition of N = 64 into 5 bands, one band without guards; wide bands
LAW_CONFIGS = [(4, 64, 12), (5, 64, 12), (4, 256, 64)]


@pytest.mark.parametrize("m,n,sc", LAW_CONFIGS)
@pytest.mark.parametrize("sinr_db", [-10.0, 0.0, 10.0, 20.0])
def test_band_energy_law_matches_synthesized_spectra(m, n, sc, sinr_db):
    """Band energies drawn from their exact law are distributed as those
    of synthesized spectra (mean, variance and KS distance per band), and
    their moments are the law's: mean B sigma2 + s and variance
    sigma2^2 B + 2 s sigma2 for a busy band, s = 0 for a vacant one."""
    from uavdsa.sensing import spectrum_band_energies
    cfg = iqsynth.SynthConfig(seed=1, num_subchannels=m, samples_per_observation=n,
                              subcarriers_per_subchannel=sc, sinr_grid_db=GRID)
    label, captures = tuple(int(i % 2 == 1) for i in range(m)), 20000
    key = (m, n, int(sinr_db) + 10)
    new = iqsynth.draw_band_energies([label], [sinr_db] * captures, cfg,
                                     derive_rng(21, *key), derive_rng(23, *key))[0]
    old = spectrum_band_energies(iqsynth.synthesize_block(
        [label], [sinr_db] * captures, cfg, [derive_rng(22, *key)])[0], m)
    sigma2 = iqsynth.noise_power(sinr_db)
    for band, ((start, stop), busy) in enumerate(zip(iqsynth.band_edges(n, m), label)):
        a, b = new[:, band], old[:, band]
        assert abs(a.mean() - b.mean()) <= Z * np.sqrt((a.var() + b.var()) / captures)
        assert abs(a.var() - b.var()) <= Z * np.hypot(variance_se(a), variance_se(b))
        assert ks_statistic(a, b) <= KS_C * np.sqrt(2.0 / captures)
        width, signal = stop - start, sc * busy
        variance = sigma2 ** 2 * width + 2 * signal * sigma2
        assert abs(a.mean() - (width * sigma2 + signal)) <= Z * np.sqrt(variance / captures)
        assert abs(a.var() - variance) <= Z * variance_se(a)
