"""Per-UAV wideband spectrum-hole detection.

Two detector kinds produce the per-UAV occupancy report: a per-band
energy threshold baseline and a dense multi-label classifier (one sigmoid
output per sub-channel, 1 = busy). Both work on stacks of captures
(..., N) and return int8 reports (..., M); `detect` dispatches on the
kind. Evaluation uses micro-averaged precision/recall pooled over all
(observation, sub-channel) cells, with vacant (0) as the positive class,
since holes are the detection target; an undefined ratio is NaN.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import nnet
from .iqsynth import BLOCK_ELEMENTS, Dataset, band_edges
from .seeds import derive_rng

INPUT_MODES = ("iq", "band-energy")
SENSING_KINDS = ("perfect", "energy-threshold", "dense-classifier")


@dataclass(frozen=True)
class SensingSpec:
    """One UAV's sensor and the classifier training behind it, each value
    declared once: its name is the key in a config `sensing` entry, its
    default the default there, and its metadata the bounds that config
    validation checks (config._Section.value)."""

    kind: str = field(default="perfect", metadata={"options": SENSING_KINDS})
    decision_threshold: float = field(default=0.5, metadata={"above": 0.0, "below": 1.0})
    input_mode: str = field(default="iq", metadata={"options": INPUT_MODES})
    thresholds: tuple[float, ...] | None = field(default=None, metadata={"item_low": 0.0})
    model_path: str | None = None
    hidden: tuple[int, ...] = field(default=(128, 128), metadata={
        "max_length": nnet.MAX_HIDDEN_DEPTH, "item_low": 1, "item_high": nnet.MAX_HIDDEN_WIDTH})
    epochs: int = field(default=30, metadata={"low": 1})
    batch_size: int = field(default=32, metadata={"low": 1})
    learning_rate: float = field(default=1e-3, metadata={"above": 0.0})


def spectrum_band_energies(spectra, num_subchannels: int) -> np.ndarray:
    """Energy per sub-channel band of orthonormal spectra (..., N), shaped
    (..., M): squared bin magnitudes summed over each band of the equal
    M-way bin partition."""
    spectra = np.asarray(spectra)
    n = spectra.shape[-1]
    if n < num_subchannels:
        raise ValueError("observation shorter than the number of sub-channels")
    power = np.abs(spectra) ** 2
    return np.stack([power[..., a:b].sum(axis=-1) for a, b in band_edges(n, num_subchannels)],
                    axis=-1)


def band_energies(samples, num_subchannels: int) -> np.ndarray:
    """Band energies of captures (..., N), shaped (..., M): the spectrum_band_energies
    of their orthonormal DFT in complex128 (NumPy >= 2 transforms complex64 in single)."""
    return spectrum_band_energies(np.fft.fft(np.asarray(samples, dtype=complex), norm="ortho"),
                                  num_subchannels)


def energy_detect(energies, thresholds) -> np.ndarray:
    """Reports (..., M): busy (1) wherever a band energy reaches its
    threshold; the thresholds' shape matches the energies' trailing axes."""
    energies, thresholds = np.asarray(energies, float), np.asarray(thresholds, float)
    if energies.shape[energies.ndim - thresholds.ndim:] != thresholds.shape:
        raise ValueError("one threshold per sub-channel required")
    return (energies >= thresholds).astype(np.int8)


@dataclass
class SensingModel:
    kind: str  # "energy-threshold" | "dense-classifier"
    num_subchannels: int
    thresholds: np.ndarray | None = None
    network: nnet.Network | None = None
    decision_threshold: float = SensingSpec.decision_threshold
    input_mode: str = SensingSpec.input_mode
    training_curve: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie in (0, 1)")
        m = self.num_subchannels
        if self.kind == "energy-threshold":
            if self.thresholds is None or np.shape(self.thresholds) != (m,):
                raise ValueError(f"energy-threshold model has no thresholds for "
                                 f"its {m} sub-channels")
        elif self.network is None or self.network.output_dim != m:
            raise ValueError(f"dense-classifier model has no network with {m} outputs")


def feature_vector(samples, num_subchannels: int, input_mode: str) -> np.ndarray:
    """Standardized float32 classifier input of captures (..., N), one row
    per capture: raw I/Q flattened to 2N reals, or the log band-energy
    profile rounded to float32, each row standardized on its own in float32.
    Rows are made a block at a time, in place in the result, so no array
    but the result grows with the number of captures."""
    if input_mode not in INPUT_MODES:
        raise ValueError(f"unknown input mode {input_mode!r}")
    captures = samples.reshape(-1, samples.shape[-1])
    n = captures.shape[1]
    width = 2 * n if input_mode == "iq" else num_subchannels
    rows = np.empty((len(captures), width), dtype=np.float32)
    size = max(1, BLOCK_ELEMENTS // max(n, width))
    for start in range(0, len(rows), size):
        block, part = rows[start:start + size], captures[start:start + size]
        if input_mode == "iq":  # float32 parts of complex64 captures are exact
            block[:, :n], block[:, n:] = part.real, part.imag
        else:
            block[:] = np.log10(band_energies(part, num_subchannels) + 1e-12)
        block -= block.mean(axis=-1, keepdims=True)
        # np.std's own centred pass, bit for bit, run on the block centred in place
        block /= np.sqrt(np.square(block).sum(axis=-1, keepdims=True) / width) + 1e-12
    return rows.reshape(*samples.shape[:-1], width)


def classify(model: SensingModel, samples) -> np.ndarray:
    """Busy probabilities (..., M) of a classifier on captures (..., N):
    one standardized feature matrix and one forward pass over all of its
    rows, whatever the leading shape."""
    x = feature_vector(samples, model.num_subchannels, model.input_mode)
    y = nnet.forward(model.network, x.reshape(-1, x.shape[-1]) if x.ndim > 2 else x)
    return y.reshape(*x.shape[:-1], model.num_subchannels)


def detect(model: SensingModel, samples) -> np.ndarray:
    """Reports (..., M) of either kind on captures (..., N): band energies
    against the thresholds, or the classifier's probabilities against the
    decision threshold."""
    if model.kind == "energy-threshold":
        return energy_detect(band_energies(samples, model.num_subchannels), model.thresholds)
    return (classify(model, samples) >= model.decision_threshold).astype(np.int8)


@dataclass
class SensingMetrics:
    """Micro-averaged counts and scores over (observation, sub-channel)
    cells. An undefined ratio is NaN, never silently zero."""

    tp: int
    fp: int
    fn: int
    tn: int
    micro_precision: float
    micro_recall: float
    micro_f1: float


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> SensingMetrics:
    def ratio(num, den):
        return num / den if den > 0 else float("nan")
    return SensingMetrics(tp, fp, fn, tn, ratio(tp, tp + fp), ratio(tp, tp + fn),
                          ratio(2 * tp, 2 * tp + fp + fn))


def confusion_tally(predictions, truths) -> np.ndarray:
    """The one confusion count: (R, 4) [TP, FP, FN, TN] tallies of R
    report columns, predictions (T, R, M) against truths (T, M), each
    pooled over its T x M cells."""
    negative = np.asarray(predictions) != 0
    cells = 2 * negative + (np.asarray(truths)[:, None, :] != 0)
    cells += 4 * np.arange(negative.shape[1])[:, None]  # one block of 4 bins per column
    return np.bincount(cells.ravel(), minlength=4 * negative.shape[1]).reshape(-1, 4)


def micro_metrics(predictions, truths) -> SensingMetrics:
    """Micro metrics of the [TP, FP, FN, TN] counts pooled over every
    (observation, sub-channel) cell of predictions and truths (n, M)."""
    predictions, truths = np.atleast_2d(predictions), np.atleast_2d(truths)
    if predictions.shape != truths.shape:
        raise ValueError("predictions and truths differ in shape")
    return metrics_from_counts(
        *confusion_tally(predictions[:, None], truths)[0].tolist())


def train_classifier(dataset: Dataset, spec: SensingSpec, seed: int) -> SensingModel:
    """Fit the dense multi-label classifier on the training split, with
    the spec's input mode, network and training settings.

    Minimizes mean per-channel binary cross-entropy with Adam, in float32
    (features, labels, network and moments; the loss in float64), so the
    returned network is the one its float32 checkpoint holds; the per-epoch
    mean training loss is recorded on the returned model. Reproducible per
    seed. Training holds the dataset, the network and Adam's moments: raw
    I/Q features are made per minibatch (each row is standardized on its
    own), never for the whole split; the (n, M) band-energy matrix, cheaper
    than an FFT per batch, is made once.
    """
    train_idx = np.asarray(dataset.split["train"], dtype=np.intp)
    if not train_idx.size:
        raise ValueError("dataset has an empty train split")
    m_chan = dataset.config.num_subchannels
    iq = spec.input_mode == "iq"
    feats = None if iq else feature_vector(dataset.samples[train_idx], m_chan, spec.input_mode)
    labels = dataset.labels[train_idx].astype(np.float32)

    dims = [2 * dataset.samples.shape[1] if iq else m_chan, *spec.hidden, m_chan]
    acts = ["relu"] * len(spec.hidden) + ["sigmoid"]
    net = nnet.build_network(dims, acts, seed=seed, dtype=np.float32)
    opt = nnet.OptimizerState(learning_rate=spec.learning_rate)
    rng = derive_rng(seed, 0x5E25)

    curve = []
    order = np.arange(len(train_idx))
    for _ in range(spec.epochs):
        rng.shuffle(order)
        losses = []
        for start in range(0, len(order), spec.batch_size):
            batch = order[start:start + spec.batch_size]
            x = feature_vector(dataset.samples[train_idx[batch]], m_chan, "iq") if iq else feats[batch]
            t = labels[batch]
            trace = nnet.forward_trace(net, x)
            nnet.backward(net, x, t, nnet.BCE, trace)
            nnet.optimizer_step(net, opt)
            losses.append(nnet.output_loss(trace[1][-1], t, nnet.BCE))
        curve.append(float(np.mean(losses)))

    return SensingModel(kind="dense-classifier", num_subchannels=m_chan,
                        network=net, decision_threshold=spec.decision_threshold,
                        input_mode=spec.input_mode, training_curve=curve)


def evaluate_model(model: SensingModel, dataset: Dataset, split: str = "test",
                   sinr_db: float | None = None) -> SensingMetrics:
    """Micro metrics of a model on one split, optionally one SINR slice
    (SINRs compared as float32): one detect pass over the slice's (n, N)
    stack of captures. An empty slice has undefined (NaN) metrics."""
    rows = np.asarray(dataset.split[split], dtype=np.intp)
    if sinr_db is not None:
        rows = rows[dataset.sinr_db[rows].astype(np.float32) == np.float32(sinr_db)]
    return micro_metrics(detect(model, dataset.samples[rows]), dataset.labels[rows])


METRICS_COLUMNS = ("uav", "sinr_db", "precision", "recall", "f1", "detector", "fused")


def write_metrics_csv(path: str, rows) -> None:
    """rows: iterables matching METRICS_COLUMNS."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(row)
