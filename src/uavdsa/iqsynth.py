"""Labeled synthetic I/Q observation generator.

Captures are built in the frequency domain. Busy sub-channels carry
unit-power QPSK symbols on a contiguous block of DFT bins, and every bin
carries circular complex Gaussian noise at a floor chosen so that
per-subcarrier signal power over per-subcarrier noise power equals the
target SINR. The time-domain capture is the orthonormal inverse DFT of
that spectrum. An orthonormal DFT maps i.i.d. circular complex Gaussian
noise to i.i.d. circular complex Gaussian noise of the same variance, so
the capture is distributed exactly as the inverse-transformed clean
waveform plus white noise of that variance per sample (the energy-detector
model of Urkowitz 1967). Because the floor is defined per subcarrier, the
realized SINR does not depend on how many sub-channels happen to be busy.

Band energies of a sensing pass are drawn from their exact law instead.
The energy of a band of B bins is E = sum |X_j|^2 over its bins. With
sigma2 = noise_power(sinr), every bin holds circular Gaussian noise of
variance sigma2, and a busy band's s active bins add a symbol of unit
modulus. So E = (sigma2 / 2) * chi2_{2B}(lambda), a noncentral chi-square
with 2B degrees of freedom and noncentrality lambda = 2 s / sigma2 when
the band is busy, 0 when it is vacant: the energy-detector statistic of
Urkowitz (1967) and Digham, Alouini & Simon (2007). The law is exact, not
an approximation, because QPSK symbols have unit modulus, so their phases
drop out; B comes from band_edges, so uneven partitions and guard bins
(s < B) are exact too. It holds only without neighbor-cell interference,
which the sensing pass does not apply.

Draw order (documented for bit-exact replay): one synthesize_block call
for K captures of each of T labels makes two draws per label, label by
label, from that label's generator, in this order:

    noise:  rng.standard_normal(out=...) into the label's (K, N) row of
            the block, the (real, imag) parts of every bin, row k later
            scaled by sqrt(noise_power(sinr_k) / 2)
    signal: rng.integers(0, 4, size=(K, B, subcarriers)), the QPSK
            quadrants of the label's B busy sub-channels of every row, in
            channel order (no values are drawn when every sub-channel is
            vacant)

So labels that share one generator draw what one call per label, in
label order, draws. A single capture is the inverse transform of a
one-label, K = 1 block.

One draw_band_energies call for K captures of each of T labels draws the
law above as (sigma2 / 2) * C + (sqrt(sigma2 / 2) * Z + sqrt(s))^2 (no
sqrt(s) for a vacant band), one draw from each of two generators:

    central: C = central_rng.chisquare(2B - 1, size=(T, K, M)), band by band
    shift:   Z = shift_rng.standard_normal((T, K, M))

Each is one pass in (label, row, band) order, so consecutive blocks of
labels draw what one call over all of them draws. A block sensing pass
(simulate.sense) makes that call for its energy-detector rows, in UAV
order, then one synthesize_block call for its classifier rows, every
label drawing from a third generator; a call with no rows draws nothing.

clean_spectrum draws one (B, subcarriers) block of quadrants per call.
generate_dataset makes one synthesize_block call (K = 1) per block of a
SINR stratum's labels, each from its observation's own generator, which
draws, in order: the label, its synthesize_block row, every neighbor
label, then each neighbor's clean_spectrum quadrants. Neighbor-cell
interference is added to the spectrum before the one inverse transform,
and only datasets carry it.

Dataset file format (little-endian, documented for bit-exact replay):

    header:  magic b"IQDS" | version u32 | M u32 | N u32 | K u32
             | grid_len u32 | grid f32 * grid_len | seed u64
    records: label mask u32, its occupancy_codes code (bit m-1 = sub-channel
             m busy) | sinr_db f32
             | N interleaved (real, imag) f32 pairs

Records appear in generation order, grouped by SINR grid value; splits are
positional per SINR stratum (first 70% train, next 15% validation, rest
test) and are therefore recomputable on load.
"""

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import RowView, code_bits, occupancy_codes
from .seeds import derive_rng

_OBS_KEY = 0x0B5
TRAIN_FRACTION = 0.70
VAL_FRACTION = 0.15
BLOCK_ELEMENTS = 1 << 15  # in a block's largest array (of captures, records or features)


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    num_subchannels: int
    samples_per_observation: int
    sinr_grid_db: tuple[float, ...]
    subcarriers_per_subchannel: int = 64
    interference_gains_db: tuple[float, ...] = ()

    def __post_init__(self):
        n, sc = self.samples_per_observation, self.subcarriers_per_subchannel
        if n <= 0 or n & (n - 1):
            raise ValueError("samples_per_observation: must be a positive power of two")
        if sc < 1:
            raise ValueError("subcarriers_per_subchannel: must be >= 1")
        if self.num_subchannels * sc > n:
            raise ValueError(f"subcarriers_per_subchannel: {self.num_subchannels} blocks of "
                             f"{sc} bins exceed the {n}-bin transform")
        # compared as float32, as IQDS stores the grid and evaluation matches it
        grid32 = np.float32(self.sinr_grid_db).tolist()
        if len(set(grid32)) < len(grid32):
            raise ValueError("sinr_grid_db: repeats a value (compared as float32)")

    @cached_property
    def bin_layout(self) -> np.ndarray:
        """(M, subcarriers) active-bin indices, row m for sub-channel m,
        computed once per config."""
        bins = np.array(active_bins(self.samples_per_observation, self.num_subchannels,
                                    self.subcarriers_per_subchannel))
        bins.flags.writeable = False
        return bins


@dataclass(frozen=True)
class IQObservation:
    samples: np.ndarray  # complex, length N
    label: np.ndarray  # int8 occupancy vector (M,)
    sinr_db: float


@dataclass
class Dataset:
    """Labeled captures as columns, row i for observation i: samples (n, N) complex64,
    as IQDS stores them; labels (n, M) int8; sinr_db (n,) float64."""
    samples: np.ndarray
    labels: np.ndarray
    sinr_db: np.ndarray
    split: dict[str, tuple[int, ...]]
    config: SynthConfig

    @property
    def observations(self) -> RowView:
        """The rows as IQObservation views with complex128 samples, each
        label a copy of its int8 labels row."""
        return RowView(len(self.sinr_db), lambda i: IQObservation(
            self.samples[i].astype(complex), self.labels[i].copy(), self.sinr_db.item(i)))


def band_edges(fft_size: int, num_subchannels: int) -> list[tuple[int, int]]:
    """Equal partition of the DFT bins into M contiguous bands."""
    return [
        (m * fft_size // num_subchannels, (m + 1) * fft_size // num_subchannels)
        for m in range(num_subchannels)
    ]


def active_bins(fft_size: int, num_subchannels: int, subcarriers: int) -> list[np.ndarray]:
    """Per-sub-channel occupied bins: `subcarriers` consecutive bins centered
    inside that sub-channel's band, leaving the remainder as guards. The
    block fits every band when subcarriers <= fft_size // num_subchannels,
    as SynthConfig ensures."""
    bins = []
    for start, stop in band_edges(fft_size, num_subchannels):
        lead = (stop - start - subcarriers) // 2
        bins.append(np.arange(start + lead, start + lead + subcarriers))
    return bins


# The four QPSK symbols exp(i(pi/4 + q pi/2)), q = 0..3: indexing this table
# is bitwise equal to evaluating the exponential per symbol.
_QPSK = np.exp(1j * (np.pi / 4 + np.arange(4) * np.pi / 2))
_QPSK.flags.writeable = False


def clean_spectrum(label, config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Frequency-domain construction for an occupancy vector `label` (M,):
    unit-power QPSK on the active bins of its busy sub-channels, exact
    zeros everywhere else."""
    label = np.asarray(label)
    if label.shape != (config.num_subchannels,) or ((label != 0) & (label != 1)).any():
        raise ValueError(f"expected {config.num_subchannels} occupancy bits, got {label}")
    busy = np.flatnonzero(label)
    spectrum = np.zeros(config.samples_per_observation, dtype=complex)
    spectrum[config.bin_layout[busy]] = _QPSK[
        rng.integers(0, 4, size=(len(busy), config.subcarriers_per_subchannel))]
    return spectrum


def noise_power(sinr_db: float) -> float:
    """Per-bin (and per-sample) complex noise variance for a target SINR
    (unit-power subcarriers)."""
    return 10.0 ** (-sinr_db / 10.0)


def synthesize_block(labels, sinrs_db, config: SynthConfig, rngs) -> np.ndarray:
    """(T, K, N) orthonormal spectra of K captures of each of T labels
    (T, M), row k at sinrs_db[k]: QPSK on the busy sub-channels' active
    bins plus complex Gaussian noise of variance noise_power(sinrs_db[k])
    in every bin. Label t draws from rngs[t] (one generator may serve
    several labels) in the order the module docstring gives, straight
    into its row of the block; the noise is then scaled and the symbols
    added over the whole block. An all-vacant label yields noise-only
    spectra at the same reference noise floor."""
    labels = np.asarray(labels)
    m, sc = config.num_subchannels, config.subcarriers_per_subchannel
    if labels.ndim != 2 or labels.shape[1] != m:
        raise ValueError(f"expected labels of length {m}, got shape {labels.shape}")
    if ((labels != 0) & (labels != 1)).any():
        raise ValueError("occupancy entries must be 0 or 1")
    if len(rngs) != len(labels):
        raise ValueError(f"{len(rngs)} generators for {len(labels)} labels")
    scale = np.array([np.sqrt(noise_power(sinr_db) / 2.0) for sinr_db in sinrs_db])
    spectra = np.empty((len(labels), len(scale), config.samples_per_observation),
                       dtype=complex)
    parts = spectra.view(np.float64)  # (T, K, 2N): the (real, imag) parts of every bin
    quadrants = []
    for row, busy, rng in zip(parts, np.count_nonzero(labels, axis=1).tolist(), rngs):
        rng.standard_normal(out=row)
        quadrants.append(rng.integers(0, 4, size=(len(scale), busy, sc)))
    parts *= scale[:, None]
    if quadrants:
        # every busy (label, row, sub-channel) triple, in the order they were drawn
        t, k, ch = np.nonzero(np.broadcast_to(labels[:, None], (*spectra.shape[:2], m)))
        spectra[t[:, None], k[:, None], config.bin_layout[ch]] += _QPSK[
            np.concatenate(quadrants, axis=None).reshape(-1, sc)]
    return spectra


def draw_band_energies(labels, sinrs_db, config: SynthConfig,
                       central_rng: np.random.Generator,
                       shift_rng: np.random.Generator) -> np.ndarray:
    """(T, K, M) band energies of K captures of each of T labels (T, M),
    row k at sinrs_db[k], drawn from their exact law (module docstring):
    what spectrum_band_energies of synthesize_block gives, in
    distribution, without the N bins of each capture."""
    m = config.num_subchannels
    busy = np.asarray(labels).reshape(-1, 1, m)
    half = np.array([noise_power(sinr_db) / 2.0 for sinr_db in sinrs_db])[:, None]
    dof = [2 * (b - a) - 1 for a, b in band_edges(config.samples_per_observation, m)]
    energies = central_rng.chisquare(dof, size=(len(busy), len(half), m))
    energies *= half
    amplitude = shift_rng.standard_normal(energies.shape)
    amplitude *= np.sqrt(half)
    amplitude += np.sqrt(config.subcarriers_per_subchannel) * busy
    energies += amplitude * amplitude
    return energies


def split_indices(strata_sizes: list[int]) -> dict[str, tuple[int, ...]]:
    """Positional 70/15/15 split within each stratum (disjoint, exhaustive)."""
    train, val, test = [], [], []
    base = 0
    for size in strata_sizes:
        n_train = int(TRAIN_FRACTION * size)
        n_val = int(VAL_FRACTION * size)
        train += range(base, base + n_train)
        val += range(base + n_train, base + n_train + n_val)
        test += range(base + n_train + n_val, base + size)
        base += size
    return {"train": tuple(train), "val": tuple(val), "test": tuple(test)}


def generate_dataset(config: SynthConfig, occupancy_source, count_per_sinr: int) -> Dataset:
    """Synthesize count_per_sinr labeled observations per grid SINR.

    occupancy_source is a callable(rng) -> label. Each observation draws
    from a substream keyed by (seed, observation index), so the dataset is
    reproducible independent of generation order and of how a stratum's
    rows are split into synthesize_block calls. Each neighbor cell adds a
    clean spectrum of a label drawn from the same source, scaled by
    10^(gain/20) in amplitude; the label still describes the serving cell.
    Captures are rounded to complex64, so the dataset equals its IQDS file.
    """
    if count_per_sinr < 1:
        raise ValueError("count_per_sinr must be >= 1")
    gains, grid = config.interference_gains_db, config.sinr_grid_db
    size, n = len(grid) * count_per_sinr, config.samples_per_observation
    samples = np.empty((size, n), dtype=np.complex64)
    labels = np.empty((size, config.num_subchannels), dtype=np.int8)
    block = max(1, BLOCK_ELEMENTS // n)  # rows per synthesize_block call
    for stratum, sinr_db in enumerate(grid):
        stop = (stratum + 1) * count_per_sinr
        for start in range(stratum * count_per_sinr, stop, block):
            rows = slice(start, min(start + block, stop))
            rngs = [derive_rng(config.seed, _OBS_KEY, i) for i in range(rows.start, rows.stop)]
            block_labels = [occupancy_source(rng) for rng in rngs]
            spectra = synthesize_block(block_labels, (sinr_db,), config, rngs)[:, 0]
            for spectrum, rng in zip(spectra, rngs):
                neighbors = [occupancy_source(rng) for _ in gains]
                for neighbor, gain in zip(neighbors, gains):
                    spectrum += 10.0 ** (gain / 20.0) * clean_spectrum(neighbor, config, rng)
            samples[rows] = np.fft.ifft(spectra, norm="ortho")
            labels[rows] = block_labels
    return Dataset(samples, labels, np.repeat(np.asarray(grid, dtype=float), count_per_sinr),
                   split_indices([count_per_sinr] * len(grid)), config)


DATASET_MAGIC = b"IQDS"
DATASET_VERSION = 1
DATASET_MAX_SUBCHANNELS = 32  # a record stores its label as a u32 bit mask


def _record_dtype(n: int) -> np.dtype:
    """One IQDS record: label mask, SINR, then N interleaved (real, imag)
    pairs, so that the iq field viewed as complex64 holds the samples."""
    return np.dtype([("mask", "<u4"), ("sinr_db", "<f4"), ("iq", "<f4", (2 * n,))])


def save_dataset(dataset: Dataset, path: str, num_uavs: int = 1) -> None:
    """Write a dataset's IQDS file, its records one block at a time."""
    cfg = dataset.config
    if cfg.num_subchannels > DATASET_MAX_SUBCHANNELS:
        raise ValueError(f"M={cfg.num_subchannels} sub-channels do not fit a u32 label mask")
    block = np.empty(max(1, BLOCK_ELEMENTS // cfg.samples_per_observation),
                     dtype=_record_dtype(cfg.samples_per_observation))
    size = len(dataset.sinr_db)
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIIII", DATASET_VERSION, cfg.num_subchannels,
                            cfg.samples_per_observation, num_uavs,
                            len(cfg.sinr_grid_db)))
        f.write(np.asarray(cfg.sinr_grid_db, dtype="<f4").tobytes())
        f.write(struct.pack("<Q", cfg.seed))
        for start in range(0, size, len(block)):
            records, rows = block[:size - start], slice(start, start + len(block))
            records["mask"] = occupancy_codes(dataset.labels[rows])
            records["sinr_db"] = dataset.sinr_db[rows]
            records["iq"].view(np.complex64)[:] = dataset.samples[rows]
            records.tofile(f)


def load_dataset(path: str) -> Dataset:
    """Read a dataset file back, its splits recomputed from record order.

    One structured array holds the records, its iq field viewed as complex64
    being the samples; it is not mapped, as a later write to the path would
    truncate pages it still uses. The subcarrier block width is not stored:
    it reloads as fft size // M. A partial header or record, a label mask
    with bits at or above M, an SINR off the grid, and a record outside its
    grid value's stratum raise a ValueError naming the file (and the
    record). A file that lacks only whole trailing records cannot be told
    apart: the header stores no record count.
    """

    def header(f, size: int) -> bytes:
        data = f.read(size)
        if len(data) != size:
            raise ValueError(f"{path}: truncated header")
        return data

    with open(path, "rb") as f:
        if f.read(4) != DATASET_MAGIC:
            raise ValueError(f"{path}: not a dataset file")
        version, m, n, _k, grid_len = struct.unpack("<IIIII", header(f, 20))
        if version != DATASET_VERSION:
            raise ValueError(f"{path}: unsupported dataset version {version}")
        grid32 = np.frombuffer(header(f, 4 * grid_len), dtype="<f4")
        grid = tuple(float(v) for v in grid32)
        (seed,) = struct.unpack("<Q", header(f, 8))
        if m < 1:
            raise ValueError(f"{path}: header has M={m} sub-channels")
        try:
            config = SynthConfig(seed=seed, num_subchannels=m, samples_per_observation=n,
                                 subcarriers_per_subchannel=n // m, sinr_grid_db=grid)
            dtype = _record_dtype(n)  # NumPy refuses records past its size limits
        except ValueError as exc:
            raise ValueError(f"{path}: header has M={m}, N={n}: {exc}") from None
        # refused before sizing the buffer: a header's N can make a record huge
        count, partial = divmod(os.fstat(f.fileno()).st_size - f.tell(), dtype.itemsize)
        if partial:
            raise ValueError(f"{path}: truncated record {count}: "
                             f"{partial} of {dtype.itemsize} bytes")
        records = np.empty(count, dtype)
        count = f.readinto(records) // dtype.itemsize
    records, sinr_db = records[:count], records["sinr_db"][:count].astype(float)
    hits = records["sinr_db"][:, None] == grid32  # (count, grid_len)
    strata = hits @ np.arange(len(grid))  # each record's grid index, once it has one
    for bad, problem in ((records["mask"].astype(np.uint64) >> m != 0,
                          f"label mask has bits at or above M={m}"),
                         (~hits.any(axis=1), "SINR is not a grid value"),
                         (np.diff(strata, prepend=0) < 0, "SINR {:g} dB outside its stratum")):
        if bad.any():
            raise ValueError(f"{path}: record {np.argmax(bad)}: "
                             + problem.format(sinr_db[np.argmax(bad)]))
    labels = code_bits(records["mask"], m)
    return Dataset(records["iq"].view(np.complex64), labels, sinr_db,
                   split_indices(np.bincount(strata, minlength=len(grid)).tolist()), config)
