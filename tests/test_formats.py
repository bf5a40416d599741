"""File-format property of every binary file the package writes: UNNC
network checkpoints, UAGC agent checkpoints, UQTB q-tables and IQDS
datasets.

A saved file loads back to an object that saves to the same bytes. Every
proper prefix of it, and the file with bytes appended, is refused with a
ValueError that names the file. The one exception is the documented gap
of IQDS v1, whose header stores no record count: a file cut on a record
boundary, or extended by whole records, loads as that many records, as
long as every appended record continues the last stratum: a label mask
below 2^M and the SINR of the grid's last value. Any other appended record
is refused naming the file.
"""

import os
import re
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from uavdsa import iqsynth, nnet
from uavdsa import scheduler as sch

SEEDS = st.integers(0, 2 ** 32 - 1)
UNIT = st.floats(0.0, 1.0)


@st.composite
def networks(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    acts = draw(st.lists(st.sampled_from(nnet.ACTIVATIONS),
                         min_size=len(dims) - 1, max_size=len(dims) - 1))
    return nnet.build_network(dims, acts, seed=draw(SEEDS))


@st.composite
def agents(draw):
    epsilon0 = draw(UNIT)
    return sch.DqnAgent(
        num_subchannels=draw(st.integers(1, 3)),
        variant=draw(st.sampled_from(["dqn", "ddqn", "ddqn-soft"])),
        gamma=draw(st.floats(0.0, 0.99)),
        hidden=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
        batch_size=draw(st.integers(1, 64)),
        target_update_period=draw(st.integers(1, 500)),
        tau=draw(UNIT), learning_rate=draw(st.floats(1e-6, 1.0)),
        epsilon0=epsilon0, epsilon_min=draw(st.floats(0.0, epsilon0)),
        epsilon_decay=draw(st.none() | st.floats(1e-3, 1.0)),
        seed=draw(SEEDS))


@st.composite
def qtables(draw):
    table = sch.QTable(num_subchannels=draw(st.integers(1, 3)),
                       gamma=draw(st.floats(0.0, 0.99)),
                       alpha=draw(st.none() | st.floats(1e-3, 1.0)),
                       alpha_power=draw(UNIT))
    rng = np.random.default_rng(draw(SEEDS))
    table.table[:] = rng.normal(size=table.table.shape)
    table.visits[:] = rng.integers(0, 1000, size=table.visits.shape)
    return table


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 4))
    config = iqsynth.SynthConfig(
        seed=draw(SEEDS), num_subchannels=m,
        samples_per_observation=draw(st.sampled_from([4, 8])),
        subcarriers_per_subchannel=1,
        sinr_grid_db=tuple(draw(st.lists(st.floats(-20.0, 30.0, width=32), min_size=1,
                                         max_size=2, unique=True))))
    source = lambda rng: tuple(int(b) for b in rng.integers(0, 2, size=m))  # noqa: E731
    return iqsynth.generate_dataset(config, source, draw(st.integers(1, 2)))


# name -> (strategy, save(obj, path), load(path))
FORMATS = {
    "UNNC": (networks(), nnet.save_checkpoint, nnet.load_checkpoint),
    "UAGC": (agents(), sch.save_agent, sch.load_agent),
    "UQTB": (qtables(), sch.save_agent, sch.load_agent),
    "IQDS": (datasets(), iqsynth.save_dataset, iqsynth.load_dataset),
}


def _iqds_layout(data: bytes) -> tuple[int, int]:
    """(header size, record size) of an IQDS file's bytes: N and the grid
    length are the fourth and sixth u32 fields."""
    n, _k, grid_len = struct.unpack_from("<III", data, 12)
    return 4 + 20 + 4 * grid_len + 8, 8 + 8 * n


def _valid_records(data: bytes, tail: bytes) -> bool:
    """Whether every record of an IQDS tail continues the file's last
    stratum: a label mask below 2^M and the grid's last SINR (every
    stratum of a saved dataset holds records)."""
    m, n, _k, grid_len = struct.unpack_from("<IIII", data, 8)
    last = np.frombuffer(data, "<f4", grid_len, 24).tolist()[-1]
    record = 8 + 8 * n
    return all(mask >> m == 0 and sinr == last for mask, sinr in (
        struct.unpack_from("<If", tail, start) for start in range(0, len(tail), record)))


@pytest.mark.parametrize("fmt", list(FORMATS))
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data(), tail=st.binary(min_size=1, max_size=80))
def test_files_round_trip_and_refuse_cuts_and_trailing_bytes(fmt, data, tail):
    strategy, save, load = FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        good, bad, again = (os.path.join(tmp, name) for name in ("good", "bad", "again"))

        def contents(path):
            with open(path, "rb") as f:
                return f.read()

        def variant(blob):
            with open(bad, "wb") as f:
                f.write(blob)
            return bad

        def saved_again(obj):
            save(obj, again)
            return contents(again)

        save(data.draw(strategy), good)
        file = contents(good)
        assert file[:4] == fmt.encode()
        assert saved_again(load(good)) == file

        record_ends = set()  # the IQDS v1 gap: cuts that load as leading records
        if fmt == "IQDS":
            header, record = _iqds_layout(file)
            record_ends = set(range(header, len(file), record))
            extended = file + file[-record:]
            assert saved_again(load(variant(extended))) == extended

        for cut in range(len(file)):
            if cut in record_ends:
                assert saved_again(load(variant(file[:cut]))) == file[:cut]
                continue
            with pytest.raises(ValueError, match=re.escape(bad)):
                load(variant(file[:cut]))

        if fmt == "IQDS" and len(tail) % record == 0 and _valid_records(file, tail):
            assert len(load(variant(file + tail)).observations) == \
                len(load(good).observations) + len(tail) // record
        else:
            with pytest.raises(ValueError, match=re.escape(bad)):
                load(variant(file + tail))


@pytest.mark.parametrize("field,value,problem", [
    ("mask", 1 << 3, "label mask has bits at or above M=3"),
    ("mask", 0xFFFFFFFF, "label mask has bits at or above M=3"),
    ("sinr_db", 4.0, "SINR is not a grid value"),
    ("sinr_db", np.nan, "SINR is not a grid value"),
    (None, None, "SINR 0 dB outside its stratum"),
])
def test_iqds_refuses_a_record_off_the_label_width_or_the_grid(field, value, problem, tmp_path):
    """A record whose label mask has bits at or above M, whose SINR is not
    one of the header's grid values, or that sits outside its SINR's
    stratum (field None: a copy of record 0 appended after the last one)
    is refused naming the file and the record."""
    config = iqsynth.SynthConfig(seed=1, num_subchannels=3, samples_per_observation=8,
                                 subcarriers_per_subchannel=2, sinr_grid_db=(0.0, 5.0))
    source = lambda rng: tuple(int(b) for b in rng.integers(0, 2, size=3))  # noqa: E731
    path = str(tmp_path / "data.iq")
    iqsynth.save_dataset(iqsynth.generate_dataset(config, source, 2), path)
    records = np.memmap(path, dtype=iqsynth._record_dtype(8), mode="r+",
                        offset=4 + 20 + 4 * 2 + 8, shape=(4,))
    if field is None:
        first = records[0].tobytes()
        del records
        with open(path, "ab") as f:
            f.write(first)
    else:
        records[field][2] = value
        records.flush()
        del records
    record = 2 if field else 4
    with pytest.raises(ValueError, match=re.escape(f"{path}: record {record}: {problem}")):
        iqsynth.load_dataset(path)


def test_iqds_refuses_a_repeated_grid_value(tmp_path):
    """A header whose SINR grid repeats a value (as float32, as stored) is
    refused naming the file, like any other header the config refuses."""
    config = iqsynth.SynthConfig(seed=1, num_subchannels=3, samples_per_observation=8,
                                 subcarriers_per_subchannel=2, sinr_grid_db=(0.0, 5.0))
    source = lambda rng: tuple(int(b) for b in rng.integers(0, 2, size=3))  # noqa: E731
    path = str(tmp_path / "data.iq")
    iqsynth.save_dataset(iqsynth.generate_dataset(config, source, 2), path)
    with open(path, "r+b") as f:
        f.seek(4 + 20 + 4)  # the grid's second value
        f.write(struct.pack("<f", 0.0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: header has M=3, N=8: "
                                                   "sinr_grid_db: repeats a value")):
        iqsynth.load_dataset(path)
