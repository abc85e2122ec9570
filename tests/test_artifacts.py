"""CSV artifact files: the 17-digit kernel against ``%``, the block writer
against the per-cell oracle, one chunk against many, and a block that fails
part-way."""

import hashlib
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import linbayes as lb
import linbayes.pipeline
from linbayes.pipeline import (_atomic_open, _format17, _write_columns, read_field_csv,
                               read_vector_csv, write_field_csv, write_fields_csv)

import oracles

# doubles whose shortest 17-digit text is easy to get wrong
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               -1.5e-315, 1e308, -1e308, 1.7976931348623157e308, 1e16, 1e-5, 0.1]

# the kernel computes the digits of 1e-4 <= |x| < 1e16 itself: its range,
# each power of ten from 1e-5 to 1e17 and the doubles one ulp either side,
# the exact ties 1000000000000000.25 and .75 (round half even: ...2 and
# ...8), doubles whose 17-digit text carries into the next decade (1e-14
# prints as 1e-14, though the double lies below 10**-14), and -0.0
KERNEL_EDGES = [float(np.nextafter(10.0**m, toward)) for m in range(-5, 18)
                for toward in (0.0, 10.0**m, np.inf)]
KERNEL_EDGES += [1000000000000000.25, 1000000000000000.75, 1e-14, 1e-70, 1e98, -0.0]

KERNEL_VALUES = st.one_of(
    st.sampled_from(KERNEL_EDGES), st.sampled_from(KERNEL_EDGES).map(lambda v: -v),
    st.floats(1e-4, 1e16, exclude_max=True), st.floats(-1e16, -1e-4, exclude_min=True),
    st.integers(-2**53, 2**53).map(float))

VALUES = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.integers(-2**63, 2**63).map(float),
                   st.floats(allow_nan=False, allow_infinity=False),
                   KERNEL_VALUES)


@st.composite
def meshes(draw):
    dim = draw(st.sampled_from([1, 2]))
    counts = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    lows = draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim))
    widths = draw(st.lists(st.floats(0.01, 10.0), min_size=dim, max_size=dim))
    return lb.build_mesh(dim, counts, [[lo, lo + w] for lo, w in zip(lows, widths)])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _mismatches(values):
    """The values whose kernel text differs from ``b"%.17g" % v``."""
    texts = [bytes(row[row != 0]) for row in _format17(values)]
    return [(v, got) for v, got in zip(values.tolist(), texts) if got != b"%.17g" % v]


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.integers(0, 40), elements=KERNEL_VALUES))
def test_kernel_matches_percent_format(values):
    assert _mismatches(values) == []


def _exact_ties(rng, size):
    """Doubles with exactly 18 significant digits, the last a 5: each is
    j / 2**k for an odd j and k = 17 - E fraction digits, E in [-4, 14]."""
    e = rng.integers(-4, 15, size)
    k = 17 - e
    lo = np.ceil(10.0**e * 2.0**k).astype(np.int64)
    j = rng.integers(lo, 10 * lo) | 1
    return j / 2.0**k


def test_kernel_sweep_matches_percent_format():
    # 200,000 seeded doubles from five distributions
    rng = np.random.default_rng(2013)
    size = 40_000
    values = np.concatenate([
        10.0 ** rng.uniform(-13, 17, size) * rng.choice([-1.0, 1.0], size),
        rng.standard_normal(size),
        rng.integers(-2**53, 2**53, size).astype(float),
        _exact_ties(rng, size) * rng.choice([-1.0, 1.0], size),
        rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64),
    ])
    assert _mismatches(values) == []


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_writer_matches_per_cell_oracle(data):
    mesh = data.draw(meshes())
    k = data.draw(st.integers(1, 5))
    values = data.draw(arrays(np.float64, (mesh.n, k), elements=VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"field_{j}.csv") for j in range(k)]
        write_fields_csv(paths, mesh, values)
        for j, path in enumerate(paths):
            assert _read(path) == oracles.field_csv_per_cell(mesh, values[:, j])
        write_field_csv(paths[0], mesh, values[:, -1])
        assert _read(paths[0]) == oracles.field_csv_per_cell(mesh, values[:, -1])


def test_block_of_wrong_shape_writes_nothing(tmp_path, mesh2d):
    paths = [str(tmp_path / f"field_{j}.csv") for j in range(3)]
    with pytest.raises(ValueError, match="block"):
        write_fields_csv(paths, mesh2d, np.zeros((mesh2d.n, 2)))
    assert os.listdir(tmp_path) == []


def test_failure_part_way_leaves_written_files_whole(tmp_path, monkeypatch, mesh2d):
    values = np.random.default_rng(0).standard_normal((mesh2d.n, 4))
    paths = [str(tmp_path / f"sample_{j}.csv") for j in range(4)]
    for path in paths:
        with open(path, "w") as fh:
            fh.write("old\n")
    real_replace, moved = os.replace, []

    def replace(src, dst):
        if len(moved) == 2:
            raise OSError("no space left on device")
        real_replace(src, dst)
        moved.append(dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="no space"):
        write_fields_csv(paths, mesh2d, values)
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(p) for p in paths]
    for j, path in enumerate(paths):
        expect = oracles.field_csv_per_cell(mesh2d, values[:, j]) if j < 2 else b"old\n"
        assert _read(path) == expect


@pytest.mark.parametrize("failure", ["replace", "format"])
def test_failure_in_a_later_chunk_stops_before_later_files(tmp_path, monkeypatch, mesh2d,
                                                           failure):
    # two files a chunk, seven files in four chunks: a rename failing at the
    # second file of chunk 1, or the formatting of chunk 2 raising while
    # chunk 1 is being written, leaves every earlier file whole, every later
    # file as it was and no temp file
    values = np.random.default_rng(1).standard_normal((mesh2d.n, 7))
    paths = [str(tmp_path / f"sample_{j}.csv") for j in range(7)]
    for path in paths:
        with open(path, "wb") as fh:
            fh.write(b"old\n")
    monkeypatch.setattr(linbayes.pipeline, "_CHUNK_VALUES", 2 * mesh2d.n)
    if failure == "replace":
        real_replace = os.replace

        def replace(src, dst):
            if dst == paths[3]:
                raise OSError("no space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        whole = 3
    else:
        calls = []

        def format17(block):
            calls.append(block)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return _format17(block)

        monkeypatch.setattr(linbayes.pipeline, "_format17", format17)
        whole = 4
    with pytest.raises(OSError, match="no space"):
        write_fields_csv(paths, mesh2d, values)
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(p) for p in paths]
    for j, path in enumerate(paths):
        expect = oracles.field_csv_per_cell(mesh2d, values[:, j]) if j < whole else b"old\n"
        assert _read(path) == expect


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chunked_writer_matches_one_chunk_and_per_cell_oracle(data):
    # however small the chunks, the files and digests are those of one chunk
    mesh = data.draw(meshes())
    k = data.draw(st.integers(1, 6))
    chunk = data.draw(st.integers(1, 3 * mesh.n))
    values = data.draw(arrays(np.float64, (mesh.n, k), elements=VALUES))
    assert mesh.n * k <= linbayes.pipeline._CHUNK_VALUES
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"field_{j}.csv") for j in range(k)]
        one = write_fields_csv(paths, mesh, values)
        expected = [_read(path) for path in paths]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linbayes.pipeline, "_CHUNK_VALUES", chunk)
            chunked = write_fields_csv(paths, mesh, values)
        assert list(chunked.items()) == list(one.items())
        for j, path in enumerate(paths):
            body = _read(path)
            assert body == expected[j] == oracles.field_csv_per_cell(mesh, values[:, j])
            assert chunked[path] == hashlib.sha256(body).hexdigest()


def test_writer_thread_only_for_more_than_one_chunk(tmp_path, monkeypatch, mesh2d):
    # a call of one chunk writes inline; one of four chunks starts one thread
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    values = np.random.default_rng(2).standard_normal((mesh2d.n, 4))
    paths = [str(tmp_path / f"field_{j}.csv") for j in range(4)]
    write_fields_csv(paths, mesh2d, values)
    write_field_csv(paths[0], mesh2d, values[:, 0])
    assert started == []
    monkeypatch.setattr(linbayes.pipeline, "_CHUNK_VALUES", mesh2d.n)
    write_fields_csv(paths, mesh2d, values)
    assert len(started) == 1


def test_block_raising_before_the_replace_leaves_no_temp_file(tmp_path):
    path = tmp_path / "map.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with _atomic_open(str(path)) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == ["map.csv"]
    assert path.read_bytes() == b"old\n"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reader_round_trips_the_block_writer(data):
    mesh = data.draw(meshes())
    k = data.draw(st.integers(1, 3))
    values = data.draw(arrays(np.float64, (mesh.n, k), elements=VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"field_{j}.csv") for j in range(k)]
        write_fields_csv(paths, mesh, values)
        back = np.column_stack([read_field_csv(path, mesh) for path in paths])
    # bitwise, so -0.0 and subnormals survive
    assert back.tobytes() == values.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_tall_file_formatted_in_chunks_of_rows(tmp_path, monkeypatch, chunk):
    # a file of more rows than a chunk holds values is formatted a chunk of
    # rows at a time, to the bytes one pass writes
    rng = np.random.default_rng(5)
    values = np.concatenate([EDGE_VALUES, rng.standard_normal(100 - len(EDGE_VALUES))])
    prefixes = [b"%d," % i for i in range(values.size)]
    whole = str(tmp_path / "whole.csv")
    expected = _write_columns([whole], b"index,value\r\n", prefixes, values[:, None])
    monkeypatch.setattr(linbayes.pipeline, "_CHUNK_VALUES", chunk)
    sizes = []

    def counted(block):
        sizes.append(np.size(block))
        return _format17(block)

    monkeypatch.setattr(linbayes.pipeline, "_format17", counted)
    path = str(tmp_path / "chunked.csv")
    digests = _write_columns([path], b"index,value\r\n", prefixes, values[:, None])
    with open(whole, "rb") as fh, open(path, "rb") as chunked:
        assert chunked.read() == fh.read()
    assert digests[path] == expected[whole]
    assert sum(sizes) == values.size and max(sizes) <= chunk


@pytest.mark.parametrize("rank", [0, 1, 3])
def test_spectrum_file_reads_back_without_warning(tmp_path, rank):
    # a rank-0 spectrum is a header-only file: an empty vector, no warning
    path = str(tmp_path / "spectrum.csv")
    lambdas = np.linspace(2.0, 0.5, rank)
    _write_columns([path], b"index,lambda\r\n", [b"%d," % k for k in range(rank)], lambdas[:, None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_vector_csv(path)
    assert back.shape == (rank,) and np.array_equal(back, lambdas)
