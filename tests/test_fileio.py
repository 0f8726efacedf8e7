"""The plain-text writers against per-value byte oracles, bit-exact
write-then-read round trips of every file format, and the readers on
truncated and corrupted files."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from admira import fileio
from admira.linalg import FactoredMatrix
from admira.operators import BLOCK_ROWS, GaussianOperator, SamplingOperator

# every file a writer makes must read back without loadtxt's no-data warning
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

# values whose shortest round-trip decimal is easy to get wrong
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    -1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308,
                    3.0, -7.0, 1e16, 2.0**53 + 2.0, -(2.0**63), 0.1, 1.0 / 3.0])
LENGTHS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def with_specials(rng, shape):
    """Standard normals with the special values laid over the front."""
    X = rng.standard_normal(shape).ravel()
    X[:SPECIAL.size] = SPECIAL[:X.size]
    return X.reshape(shape)


def assert_same_bytes(tmp_path, write, oracle, obj):
    write(tmp_path / "bulk.txt", obj)
    oracle(tmp_path / "oracle.txt", obj)
    assert (tmp_path / "bulk.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


class TestBytesAgainstPerValueWriters:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_vector(self, tmp_path, length):
        y = with_specials(np.random.default_rng(length), length)
        assert_same_bytes(tmp_path, fileio.write_vector, oracles.write_vector_per_value, y)

    @pytest.mark.parametrize("shape", [
        (1, 7), (7, 1), (0, 3), (3, 0), (0, 0), (4, 5),
        (BLOCK_ROWS - 1, 1), (BLOCK_ROWS + 1, 1), (1, BLOCK_ROWS + 1),
        (3, BLOCK_ROWS // 2 - 1), (BLOCK_ROWS // 3 + 1, 3),
    ])
    def test_dense_matrix(self, tmp_path, shape):
        X = with_specials(np.random.default_rng(sum(shape)), shape)
        assert_same_bytes(tmp_path, fileio.write_dense_matrix,
                          oracles.write_dense_matrix_per_value, X)

    @pytest.mark.parametrize("p", [0, 1, BLOCK_ROWS // 2 - 1, BLOCK_ROWS // 2 + 1,
                                   BLOCK_ROWS - 1, BLOCK_ROWS + 1])
    def test_sampling_operator(self, tmp_path, p):
        op = SamplingOperator.random(300, 200, p, seed=p)
        assert_same_bytes(tmp_path, fileio.write_operator,
                          oracles.write_sampling_operator_per_pair, op)

    @pytest.mark.parametrize("m, n, k", [(5, 4, 0), (1, 6, 1), (6, 1, 1), (9, 7, 3),
                                         (BLOCK_ROWS + 1, 2, 2)])
    def test_factored_matrix(self, tmp_path, m, n, k):
        rng = np.random.default_rng(m + n + k)
        left = rng.standard_normal((m, k))
        right = rng.standard_normal((n, k))
        sigmas = np.sort(rng.choice(np.abs(SPECIAL), k))[::-1]
        F = FactoredMatrix((m, n), sigmas, left / np.linalg.norm(left, axis=0),
                           right / np.linalg.norm(right, axis=0))
        assert_same_bytes(tmp_path, fileio.write_factored_matrix,
                          oracles.write_factored_matrix_per_value, F)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0,
                                                   max_side=20), elements=FINITE))
    def test_vector(self, tmp_path_factory, y):
        path = tmp_path_factory.mktemp("v") / "v.txt"
        fileio.write_vector(path, y)
        assert_bits_equal(fileio.read_vector(path), y)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                   max_side=6), elements=FINITE))
    def test_dense_matrix(self, tmp_path_factory, X):
        path = tmp_path_factory.mktemp("x") / "x.txt"
        fileio.write_dense_matrix(path, X)
        assert_bits_equal(fileio.read_dense_matrix(path), X)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(0, 3))
    def test_factored_matrix(self, tmp_path_factory, data, m, n, k):
        entries = st.floats(-1e3, 1e3)
        left = data.draw(hnp.arrays(np.float64, (m, k), elements=entries))
        right = data.draw(hnp.arrays(np.float64, (n, k), elements=entries))
        # columns normalize to unit norm within the factored matrix's tolerance
        assume(np.all(np.linalg.norm(left, axis=0) > 1e-150)
               and np.all(np.linalg.norm(right, axis=0) > 1e-150))
        sigmas = np.sort(data.draw(hnp.arrays(np.float64, k, elements=st.floats(0, 1e300))))
        F = FactoredMatrix((m, n), sigmas[::-1], left / np.linalg.norm(left, axis=0),
                           right / np.linalg.norm(right, axis=0))
        path = tmp_path_factory.mktemp("f") / "f.txt"
        fileio.write_factored_matrix(path, F)
        G = fileio.read_factored_matrix(path)
        assert G.shape == F.shape
        for a, b in ((G.sigmas, F.sigmas), (G.left, F.left), (G.right, F.right)):
            assert_bits_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_sampling_operator(self, tmp_path_factory, data, m, n, seed):
        op = SamplingOperator.random(m, n, data.draw(st.integers(0, m * n)), seed=seed)
        path = tmp_path_factory.mktemp("op") / "op.txt"
        fileio.write_operator(path, op)
        back = fileio.read_operator(path)
        assert (back.m, back.n, back.p) == (m, n, op.p)
        np.testing.assert_array_equal(back.rows, op.rows)
        np.testing.assert_array_equal(back.cols, op.cols)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 20), st.integers(0, 2**63 - 1))
    def test_gaussian_operator(self, tmp_path_factory, m, n, p, seed):
        op = GaussianOperator(m, n, p, seed=seed)
        path = tmp_path_factory.mktemp("gop") / "gop.txt"
        fileio.write_operator(path, op)
        back = fileio.read_operator(path)
        assert (back.m, back.n, back.p, back.seed) == (m, n, p, seed)
        assert_bits_equal(back.frames, op.frames)


class TestEmptyAndInvalid:
    def test_sampling_operator_without_samples(self, tmp_path):
        path = tmp_path / "op.txt"
        fileio.write_operator(path, SamplingOperator(3, 4, [], []))
        back = fileio.read_operator(path)
        assert (back.m, back.n, back.p) == (3, 4, 0)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_dense_matrix(self, tmp_path, shape):
        path = tmp_path / "x.txt"
        fileio.write_dense_matrix(path, np.zeros(shape))
        assert fileio.read_dense_matrix(path).shape == shape

    def test_empty_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        fileio.write_vector(path, np.zeros(0))
        assert fileio.read_vector(path).shape == (0,)

    def test_entries_after_an_empty_header_rejected(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 3\n1 2 3\n")
        with pytest.raises(ValueError, match="expected 0x3 entries"):
            fileio.read_dense_matrix(path)

    def test_index_pair_count_checked(self, tmp_path):
        path = tmp_path / "op.txt"
        path.write_text("3 3 2\n1 1\n")
        with pytest.raises(ValueError, match="expected 2x2 entries"):
            fileio.read_operator(path)

    BLOCK = ["2.5", "0.6 0.8 0", "1 0"]

    @pytest.mark.parametrize("k, lines", [(1, BLOCK + BLOCK),
                                          (1, ["2.5", "0.6 0.8", "1 0"]),
                                          (2, BLOCK),
                                          (-1, [])],
                             ids=["block after the last", "short left vector",
                                  "missing block", "negative block count"])
    def test_malformed_factored_matrix_rejected(self, tmp_path, k, lines):
        path = tmp_path / "f.txt"
        path.write_text("\n".join([f"3 2 {k}"] + lines) + "\n")
        with pytest.raises(ValueError) as err:
            fileio.read_factored_matrix(path)
        assert str(err.value) == f"{path}: expected {k} blocks of 1, 3 and 2 entries"

    def test_factored_header_beyond_the_file_size_rejected(self, tmp_path):
        # refused before allocating the 7.28 TiB of factors it declares: each
        # of its 2,000,001,000,000 entries would take at least two bytes
        path = tmp_path / "f.txt"
        path.write_text("1000000 1000000 1000000\n1\n")
        with pytest.raises(ValueError) as err:
            fileio.read_factored_matrix(path)
        assert str(err.value) == (f"{path}: header declares 2000001000000 entries, "
                                  "more than the file's 26 bytes can hold")

    def test_operator_with_a_huge_row_count_rejected(self, tmp_path):
        # refused before bincount allocates a 7.28 TiB row pointer
        path = tmp_path / "op.txt"
        path.write_text("1000000000000 5 1\n1 1\n")
        with pytest.raises(ValueError) as err:
            fileio.read_operator(path)
        assert str(err.value) == (f"{path}: the row pointer for 1000000000000 rows needs "
                                  "8000000000008 bytes, above the 2147483648-byte limit")

    @pytest.mark.parametrize("read, text, message", [
        (fileio.read_factored_matrix, "3 2\n", "not enough values to unpack"),
        (fileio.read_factored_matrix, "1 1 1\nabc\n1\n1\n", "could not convert"),
        (fileio.read_dense_matrix, "1 2\n1 x\n", "could not convert"),
        (fileio.read_operator, "sampling 3 3\n", "invalid literal for int()"),
        (fileio.read_vector, "1\nfoo\n", "could not convert"),
        (fileio.read_operator, "4 99999999999999999999 1\n1 1\n",
         "4x99999999999999999999 matrix has 2**63 or more entries"),
        (fileio.read_operator, "-1 4 0\n", "matrix sizes must be nonnegative, got -1x4"),
    ], ids=["factored header", "factored entry", "dense entry", "operator header",
            "vector entry", "operator flat index", "operator negative size"])
    def test_malformed_input_names_the_file(self, tmp_path, read, text, message):
        path = tmp_path / "in.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vector_writer_refuses_what_the_reader_refuses(self, tmp_path, bad):
        path = tmp_path / "v.txt"
        with pytest.raises(ValueError, match="NaN or Inf"):
            fileio.write_vector(path, [1.0, bad])
        assert not path.exists()


def operator_fields(op):
    # a corrupted header can turn one kind of operator file into the other
    kind = [op.rows, op.cols] if isinstance(op, SamplingOperator) else [op.seed]
    return [type(op), op.shape, op.p, *kind]


# One valid file of each format, and the fields that make two objects equal.
FORMATS = {
    "dense": (fileio.write_dense_matrix, fileio.read_dense_matrix,
              np.array([[1.5, -2.0, 0.25], [3.0, 4e-3, 7.0]]), lambda X: [X]),
    "factored": (fileio.write_factored_matrix, fileio.read_factored_matrix,
                 FactoredMatrix((3, 2), [2.5, 1.0], [[0.6, 0.0], [0.8, 0.0], [0.0, 1.0]],
                                [[1.0, 0.0], [0.0, 1.0]]),
                 lambda F: [F.shape, F.sigmas, F.left, F.right]),
    "sampling": (fileio.write_operator, fileio.read_operator,
                 SamplingOperator(3, 4, [0, 2, 1], [1, 3, 0]), operator_fields),
    "gaussian": (fileio.write_operator, fileio.read_operator,
                 GaussianOperator(2, 3, 4, seed=7), operator_fields),
    "vector": (fileio.write_vector, fileio.read_vector,
               np.array([1.5, -2.0, 0.25]), lambda y: [y]),
}
# Tokens that a corrupted file may hold in place of a valid one.
REPLACEMENTS = ["1e999", "nan", "-inf", "-1", "0", "2", "0.5", "99999999999999999999",
                "\x00", "\u00e9", "x", "", "1 1"]


def fields_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


class TestMutatedFiles:
    """A valid file cut at any byte, or with one token replaced, either
    reads back or raises a ``ValueError`` whose message starts with the
    path; no other exception escapes a reader.  What reads back, its
    writer and reader reproduce, and a file cut only after its last
    token reads back equal to the original."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_truncated_and_corrupted_files(self, tmp_path, fmt):
        write, read, obj, fields = FORMATS[fmt]
        valid, copy = tmp_path / "valid.txt", tmp_path / "copy.txt"
        write(valid, obj)
        text = valid.read_text()
        variants = [(text[:cut], not text[cut:].strip()) for cut in range(len(text))]
        variants += [(text[:t.start()] + token + text[t.end():], token == t.group())
                     for t in re.finditer(r"\S+", text) for token in REPLACEMENTS]
        path = tmp_path / "mutated.txt"
        for mutated, same in variants:
            path.write_bytes(mutated.encode())
            try:
                back = read(path)
            except ValueError as err:
                assert str(err).startswith(f"{path}: "), (mutated, err)
                assert not same, (mutated, err)
                continue
            if same:
                assert fields_equal(fields(back), fields(obj)), mutated
            write(copy, back)
            assert fields_equal(fields(read(copy)), fields(back)), mutated
