"""load_libsvm against the line-by-line loader it replaced.

The reference (``libsvm_reference.py``) is the earlier loader with one rule
added (a digit separator is non-numeric). On every drawn file both must
return the same arrays, dtypes and labels, or raise the same error with the
same text. The files mix valid rows with every kind of syntax error (digit
separators among them), non-finite values, every line end and whitespace
separator ``str.split`` knows in ASCII, unsorted rows, signed and
zero-padded indices, blank and label-only lines; the block size is drawn
too, so that errors and examples fall on either side of block boundaries.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zosah.logistic
from libsvm_reference import load_libsvm as reference_load_libsvm
from zosah import load_libsvm
from zosah.oracle import DatasetFormatError

SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r"]
LABELS = ["0", "1", "-1", "+1", "+1.0", "-1.0", "-0"]
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1", "0", "-2.5", "+.5", "1e-3", "0003"]),
)
# What a defect puts into a row: a bad label, a bad feature token, or a
# value that parses but is not finite. None stands for a duplicate index.
# Digit separators ("0_1", "1_0") are defects: int and float read them.
BAD_LABELS = ["2", "foo", "nan", "1:1", "inf", "0_1"]
BAD_TOKENS = ["5", "1:2:3", ":3", "3:", ":", "a:1", "1:x", "1.5:2", "0:1", "-3:1",
              "-100000000000000000000:1", "1_0:0.5", "2:1_5.0", None]
NON_FINITE = ["nan", "1e999", "-inf"]


def index_text(draw, k: int) -> str:
    """k as int() reads it: plain, signed or zero-padded."""
    s = str(k)
    return draw(st.sampled_from([s, "+" + s, "0" + s]))


@st.composite
def valid_rows(draw):
    """A row's tokens: a valid label and distinct indices, sorted or not."""
    cols = draw(st.lists(st.integers(1, 40), unique=True, max_size=8))
    if draw(st.booleans()):
        cols.sort()
    label = draw(st.sampled_from(LABELS))
    return [label] + [f"{index_text(draw, c)}:{draw(VALUES)}" for c in cols]


def add_defect(draw, row: list[str]) -> None:
    kind = draw(st.sampled_from(["label", "token", "token", "non-finite"]))
    if kind == "label":
        row[0] = draw(st.sampled_from(BAD_LABELS))
        return
    if kind == "token":
        bad = draw(st.sampled_from(BAD_TOKENS))
        if bad is None:  # repeat an index of the row, written another way
            heads = [tok.split(":")[0] for tok in row[1:]]
            ks = [int(h) for h in heads if h.lstrip("+-").isdigit()]  # not an earlier defect's
            k = draw(st.sampled_from(ks)) if ks else 7
            bad = f"{index_text(draw, k)}:1" + ("" if ks else f" {k}:2")
    else:
        bad = f"{draw(st.integers(41, 60))}:{draw(st.sampled_from(NON_FINITE))}"
    row.insert(draw(st.integers(1, len(row))), bad)


@st.composite
def libsvm_files(draw):
    """File text: rows, blank, whitespace-only and label-only lines, with
    up to three defects, mixed line ends and separators."""
    kinds = draw(st.lists(st.sampled_from(["row"] * 8 + ["blank", "whitespace", "label"]),
                          max_size=12))
    rows = [draw(valid_rows()) if k == "row" else draw(valid_rows())[:1] if k == "label"
            else [] for k in kinds]
    filled = [i for i, k in enumerate(kinds) if k != "blank" and k != "whitespace"]
    if filled:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
            add_defect(draw, rows[draw(st.sampled_from(filled))])
    text = ""
    for kind, row in zip(kinds, rows):
        if kind == "whitespace":
            line = draw(st.sampled_from(SEPARATORS))
        elif row:
            seps = [draw(st.sampled_from(SEPARATORS)) for _ in row]
            line = draw(st.sampled_from(["", " ", "\t"])) + "".join(
                t + s for t, s in zip(row, seps[:-1])) + row[-1] + draw(
                st.sampled_from(["", seps[-1]]))
        else:
            line = ""
        text += line + draw(st.sampled_from(LINE_ENDS))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


def outcome(load, path, expected_dim):
    """What ``load`` gives: its arrays with their dtypes, or its error."""
    try:
        data = load(path, expected_dim=expected_dim)
    except Exception as exc:  # the error's type and text must match too
        return type(exc), str(exc)
    f = data.features
    return (
        f.shape,
        [(a.dtype, a.tobytes()) for a in (f.indptr, f.indices, f.data)],
        f.has_sorted_indices,
        data.labels.dtype,
        data.labels.tobytes(),
    )


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("libsvm") / "data.txt"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    text=libsvm_files(),
    expected_dim=st.sampled_from([None, None, 0, 5, 40, 60]),
    block_chars=st.sampled_from([1, 16, 64, 1 << 16]),
)
def test_matches_the_line_by_line_loader(path, text, expected_dim, block_chars):
    path.write_bytes(text.encode("ascii"))
    want = outcome(reference_load_libsvm, path, expected_dim)
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        got = outcome(load_libsvm, path, expected_dim)
    assert got == want


@pytest.mark.parametrize("block_chars", [1, 1 << 16])
def test_a_syntax_error_wins_over_an_earlier_non_finite_value(path, block_chars):
    path.write_bytes(b"+1 1:1.0\n-1 2:nan 3:1\n\n+1 4:1 4:2\n-1 5:1e999\n")
    message = f"{path}:4: duplicate feature index 4"
    with pytest.raises(DatasetFormatError) as want:
        reference_load_libsvm(path)
    assert str(want.value) == message
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        with pytest.raises(DatasetFormatError) as got:
            load_libsvm(path)
    assert str(got.value) == message


def test_many_blocks_give_the_arrays_of_one(synth123_path):
    one = outcome(load_libsvm, synth123_path, 123)
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", 4096):
        assert outcome(load_libsvm, synth123_path, 123) == one
    assert outcome(reference_load_libsvm, synth123_path, 123) == one


@pytest.mark.parametrize("block_chars", [1, 1 << 16])
@pytest.mark.parametrize(
    "bad",
    BAD_LABELS + [t for t in BAD_TOKENS if t] + [f"9:{v}" for v in NON_FINITE] + ["dup"]
    # pairs whose pieces add up to two per token
    + ["5 1:2:3", "1:2:3 5", ":3 1:2:3", "4: 1:2:3"],
)
def test_every_defect_gives_the_reference_error(path, bad, block_chars):
    if bad in BAD_LABELS:
        row = f"{bad} 2:1"
    else:
        row = "+1 7:1 " + ("+7:3" if bad == "dup" else bad) + " 8:0.5"
    path.write_bytes(f"-1 1:1 3:2\r\n\n{row}\r-1\t4:1\n0 2:1 5:1\n".encode("ascii"))
    want = outcome(reference_load_libsvm, path, None)
    assert want[0] is DatasetFormatError
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        assert outcome(load_libsvm, path, None) == want


@pytest.mark.parametrize("block_chars", [1, 1 << 16])
@pytest.mark.parametrize(
    "row, message",
    [
        ("+1 1_0:0.5", "non-numeric feature token '1_0:0.5'"),
        ("-1 2:1_5.0", "non-numeric feature token '2:1_5.0'"),
        ("0_1 2:1", "non-numeric label '0_1'"),
    ],
)
def test_a_digit_separator_is_a_syntax_error(path, block_chars, row, message):
    """int and float read "1_0" as 10; a LIBSVM file has no such numbers."""
    path.write_bytes(f"-1 1:1\n{row}\n".encode("ascii"))
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        with pytest.raises(DatasetFormatError) as got:
            load_libsvm(path)
    assert str(got.value) == f"{path}:2: {message}"
    with pytest.raises(DatasetFormatError) as want:
        reference_load_libsvm(path)
    assert str(want.value) == str(got.value)


@pytest.mark.parametrize("block_chars", [1, 1 << 16])
def test_an_index_above_int64_is_a_syntax_error(path, block_chars):
    """The one place the loaders differ: the reference accepts the token and
    fails later, in ``sp.csr_matrix``, with a bare OverflowError, so that a
    later syntax error wins over it; here it is the line's syntax error, in
    token order after "index < 1" and before "duplicate"."""
    big = 2**63
    path.write_bytes(f"-1 1:1\n+1 7:1 {big}:1 7:2\n-1 2:x\n".encode("ascii"))
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        with pytest.raises(DatasetFormatError) as got:
            load_libsvm(path)
    assert str(got.value) == f"{path}:2: feature index {big} > {big - 1}"
    with pytest.raises(DatasetFormatError, match=":2: duplicate feature index 7$"):
        reference_load_libsvm(path)
    path.write_bytes(f"-1 1:1\n+1 7:1 {big}:1\n-1 2:x\n".encode("ascii"))
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        with pytest.raises(DatasetFormatError, match=f":2: feature index {big} > "):
            load_libsvm(path)
    with pytest.raises(DatasetFormatError, match=":3: non-numeric feature token '2:x'$"):
        reference_load_libsvm(path)
    path.write_bytes(f"-1 1:1\n+1 7:1 {big}:1\n".encode("ascii"))
    with pytest.raises(OverflowError):
        reference_load_libsvm(path)
    # the largest int64 is a valid index for both
    path.write_bytes(f"-1 1:1\n+1 7:1 {big - 1}:1\n".encode("ascii"))
    want = outcome(reference_load_libsvm, path, None)
    assert want[0] == (2, big - 1)
    with mock.patch.object(zosah.logistic, "_BLOCK_CHARS", block_chars):
        assert outcome(load_libsvm, path, None) == want


def test_a_failed_block_without_a_line_error_still_raises_a_format_error(path):
    """Were the bulk and line checks ever to disagree, the block still raises
    a DatasetFormatError naming its lines, not a TypeError."""
    path.write_bytes(b"-1 1:1\n+1 0:1\n")
    with mock.patch.object(zosah.logistic, "_check_line", lambda *args: None):
        with pytest.raises(DatasetFormatError) as got:
            load_libsvm(path)
    assert str(got.value) == f"{path}:1: this line or one of the next 2 fails a bulk check"
