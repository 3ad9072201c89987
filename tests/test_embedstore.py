import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embalign import EmbeddingSet, intersect_on_images, load_embeddings, save_embeddings
from embalign import embedstore
from embalign.align import pair_sets, unit_rows
from embalign.embedstore import shared_rows
from embalign.prep import l2_normalize
from embalign.errors import (
    ConsistencyError,
    DataError,
    DegenerateRowError,
    EmptyIntersectionError,
    FormatError,
    IoError,
    LabelConflictError,
)

#: the only errors a malformed input file may raise
LOAD_ERRORS = (FormatError, ConsistencyError, DataError, IoError)


def make_set(rows, ids, labels, name="m"):
    return EmbeddingSet(name, "ds", np.asarray(rows, dtype=np.float32), ids, labels)


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    s = make_set(rng.standard_normal((7, 5)), [f"i{k}" for k in range(7)],
                 ["a", "a", "b", "b", "c", "c", "c"])
    path = str(tmp_path / "x.emb")
    save_embeddings(s, path, "binary")
    s2 = load_embeddings(path, "binary", model_name="m", dataset_name="ds")
    assert np.array_equal(s.rows, s2.rows)
    assert s.image_ids == s2.image_ids
    assert s.labels == s2.labels


def test_binary_direct_load(tmp_path):
    s = make_set([[1, 0, 0], [0, 1, 0]], ["x", "y"], ["a", "b"])
    path = str(tmp_path / "t.emb")
    save_embeddings(s, path)
    loaded = load_embeddings(path)
    assert loaded.n == 2 and loaded.dim == 3


def test_csv_round_trip_exact_dyadic(tmp_path):
    s = make_set([[0.5, -0.25]], ["a"], ["x"])
    path = str(tmp_path / "x.csv")
    save_embeddings(s, path, "csv")
    s2 = load_embeddings(path, "csv")
    assert np.array_equal(s.rows, s2.rows)


def test_csv_parse(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("image_id,identity,e0,e1\ni1,a,1.0,2.0\ni2,b,3.0,4.0\ni3,b,5.0,6.0\n")
    s = load_embeddings(str(path), "csv")
    assert s.n == 3 and s.dim == 2
    assert s.labels == ("a", "b", "b")


@pytest.mark.parametrize("value", ["1e39", "-3.5e38"])
def test_csv_value_beyond_float32_is_data_error(tmp_path, value):
    # the float32 cast used to warn of an overflow before the set was refused
    path = tmp_path / "x.csv"
    path.write_text(f"image_id,identity,e0,e1\ni1,a,1.0,2.0\ni2,b,3.0,{value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"x.csv: row 1: value '{value}'"):
            load_embeddings(str(path), "csv")


def test_wrong_format_flag_raises(tmp_path):
    s = make_set([[1.0, 2.0]], ["a"], ["x"])
    path = str(tmp_path / "x.emb")
    save_embeddings(s, path, "binary")
    with pytest.raises(FormatError):
        load_embeddings(path, "csv")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_embeddings(str(path), "binary")


def test_label_count_mismatch(tmp_path):
    s = make_set(np.eye(5, 3), [f"i{k}" for k in range(5)], list("aabbc"))
    path = str(tmp_path / "x.emb")
    save_embeddings(s, path)
    lpath = tmp_path / "x.labels.tsv"
    lines = lpath.read_text().splitlines()
    lpath.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ConsistencyError):
        load_embeddings(path)


def test_non_utf8_labels_rejected(tmp_path):
    s = make_set(np.eye(2, 3), ["i0", "i1"], ["a", "b"])
    path = str(tmp_path / "x.emb")
    save_embeddings(s, path)
    (tmp_path / "x.labels.tsv").write_bytes(b"i0\ta\ni1\t\xff\n")
    with pytest.raises(FormatError, match="UTF-8"):
        load_embeddings(path)


def saved_files(tmp_path, fmt):
    """Bytes of a small valid set saved in ``fmt``: (data file, label file or None)."""
    rng = np.random.default_rng(3)
    s = make_set(rng.standard_normal((6, 3)), [f"img{k}" for k in range(6)], list("aabbcc"))
    path = tmp_path / ("x.emb" if fmt == "binary" else "x.csv")
    save_embeddings(s, str(path), fmt)
    labels = tmp_path / "x.labels.tsv"
    return path.read_bytes(), labels.read_bytes() if fmt == "binary" else None


def load_bytes(tmp_path, fmt, blob, labels=None):
    path = tmp_path / ("fuzz.emb" if fmt == "binary" else "fuzz.csv")
    path.write_bytes(blob)
    if labels is not None:
        (tmp_path / "fuzz.labels.tsv").write_bytes(labels)
    return load_embeddings(str(path), fmt)


def mutate_bytes(data, blob):
    mutable = bytearray(blob)
    for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
        mutable[pos] = data.draw(st.integers(0, 255))
    return bytes(mutable)


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

#: replacement text for one field of a label line or a CSV cell
FIELD_TEXT = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "1e39", "img0", "a\tb", "\"", ","]),
    st.text(max_size=6),
)


@FUZZ
@given(data=st.data())
def test_binary_fuzz_raises_only_load_errors(tmp_path, data):
    blob, labels = saved_files(tmp_path, "binary")
    kind = data.draw(st.sampled_from(["truncate", "field", "bytes"]))
    target = data.draw(st.sampled_from(["data", "labels"]))
    if kind == "truncate":
        if target == "data":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            labels = labels[: data.draw(st.integers(0, len(labels) - 1))]
    elif kind == "field" and target == "data":
        n, d = struct.unpack("<II", blob[4:12])
        n = data.draw(st.one_of(st.just(n), st.integers(0, 2**32 - 1)))
        d = data.draw(st.one_of(st.just(d), st.integers(0, 2**32 - 1)))
        blob = blob[:4] + struct.pack("<II", n, d) + blob[12:]
    elif kind == "field":
        lines = labels.decode("utf-8").split("\n")
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split("\t")
        j = data.draw(st.integers(0, len(fields)))
        fields[j:j + 1] = [data.draw(FIELD_TEXT)] if data.draw(st.booleans()) else []
        lines[k] = "\t".join(fields)
        labels = "\n".join(lines).encode("utf-8")
    elif target == "data":
        blob = mutate_bytes(data, blob)
    else:
        labels = mutate_bytes(data, labels)
    try:
        load_bytes(tmp_path, "binary", blob, labels)
    except LOAD_ERRORS:
        pass


@FUZZ
@given(data=st.data())
def test_csv_fuzz_raises_only_load_errors(tmp_path, data):
    blob, _ = saved_files(tmp_path, "csv")
    kind = data.draw(st.sampled_from(["truncate", "field", "bytes"]))
    if kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "field":
        lines = blob.decode("utf-8").split("\r\n")
        k = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[k].split(",")
        j = data.draw(st.integers(0, len(cells)))
        cells[j:j + 1] = [data.draw(FIELD_TEXT)] if data.draw(st.booleans()) else []
        lines[k] = ",".join(cells)
        blob = "\r\n".join(lines).encode("utf-8")
    else:
        blob = mutate_bytes(data, blob)
    try:
        load_bytes(tmp_path, "csv", blob)
    except LOAD_ERRORS:
        pass


def test_nonfinite_rejected():
    with pytest.raises(DataError):
        make_set([[np.nan, 1.0]], ["a"], ["x"])


def test_duplicate_ids_rejected():
    with pytest.raises(ConsistencyError):
        make_set([[1.0], [2.0]], ["a", "a"], ["x", "y"])


def test_intersect_reorders_to_lexicographic():
    a = make_set([[1.0], [2.0], [3.0]], ["c", "a", "b"], ["1", "2", "3"])
    b = make_set([[9.0], [8.0], [7.0]], ["a", "b", "c"], ["2", "3", "1"])
    ia, ib = intersect_on_images(a, b)
    assert ia.image_ids == ("a", "b", "c") == ib.image_ids
    assert ia.rows[:, 0].tolist() == [2.0, 3.0, 1.0]
    assert ib.rows[:, 0].tolist() == [9.0, 8.0, 7.0]
    assert ia.labels == ib.labels == ("2", "3", "1")


def test_intersect_partial_overlap():
    a = make_set([[1.0], [2.0], [3.0]], ["1", "2", "3"], ["x", "y", "z"])
    b = make_set([[4.0], [5.0], [6.0]], ["2", "3", "4"], ["y", "z", "w"])
    ia, ib = intersect_on_images(a, b)
    assert ia.image_ids == ("2", "3")
    assert ib.image_ids == ("2", "3")


def test_intersect_disjoint():
    a = make_set([[1.0]], ["1"], ["x"])
    b = make_set([[2.0]], ["2"], ["y"])
    with pytest.raises(EmptyIntersectionError):
        intersect_on_images(a, b)


def test_intersect_label_conflict():
    a = make_set([[1.0]], ["1"], ["x"])
    b = make_set([[2.0]], ["1"], ["y"])
    with pytest.raises(LabelConflictError):
        intersect_on_images(a, b)


def test_intersect_idempotent():
    rng = np.random.default_rng(3)
    a = make_set(rng.standard_normal((6, 2)), list("fedcba"), list("xxyyzz"))
    b = make_set(rng.standard_normal((6, 2)), list("abcdef"),
                 list("xxyyzz")[::-1])
    ia, ib = intersect_on_images(a, b)
    ia2, ib2 = intersect_on_images(ia, ib)
    assert ia2.image_ids == ia.image_ids
    assert np.array_equal(ia2.rows, ia.rows)
    assert np.array_equal(ib2.rows, ib.rows)


def test_shared_rows_pair_rows_by_id_in_lexicographic_order():
    a = make_set([[1.0], [2.0], [3.0], [4.0]], ["c", "a", "d", "b"], ["1", "2", "3", "4"])
    b = make_set([[9.0], [8.0], [7.0]], ["b", "e", "c"], ["4", "5", "1"])
    ra, rb = shared_rows(a, b)
    assert (ra, rb) == ([3, 0], [0, 2])  # ids "b", "c"
    assert [a.image_ids[i] for i in ra] == [b.image_ids[j] for j in rb] == ["b", "c"]


def ref_intersect_on_images(a, b):
    """The dict-based intersection that ``shared_rows`` replaced, verbatim."""
    a_index = {iid: i for i, iid in enumerate(a.image_ids)}
    b_index = {iid: i for i, iid in enumerate(b.image_ids)}
    shared = sorted(set(a_index) & set(b_index))
    if not shared:
        raise EmptyIntersectionError(
            f"no shared image ids between {a.model_name!r} and {b.model_name!r}"
        )
    for iid in shared:
        la, lb = a.labels[a_index[iid]], b.labels[b_index[iid]]
        if la != lb:
            raise LabelConflictError(f"image {iid!r}: label {la!r} vs {lb!r}")

    def take(s, index):
        rows = s.rows[[index[iid] for iid in shared]]
        labels = [s.labels[index[iid]] for iid in shared]
        return EmbeddingSet(s.model_name, s.dataset_name, rows, shared, labels)

    return take(a, a_index), take(b, b_index)


def _intersect_outcome(fn, a, b):
    try:
        pair = fn(a, b)
    except (EmptyIntersectionError, LabelConflictError) as exc:
        return type(exc), str(exc)
    return [(s.model_name, s.dataset_name, s.image_ids, s.labels, s.rows.tobytes())
            for s in pair]


@st.composite
def overlapping_sets(draw):
    """Two sets over a common id pool, each holding a random subset in random order."""
    pool = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=12,
                         unique=True))
    label_of = {iid: draw(st.sampled_from("xyz")) for iid in pool}
    sets = []
    for name in ("a", "b"):
        ids = draw(st.permutations([i for i in pool if draw(st.booleans())] or pool[:1]))
        labels = [label_of[i] for i in ids]
        if draw(st.integers(0, 3)) == 0:  # maybe one label that disagrees with the other set
            labels[draw(st.integers(0, len(ids) - 1))] = "w" + name
        rows = draw(st.lists(
            st.lists(st.floats(-1e3, 1e3, width=32), min_size=2, max_size=2),
            min_size=len(ids), max_size=len(ids),
        ))
        sets.append(make_set(rows, ids, labels, name))
    return sets


@settings(max_examples=300, deadline=None)
@given(sets=overlapping_sets())
def test_intersect_equals_dict_reference(sets):
    a, b = sets
    got = _intersect_outcome(intersect_on_images, a, b)
    assert got == _intersect_outcome(ref_intersect_on_images, a, b)
    if isinstance(got, list):
        ra, rb = shared_rows(a, b)
        assert got[0][4] == a.rows[ra].tobytes() and got[1][4] == b.rows[rb].tobytes()


def ref_shared_rows(a, b):
    """The dict path of ``shared_rows``, for every pair of sets."""
    b_index = {iid: i for i, iid in enumerate(b.image_ids)}
    shared = sorted((iid, i) for i, iid in enumerate(a.image_ids) if iid in b_index)
    ra = [i for _, i in shared]
    rb = [b_index[iid] for iid, _ in shared]
    for (iid, i), j in zip(shared, rb):
        if a.labels[i] != b.labels[j]:
            raise LabelConflictError(f"image {iid!r}: label {a.labels[i]!r} vs {b.labels[j]!r}")
    return ra, rb


def _shared_outcome(fn, a, b):
    try:
        return fn(a, b)
    except LabelConflictError as exc:
        return LabelConflictError, str(exc)


@st.composite
def same_id_sets(draw):
    """Two sets listing the same image ids in the same order, some labels maybe in conflict."""
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=12, unique=True))
    labels = [draw(st.sampled_from("xyz")) for _ in ids]
    other = list(labels)
    for _ in range(draw(st.integers(0, 2))):
        other[draw(st.integers(0, len(ids) - 1))] = "w"
    rows = np.arange(2.0 * len(ids)).reshape(len(ids), 2)
    return make_set(rows, ids, labels, "a"), make_set(rows, ids, other, "b")


@settings(max_examples=300, deadline=None)
@given(sets=same_id_sets())
def test_shared_rows_of_equal_id_lists_equals_the_dict_path(sets):
    a, b = sets
    want = _shared_outcome(ref_shared_rows, a, b)
    # a's id sort order is computed once, however often a is paired
    with mock.patch.object(embedstore, "sorted", wraps=sorted, create=True) as order:
        assert _shared_outcome(shared_rows, a, b) == want
        assert _shared_outcome(shared_rows, a, b) == want
    assert order.call_count == 1


def ref_unit_pair(source, target):
    """Labels and unit rows of the shared images, through two intersected ``EmbeddingSet`` s."""
    a, b = intersect_on_images(source, target)
    return list(a.labels), l2_normalize(a.rows), l2_normalize(b.rows)


def _paired_outcome(fn, a, b):
    try:
        labels, x, y = fn(a, b)
    except DegenerateRowError as exc:
        return DegenerateRowError, exc.row_index, str(exc)
    except (EmptyIntersectionError, LabelConflictError) as exc:
        return type(exc), str(exc)
    return labels, x.dtype, x.shape, x.tobytes(), y.dtype, y.shape, y.tobytes()


@st.composite
def sets_with_zero_rows(draw):
    """Overlapping sets in which some rows may be all zero, on either side."""
    sets = draw(overlapping_sets())
    out = []
    for s in sets:
        rows = s.rows.copy()
        for i in range(s.n):
            if draw(st.integers(0, 4)) == 0:
                rows[i] = 0.0
        out.append(make_set(rows, s.image_ids, s.labels, s.model_name))
    return out


@settings(max_examples=300, deadline=None)
@given(sets=sets_with_zero_rows())
def test_pair_sets_equals_the_intersected_sets_path(sets):
    # same bits, and the same error: the source side's zero row comes first
    a, b = sets

    def paired_unit_rows(source, target):
        labels, ra, rb = pair_sets(source, target)
        return (labels, *unit_rows(source, target, ra, rb))

    assert _paired_outcome(paired_unit_rows, a, b) == _paired_outcome(ref_unit_pair, a, b)
