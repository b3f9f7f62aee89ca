"""Domain types, partition semantics, clustering metrics, and the text
row reader and line writer."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeclust.core import (Partition, SampleSet, co_membership,
                            has_duplicate_pairs, nmi, parse_lines, read_lines,
                            score, validate_partition, write_lines)
from edgeclust.datagen import _flag
from edgeclust.errors import DataError

labels_arrays = st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=1, max_size=12).map(np.array)


# small ids, so draws repeat rows, or ids over all of int64, where a key
# built by arithmetic on the ids would overflow
pair_ids = st.one_of(st.integers(-4, 4),
                     st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max))


@settings(max_examples=300)
@given(st.lists(st.tuples(pair_ids, pair_ids), max_size=12))
def test_duplicate_pairs_match_unique_rows(rows):
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    want = len(np.unique(pairs, axis=0)) != len(pairs)
    assert has_duplicate_pairs(pairs) == want


def test_duplicate_pairs_with_negative_ids():
    # the key i * (max_j + 1) + j would map both rows to -3
    assert not has_duplicate_pairs(np.array([[-2, -1], [-3, 5]]))
    assert has_duplicate_pairs(np.array([[-3, 5], [0, 1], [-3, 5]]))


def parse_lines_cell_by_cell(path, lines, casts):
    """parse_lines as a loop over the rows that casts every cell by itself
    and stops at the first short row or rejected cell: the reference the
    column casts must match."""
    columns = [[] for _ in casts]
    for lineno, fields in lines:
        if len(fields) != len(casts):
            raise DataError(f"{path}:{lineno}: expected {len(casts)} fields, "
                            f"found {len(fields)}")
        for col, (cast, cell) in enumerate(zip(casts, fields), start=1):
            try:
                columns[col - 1].append(cast(cell))
            except (ValueError, OverflowError):
                raise DataError(f"{path}:{lineno}: column {col}: cannot read "
                                f"{cell.strip()!r}") from None
    return [np.asarray(column) for column in columns]


class TestTextFiles:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.tsv"
        write_lines(path, ["1\t2.5", "", " 3\t-4 "])
        assert path.read_bytes() == b"1\t2.5\n\n 3\t-4 \n"
        assert read_lines(path, "\t") == [(1, ["1", "2.5"]), (3, ["3", "-4"])]
        columns = parse_lines(path, read_lines(path, "\t"), (int, float))
        assert [column.tolist() for column in columns] == [[1, 3], [2.5, -4.0]]

    @pytest.mark.parametrize("text, where", [
        ("1\t2\n3\n", ":2: expected 2 fields, found 1"),
        ("1\t2\n\n3\tx\n", ":3: column 2: cannot read 'x'"),
    ])
    def test_errors_name_line_and_column(self, tmp_path, text, where):
        path = tmp_path / "rows.tsv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{path}{where}")):
            parse_lines(path, read_lines(path, "\t"), (int, float))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(
        ["0", "1", "-7", "+1", " 2 ", "1_0", "2.5", "1e3", "x", "", "nan",
         "9223372036854775807", "9223372036854775808", "-" + "9" * 25]),
        min_size=2, max_size=4), max_size=6))
    def test_columns_match_cell_by_cell_reading(self, rows):
        # the column casts give the values, dtypes and first error (in file
        # order) that casting each cell in turn gives
        lines = [(2 * k + 1, fields) for k, fields in enumerate(rows)]
        for casts in ((np.int64, float, np.int64), (np.int64, np.int64, _flag)):
            want = got = None
            try:
                want = parse_lines_cell_by_cell("f", lines, casts)
            except DataError as err:
                want = str(err)
            try:
                got = parse_lines("f", lines, casts)
            except DataError as err:
                got = str(err)
            if isinstance(want, str):
                assert got == want
                continue
            for g, w in zip(got, want, strict=True):
                assert g.tolist() == w.tolist() or np.isnan(w).any()
                assert np.array_equal(g, w, equal_nan=w.dtype.kind == "f")
                # an empty column used to come out as float64
                assert g.dtype == w.dtype or not lines

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"\xff\xfe1\t2\n")
        with pytest.raises(DataError, match="UTF-8"):
            read_lines(path, "\t")


class TestSampleSetLabels:
    @pytest.mark.parametrize("labels", [[0, 1], [-1, 1], [1, 3], [2, 2]])
    def test_labels_must_cover_1_to_k(self, labels):
        with pytest.raises(DataError):
            SampleSet(features=np.zeros((2, 1)), labels=labels)

    def test_labels_kept_in_any_order(self):
        s = SampleSet(features=np.zeros((3, 1)), labels=[2, 1, 2])
        assert s.labels.tolist() == [2, 1, 2]


class TestValidatePartition:
    def test_relabels_by_first_appearance(self):
        p = validate_partition([5, 5, 9, 5])
        assert p.labels.tolist() == [1, 1, 2, 1]
        assert p.k == 2

    def test_singleton(self):
        p = validate_partition([1])
        assert p.labels.tolist() == [1]
        assert p.k == 1

    def test_all_singletons(self):
        p = validate_partition([3, 1, 2])
        assert p.labels.tolist() == [1, 2, 3]
        assert p.k == 3

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            validate_partition([])

    @given(labels_arrays)
    def test_ranks_labels_by_first_appearance(self, labels):
        order = list(dict.fromkeys(labels.tolist()))
        p = validate_partition(labels)
        assert p.labels.tolist() == [order.index(v) + 1 for v in labels.tolist()]
        assert p.k == len(order)

    @given(labels_arrays)
    def test_idempotent(self, labels):
        once = validate_partition(labels)
        twice = validate_partition(once.labels)
        assert np.array_equal(once.labels, twice.labels)
        assert once.k == twice.k

    def test_partition_rejects_non_surjection(self):
        with pytest.raises(DataError):
            Partition(labels=np.array([1, 3]), k=3)


class TestSameCluster:
    def test_together(self):
        p = validate_partition([1, 1, 2])
        assert co_membership(p, [[0, 1]])[0] == 1

    def test_apart(self):
        p = validate_partition([1, 1, 2])
        assert co_membership(p, [[0, 2]])[0] == 0

    def test_self_pair_rejected(self):
        p = validate_partition([1])
        with pytest.raises(DataError):
            co_membership(p, [[0, 0]])

    def test_out_of_range_rejected(self):
        p = validate_partition([1, 1])
        with pytest.raises(DataError):
            co_membership(p, [[0, 5]])

    @given(labels_arrays.filter(lambda a: a.size >= 3))
    @settings(max_examples=30)
    def test_transitive(self, labels):
        p = validate_partition(labels)
        n = p.n
        iu = np.triu_indices(n, k=1)
        together = np.zeros((n, n), dtype=int)
        together[iu] = co_membership(p, np.column_stack(iu))
        for i in range(n):
            for j in range(i + 1, n):
                for l in range(j + 1, n):
                    tij = together[i, j]
                    tjl = together[j, l]
                    til = together[i, l]
                    if tij and tjl:
                        assert til == 1


class TestScore:
    def test_permutation_invariance(self):
        rep = score(validate_partition([1, 1, 2, 2]),
                    validate_partition([2, 2, 1, 1]))
        assert rep.nmi == 1.0

    def test_constant_prediction_carries_no_information(self):
        rep = score(validate_partition([1, 1, 1, 1]),
                    validate_partition([1, 1, 2, 2]))
        assert rep.nmi == 0.0

    def test_uniform_contingency_table(self):
        # 2x2 contingency table of all ones: MI = 0 exactly, and the
        # predicted positives {02, 13} miss both true positives {01, 23}
        rep = score(validate_partition([1, 2, 1, 2]),
                    validate_partition([1, 1, 2, 2]))
        assert rep.nmi == 0.0
        assert rep.pairwise_precision == 0.0
        assert rep.pairwise_recall == 0.0
        assert rep.pairwise_f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            score(validate_partition([1, 1]), validate_partition([1, 1, 2]))

    @given(labels_arrays, labels_arrays)
    @settings(max_examples=50)
    def test_f1_is_harmonic_mean(self, a, b):
        m = min(a.size, b.size)
        rep = score(validate_partition(a[:m]), validate_partition(b[:m]))
        p, r = rep.pairwise_precision, rep.pairwise_recall
        expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
        assert rep.pairwise_f1 == pytest.approx(expected)
        for v in (rep.nmi, p, r, rep.pairwise_f1):
            assert 0.0 <= v <= 1.0


class TestNmi:
    @given(labels_arrays, labels_arrays)
    @settings(max_examples=50)
    def test_symmetric_and_bounded(self, a, b):
        m = min(a.size, b.size)
        pa, pb = validate_partition(a[:m]), validate_partition(b[:m])
        assert nmi(pa, pb) == pytest.approx(nmi(pb, pa))
        assert 0.0 <= nmi(pa, pb) <= 1.0

    @given(labels_arrays)
    def test_self_nmi_is_one(self, a):
        p = validate_partition(a)
        assert nmi(p, p) == pytest.approx(1.0)

    @given(labels_arrays, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_invariant_to_relabeling(self, a, rand):
        p = validate_partition(a)
        perm = list(range(1, p.k + 1))
        rand.shuffle(perm)
        relabeled = validate_partition([perm[l - 1] for l in p.labels])
        q = validate_partition(a[::-1].copy())
        assert nmi(p, q) == pytest.approx(nmi(relabeled, q))

    def test_both_single_cluster(self):
        assert nmi(validate_partition([1, 1]), validate_partition([2, 2])) == 1.0

    def test_one_iff_identical_up_to_relabeling(self):
        a = validate_partition([1, 2, 1, 3])
        b = validate_partition([3, 1, 3, 2])  # same blocks
        c = validate_partition([1, 2, 2, 3])  # different blocks
        assert nmi(a, b) == pytest.approx(1.0)
        assert nmi(a, c) < 1.0
