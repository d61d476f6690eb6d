import numpy as np
import pytest

from doseband.data import Dataset, SplitIndices, query_rows, read_csv, split
from doseband.dist import Rng
from doseband.propensity import MixtureGps


def _toy(n=20, p=3, seed=0):
    gen = Rng(seed).gen
    return Dataset(gen.normal(size=n), gen.normal(size=n), gen.normal(size=(n, p)))


class TestDataset:
    def test_shapes_and_counts(self):
        d = _toy(12, 2)
        assert d.n == 12 and d.p == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset([1.0, np.nan], [0.0, 1.0], [[1.0], [2.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0], [0.0], [[1.0], [2.0]])

    def test_immutable(self):
        d = _toy()
        with pytest.raises(ValueError):
            d.y[0] = 99.0


def _never(t, x):
    raise AssertionError("query_rows evaluated a rejected query")


class TestQueryRows:
    def test_rejects_2d_t_and_a_scalar_or_3d_x(self):
        with pytest.raises(ValueError, match=r"got \(3, 1\) and \(3, 2\)"):
            query_rows(_never, np.zeros((3, 1)), np.ones((3, 2)))
        for x in (np.float64(1.0), np.ones((3, 2, 1))):
            with pytest.raises(ValueError, match="1-d or 2-d x"):
                query_rows(_never, np.zeros(3), x)

    def test_model_rejects_column_t_instead_of_broadcasting(self):
        gps = MixtureGps(mix_weights=[1.0], betas=[[0.0, 1.0, 1.0]], variances=[1.0])
        with pytest.raises(ValueError, match="1-d t"):
            gps.density(np.zeros((3, 1)), np.ones((3, 2)))
        assert gps.density(np.zeros(3), np.ones((3, 2))).shape == (3,)


class TestSplit:
    def test_equal_split_1000(self):
        d = _toy(1000)
        sp = split(d, 0.5, Rng(1))
        assert len(sp.train) == 500 and len(sp.cal) == 500

    def test_floor_rounding_odd(self):
        sp = split(_toy(7), 0.5, Rng(1))
        assert len(sp.train) == 3 and len(sp.cal) == 4

    def test_partition_property(self):
        for seed in range(5):
            d = _toy(53)
            sp = split(d, 0.3, Rng(seed))
            union = np.union1d(sp.train, sp.cal)
            np.testing.assert_array_equal(union, np.arange(53))

    def test_deterministic(self):
        d = _toy(40)
        a = split(d, 0.5, Rng(9))
        b = split(d, 0.5, Rng(9))
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.cal, b.cal)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(_toy(3), 0.5, Rng(0))

    def test_bad_fraction(self):
        for f in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                split(_toy(), f, Rng(0))

    def test_overlapping_indices_rejected(self):
        with pytest.raises(ValueError):
            SplitIndices([0, 1], [1, 2])

    @pytest.mark.parametrize(
        "train, cal, message",
        [
            ([0, 0, 1], [2], "train indices repeat a row"),
            ([0, 1], [3, 2, 3], "calibration indices repeat a row"),
            ([0, 1], [2, 1], "train and calibration indices overlap"),
            ([0, 1, 1], [1, 2], "train and calibration indices overlap"),
            ([-1, 1], [2], "non-negative, got -1"),
            ([0, 1], [2, -3], "non-negative, got -3"),
        ],
    )
    def test_negative_and_repeated_indices_rejected(self, train, cal, message):
        # a calibration row listed twice would count its score twice
        with pytest.raises(ValueError, match=message):
            SplitIndices(np.array(train), np.array(cal))

    def test_overlap_check_matches_intersect1d(self):
        gen = Rng(4).gen
        pairs = [
            ([], [0, 1]),
            ([3, 1], []),
            ([5, 0, 9], [0, 2]),  # shared index at the low end
            ([7, 3, 1], [2, 4, 7]),  # and at the high end
            ([2, 2, -3], [-3, 8]),  # duplicates and a negative index
            ([-1, -5], [-2, 6, 6]),
            ([0], [2**62]),  # a range too wide for a lookup table
            ([-(2**62), 2**62], [2**62]),
        ]
        for _ in range(300):
            lo = int(gen.integers(-50, 50))
            span = int(gen.integers(1, 200))
            n_train, n_cal = gen.integers(0, 40, size=2)
            pairs.append(
                (gen.integers(lo, lo + span, n_train), gen.integers(lo, lo + span, n_cal))
            )
        overlaps = valid = 0
        for train, cal in pairs:
            overlap = np.intersect1d(train, cal).size > 0
            overlaps += overlap
            both = np.concatenate([train, cal])
            if overlap:
                with pytest.raises(ValueError, match="overlap"):
                    SplitIndices(train, cal)
            elif (both < 0).any() or np.unique(both).size < both.size:
                # a negative index, or one repeated within a half
                with pytest.raises(ValueError, match="non-negative|repeat a row"):
                    SplitIndices(train, cal)
            else:
                valid += 1
                sp = SplitIndices(train, cal)
                np.testing.assert_array_equal(sp.train, np.asarray(train, dtype=np.intp))
        assert 0 < overlaps < len(pairs) and valid > 10


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        # shortest round-trip cells parse back to the same bits
        d = _toy(17, 4, seed=3)
        path = tmp_path / "d.csv"
        cells = np.column_stack([d.y, d.t, d.x])
        lines = ["y,t,x1,x2,x3,x4"] + [",".join(repr(float(v)) for v in row) for row in cells]
        path.write_text("\n".join(lines) + "\n")
        back = read_csv(path)
        np.testing.assert_array_equal(back.y, d.y)
        np.testing.assert_array_equal(back.t, d.t)
        np.testing.assert_array_equal(back.x, d.x)

    def test_small_wellformed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n1.5,0.2,3\n2,0.1,4\n0,0,0\n")
        d = read_csv(path)
        assert d.n == 3 and d.p == 1

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel and R write one; it was read as part of the first column name
        path = tmp_path / "d.csv"
        path.write_text("\ufeffy,t,x1\n1,2,3\n4,5,6\n", encoding="utf-8")
        d = read_csv(path)
        assert d.y.tolist() == [1.0, 4.0] and d.t.tolist() == [2.0, 5.0] and d.x.tolist() == [[3.0], [6.0]]

    def test_blank_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n1.5,0.2,3\n2,,4\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    def test_nonnumeric_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n1.5,abc,3\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(path)

    def test_line_after_a_cell_spanning_lines(self, tmp_path):
        # records were once counted instead of lines, which named line 3 here
        path = tmp_path / "d.csv"
        path.write_text('y,t,x1\n"1\n",2,3\n4,abc,6\n')
        with pytest.raises(ValueError, match="line 4: non-numeric value 'abc'"):
            read_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,t\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,x1\n1,2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_csv(path)
