import csv
import io

import numpy as np
import pytest

from georev import report
from georev.report import write_csv


class TestWriteCsv:
    def test_numpy_float_reads_back_as_number(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y", "n"], [[np.float64(0.3), 0.1 + 0.2, 3]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["x", "y", "n"], ["0.3", repr(0.1 + 0.2), "3"]]

    def test_bytes_equal_csv_writer(self, tmp_path):
        rng = np.random.default_rng(22)
        floats = [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
                  2.2250738585072014e-308 / 3, 1e300, 0.1 + 0.2, np.float64(-0.0),
                  np.float64(1.0 / 3.0), np.float64("nan"), np.float64(5e-324)]
        others = [0, -7, 2**70, np.int64(-3), True, False, np.bool_(True), "name",
                  "", "with space", "a;b"]
        rows = [tuple(rng.choice(np.array(floats + others, dtype=object), size=6))
                for _ in range(200)]
        rows += [(), ("lone",), tuple(floats), tuple(others)]
        header = ["a", "b", "c", "d", "e", "f"]
        path = tmp_path / "t.csv"
        write_csv(path, header, rows)
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(header)
        w.writerows(rows)
        assert path.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "cr\r", "lf\n", None])
    def test_field_that_needs_quotes_raises(self, tmp_path, field):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, field)])

    def test_lone_empty_field_raises(self, tmp_path):
        # csv writes it quoted, as ""
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], [("",)])


class TestPolyline:
    def test_points_equal_per_point_format(self):
        # values in (-5e-5, 0) print as -0.0000, as they did point by point
        rng = np.random.default_rng(3)
        screen = np.concatenate([rng.normal(size=(300, 2)),
                                 rng.uniform(-4e-5, 4e-5, size=(50, 2)),
                                 [[-0.0, 0.0], [1e6, -1e-9]]])
        want = " ".join(f"{p[0]:.4f},{p[1]:.4f}" for p in screen)
        assert "-0.0000" in want
        assert f'points="{want}"' in report._polyline(screen, "#000", 0.01)

    def test_empty(self):
        assert 'points=""' in report._polyline(np.empty((0, 2)), "#000", 0.01)
