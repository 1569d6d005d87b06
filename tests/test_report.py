import csv

import numpy as np

from georev import report
from georev.report import write_csv


class TestWriteCsv:
    def test_numpy_float_reads_back_as_number(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y", "n"], [[np.float64(0.3), 0.1 + 0.2, 3]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["x", "y", "n"], ["0.3", repr(0.1 + 0.2), "3"]]


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
