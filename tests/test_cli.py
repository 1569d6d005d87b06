import json
import math

import numpy as np
import pytest

import georev.cli as cli
from georev.cli import main


def run(args):
    return main([str(a) for a in args])


class TestSpheroidCommand:
    def test_produces_expected_artifacts(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["spheroid", "--N", "3", "--eps", "0.2", "--out", out,
                  "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["pass"] is True
        sol = summary["solution"]
        assert abs(sol["b"] - 4.038) < 0.01
        assert abs(sol["c"] - 0.980) < 0.005
        assert sol["crossings"] == 3
        svg = (out / "geodesic.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        assert "generated" not in svg  # timestamp disabled
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,u1,u2,du1,du2,x,y,z"

    def test_manifest_lists_tolerances(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["spheroid", "--N", "1", "--eps", "0.2", "--out", out,
                  "--no-timestamp", "--tol-scale", "2.0"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tolerances"]["shoot_tol"] == 2e-12
        assert manifest["tolerances"]["closure_tol"] == 2e-6
        assert manifest["params"] == {"N": 1, "eps": 0.2}
        assert manifest["tol_scale"] == 2.0


class TestConfigHandling:
    def test_config_file_parameters(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 1, "eps": 0.2}))
        out = tmp_path / "run"
        rc = run(["spheroid", "--config", cfg, "--out", out, "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solution"]["N"] == 1

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 3, "bogus": 1}))
        rc = run(["spheroid", "--config", cfg, "--out", tmp_path / "o"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("args,config,key", [
        (["tiling", "--grid", "2048"], None, "grid"),
        (["tiling", "--N", "0"], None, "N"),
        (["tiling", "--eps", "0"], None, "eps"),
        (["audits", "--suite", "section2", "--count", "-3"], None, "count"),
        (["tiling"], {"grid": "0x512"}, "grid"),
        (["toro", "--points", "0"], None, "points"),
        (["csf", "--t-end", "-1"], None, "t_end"),
        (["spheroid", "--N", "0"], None, "N"),
        (["spheroid", "--eps", "1.5"], None, "eps"),
        (["spheroid"], {"eps": "a"}, "eps"),
        (["toro"], {"points": -5}, "points"),
    ])
    def test_malformed_numbers_rejected(self, tmp_path, capsys, args, config, key):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = [*args, "--config", cfg]
        out = tmp_path / "o"
        rc = run([*args, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"error: {key} must be" in err
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 3, "eps": 0.2}))
        out = tmp_path / "run"
        rc = run(["spheroid", "--config", cfg, "--N", "1", "--out", out,
                  "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solution"]["N"] == 1


class TestReproducibility:
    def test_byte_identical_json_csv(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run(["audits", "--suite", "section2", "--count", "6",
                      "--seed", "5", "--out", out, "--no-timestamp"])
            assert rc == 0
            outs.append(out)
        for fname in ("summary.json", "audits.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_svg_deterministic_without_timestamp(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run(["spheroid", "--N", "1", "--eps", "0.2", "--out", out,
                      "--no-timestamp"])
            assert rc == 0
            blobs.append((out / "geodesic.svg").read_bytes())
        assert blobs[0] == blobs[1]

    def test_timestamp_header_present_by_default(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["spheroid", "--N", "1", "--eps", "0.2", "--out", out])
        assert rc == 0
        assert "<!-- generated" in (out / "geodesic.svg").read_text()


class TestGluedCommand:
    def test_literal_height_emits_note(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["glued", "--a", "0.05", "--cyl-height", "2a", "--out", out,
                  "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["notes"], "literal-height run must carry the limit note"
        assert "7*pi" in summary["notes"][0]
        assert (out / "pieces.csv").exists()

    def test_vanishing_height_clean(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["glued", "--a", "0.05", "--cyl-height", "2a^2", "--out", out,
                  "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["notes"] == []
        assert abs(summary["neck_geodesic_length"] - 2 * math.pi * 0.05) < 1e-9

    @pytest.mark.parametrize("args,rule,height", [
        (["--a", "1e-9", "--cyl-height", "2a^2"], "'2a^2'", "2.000e-18"),
        (["--a", "1e-13"], "'2a'", "2.000e-13"),
    ])
    def test_unresolvable_neck_is_a_construction_error(self, tmp_path, args, rule,
                                                        height):
        out = tmp_path / "run"
        rc = run(["glued", *args, "--out", out, "--no-timestamp"])
        assert rc == 1
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConstructionError"
        assert f"a={float(args[1])!r}" in err["error"]
        assert f"rule {rule}" in err["error"]
        assert f"height {height}" in err["error"]

    def test_band_without_turning_point(self, tmp_path, monkeypatch):
        real_trace = cli.clairaut_trace

        def trace_without_turning(*args, **kwargs):
            trace = real_trace(*args, **kwargs)
            trace.turning_times = np.empty(0)
            return trace

        monkeypatch.setattr(cli, "clairaut_trace", trace_without_turning)
        out = tmp_path / "run"
        rc = run(["glued", "--kind", "spheroid-band", "--out", out,
                  "--no-timestamp"])
        assert rc == 1
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "SolverError"
        assert "turning point" in err["error"]


class TestAuditExitCodes:
    def test_audits_exit_zero(self, tmp_path):
        rc = run(["audits", "--suite", "ratio", "--seed", "7",
                  "--out", tmp_path / "r", "--no-timestamp"])
        assert rc == 0

    def test_csv_emitted(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["audits", "--suite", "section2", "--count", "6",
                  "--out", out, "--no-timestamp"])
        assert rc == 0
        lines = (out / "audits.csv").read_text().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 1 + 6 * 3
        assert all(",True," in line for line in lines[1:])


class TestFigures:
    def test_n4_projection_self_crosses(self, tmp_path):
        import re

        import numpy as np

        out = tmp_path / "run"
        rc = run(["spheroid", "--N", "4", "--eps", "0.2", "--out", out,
                  "--no-timestamp"])
        assert rc == 0
        svg = (out / "geodesic.svg").read_text()
        # the geodesic polyline is the widest-stroke path in the figure
        m = re.search(r'stroke-width="0.012" stroke-opacity="1.0" '
                      r'points="([^"]+)"', svg)
        assert m, "geodesic polyline missing"
        pts = np.array([[float(v) for v in p.split(",")]
                        for p in m.group(1).split()])
        pts = pts[::4]
        n = len(pts)
        a = pts[:-1]
        b = pts[1:]
        crossings = 0
        for i in range(n - 1):
            d1 = b[i] - a[i]
            dd = a[i + 2:] - a[i]
            d2 = b[i + 2:] - a[i + 2:]
            den = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
            ok = den != 0
            t = (dd[:, 0] * d2[:, 1] - dd[:, 1] * d2[:, 0])
            s = (dd[:, 0] * d1[1] - dd[:, 1] * d1[0])
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(ok, t / den, -1)
                s = np.where(ok, s / den, -1)
            crossings += int(np.sum((t > 0) & (t < 1) & (s > 0) & (s < 1)))
        assert crossings >= 4

    def test_csf_snapshots_written(self, tmp_path):
        out = tmp_path / "run"
        rc = run(["csf", "--out", out, "--no-timestamp"])
        assert rc == 0
        snaps = sorted(out.glob("csf_snapshot_*.svg"))
        assert len(snaps) >= 3
        for p in snaps[:2]:
            assert p.read_text().startswith("<?xml")
        rows = (out / "csf_snapshots.csv").read_text().splitlines()
        assert rows[0] == "snapshot,time,sample,u1,u2"
        assert len(rows) == 1 + len(snaps) * 96
