import json

import numpy as np
import pytest

from pshenv import cli
from pshenv.envelope import SearchBudget, envelope_grid
from pshenv.functional import QuadratureSpec, parse_field
from pshenv.hull import load_certificate
from pshenv.space import euclidean_space

ENVELOPE_CFG = """\
[run]
mode = envelope

[space]
kind = euclidean
dim = 1

[field]
expr = abs2(z1)

[grid]
kind = points
points = 0.1+0j ; 0.3+0j ; -0.2+0.1j

[budget]
seed = 4
degrees = 2
restarts = 2
descent_iters = 5

[quadrature]
m = 64
"""

HULL_CFG = """\
[run]
mode = hull

[hull]
balls = 1+0j 0.3 ; -1+0j 0.3
x = 0+0j
u_radius = 0.5
eps = 4.0

[budget]
seed = 3
degrees = 2
restarts = 4
descent_iters = 10

[quadrature]
m = 128
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def test_envelope_command_end_to_end(tmp_path):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG)
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert "manifest" in results and results["manifest"]["seed"] == 4
    pts = results["points"]
    assert len(pts) == 3
    for entry in pts:
        re, im = entry["x"][0]
        want = abs(complex(re, im)) ** 2
        assert abs(entry["value"] - want) < 1e-6  # psh field is a fixed point
    csv = (out / "results.csv").read_text().splitlines()
    assert csv[0] == "x1_re,x1_im,value,witness_degree,p_rounds"
    assert len(csv) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "envelope"
    assert "wall_time_s" in manifest and "threads" in manifest


def test_results_json_round_trips_exact_values(tmp_path):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG)
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    loaded = json.loads((out / "results.json").read_text())
    b = SearchBudget(degree_schedule=(2,), restarts=2, descent_iters=5, seed=4)
    est = envelope_grid(parse_field("abs2(z1)"), euclidean_space(1),
                        [[0.1], [0.3], [-0.2 + 0.1j]], b, QuadratureSpec(M=64))
    for entry, val in zip(loaded["points"], est.values):
        assert entry["value"] == val  # 17 significant digits survive json


def test_reruns_are_byte_identical_and_diff_clean(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["envelope", "--config", cfg, "--out", str(out1),
                     "--quiet"]) == 0
    assert cli.main(["envelope", "--config", cfg, "--out", str(out2),
                     "--quiet", "--threads", "2"]) == 0
    assert (out1 / "results.json").read_bytes() == \
        (out2 / "results.json").read_bytes()
    assert cli.main(["diff", str(out1 / "results.json"),
                     str(out2 / "results.json"), "--quiet"]) == 0


def test_diff_reports_changed_leaf(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG)
    out = tmp_path / "out"
    assert cli.main(["envelope", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    obj = json.loads((out / "results.json").read_text())
    obj["points"][1]["value"] += 0.125
    other = tmp_path / "tweaked.json"
    other.write_text(json.dumps(obj))
    assert cli.main(["diff", str(out / "results.json"), str(other),
                     "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "points[1].value" in err
    # a loose tolerance swallows the change
    assert cli.main(["diff", str(out / "results.json"), str(other),
                     "--quiet", "--tol", "1.0"]) == 0


def test_diff_rejects_non_results_file(tmp_path, capsys):
    stray = tmp_path / "stray.json"
    stray.write_text("{\"values\": [1, 2]}")
    assert cli.main(["diff", str(stray), str(stray), "--quiet"]) == 2
    assert "manifest" in capsys.readouterr().err


def test_missing_seed_is_named(tmp_path, capsys):
    bad = ENVELOPE_CFG.replace("seed = 4\n", "")
    cfg = write(tmp_path / "run.cfg", bad)
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG + "restrats = 9\n")
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert "restrats" in capsys.readouterr().err


def test_mode_mismatch_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg",
                ENVELOPE_CFG.replace("mode = envelope", "mode = hull"))
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert "hull" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["envelope", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_bad_field_expression(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg",
                ENVELOPE_CFG.replace("abs2(z1)", "frobnicate(z1)"))
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_negative_threads_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG)
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet", "--threads", "-1"]) == 2


def test_hull_then_verify_chain(tmp_path):
    cfg = write(tmp_path / "hull.cfg", HULL_CFG)
    out = tmp_path / "out"
    assert cli.main(["hull", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    cert_path = out / "certificate.json"
    cert = load_certificate(cert_path)
    assert cert.value < cert.eps / (2 * np.pi) - 1.0
    verify_cfg = write(tmp_path / "verify.cfg", f"""\
[run]
mode = verify

[verify]
certificate = {cert_path}
balls = 1+0j 0.3 ; -1+0j 0.3
""")
    assert cli.main(["verify", "--config", verify_cfg, "--out", str(out),
                     "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_ok"] and report["value_match"]


def test_verify_spots_tampered_certificate(tmp_path, capsys):
    cfg = write(tmp_path / "hull.cfg", HULL_CFG)
    out = tmp_path / "out"
    assert cli.main(["hull", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    obj = json.loads((out / "certificate.json").read_text())
    obj["value"] = -1.0  # claim a cleaner disc than was found
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(obj))
    verify_cfg = write(tmp_path / "verify.cfg", f"""\
[run]
mode = verify

[verify]
certificate = {forged}
balls = 1+0j 0.3 ; -1+0j 0.3
""")
    assert cli.main(["verify", "--config", verify_cfg, "--out", str(out),
                     "--quiet"]) == 3
    report = json.loads((out / "verify.json").read_text())
    assert not report["value_match"]


def test_counterexample_reports_violation(tmp_path):
    cfg = write(tmp_path / "ce.cfg", "[run]\nmode = counterexample\n")
    out = tmp_path / "out"
    assert cli.main(["counterexample", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    report = json.loads((out / "usc_report.json").read_text())
    assert report["violations"]
    assert report["violations"][0]["excess"] > 0
    assert (out / "results.json").exists()


def test_oracle_command_writes_grid(tmp_path):
    cfg = write(tmp_path / "oracle.cfg", """\
[run]
mode = oracle

[oracle]
expr = abs2(z1)
n = 33
mask = disc
""")
    out = tmp_path / "out"
    assert cli.main(["oracle", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "x_re,y_im,u,minorant"
    assert len(lines) > 100


@pytest.mark.parametrize("line, setting", [
    ("tol = nan", "tol"),
    ("tol = -1", "tol"),
    ("max_iters = 0", "max_iters"),
])
def test_bad_oracle_relaxation_setting_is_an_input_error(tmp_path, capsys,
                                                         line, setting):
    cfg = write(tmp_path / "oracle.cfg", f"""\
[run]
mode = oracle

[oracle]
expr = abs2(z1)
n = 33
mask = disc
{line}
""")
    assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert setting in err and "relaxation" in err
