import dataclasses
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


def test_oracle_comparison_keeps_a_nan_difference(tmp_path, capsys):
    # Envelope and oracle both -inf at 0.5 (the relaxed log(abs2(z1)) is -inf
    # on the whole interior): the difference is NaN, and so is the maximum,
    # whatever finite differences come with it.
    stored = tmp_path / "results.json"
    stored.write_text(json.dumps({"points": [
        {"x": [[0.5, 0.0]], "value": float("-inf")},
        {"x": [[0.0, 0.25]], "value": float("-inf")},
    ]}))
    cfg = write(tmp_path / "oracle.cfg", f"""\
[run]
mode = oracle

[oracle]
expr = log(abs2(z1))
n = 33
mask = disc
compare = {stored}
""")
    out = tmp_path / "out"
    assert cli.main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    assert "max |diff| = NaN" in capsys.readouterr().out
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[1].endswith(",-Infinity,-Infinity,NaN")


def test_every_budget_field_is_a_config_key(tmp_path):
    # One [budget] key per SearchBudget field (degree_schedule under the name
    # degrees), each parsed as the field's default is typed.
    cfg = write(tmp_path / "run.cfg", """\
[run]
mode = envelope

[budget]
seed = 9
degrees = 3 5
restarts = 3
descent_iters = 7
rh_rounds = 2
k_schedule = 3 5
n_phases = 4
step_init = 0.5
step_shrink = 0.25
init_scale = 0.2
degree_decay = 0.5
boundary_points = 6
child_degree = 2
laurent_m = 1
""")
    cp = cli._load_config(cfg)
    cli._validate_config(cp, "envelope")
    want = SearchBudget(
        degree_schedule=(3, 5), restarts=3, descent_iters=7, rh_rounds=2,
        k_schedule=(3, 5), n_phases=4, seed=9, step_init=0.5,
        step_shrink=0.25, init_scale=0.2, degree_decay=0.5,
        boundary_points=6, child_degree=2, laurent_m=1,
    )
    assert cli._parse_budget(cp) == want
    assert all(getattr(want, f.name) != f.default
               for f in dataclasses.fields(SearchBudget))


@pytest.mark.parametrize("old, new, key", [
    ("restarts = 2", "restarts = two", "restarts"),
    ("restarts = 2", "restarts = 2.5", "restarts"),
    ("degrees = 2", "degrees = 2 x", "degrees"),
    ("degrees = 2", "degrees = 4 2", "degree_schedule"),
    ("seed = 4", "seed = -1", "seed"),
    ("seed = 4", "seed = 4\nstep_shrink = half", "step_shrink"),
    ("seed = 4", "seed = 4\nk_schedule = 2 2.5", "k_schedule"),
    ("seed = 4", "seed = 4\nn_phases = 0", "n_phases"),
    ("seed = 4", "seed = 4\nchild_degrees = 3", "child_degrees"),
])
def test_bad_budget_value_or_key_is_named(tmp_path, capsys, old, new, key):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG.replace(old, new))
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert key in capsys.readouterr().err
