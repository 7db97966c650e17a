import configparser
import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pshenv import cli
from pshenv.disc import disc_from_json
from pshenv.envelope import SearchBudget, envelope_at, envelope_grid
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
    # Every value and witness reloads with the bits the search computed;
    # the counterexample's witnesses hold -0.0 parts, which must stay -0.0.
    b = SearchBudget(degree_schedule=(2,), restarts=2, descent_iters=5, seed=4)
    runs = [
        ("envelope", ENVELOPE_CFG,
         (euclidean_space(1), parse_field("abs2(z1)"),
          [[0.1], [0.3], [-0.2 + 0.1j]], b, QuadratureSpec(M=64))),
        ("counterexample", "[run]\nmode = counterexample\n",
         cli.counterexample_scenario()[:5]),
    ]
    for mode, text, (space, u, grid, budget, q) in runs:
        cfg = write(tmp_path / f"{mode}.cfg", text)
        out = tmp_path / mode
        assert cli.main([mode, "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
        loaded = json.loads((out / "results.json").read_text())["points"]
        est = envelope_grid(u, space, grid, budget, q)
        assert len(loaded) == len(est)
        for entry, val, w in zip(loaded, est.values, est.witnesses):
            assert (np.float64(entry["value"]).tobytes()
                    == np.float64(val).tobytes())
            got = disc_from_json(entry["witness"], space)
            assert got.branch == w.branch
            assert got.coeffs.shape == w.coeffs.shape
            assert got.coeffs.tobytes() == w.coeffs.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False) | st.just(float("nan")), min_size=1))
@example([-0.0, 5e-324, -2.2250738585072009e-308, float("inf"),
          float("-inf"), float("nan"), 0.1, 1.0])
def test_json_and_csv_numbers_keep_their_bits(tmp_path_factory, xs):
    # json has no NaN payloads, so NaN is the one float("nan") gives.
    path = tmp_path_factory.getbasetemp() / "roundtrip.json"
    cli._write_json(str(path), {"xs": xs, "nested": [{"x": x} for x in xs]})
    with open(path) as fh:
        back = json.load(fh)
    want = np.array(xs, dtype=np.float64).tobytes()
    assert np.array(back["xs"], dtype=np.float64).tobytes() == want
    assert np.array([d["x"] for d in back["nested"]],
                    dtype=np.float64).tobytes() == want
    assert np.array([float(cli._fmt(x)) for x in xs],
                    dtype=np.float64).tobytes() == want


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
    # a NaN leaf equals a NaN leaf, so a file holding one matches itself
    obj["points"][1]["value"] = float("nan")
    other.write_text(json.dumps(obj))
    assert cli.main(["diff", str(other), str(other), "--quiet"]) == 0
    # at --tol 0 the sign of a zero counts; a positive tolerance ignores it
    obj["points"][1]["value"] = 0.0
    other.write_text(json.dumps(obj))
    obj["points"][1]["value"] = -0.0
    negated = tmp_path / "negated.json"
    negated.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["diff", str(other), str(negated), "--quiet"]) == 3
    assert "points[1].value: 0.0 vs -0.0" in capsys.readouterr().err
    assert cli.main(["diff", str(other), str(negated), "--quiet",
                     "--tol", "1e-300"]) == 0


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


@pytest.mark.parametrize("mode, text", [
    ("counterexample", "[run]\nmode = counterexample\n"),
    ("envelope", ENVELOPE_CFG),
])
def test_manifest_file_agrees_with_results_manifest(tmp_path, mode, text):
    # counterexample searches with its scenario's seed and has no [budget]
    # section; both manifests of the run must still carry that seed.
    cfg = write(tmp_path / "run.cfg", text)
    out = tmp_path / "out"
    assert cli.main([mode, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    inner = json.loads((out / "results.json").read_text())["manifest"]
    assert inner["seed"] is not None
    assert {k: manifest[k] for k in inner} == inner
    assert set(manifest) - set(inner) == {"wall_time_s", "threads"}


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
boundary_points = 6
child_degree = 2
""")
    cp = cli._load_config(cfg)
    cli._validate_config(cp, "envelope")
    want = SearchBudget(
        degree_schedule=(3, 5), restarts=3, descent_iters=7, rh_rounds=2,
        seed=9, boundary_points=6, child_degree=2,
    )
    assert cli._parse_budget(cp) == want
    assert all(getattr(want, f.name) != f.default
               for f in dataclasses.fields(SearchBudget))


def test_readme_config_table_lists_the_schema():
    # README's config table names exactly the schema's keys, section by
    # section (a row with no section continues the one above), so a key
    # added to or dropped from the schema moves the table with it.
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    table, section = set(), None
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) != 5 or not cells[1].startswith("`"):
            continue
        section = cells[0].strip("`[]") or section
        table |= {(section, key.replace("<label>", "*"))
                  for key in re.findall(r"`([^`]+)`", cells[1])}
    assert table == {(name, key) for name, spec in cli._SCHEMA.items()
                     for key in spec.readers}


def test_readme_entry_points_name_the_diag_keys():
    # README's "Library entry points" block names exactly the diagnostics
    # keys of an envelope_at result, so a key added to or dropped from diag
    # moves the block with it.
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("## Library entry points")[1]
    block = block.split("```")[1]
    budget = SearchBudget(degree_schedule=(2,), restarts=1, descent_iters=2)
    _, _, diag = envelope_at(parse_field("abs2(z1)"), euclidean_space(1),
                             [0.5], budget, QuadratureSpec(M=16))
    assert set(re.findall(r'diag\["(\w+)"\]', block)) == set(diag)


@pytest.mark.parametrize("old, new, key", [
    ("restarts = 2", "restarts = two", "restarts"),
    ("restarts = 2", "restarts = 2.5", "restarts"),
    ("degrees = 2", "degrees = 2 x", "degrees"),
    ("degrees = 2", "degrees = 4 2", "degree_schedule"),
    ("seed = 4", "seed = -1", "seed"),
    ("seed = 4", "seed = 4\nstep_shrink = half", "step_shrink"),
    ("seed = 4", "seed = 4\nk_schedule = 2 2.5", "k_schedule"),
    ("seed = 4", "seed = 4\nn_phases = 0", "n_phases"),
    ("seed = 4", "seed = 4\nlaurent_m = 1", "laurent_m"),
    ("seed = 4", "seed = 4\nchild_degrees = 3", "child_degrees"),
    ("m = 64", "m = 64\nclip = -40", "clip"),
    ("expr = abs2(z1)", "expr = abs2(z1)\ntruncate = 3", "truncate"),
])
def test_bad_budget_value_or_key_is_named(tmp_path, capsys, old, new, key):
    cfg = write(tmp_path / "run.cfg", ENVELOPE_CFG.replace(old, new))
    assert cli.main(["envelope", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert key in capsys.readouterr().err


ORACLE_CFG = """\
[run]
mode = oracle

[oracle]
expr = abs2(z1)
n = 33
mask = disc
"""

# ENVELOPE_CFG in C^2, the base of the [field] cases.
ENVELOPE_C2_CFG = ENVELOPE_CFG.replace("dim = 1", "dim = 2").replace(
    "points = 0.1+0j ; 0.3+0j ; -0.2+0.1j", "points = 0.1+0j 0.2+0j")

# A value no text reader rejects, but the run cannot use.
_BAD_TEXT = {"mode": "x", "kind": "x", "expr": "frobnicate(z1)", "mask": "x",
             "compare": "nope.json", "certificate": "nope.json"}


def _base_config(section, tmp_path):
    if section == "hull":
        return HULL_CFG
    if section == "oracle":
        return ORACLE_CFG
    if section == "field":
        return ENVELOPE_C2_CFG
    if section == "verify":
        return ("[run]\nmode = verify\n\n[verify]\n"
                f"certificate = {tmp_path / 'none.json'}\nballs = 1+0j 0.3\n")
    return ENVELOPE_CFG


def _run_edited(tmp_path, text, section, **values):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    mode = cp["run"]["mode"]
    if section not in cp:
        cp.add_section(section)
    for key, value in values.items():
        if value is None:
            cp.remove_option(section, key)
        else:
            cp[section][key] = value
    path = tmp_path / "run.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    return cli.main([mode, "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"])


@pytest.mark.parametrize("section, key", [
    (section, key.replace("*", "a"))
    for section, spec in cli._SCHEMA.items() for key in spec.readers
])
def test_malformed_value_is_named(tmp_path, capsys, monkeypatch, section, key):
    # Every key of the schema: a value its reader rejects, or for a text key
    # one the run cannot use, exits 2 and names the key.
    monkeypatch.chdir(tmp_path)
    bad = _BAD_TEXT[key] if cli._SCHEMA[section].reader(key) is str else "x"
    assert _run_edited(tmp_path, _base_config(section, tmp_path), section,
                       **{key: bad}) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section, values, key", [
    ("space", {"center": "0"}, "center"),
    ("space", {"kind": "curve", "dim": None, "branch.a": "0 1",
               "center": "0"}, "center"),
    ("space", {"radius": "1 2"}, "radius"),
    ("space", {"dim": "2", "radius": "1 2 3"}, "radius"),
    ("hull", {"window_center": "0"}, "window_center"),
    ("hull", {"window_radius": "3 3"}, "radius"),
    ("hull", {"balls": "1+0j 0.3+5j ; -1+0j 0.3"}, "balls"),
    ("oracle", {"rect": "-1 1 -1"}, "rect"),
    ("oracle", {"inner": "0.3"}, "inner"),
    ("hull", {"eps": "nan"}, "eps"),
    ("hull", {"eps": "inf"}, "eps"),
    ("space", {"radius": "nan"}, "radius"),
    ("space", {"radius": "inf"}, "radius"),
    ("space", {"radius": "1", "center": "nan"}, "center"),
    ("hull", {"window_radius": "nan"}, "radius"),
    ("hull", {"window_radius": "inf"}, "radius"),
    ("hull", {"window_radius": "3", "window_center": "nan"}, "center"),
    ("field", {"expr": "-indicator(box(0, 1, 0, 1; 0, 1, 0, 1; 0, 1, 0, 1))"},
     "[field] expr: field reads z3"),
    ("field", {"expr": "re(z3)"}, "[field] expr: field reads z3"),
    ("field", {"expr": "-indicator(ball(0, 0, 0, 0, 0, 0; 1))"},
     "[field] expr: field reads z3"),
    ("oracle", {"expr": "-indicator(box(0, 1, 0, 1; 0, 1, 0, 1))"},
     "[oracle] expr: field reads z2"),
    ("oracle", {"expr": "re(z2)"}, "[oracle] expr: field reads z2"),
])
def test_inconsistent_values_are_named(tmp_path, capsys, section, values,
                                       key):
    # Values that were dropped or misread without a word: a center without
    # a radius, a radius count other than 1 or the dimension, a complex ball
    # radius, a short rect, a non-finite window center or radius, a field
    # that reads a coordinate the points do not have.
    assert _run_edited(tmp_path, _base_config(section, tmp_path), section,
                       **values) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("window", ["", "radius = 1\n"])
def test_non_finite_grid_point_is_named(tmp_path, capsys, window):
    # Refused before any search or window test, with or without a window.
    text = ENVELOPE_CFG.replace("dim = 1\n", "dim = 1\n" + window)
    assert _run_edited(tmp_path, text, "grid",
                       points="0.1+0j ; nan+0j") == 2
    err = capsys.readouterr().err
    assert "point [nan+0.j]" in err and "non-finite" in err


@pytest.mark.parametrize("text", [ENVELOPE_CFG, HULL_CFG])
def test_search_degree_at_or_above_m_is_named(tmp_path, capsys, text):
    # Both configs have m <= 128; a disc of degree >= M is constant on the
    # nodes wherever z^M is, so the search refuses it.
    assert _run_edited(tmp_path, text, "budget", degrees="2 128") == 2
    err = capsys.readouterr().err
    assert "[budget] degrees" in err and "[quadrature] m" in err


@pytest.mark.parametrize("stored", [
    {"values": [1.0]},
    {"points": [{"value": 0.5}]},
    {"points": [{"x": [[0.5, 0.0]]}]},
    {"points": [{"x": [[0.5, 0.0], [0.1, 0.0]], "value": 0.5}]},
    [1, 2],
])
def test_compare_needs_a_results_file_in_one_variable(tmp_path, capsys,
                                                      stored):
    path = tmp_path / "stored.json"
    path.write_text(json.dumps(stored))
    assert _run_edited(tmp_path, ORACLE_CFG, "oracle",
                       compare=str(path)) == 2
    assert "compare" in capsys.readouterr().err
