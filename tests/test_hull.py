import json

import numpy as np
import pytest

from pshenv import cli
from pshenv.envelope import SearchBudget
from pshenv.errors import SchemaMismatch
from pshenv.functional import QuadratureSpec, eval_field, parse_field
from pshenv.hull import (
    CompactSet,
    HullCertificate,
    NotFound,
    bundled_psh_corpus,
    certificate_from_json,
    certificate_to_json,
    default_window,
    exceptional_nodes,
    hull_membership,
    load_certificate,
    membership_field,
    save_certificate,
    verify_certificate,
)
from pshenv.space import DomainConstraint

TWO_PI = 2.0 * np.pi

TWO_BALLS = CompactSet(balls=(([1.0 + 0j], 0.3), ([-1.0 + 0j], 0.3)))
SMALL = SearchBudget(degree_schedule=(2,), restarts=4, descent_iters=10, seed=3)
Q128 = QuadratureSpec(M=128)


def two_ball_certificate():
    res = hull_membership(TWO_BALLS, [0.0], U_radius=0.5, eps=4.0,
                          budget=SMALL, q=Q128)
    assert isinstance(res, HullCertificate)
    return res


def test_compact_set_validation():
    with pytest.raises(ValueError):
        CompactSet()
    with pytest.raises(ValueError):
        CompactSet(balls=(([0j], -1.0),))
    with pytest.raises(ValueError):
        CompactSet(boxes=(([0j], [1j, 2j]),))
    with pytest.raises(ValueError):
        CompactSet(boxes=(([1 + 0j], [0j]),))
    with pytest.raises(ValueError):
        CompactSet(balls=(([0j], 1.0), ([0j, 0j], 1.0)))


def test_distance_and_contains():
    K = CompactSet(balls=(([0j], 1.0),), boxes=(([2 + 0j], [3 + 1j]),))
    assert K.distance(np.array([[0.5 + 0j]]))[0] == 0.0
    assert K.distance(np.array([[1j]]))[0] == 0.0  # ball boundary
    assert K.distance(np.array([[2.5 + 0.5j]]))[0] == 0.0  # box interior
    assert K.distance(np.array([[-3 + 0j]]))[0] == pytest.approx(2.0)
    assert K.distance(np.array([[3 + 2j]]))[0] == pytest.approx(1.0)
    assert K.contains([0.2 + 0.1j])
    assert not K.contains([5 + 0j])


def test_bounding_ball_covers_samples():
    K = CompactSet(balls=(([1 + 1j, 0j], 0.5),),
                   boxes=(([-1 - 1j, -1j], [0j, 1j]),))
    center, radius = K.bounding_ball()
    cloud = K.sample(200, seed=5)
    d = np.sqrt(np.sum(np.abs(cloud - center) ** 2, axis=1))
    assert np.all(d <= radius + 1e-12)


def test_sample_is_deterministic_and_hits_centers():
    K = CompactSet.from_points([[0.5 + 0.5j], [-0.5 - 0.5j]], blow_radius=0.1)
    a = K.sample(50, seed=9)
    b = K.sample(50, seed=9)
    assert np.array_equal(a, b)
    assert any(np.allclose(p, [0.5 + 0.5j]) for p in a)


def test_membership_field_values():
    K = CompactSet(balls=(([0j], 1.0),))
    u = membership_field(K, 0.5)
    assert eval_field(u, [0.2 + 0j]) == -1.0
    assert eval_field(u, [1.4 + 0j]) == -1.0  # inside the fattening
    assert eval_field(u, [1.5 + 0j]) == 0.0  # the neighborhood is open
    assert eval_field(u, [3 + 0j]) == 0.0


def test_default_window_contains_the_set():
    w = default_window(TWO_BALLS)
    cloud = TWO_BALLS.sample(100, seed=2)
    assert np.all(w.satisfied(cloud))
    assert isinstance(w, DomainConstraint)


def test_point_of_k_certifies_with_constant_disc():
    K = CompactSet(balls=(([0j], 1.0),))
    res = hull_membership(K, [0.3], U_radius=0.25, eps=0.5,
                          budget=SMALL, q=Q128)
    assert isinstance(res, HullCertificate)
    assert res.value == -1.0
    assert res.exceptional_measure == 0.0
    assert res.disc.coeffs.shape == (1, 1)  # stayed constant
    assert res.disc.center()[0] == 0.3 + 0j


def test_hull_membership_validation():
    K = CompactSet(balls=(([0j], 1.0),))
    with pytest.raises(ValueError):
        hull_membership(K, [0.0], U_radius=0.0, eps=0.5)
    with pytest.raises(ValueError):
        hull_membership(K, [0.0], U_radius=0.5, eps=-1.0)
    with pytest.raises(ValueError):
        hull_membership(K, [0.0, 0.0], U_radius=0.5, eps=0.5)
    tight = DomainConstraint(np.array([0j]), np.array([0.1]))
    with pytest.raises(ValueError):
        hull_membership(K, [0.0], U_radius=0.5, eps=0.5, window=tight)


def test_two_ball_certificate_bookkeeping():
    cert = two_ball_certificate()
    assert cert.value < -1.0 + cert.eps / TWO_PI
    nodes = cert.disc.boundary_values(cert.M)
    bad = int(np.count_nonzero(TWO_BALLS.distance(nodes) >= cert.U_radius))
    assert cert.exceptional_measure == TWO_PI * bad / cert.M
    assert 0.0 < cert.exceptional_measure < cert.eps


def test_shrinking_neighborhood_grows_exceptional_mass():
    cert = two_ball_certificate()
    nodes = cert.disc.boundary_values(cert.M)
    for factor in (0.5, 0.25):
        bad = int(np.count_nonzero(
            TWO_BALLS.distance(nodes) >= cert.U_radius * factor))
        assert TWO_PI * bad / cert.M >= cert.exceptional_measure


def test_separated_points_come_back_not_found():
    K = CompactSet.from_points([[3.0 + 0j], [-3.0 + 0j]], blow_radius=0.05)
    res = hull_membership(K, [0.0], U_radius=0.2, eps=0.1,
                          budget=SMALL, q=Q128)
    assert isinstance(res, NotFound)
    assert res.threshold == -1.0 + 0.1 / TWO_PI
    assert res.best_value > res.threshold
    assert res.best_value >= -0.5
    assert res.witness.center()[0] == 0j
    assert "rounds" in res.diagnostics


def test_verify_certificate_accepts_corpus():
    cert = two_ball_certificate()
    report = verify_certificate(cert, TWO_BALLS, bundled_psh_corpus(1), q=Q128)
    assert report["all_ok"]
    assert report["exceptional_fraction"] == pytest.approx(
        cert.exceptional_measure / TWO_PI)
    assert len(report["fields"]) == len(bundled_psh_corpus(1))


def test_verify_certificate_flags_non_psh_field():
    cert = two_ball_certificate()
    report = verify_certificate(cert, TWO_BALLS, [parse_field("-abs2(z1)")],
                                q=Q128)
    assert not report["all_ok"]
    entry = report["fields"][0]
    assert entry["value_at_center"] > entry["disc_average"] + 1e-6


def test_corpus_contents():
    with pytest.raises(ValueError):
        bundled_psh_corpus(0)
    assert len(bundled_psh_corpus(2)) > len(bundled_psh_corpus(1))


def test_certificate_json_round_trip(tmp_path):
    cert = two_ball_certificate()
    obj = certificate_to_json(cert)
    back = certificate_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(back.x, cert.x)
    assert np.array_equal(back.disc.coeffs, cert.disc.coeffs)
    assert back.value == cert.value
    assert back.exceptional_measure == cert.exceptional_measure
    assert np.array_equal(back.window.center, cert.window.center)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded.value == cert.value
    assert np.array_equal(loaded.disc.coeffs, cert.disc.coeffs)


def test_certificate_schema_checks():
    cert = two_ball_certificate()
    obj = certificate_to_json(cert)
    with pytest.raises(SchemaMismatch):
        certificate_from_json({**obj, "schema": "hull-certificate/9"})
    broken = dict(obj)
    del broken["window"]
    with pytest.raises(SchemaMismatch):
        certificate_from_json(broken)


def test_exceptional_measure_agrees_in_search_verify_and_cli(tmp_path):
    # On a saved certificate the measure the search stored, the fraction
    # verify_certificate reports and the measure the verify command
    # recomputes come from exceptional_nodes and agree bit for bit.
    path = tmp_path / "cert.json"
    save_certificate(two_ball_certificate(), path)
    cert = load_certificate(path)
    bad, measure = exceptional_nodes(
        TWO_BALLS, cert.disc.boundary_values(cert.M), cert.U_radius)
    assert 0 < np.count_nonzero(bad) < cert.M
    assert measure == cert.exceptional_measure
    report = verify_certificate(cert, TWO_BALLS, bundled_psh_corpus(1))
    assert report["exceptional_fraction"] == np.count_nonzero(bad) / cert.M
    assert TWO_PI * report["exceptional_fraction"] == measure
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"""\
[run]
mode = verify

[verify]
certificate = {path}
balls = 1+0j 0.3 ; -1+0j 0.3
""")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    verified = json.loads((out / "verify.json").read_text())
    assert verified["exceptional_match"] is True
    assert verified["exceptional_fraction"] == report["exceptional_fraction"]
