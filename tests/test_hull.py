import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshenv import cli, hull
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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            CompactSet(balls=(([0j], bad),))
        with pytest.raises(ValueError):
            CompactSet(balls=(([complex(bad, 0)], 1.0),))
        with pytest.raises(ValueError):
            CompactSet(boxes=(([0j], [complex(0, bad)]),))


def test_distance_and_contains():
    K = CompactSet(balls=(([0j], 1.0),), boxes=(([2 + 0j], [3 + 1j]),))
    assert K.distance(np.array([[0.5 + 0j]]))[0] == 0.0
    assert K.distance(np.array([[1j]]))[0] == 0.0  # ball boundary
    assert K.distance(np.array([[2.5 + 0.5j]]))[0] == 0.0  # box interior
    assert K.distance(np.array([[-3 + 0j]]))[0] == pytest.approx(2.0)
    assert K.distance(np.array([[3 + 2j]]))[0] == pytest.approx(1.0)
    assert K.contains([0.2 + 0.1j])
    assert not K.contains([5 + 0j])


# Coordinates of centres, corners and points: moderate ones, and a few whose
# squares underflow or overflow.
_COORD = st.one_of(st.floats(-4, 4), st.sampled_from([1e-170, -3e150, 1e155, 1e300]))
# U: moderate radii, and ones outside the screen's range, including radii
# no neighbourhood has; within() must equal distance() < U at all of them.
_U = st.one_of(st.floats(1e-3, 5),
               st.sampled_from([2.0**-481, 2.0**-480, 1e-200, 1e160, 1e300,
                                0.0, -3.0, np.inf, np.nan]))
_ODD = [np.inf, -np.inf, np.nan, complex(np.inf, np.nan), 1e200, -1e300, 3e154]


@st.composite
def _sets_and_points(draw):
    N = draw(st.integers(1, 3))

    def vec():
        return np.array([complex(draw(_COORD), draw(_COORD)) for _ in range(N)])

    n_balls = draw(st.integers(0, 4))
    radius = st.one_of(st.just(0.0), st.floats(0, 3), st.sampled_from([1e-300, 1e200]))
    balls = tuple((vec(), draw(radius)) for _ in range(n_balls))
    boxes = []
    for _ in range(draw(st.integers(0 if balls else 1, 2))):
        a, b = vec(), vec()
        boxes.append((np.minimum(a.real, b.real) + 1j * np.minimum(a.imag, b.imag),
                      np.maximum(a.real, b.real) + 1j * np.maximum(a.imag, b.imag)))
    K = CompactSet(balls=balls, boxes=tuple(boxes))
    U = draw(_U)
    pts = [vec() for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        p = vec()
        p[draw(st.integers(0, N - 1))] = draw(st.sampled_from(_ODD))
        pts.append(p)
    # Points on one ball's (r + U)-shell along a coordinate axis, and up to
    # four ulps either side of it.
    shell, ball = [], None
    if balls:
        ball = c, r = balls[draw(st.integers(0, n_balls - 1))]
        j = draw(st.integers(0, N - 1))
        step = draw(st.sampled_from([1, -1, 1j, -1j])) * (r + U)
        for k in range(-4, 5):
            p = c.copy()
            re, im = (c[j] + step).real, (c[j] + step).imag
            if step.real:
                re = re + k * np.spacing(re)
            else:
                im = im + k * np.spacing(im)
            p[j] = complex(re, im)
            shell.append(p)
    pts = np.array(pts + shell, dtype=complex).reshape(-1, N)
    return K, U, pts, np.array(shell, dtype=complex).reshape(-1, N), ball


def _distance_ball_by_ball(K, pts):
    """CompactSet.distance as one loop over the balls: per ball the
    distance to its centre less its radius, floored at 0, lowering the
    least so far from +inf; then the boxes."""
    best = np.full(pts.shape[:-1], np.inf)
    for c, r in K.balls:
        d = np.sqrt(np.sum(np.abs(pts - c) ** 2, axis=-1))
        best = np.minimum(best, np.maximum(0.0, d - r))
    return K._box_distance(pts, best)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_sets_and_points(), st.sampled_from([1, 5, hull._DISTANCE_CHUNK]))
def test_distance_keeps_the_bits_of_one_ball_at_a_time(case, chunk):
    # All balls at once, in chunks of points, give the loop's bytes, NaN and
    # inf included, in C order, transposed, strided and (k, n, N) layouts.
    K, _, pts, _, _ = case
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_DISTANCE_CHUNK", chunk)
        stacked = np.concatenate([pts, pts[::-1]]).reshape(2, -1, pts.shape[1])
        for layout in (pts, np.ascontiguousarray(pts.T).T, pts[::2], stacked):
            want = _distance_ball_by_ball(K, layout)
            got = K.distance(layout)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _within_counting_fallback(K, pts, U):
    """K.within(pts, U) and the number of points it handed to distance()."""
    seen = []
    exact = CompactSet.distance

    def spy(self, p):
        seen.append(int(np.prod(np.shape(p)[:-1])))
        return exact(self, p)

    with mock.patch.object(CompactSet, "distance", spy):
        out = K.within(pts, U)
    return out, sum(seen)


@settings(max_examples=300, deadline=None)
@given(_sets_and_points())
def test_within_is_distance_below_radius(case):
    K, U, pts, shell, ball = case
    with np.errstate(all="ignore"):
        want = K.distance(pts) < U
        # C-order (n, N), and the search's layout: a transposed (N, n) array.
        for layout in (pts, np.ascontiguousarray(pts.T).T):
            got = K.within(layout, U)
            assert got.dtype == bool and np.array_equal(got, want)
        if len(pts) and 0 < U < np.inf:
            assert np.array_equal(exceptional_nodes(K, pts, U)[0],
                                  K.distance(pts) >= U)
        elif 0 < U < np.inf:
            with pytest.raises(ValueError, match="node"):
                exceptional_nodes(K, pts, U)
        if ball is not None:
            # Alone, the ball cannot decide points this close to its shell
            # from the product: every one of them takes the exact distance.
            lone = CompactSet(balls=(ball,))
            got, fell_back = _within_counting_fallback(lone, shell, U)
            assert np.array_equal(got, lone.distance(shell) < U)
            assert fell_back == len(shell)


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
    for eps in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            hull_membership(K, [0.0], U_radius=0.5, eps=eps)
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


def test_verify_certificate_refuses_forged_value_and_measure():
    cert = two_ball_certificate()
    assert cert.exceptional_measure > 0
    forgeries = [
        dataclasses.replace(cert, value=-1.0),
        dataclasses.replace(cert, exceptional_measure=0.0),
        dataclasses.replace(cert, value=-1.0, exceptional_measure=0.0),
    ]
    for forged in forgeries:
        report = verify_certificate(forged, TWO_BALLS, bundled_psh_corpus(1))
        assert all(e["ok"] for e in report["fields"])
        assert not report["all_ok"]
        assert report["value_match"] == (forged.value == cert.value)
        assert report["exceptional_match"] == (
            forged.exceptional_measure == cert.exceptional_measure)
        assert report["stored_value"] == forged.value
        assert report["recomputed_value"] == cert.value


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


@pytest.mark.parametrize("U", [0.0, -3.0, np.nan, np.inf])
def test_neighborhood_radius_must_be_finite_and_positive(tmp_path, capsys, U):
    # The screen behind within() is sound only for U > 0: at r = 1, U = -3
    # its threshold (r + U)^2 = 4 would hold a point at distance 1.5 from
    # the ball inside.  Both hull fields refuse such a U, and so does the
    # verify command on a certificate that stores one.
    with pytest.raises(ValueError, match="U_radius"):
        membership_field(TWO_BALLS, U)
    with pytest.raises(ValueError, match="U_radius"):
        exceptional_nodes(TWO_BALLS, np.zeros((16, 1), complex), U)
    obj = certificate_to_json(two_ball_certificate())
    obj["U_radius"] = U
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"[run]\nmode = verify\n\n[verify]\ncertificate = {path}\n"
                   "balls = 1+0j 0.3 ; -1+0j 0.3\n")
    assert cli.main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2
    assert "U_radius" in capsys.readouterr().err


def test_search_degree_must_be_below_m():
    # The search goes through envelope_at, which refuses a top degree >= M.
    K = CompactSet(balls=(([0j], 0.25),))
    b = SearchBudget(degree_schedule=(16,), restarts=2, descent_iters=8, seed=1)
    with pytest.raises(ValueError, match="below"):
        hull_membership(K, [0.75], U_radius=0.01, eps=0.1, budget=b,
                        q=QuadratureSpec(M=16))
