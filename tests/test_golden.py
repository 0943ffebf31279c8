"""Golden SHA-256 digests of the criterion-8 CLI suite and of fiber scans.

Criterion 8 checks that two reruns agree with each other; this test pins
what they agree on.  Each command's digest covers its exit code, its
stdout and the name and bytes of every file it emits, so a refactor that
claims bit-for-bit identical output has to reproduce all of them.  The scan
digests do the same for ``fiber_scan`` reports on members the CLI suite
does not scan: the sphere, a 3-d christoffel term set and fig1.  The lift
digests pin every field of single-seed ``LiftTrajectory`` values, the
in-memory ``stop_reason`` included, for lifts on segments, a circle and
cubic-Hermite polylines that complete, escape and stop at the ``min_step``
floor.  The batch digests pin every lift of a ``horizontal_lifts`` batch
whose last lane ends alone, on a 1-d member with no float form and on the
sphere.  A change that alters emitted numbers on purpose
must regenerate the tables and say so.

Regenerated four times, for one reason each.  First, every 1-d lane sums its
DOPRI stages in plain floats, left to right, in both kernels.  That moved
the digests of ``lift fig1``, both ``transport fig1`` commands and
``figure1``, the nine 1-d lone lifts of ``GOLDEN_LIFTS`` and the 1-d
christoffel lone lift and batch; no n-d, scan, ``uvb-scan`` or ``gallery
list`` digest moved.  Second, every n-d sum of a lift adds left to right
in plain floats too (stage, error and norm sums, the product with the
velocity, and the sphere's closed-form map).  That moved the sphere
circle and polyline lone lifts, both 3-d christoffel lone lifts and the
sphere batch; no 1-d, CLI or scan digest moved.  Third, a 1-d lift goes on
in the inverted chart w = -1/c from |c| = sqrt(escape_norm) and escapes
where its last step's cubic Hermite reaches |c| = escape_norm.  That moved
only the lifts that cross 1e4: the lone lifts of fig1 from 1, power-growth
1.5 from 3, power-growth 2 from 0.5 and from 1.5, and power-growth 3 from
10 (still ``min-step``, now with 33 rejected steps, not 2), and the CLI
digests of ``lift fig1 --v 0 --v 1``, ``transport fig1 --v 0.7`` and
``figure1``.  Fourth, a 1-d lift goes on in w = -1/c from |c| = 16, whatever
the escape norm, and a step that crosses |c| = escape_norm is not kept: a
last step ends at its cubic-Hermite root and is moved onto |c| = escape_norm
by one Newton correction.  That moved only lifts that reach 16: the lone
lifts of fig1 from 1 and from 0.64 (complete, 77 steps instead of 175),
power-growth 1.5 from 3, power-growth 2 from 0.5 and along the polyline
from 1.5 (each escape now with one rejected step, the discarded crossing),
and power-growth 3 from 10 (still ``min-step``, with 92 rejected steps), and
the same three CLI digests.  ``tools/numdiff.py`` compares two checkouts
before such a regeneration.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from pathlift.cli import main
from pathlift.connections import ConnectionSpec, gallery
from pathlift.geometry import path_circle, path_polyline, path_segment
from pathlift.lifting import horizontal_lift, horizontal_lifts
from pathlift.uvb import fiber_scan

GOLDEN = [
    (["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "0", "--v", "1"],
     "97f14b55d834ab6fdf923655cb0b2f8a9b867ccb5e482fdbe650b635d2cea5e1"),
    (["lift", "--connection", "flat", "--path", "segment:0,0:1,1", "--v", "3,4"],
     "a9e61cbda3206de6325b41b8237498b0e669d887a1a289e87ce456956b85d6c2"),
    (["transport", "--connection", "scalar-linear:1", "--path", "segment:0:1", "--v", "2"],
     "89451108169d923cb2ff086ae03fcd80462839de5b385bcb75625433e7590d88"),
    (["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "0", "--jacobian"],
     "cbdf51c3d30651baaab50dd73eac72b07b7fb197144f5e0e1401e80476630289"),
    (["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "0.7"],
     "a07912f77a17001e8f1419a9345b52cecb1fc7a1b8abd9c5132f11ce226c89ac"),
    (["uvb-scan", "--connection", "fig1"],
     "a1df976155ae7b604433c6dc7febf745bc3be0878bbb1d6bf3dea5e812e38713"),
    (["uvb-scan", "--connection", "scalar-linear:1", "--format", "csv"],
     "fe75f85b81ea23e5be507a9daff46c19e64f678523514f39fd196b98a1006496"),
    (["figure1"],
     "04a3fd5bd2d6b1271257ffa84e5f17ee39c37c4ce3cfcaf62a136491b80056b1"),
    (["gallery", "list"],
     "4cdf13d97f29bf117bf75873f6abf0ecc13c8d2e8e9efb164c3b814027ec2bfb"),
]


def _sha256(chunks) -> str:
    # Length-prefixed, so no two chunk sequences hash the same bytes.
    h = hashlib.sha256()
    for data in chunks:
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def _digest(code: int, stdout: str, out) -> str:
    chunks = [str(code).encode(), stdout.encode("utf-8")]
    if out.exists():
        for path in sorted(out.iterdir()):
            chunks += [path.name.encode("utf-8"), path.read_bytes()]
    return _sha256(chunks)


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_matches_golden_digest(argv, expected, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(argv + (["--out", str(out)] if argv[0] != "gallery" else []))
    got = _digest(code, capsys.readouterr().out, out)
    assert got == expected, f"output of `pathlift {' '.join(argv)}` changed: digest {got}"


def test_golden_digest_after_a_failed_run_in_the_same_process(tmp_path, capsys):
    # main reuses one parser per process: a run that fails after setting the
    # repeatable --v, --jacobian and --rtol must leave no trace in the next runs.
    bad = ["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "0",
           "--v", "1", "--jacobian", "--rtol", "1e-3", "--out", str(tmp_path / "bad")]
    for i in (0, 2, 6):
        assert main(bad) == 1
        argv, expected = GOLDEN[i]
        capsys.readouterr()
        out = tmp_path / f"out{i}"
        code = main(argv + ["--out", str(out)])
        assert _digest(code, capsys.readouterr().out, out) == expected


_TERMS_3D = [
    {"k": 0, "i": 0, "j": 1, "coeff": 0.5, "monomial": [1, 0, 0]},
    {"k": 0, "i": 2, "j": 2, "coeff": -1.25, "monomial": [0, 2, 1]},
    {"k": 1, "i": 1, "j": 0, "coeff": 2.0, "monomial": [0, 1, 0]},
    {"k": 1, "i": 2, "j": 1, "coeff": 0.75, "monomial": [1, 1, 0]},
    {"k": 2, "i": 0, "j": 2, "coeff": -0.3, "monomial": [0, 0, 3]},
    {"k": 2, "i": 1, "j": 1, "coeff": 1.1, "monomial": [2, 0, 1]},
]

# Default directions and radii; digest of theta_min, beta and verdict bytes.
GOLDEN_SCANS = [
    (ConnectionSpec("sphere-stereographic"), [0.4, -0.3],
     "57508b99f2936d726fca14c53b0e7505248a7541c418313c431b49954c9818e1"),
    (ConnectionSpec("sphere-stereographic"), [-1.7, 2.2],
     "36ada20ad328d57dc692889ee5ac8c3cb361e847512d25eb5036b4d02fbed480"),
    (ConnectionSpec("christoffel", {"dimension": 3, "terms": _TERMS_3D}), [0.3, -0.8, 1.2],
     "e2cf6b8928637befcf546ea839b37bd6efb0cd36eb9fb79c570731f335626552"),
    (ConnectionSpec("christoffel", {"dimension": 3, "terms": _TERMS_3D}), [-1.5, 0.25, -0.6],
     "8350db905b18cec5d63cbaee451fbce70e6c644698ae35c97fdd1fe5a31ed74f"),
    (ConnectionSpec("fig1"), [0.0],
     "0ba8b18f861b40d8fb195e6dc52c8a93f63a81e86afd9f1a0d6285ab0076f37b"),
    (ConnectionSpec("fig1"), [-2.5],
     "0ba8b18f861b40d8fb195e6dc52c8a93f63a81e86afd9f1a0d6285ab0076f37b"),
]


@pytest.mark.parametrize("spec, point, expected", GOLDEN_SCANS,
                         ids=[f"{s.name} {p}" for s, p, _ in GOLDEN_SCANS])
def test_fiber_scan_matches_golden_digest(spec, point, expected):
    report = fiber_scan(gallery(spec), point)
    got = _sha256([report.theta_min.tobytes(), report.beta.tobytes(), report.verdict.encode()])
    assert got == expected, f"fiber_scan of {spec.name} at {point} changed: digest {got}"


def _pg(alpha):
    return ConnectionSpec("power-growth", {"alpha": alpha})


_UNIT = ("segment", [0.0], [1.0])
_OFF = ("segment", [-1.0], [0.25])  # off the origin, speed 1.25
_SHORT = ("segment", [-1.0], [0.5])
# A 1-d member with no float form: Gamma(p, v) = (1.5 p - 0.5) v.
_CHRISTOFFEL_1D = ConnectionSpec("christoffel", {"dimension": 1, "terms": [
    {"k": 0, "i": 0, "j": 0, "coeff": 1.5, "monomial": [1]},
    {"k": 0, "i": 0, "j": 0, "coeff": -0.5}]})

# (connection, path, seed, stop_reason, rejected steps, digest of every field).
GOLDEN_LIFTS = [
    (ConnectionSpec("fig1"), _UNIT, [0.0], "complete", 2,
     "7b9e03e974e6b198ec38ce2a03740e8c730b3b68b5631e657f0385c7a046031e"),
    (ConnectionSpec("fig1"), _UNIT, [1.0], "escape-norm", 1,
     "16f1fc48ff423c5712fee425058a61f939eb49445c15253c837f5908ec591825"),
    (ConnectionSpec("fig1"), _UNIT, [0.64], "complete", 0,
     "1f7f09478e6e0949e3c2e36a354a02b889393f78fa06a2a87eb64c136f4438df"),
    (_pg(1.5), _OFF, [0.1], "complete", 1,
     "89c9645f5f9651954ead2c5898ff2e3d7e179cb424881ec0f7813df5960e319d"),
    (_pg(1.5), _OFF, [3.0], "escape-norm", 1,
     "406f00b6ceef2bcd1825ce4434f78f70804245557ca19f4d645b7ae12b139c9f"),
    (_pg(2.0), _OFF, [0.5], "escape-norm", 1,
     "0ce462ab0a20e530d03415210815bbd2984bc8df2ae6b92ebb11c1133c65a511"),
    (_pg(3.0), _OFF, [10.0], "min-step", 92,
     "a73406c844e49a4028e7dfeb6539ff6ac72840393f6e98ab8123cfaaf4f74864"),
    (ConnectionSpec("scalar-linear", {"lambda": -0.75}), _OFF, [2.5], "complete", 0,
     "71b7a3113a3ff2794b1c6ae1e4a0150f51ffcae08a6e18d7837d8c31fe0d2a33"),
    (ConnectionSpec("sphere-stereographic"), ("circle", [0.2, -0.1], 0.7), [1.0, 0.5],
     "complete", 1,
     "40cbd5dfc471f4b389800fea10727f1060a3761472f0da6e407d97745225037e"),
    (ConnectionSpec("sphere-stereographic"),
     ("polyline", [[0.1, -0.2], [0.6, 0.3], [-0.2, 0.5]], [0.0, 0.4, 1.0]), [1.0, -0.5],
     "complete", 10,
     "116ceb2b8fdc29e57c91203e6572f654c8790b596c85eba164d26dd29f97d21a"),
    (ConnectionSpec("christoffel", {"dimension": 3, "terms": _TERMS_3D}),
     ("polyline", [[0.3, -0.8, 1.2], [0.5, 0.0, 0.4], [-0.1, 0.3, 0.2]], [0.0, 0.3, 1.0]),
     [0.5, 1.0, -0.25], "complete", 17,
     "bb8b95304cb29bf7a4c26e4dee5169be9efa478c4f78c5911c031287d5ab533a"),
    (_pg(2.0), ("polyline", [[0.0], [0.8], [0.5]], [0.0, 0.5, 1.0]), [1.5], "escape-norm", 1,
     "416f902c0b7d8df8da6e3864e92c4246c0e4ff89e6942aa8271e4567b91d85e5"),
    (_CHRISTOFFEL_1D, _SHORT, [2.0], "complete", 0,
     "50ccdbbb0d2d779ea9d669813dd155757a85a802924b269b22e83e461c98ec19"),
    (ConnectionSpec("christoffel", {"dimension": 3, "terms": _TERMS_3D}),
     ("segment", [0.3, -0.8, 1.2], [-0.1, 0.3, 0.2]), [0.5, 1.0, -0.25], "complete", 0,
     "0adddcc63df6a250fe4c6061b405ab71d5b6b0515163a463bb08a7ea3f2a3624"),
]


def _path(spec):
    kind, a, b = spec
    return {"segment": path_segment, "circle": path_circle, "polyline": path_polyline}[kind](a, b)


def _lift_digest(traj) -> str:
    chunks = []
    for f in dataclasses.fields(traj):
        value = getattr(traj, f.name)
        if isinstance(value, np.ndarray):
            chunks += [f.name.encode(), str(value.shape).encode(), value.tobytes()]
        else:
            chunks += [f.name.encode(), repr(value).encode()]
    return _sha256(chunks)


@pytest.mark.parametrize("spec, path, seed, reason, rejected, expected", GOLDEN_LIFTS,
                         ids=[f"{s.name} {s.params} {p[0]} {v}" for s, p, v, *_ in GOLDEN_LIFTS])
def test_lone_lift_matches_golden_digest(spec, path, seed, reason, rejected, expected):
    traj = horizontal_lift(gallery(spec), _path(path), seed)
    assert (traj.stop_reason, traj.rejected) == (reason, rejected)
    got = _lift_digest(traj)
    assert got == expected, f"lift of {spec.name} {spec.params} from {seed} changed: digest {got}"


# (connection, path, seeds, steps of each lift, digest of every field of every
# lift).  The lanes retire at different times, so the last one takes its
# final steps alone.
GOLDEN_BATCHES = [
    (_CHRISTOFFEL_1D, _SHORT, [[0.0], [1e-3], [2.0]], [7, 29, 32],
     "7b4adb7ee8d578a70c6186b697f1e34bc1fb78a28f4a566edee899dc2642ac2d"),
    (ConnectionSpec("sphere-stereographic"), ("segment", [0.1, -0.2], [0.9, 0.6]),
     [[0.0, 0.0], [1e-9, 2e-9], [1.0, -0.5]], [7, 4, 26],
     "ba4ffaead683aaf2266a9c8a188dc51070a021152c4036b657e7ef6baa024c5e"),
]


@pytest.mark.parametrize("spec, path, seeds, steps, expected", GOLDEN_BATCHES,
                         ids=[f"{s.name} {len(v)} seeds" for s, _, v, *_ in GOLDEN_BATCHES])
def test_batched_lifts_match_golden_digest(spec, path, seeds, steps, expected):
    lifts = horizontal_lifts(gallery(spec), _path(path), seeds)
    assert [traj.steps for traj in lifts] == steps
    assert all(traj.complete for traj in lifts)
    got = _sha256([_lift_digest(traj).encode() for traj in lifts])
    assert got == expected, f"batched lifts of {spec.name} changed: digest {got}"
