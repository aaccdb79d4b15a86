"""Property tests of the CLI, in-process.

Over argv: every command line exits 0 or 2, never with a traceback. ``main``
either returns 0, or returns 2 after writing exactly one ``error:`` line to
stderr, or argparse rejects the command line with SystemExit(2). Flag values
are drawn from valid ones and from edge values (zero, negative, infinite,
NaN, huge, subnormal, empty, non-numeric and a 30-digit integer), on a
30-point cloud.

Over coordinate scales: a 64-point cloud written at 2^e, for any e in
[-1000, 1000], drops the same points under ``attack --normalize`` as at 2^0.
"""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pointdrop import PointCloud, ScoreVector, get_preset, write_coefficients, write_scores
from pointdrop.cli import main
from pointdrop.io import RAW_SALIENCY, parse_xyz, write_xyz

EDGE_VALUES = ["0", "-1", "inf", "nan", "1e308", "1e-320", "", "x", "1" * 30]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the fixtures under short relative names, made the cwd.

    Edge values such as ``x`` or ``0`` also serve as --output names, so they
    must land in this directory.
    """
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(0)
    cloud = write_xyz(PointCloud(rng.normal(size=(30, 3))))
    scores = write_scores(ScoreVector(rng.normal(size=30), RAW_SALIENCY))
    (root / "cloud.xyz").write_text(cloud, encoding="utf-8")
    (root / "scores.txt").write_text(scores, encoding="utf-8")
    (root / "coeffs.json").write_text(write_coefficients(get_preset("avg-N50")), encoding="utf-8")
    for name, text in (("clouds", cloud), ("scores", scores)):
        (root / name).mkdir()
        (root / name / "c.txt").write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def value(*valid):
    # Half valid, so that one edge value at a time reaches the library.
    return st.one_of(st.sampled_from(valid), st.sampled_from(EDGE_VALUES))


def positional(valid):
    return st.sampled_from([valid, valid, valid, "missing", ""])


GRAPH_FLAGS = {
    "--k": value("3", "10"),
    "--sigma": value("auto", "0.5"),
    "--gamma": value("0.5", "2"),
    "--ball-radius": value("0.1", "0.5"),
    "--output": value("out.txt"),
}
# Per command: positional arguments, flags with values, and switches.
COMMANDS = {
    "features": ([positional("cloud.xyz")], GRAPH_FLAGS, ["--normalize"]),
    "fit": (
        [positional("clouds"), positional("scores")],
        {**GRAPH_FLAGS, "--top-n": value("10", "30"), "--alpha": value("0.05", "0.5")},
        ["--normalize"],
    ),
    "attack": (
        [positional("cloud.xyz")],
        {
            **GRAPH_FLAGS,
            "--preset": value("avg-N50", "coeffs.json"),
            "--top-n": value("5", "20"),
            "--seed": value("7"),
        },
        ["--normalize", "--random"],
    ),
    "overlap": (
        [positional("scores.txt"), positional("scores.txt")],
        {"--top-n": value("5", "5,10", "29"), "--output": value("out.txt")},
        [],
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags, switches = COMMANDS[command]
    argv = [command, *(draw(p) for p in positionals)]
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    argv += [s for s in switches if draw(st.booleans())]
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=argvs())
# Both once escaped main as a RuntimeError from sparse LU.
@example(argv=["features", "cloud.xyz", "--gamma", "inf"])
@example(argv=["features", "cloud.xyz", "--sigma", "inf", "--gamma", "1" * 30])
def test_exit_code_contract(workdir, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2, argv
            return
    assert code in (0, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


def run_main(argv):
    """``main(argv)``'s exit code and its stdout and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


SCALE_POINTS = np.random.default_rng(1).normal(size=(64, 3))


@pytest.fixture(scope="module")
def scale_run(tmp_path_factory):
    """A function: e -> the dropped indices of ``attack --normalize`` on the fixture at 2^e."""
    path = tmp_path_factory.mktemp("scales") / "cloud.xyz"

    def dropped(e):
        scaled = np.ldexp(SCALE_POINTS, e)
        assert np.array_equal(np.ldexp(scaled, -e), SCALE_POINTS)  # exact at 2^e
        path.write_text(write_xyz(PointCloud(scaled)), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        assert np.array_equal(parse_xyz(text).points, scaled)  # and round-trips
        argv = ["attack", str(path), "--normalize", "--preset", "avg-N100", "--top-n", "10"]
        code, _, report = run_main(argv)
        assert code == 0, (e, report)
        lines = report.splitlines()
        rows = lines[lines.index("dropped index, predicted score") + 1 :]
        return [int(row.split(",")[0]) for row in rows]

    return dropped


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(e=st.integers(-1000, 1000))
# Squared norms in the file's own units underflow at 2^-570 (a false "all
# points coincide") and overflow at 2^540 (normalizing to the all-zero cloud).
@example(e=-570)
@example(e=540)
def test_drop_set_at_any_power_of_two_scale(scale_run, e):
    unit = scale_run(0)
    assert len(unit) == 10
    assert scale_run(e) == unit
