"""Random argv for every subcommand through the one cached CLI parser.

Each example draws a subcommand and a mix of valid and invalid arguments:
unknown flags, `--keep` with `--drop`, NaN, negative and infinite `--tol`,
bad matrix, format, ring, family and suite names, non-positive `--trials`,
missing and malformed files, malformed gain text and vertex counts far
beyond physical memory.  Every size that can be accepted is small
(`--n` <= 40, `--trials` <= 3), so no example starts a long job.  All
examples run in one process, so `run` reuses the parser it built first.

The exit contract: `run` returns 0, 1 or 2, or argparse exits with 0 or 2;
no traceback reaches stderr, and a return of 2 writes exactly one `error:`
line.  An argv that parses must parse to the same namespace through a fresh
`build_parser()`.
"""

import contextlib
import io
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import dualgain.cli as cli_module  # noqa: E402
from dualgain import RINGS, generate, save  # noqa: E402
from dualgain.cli import build_parser, run  # noqa: E402

# vertex counts far beyond what the O(n) arrays of any machine hold
HUGE_N = (str(10**12), str(10**30), str(2**64))

# (valid, invalid) values of each argument; "@..." names a file of `paths`
POOLS = {
    "--matrix": (("adjacency", "laplacian"), ("signless",)),
    "--tol": (("1e-9", "1e-3", "0.5"), ("nan", "-1", "inf", "-inf", "abc")),
    "--format": (("table", "json"), ("yaml",)),
    "--keep": (("0,1", "0,2", "1", "2,3,5"), ("", "9", "-1", "a,b", "0,,2")),
    "--drop": (("0", "1,2", "5"), ("", "9", "-1", "x")),
    "--n": (("3", "4", "7", "12", "40"), ("0", "1", "-3", "x", "1.5") + HUGE_N),
    "--ring": (RINGS, ("octonion",)),
    "--gain": (("(1)+(0)*eps", "(-1.0)", "(0+1i) + (0+0.5i)*eps",
                "(0.0+1.0i+0.0j+0.0k) + (0.0+0.0i+0.5j+0.0k)*eps"),
               ("(2)", "(1+1i)", "garbage", "")),
    "--trials": (("1", "2", "3"), ("0", "-1", "x")),
    "--seed": (("0", "7", "-2"), ("z",)),
    "--p": (("0.5", "0", "1"), ("nan", "2", "-0.5")),
    "--out": (("@out",), ()),
    "file": (("@graph",), ("@missing", "@broken", "@nonunit")),
    "suite": (tuple(cli_module._SUITES), ("bogus",)),
    "family": (("path", "cycle", "complete", "random"), ("star",)),
}
GRAPH = ("file", "--matrix", "--tol", "--format")
ARGUMENTS = {
    "spectrum": GRAPH,
    "balance": ("file", "--tol", "--format"),
    "radius": GRAPH,
    "interlace": GRAPH + ("--keep", "--drop"),
    "charpoly": ("file", "--tol", "--format"),
    "mdet": ("file", "--tol", "--format"),
    "cycle": ("--n", "--ring", "--gain", "--matrix", "--tol", "--format"),
    "path": ("--n", "--matrix", "--format"),
    "check": ("suite", "--trials", "--seed", "--format"),
    "generate": ("family", "--n", "--ring", "--gain", "--p", "--seed", "--out"),
    "convert": ("file", "--ring", "--tol", "--out"),
}
REQUIRED = {("cycle", "--n"), ("cycle", "--gain"), ("path", "--n"), ("generate", "--n")}
STRANGERS = ("--bogus", "-x", "--keep", "--trials", "--verbose=1")


@st.composite
def argvs(draw):
    """An argv whose files are placeholders ("@graph", ...) for `paths`.
    About one value in eight is invalid, one positional or required option
    in eight is left out, other options are there half the time, and one
    argv in six carries a stray flag.  Hypothesis leans towards the
    smallest draws, so those give the valid choices."""
    command = draw(st.sampled_from(tuple(ARGUMENTS) + ("frobnicate",)))
    argv = [command]
    for name in ARGUMENTS.get(command, ()):
        required = not name.startswith("-") or (command, name) in REQUIRED
        if draw(st.integers(0, 7)) == 7 if required else draw(st.booleans()):
            continue
        value = draw(_value(name))
        if not name.startswith("-"):
            argv.append(value)
        else:
            argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    if draw(st.integers(0, 5)) == 5:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRANGERS)))
    return argv


def _value(name):
    valid, invalid = POOLS[name]
    if not invalid:
        return st.sampled_from(valid)
    return st.integers(0, 7).flatmap(
        lambda k: st.sampled_from(invalid if k == 7 else valid))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {"@graph": root / "graph.ggf", "@missing": root / "missing.ggf",
             "@broken": root / "broken.ggf", "@nonunit": root / "nonunit.ggf",
             "@out": root / "out.txt"}
    save(generate("random", n=6, ring="quaternion", p=0.6, seed=4), files["@graph"])
    files["@broken"].write_text("{not json")
    files["@nonunit"].write_text(
        '{"format": "dual-gain-graph", "version": 1, "ring": "real", "n": 2, "edges": '
        '[{"u": 0, "v": 1, "gain_std": [2.0], "gain_dual": [0.0]}]}')
    return {key: str(path) for key, path in files.items()}


@pytest.fixture(scope="module")
def first_parser():
    return cli_module._parser()


def _parse(parser, argv):
    """vars() of the parse with NaN made comparable, or None when argparse
    refuses (or answers --help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            return None
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v
            for k, v in vars(args).items()}


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_argv_exit_contract(argv, paths, first_parser):
    for key, path in paths.items():
        argv = [a.replace(key, path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = run(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
    stderr = err.getvalue()
    assert "Traceback" not in stderr, argv
    assert code in ((0, 2) if exited else (0, 1, 2)), argv
    if code == 2 and not exited:
        assert stderr.startswith("error:") and stderr.count("\n") == 1, (argv, stderr)
    assert cli_module._parser() is first_parser
    cached = _parse(first_parser, argv)
    assert cached == _parse(build_parser(), argv), argv
    assert (cached is None) is exited, argv
