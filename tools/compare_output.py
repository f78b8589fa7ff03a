"""Compare the CLI output of this checkout with that of another one, byte
for byte.

    python tools/compare_output.py OTHER_CHECKOUT

Each checkout runs the same cases through `dualgain.cli.run` in its own
fresh interpreter, with its own `src/` on the path: all 11 subcommands,
table and JSON, to stdout and to `--out`, on small graphs of every ring, an
n = 0 graph, random real and quaternion graphs on 60 vertices, JSON payloads
longer than one write chunk, closed-form cycles whose degenerate pairs the
merge groups, and a rigged failing `check` suite with and without a
counterexample.  Stdout, stderr, the
`--out` file and the exit status of every case must agree.  Exits 0 when
all cases agree and 1 otherwise, naming each differing case.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

QUATERNION_GAIN = "(0+1i+0j+0k)+(0.5+0i+0.25j+0k)*eps"

# graph files written by the generator of each side before the cases run;
# the other graphs are written as literal documents
GENERATED = {
    "c5": ["generate", "cycle", "--n", "5", "--gain", "(0+1i)+(0.5+0i)*eps"],
    "q7": ["generate", "random", "--n", "7", "--ring", "quaternion", "--seed", "3"],
    "r6": ["generate", "random", "--n", "6", "--ring", "real", "--seed", "1"],
    "k4": ["generate", "complete", "--n", "4", "--ring", "real"],
    "r60": ["generate", "random", "--n", "60", "--p", "0.3", "--ring", "real"],
    "q60": ["generate", "random", "--n", "60", "--p", "0.3", "--ring", "quaternion"],
}
LITERAL = {
    "empty": {"format": "dual-gain-graph", "version": 1, "ring": "complex", "n": 0,
              "edges": []},
    "edgeless": {"format": "dual-gain-graph", "version": 1, "ring": "quaternion", "n": 5,
                 "edges": []},
}


def cases():
    """(name, argv) pairs; {g} stands for the path of graph file g."""
    out = []
    for fmt in ("table", "json"):
        f = ["--format", fmt]
        for g in ("c5", "q7", "r6", "k4", "empty", "edgeless"):
            out += [(f"spectrum-{g}-{fmt}", ["spectrum", f"{{{g}}}", *f]),
                    (f"balance-{g}-{fmt}", ["balance", f"{{{g}}}", *f])]
        for g in ("c5", "q7", "r6"):
            out += [(f"spectrum-lap-{g}-{fmt}", ["spectrum", f"{{{g}}}", "--matrix",
                                                 "laplacian", *f]),
                    (f"radius-{g}-{fmt}", ["radius", f"{{{g}}}", *f]),
                    (f"radius-lap-{g}-{fmt}", ["radius", f"{{{g}}}", "--matrix",
                                               "laplacian", *f]),
                    (f"interlace-{g}-{fmt}", ["interlace", f"{{{g}}}", *f]),
                    (f"interlace-keep-{g}-{fmt}", ["interlace", f"{{{g}}}", "--keep", "0,2,3",
                                                   *f]),
                    (f"interlace-drop-{g}-{fmt}", ["interlace", f"{{{g}}}", "--drop", "1",
                                                   "--matrix", "laplacian", *f]),
                    (f"charpoly-{g}-{fmt}", ["charpoly", f"{{{g}}}", *f]),
                    (f"mdet-{g}-{fmt}", ["mdet", f"{{{g}}}", *f])]
        for g in ("r60", "q60"):
            out += [(f"spectrum-{g}-{fmt}", ["spectrum", f"{{{g}}}", *f]),
                    (f"radius-{g}-{fmt}", ["radius", f"{{{g}}}", *f]),
                    (f"interlace-{g}-{fmt}", ["interlace", f"{{{g}}}", *f])]
        out += [
            (f"cycle-complex-{fmt}", ["cycle", "--n", "7", "--gain", "(0+1i)+(0.5+0i)*eps", *f]),
            (f"cycle-real-lap-{fmt}", ["cycle", "--n", "6", "--ring", "real", "--gain",
                                       "(-1)+(0)*eps", "--matrix", "laplacian", *f]),
            (f"cycle-quaternion-{fmt}", ["cycle", "--n", "5", "--ring", "quaternion",
                                         "--gain", QUATERNION_GAIN, *f]),
            (f"path-{fmt}", ["path", "--n", "9", *f]),
            (f"path-lap-{fmt}", ["path", "--n", "1", "--matrix", "laplacian", *f]),
            (f"path-large-{fmt}", ["path", "--n", "30000", *f]),
            (f"cycle-large-{fmt}", ["cycle", "--n", "30000", "--gain", "(0+1i)+(0.5+0i)*eps",
                                    *f]),
            # degenerate pairs with split dual parts, which the merge groups
            (f"cycle-large-pairs-{fmt}", ["cycle", "--n", "30000", "--gain",
                                          "(1+0i)+(0+0.5i)*eps", *f]),
            (f"cycle-large-pairs-lap-{fmt}", ["cycle", "--n", "30000", "--gain",
                                              "(1+0i)+(0+0.5i)*eps", "--matrix", "laplacian",
                                              *f]),
            (f"cycle-quaternion-pairs-{fmt}", ["cycle", "--n", "7", "--ring", "quaternion",
                                               "--gain", "(-1+0i+0j+0k)+(0+0.2i+0j+0k)*eps",
                                               *f]),
            (f"check-{fmt}", ["check", "closed-forms", "--trials", "3", "--seed", "5", *f]),
            (f"check-rigged-graph-{fmt}", ["check", "rigged-graph", *f]),
            (f"check-rigged-none-{fmt}", ["check", "rigged-none", *f]),
        ]
    out += [(f"generate-{name}", argv) for name, argv in GENERATED.items()]
    out += [
        ("generate-path-quaternion", ["generate", "path", "--n", "6", "--ring", "quaternion"]),
        ("generate-one-vertex", ["generate", "path", "--n", "1", "--ring", "quaternion"]),
        ("generate-cycle-large", ["generate", "cycle", "--n", "3000", "--ring", "quaternion",
                                  "--gain", QUATERNION_GAIN]),
        ("convert-c5", ["convert", "{c5}"]),
        ("convert-c5-quaternion", ["convert", "{c5}", "--ring", "quaternion"]),
        ("convert-r6-complex", ["convert", "{r6}", "--ring", "complex"]),
        ("convert-empty", ["convert", "{empty}"]),
        ("convert-narrowing", ["convert", "{q7}", "--ring", "real"]),
        ("missing-file", ["spectrum", "/nonexistent/graph.ggf", "--format", "json"]),
    ]
    return out


# runs inside each side's interpreter: argv[1] is the work directory
SIDE_SCRIPT = r"""
import json, sys
from pathlib import Path
import dualgain.cli as cli
from dualgain.graph_io import path_graph

work = Path(sys.argv[1])
plan = json.loads((work / "plan.json").read_text())
cli._SUITES["rigged-graph"] = lambda trials, seed: (2, path_graph(3, "quaternion"), "rigged")
cli._SUITES["rigged-none"] = lambda trials, seed: (0, None, "rigged")
cli._parser.cache_clear()
for name, argv in plan["generate"].items():
    assert cli.run(argv + ["--out", str(work / f"{name}.ggf")]) == 0, name
for name, doc in plan["literal"].items():
    (work / f"{name}.ggf").write_text(json.dumps(doc))
files = {name: str(work / f"{name}.ggf") for name in [*plan["generate"], *plan["literal"]]}
real_out, real_err = sys.stdout, sys.stderr
for name, argv in plan["cases"]:
    argv = [a.format(**files) if a.startswith("{") else a for a in argv]
    for dest in ("stdout", "out"):
        extra = ["--out", str(work / f"{name}.{dest}.file")] if dest == "out" else []
        with open(work / f"{name}.{dest}.stdout", "w", encoding="utf-8") as out, \
             open(work / f"{name}.{dest}.stderr", "w", encoding="utf-8") as err:
            sys.stdout, sys.stderr = out, err
            try:
                code = cli.run(argv + extra)
            finally:
                sys.stdout, sys.stderr = real_out, real_err
        (work / f"{name}.{dest}.code").write_text(str(code))
"""


def run_side(checkout: Path, work: Path) -> None:
    plan = {"generate": GENERATED, "literal": LITERAL, "cases": cases()}
    (work / "plan.json").write_text(json.dumps(plan))
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", SIDE_SCRIPT, str(work)], env=env, check=True,
                   timeout=600)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    other = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = Path(tmp, "this"), Path(tmp, "other")
        mine.mkdir()
        theirs.mkdir()
        run_side(HERE, mine)
        run_side(other, theirs)
        produced = sorted(p.name for p in mine.iterdir() if p.suffix != ".ggf"
                          and p.name != "plan.json")
        differing = [name for name in produced
                     if not (theirs / name).exists()
                     or (mine / name).read_bytes() != (theirs / name).read_bytes()]
        differing += sorted(p.name for p in theirs.iterdir()
                            if p.name != "plan.json" and not (mine / p.name).exists())
        for name in differing:
            print(f"differs: {name}")
        print(f"{len(cases())} cases, {len(produced)} outputs compared, "
              f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
