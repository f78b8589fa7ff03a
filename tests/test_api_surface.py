"""The public surface: the functions, classes and public methods that
`dualgain` and `dualgain.sampling` export, every parameter of theirs with a
default value, and the options of each CLI subcommand.

Each default is a setting a caller can change, so EXPECTED is the
library's knob count.  A callable, option or default that appears or goes,
or a default that changes value, shows up here as a deliberate edit.
"""

import argparse
import inspect

import dualgain
import dualgain.sampling
from dualgain.cli import build_parser

EXPECTED = {
    # tolerances of scalar, vector and matrix tests, which callers set
    ("DualMatrix.allclose", "tol", 1e-12),
    ("DualMatrix.is_hermitian", "tol", 1e-09),
    ("DualNumber.allclose", "tol", 1e-12),
    ("DualScalar.allclose", "tol", 1e-12),
    ("DualScalar.is_appreciable", "tol", 1e-12),
    ("DualScalar.is_unit", "tol", 1e-12),
    ("DualVector.allclose", "tol", 1e-12),
    ("DualVector.is_appreciable", "tol", 1e-12),
    ("Quaternion.allclose", "tol", 1e-12),
    ("dual_geq", "tol", 0.0),
    ("unit_to_angle", "tol", 1e-09),
    # the unit/balance tolerance a graph is validated under and keeps, and
    # the unit test of a closed-form cycle gain
    ("GainGraph.__init__", "tol", 1e-09),
    ("cycle_spectrum_closed_form", "tol", 1e-09),
    ("load", "tol", 1e-09),
    ("parse", "tol", 1e-09),
    # what to compute
    ("check_interlacing", "kind", "adjacency"),
    ("cycle_spectrum_closed_form", "kind", "adjacency"),
    ("path_spectrum_closed_form", "kind", "adjacency"),
    ("radius_report", "kind", "adjacency"),
    ("spectrum", "kind", "adjacency"),
    ("spectrum", "with_vectors", True),
    ("underlying_radius", "kind", "adjacency"),
    # values of constructed objects
    ("DualAngle.__init__", "dual", 0.0),
    ("DualAngle.__init__", "std", 0.0),
    ("DualMatrix.__init__", "d", None),
    ("DualNumber.__init__", "dual", 0.0),
    ("DualNumber.__init__", "std", 0.0),
    ("DualNumber.to_scalar", "ring", "real"),
    ("DualScalar.__init__", "dual", 0.0),
    ("DualScalar.__init__", "std", 0.0),
    ("DualScalar.complex", "dual", 0j),
    ("DualScalar.complex", "std", 0j),
    ("DualScalar.quaternion", "dual", None),
    ("DualScalar.quaternion", "std", None),
    ("DualScalar.real", "dual", 0.0),
    ("DualScalar.real", "std", 0.0),
    ("DualVector.__init__", "d", None),
    ("GraphSyntaxError.__init__", "line", None),
    ("PotentialCertificate.__init__", "theta", None),
    ("PotentialCertificate.__init__", "witness_cycle", None),
    ("Quaternion.__init__", "w", 0.0),
    ("Quaternion.__init__", "x", 0.0),
    ("Quaternion.__init__", "y", 0.0),
    ("Quaternion.__init__", "z", 0.0),
    ("Spectrum.__init__", "vectors", None),
    ("UnderlyingGraph.__init__", "edges", ()),
    # named graph families
    ("complete_graph", "ring", "complex"),
    ("generate", "gain", None),
    ("generate", "n", None),
    ("generate", "p", 0.5),
    ("generate", "ring", "complex"),
    ("generate", "seed", 0),
    ("path_graph", "ring", "complex"),
    ("random_graph", "ring", "complex"),
    # seeded sampling
    ("sampling.random_connected_graph", "extra_edges", 0),
    ("sampling.random_dual_quaternion", "kind", "generic"),
}

# the qualified names that _callables() walks, grouped by class
PUBLIC_CALLABLES = {
    "BasicSubgraph.__init__",
    "CycleRealGain.__init__",
    "DualAngle.__init__",
    "DualMatrix.__init__", "DualMatrix.allclose",
    "DualMatrix.conj_transpose", "DualMatrix.entry", "DualMatrix.from_scalars",
    "DualMatrix.hermitian_defect", "DualMatrix.inverse", "DualMatrix.is_hermitian",
    "DualNumber.__init__", "DualNumber.allclose", "DualNumber.inverse",
    "DualNumber.magnitude", "DualNumber.one", "DualNumber.sqrt",
    "DualNumber.to_scalar", "DualNumber.zero",
    "DualScalar.__init__", "DualScalar.allclose", "DualScalar.complex",
    "DualScalar.components", "DualScalar.conjugate",
    "DualScalar.from_components", "DualScalar.inverse", "DualScalar.is_appreciable",
    "DualScalar.is_unit", "DualScalar.magnitude", "DualScalar.one",
    "DualScalar.quaternion", "DualScalar.real",
    "DualScalar.real_part", "DualScalar.widen", "DualScalar.zero",
    "DualVector.__init__", "DualVector.allclose", "DualVector.dot",
    "DualVector.entry", "DualVector.from_scalars", "DualVector.is_appreciable",
    "DualVector.norm", "DualVector.scale_right",
    "EigenPair.__init__",
    "GainGraph.__init__", "GainGraph.balance_certificate", "GainGraph.gain",
    "GainGraph.gain_of_walk", "GainGraph.gains", "GainGraph.induced_subgraph",
    "GainGraph.is_antibalanced", "GainGraph.is_balanced", "GainGraph.negate",
    "GainGraph.switch",
    "GraphSyntaxError.__init__",
    "InterlacingReport.__init__", "InterlacingReport.to_dict",
    "NotUnitGainError.__init__",
    "PotentialCertificate.__init__",
    "Quaternion.__init__", "Quaternion.allclose", "Quaternion.complex_pair",
    "Quaternion.components", "Quaternion.conjugate", "Quaternion.from_complex_pair",
    "Quaternion.from_components", "Quaternion.inverse", "Quaternion.norm_sq",
    "Quaternion.vector_norm",
    "RadiusReport.__init__", "RadiusReport.to_dict",
    "Spectrum.__init__", "Spectrum.to_dict",
    "UnderlyingGraph.__init__", "UnderlyingGraph.adjacency",
    "UnderlyingGraph.components", "UnderlyingGraph.degrees",
    "UnderlyingGraph.has_edge", "UnderlyingGraph.is_connected",
    "UnderlyingGraph.max_degree", "UnderlyingGraph.neighbors",
    "adjacency_matrix", "char_poly_from_eigenvalues", "check_interlacing",
    "coefficients", "compare", "complete_graph", "cycle_graph",
    "cycle_spectrum_closed_form", "dual_cos", "dual_exp", "dual_geq", "dual_log",
    "enumerate_basic_subgraphs", "enumerate_cycles", "gain_matrix", "generate",
    "hermitian_eigendecomposition", "laplacian_matrix", "load",
    "mdet_via_subgraphs", "moore_determinant", "parse", "parse_dual_scalar",
    "path_graph", "path_spectrum_closed_form",
    "radius_report", "random_graph", "real_gain_of_cycle", "reduce_to_complex",
    "render_dual_scalar", "save", "serialize", "spectral_radius", "spectrum",
    "underlying_radius", "unit_nth_roots", "unit_to_angle",
    "sampling.random_balanced_gain_graph", "sampling.random_connected_graph",
    "sampling.random_dual_quaternion", "sampling.random_gain_graph",
    "sampling.random_hermitian_matrix", "sampling.random_scalar",
    "sampling.random_switching", "sampling.random_unbalanced_connected",
    "sampling.random_unit_scalar",
}

# positionals by name, optionals by flag; --help everywhere is left out
CLI_OPTIONS = {
    "spectrum": {"file", "--matrix", "--tol", "--format", "--out"},
    "balance": {"file", "--tol", "--format", "--out"},
    "radius": {"file", "--matrix", "--tol", "--format", "--out"},
    "interlace": {"file", "--matrix", "--tol", "--format", "--out", "--keep", "--drop"},
    "charpoly": {"file", "--tol", "--format", "--out"},
    "mdet": {"file", "--tol", "--format", "--out"},
    "cycle": {"--matrix", "--tol", "--format", "--out", "--n", "--ring", "--gain"},
    "path": {"--matrix", "--format", "--out", "--n"},
    "check": {"--format", "--out", "suite", "--trials", "--seed"},
    "generate": {"family", "--n", "--ring", "--gain", "--p", "--seed", "--out"},
    "convert": {"file", "--ring", "--tol", "--out"},
}


def _exported():
    """(qualified name, object): the public names of `dualgain`, and the
    functions defined in `dualgain.sampling` prefixed with `sampling.`."""
    for name, obj in vars(dualgain).items():
        yield name, obj
    for name, obj in vars(dualgain.sampling).items():
        if getattr(obj, "__module__", None) == "dualgain.sampling":
            yield f"sampling.{name}", obj


def _callables():
    """(qualified name, function) over the exported functions, and over the
    constructors, public methods, classmethods and staticmethods of the
    exported classes, those they inherit from a `dualgain` base included."""
    for name, obj in _exported():
        if name.rsplit(".", 1)[-1].startswith("_"):
            continue
        if inspect.isclass(obj):
            members = {}
            for base in reversed(obj.__mro__):
                if base.__module__.split(".")[0] == "dualgain":
                    members.update(vars(base))
            for attr, member in members.items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj):
            yield name, obj


def surface():
    return {(qualname, p.name, p.default)
            for qualname, fn in _callables()
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty}


def test_keyword_defaults_are_pinned():
    assert surface() == EXPECTED


def test_public_callables_are_pinned():
    assert {qualname for qualname, _ in _callables()} == PUBLIC_CALLABLES


def test_cli_options_are_pinned():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {flag for action in sub._actions
                      for flag in action.option_strings or [action.dest]} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert options == CLI_OPTIONS
