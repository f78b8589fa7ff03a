"""The public option surface: every parameter with a default value on the
functions, classes and public methods that `dualgain` and
`dualgain.sampling` export.

Each default is a setting a caller can change, so the set below is the
library's knob count.  A parameter that gains or loses a default, or a
default that changes value, shows up here as a deliberate edit.
"""

import inspect

import dualgain
import dualgain.sampling

EXPECTED = {
    # tolerances of scalar, vector and matrix tests, which callers set
    ("DualMatrix.allclose", "tol", 1e-12),
    ("DualMatrix.is_hermitian", "tol", 1e-09),
    ("DualNumber.allclose", "tol", 1e-12),
    ("DualNumber.inverse", "tol", 1e-12),
    ("DualNumber.is_zero", "tol", 1e-12),
    ("DualNumber.magnitude", "tol", 1e-12),
    ("DualNumber.sqrt", "tol", 1e-12),
    ("DualScalar.allclose", "tol", 1e-12),
    ("DualScalar.inverse", "tol", 1e-12),
    ("DualScalar.is_appreciable", "tol", 1e-12),
    ("DualScalar.is_unit", "tol", 1e-12),
    ("DualScalar.magnitude", "tol", 1e-12),
    ("DualVector.allclose", "tol", 1e-12),
    ("DualVector.is_appreciable", "tol", 1e-12),
    ("DualVector.norm", "tol", 1e-12),
    ("Quaternion.allclose", "tol", 1e-12),
    ("Quaternion.is_real", "tol", 0.0),
    ("dual_geq", "tol", 0.0),
    ("dual_log", "tol", 1e-12),
    ("reduce_to_complex", "tol", 1e-12),
    ("unit_nth_roots", "tol", 1e-09),
    ("unit_to_angle", "tol", 1e-09),
    # the unit/balance tolerance a graph is validated under and keeps, and
    # the unit test of a closed-form cycle gain
    ("GainGraph.__init__", "tol", 1e-09),
    ("GainGraph.build", "tol", 1e-09),
    ("cycle_spectrum_closed_form", "tol", 1e-09),
    ("load", "tol", 1e-09),
    ("parse", "tol", 1e-09),
    # what to compute
    ("Spectrum.to_dict", "include_vectors", False),
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
    ("DualMatrix.zeros", "n_cols", None),
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
    ("GainGraph.build", "ring", None),
    ("GraphSyntaxError.__init__", "line", None),
    ("NotUnitGainError.__init__", "message", None),
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
    ("sampling.random_hermitian_matrix", "scale", 1.0),
    ("sampling.random_scalar", "scale", 1.0),
    ("sampling.random_unbalanced_connected", "extra_edges", 2),
    ("sampling.random_unbalanced_connected", "max_tries", 256),
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
    exported classes."""
    for name, obj in _exported():
        if name.rsplit(".", 1)[-1].startswith("_"):
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
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
