"""The correctness gate: each answer against the expected one.

`check` returns None for a correct answer and a one-line reason otherwise.
A nonzero exit status or an exception is a failure before any comparison.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref
from gen import read_ggf


def _spectrum(got, exp):
    return ref.spectrum_mismatch(got[0], got[1], (np.array(exp["std"]), np.array(exp["dual"])),
                                 exp["tols"])


def _values(dual_numbers):
    return [v.std for v in dual_numbers], [v.dual for v in dual_numbers]


def _interlace(holds, full, sub, exp):
    if holds is not True:
        return "interlacing reported as violated"
    return _spectrum(full, exp["full"]) or _spectrum(sub, exp["sub"])


def _coefficients(coeffs, exp):
    got_s = np.array([c["std"] for c in coeffs])
    got_d = np.array([c["dual"] for c in coeffs])
    tol = np.array(exp["tol"])
    if got_s.shape != tol.shape:
        return f"{got_s.size} coefficients, expected {tol.size}"
    bad = (np.abs(got_s - exp["std"]) > tol) | (np.abs(got_d - exp["dual"]) > tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return f"c_{i + 1} = {float(got_s[i])!r} + {float(got_d[i])!r} eps, expected " \
               f"{exp['std'][i]!r} + {exp['dual'][i]!r} eps"
    return None


def _mdet(value, exp):
    std, dual = value["std"], value["dual"]
    tol = exp["tol"]
    if abs(std[0] - exp["std"]) > tol or abs(dual[0] - exp["dual"]) > tol:
        return f"Mdet {std[0]!r} + {dual[0]!r} eps, expected {exp['std']!r} + {exp['dual']!r} eps"
    rest = std[1:] + dual[1:]
    if rest and max(abs(c) for c in rest) > tol:
        return "Mdet has a non-real part"
    return None


def check_cli(exp, status, stdout, graph_path=None):
    if status != 0:
        return f"exit status {status}"
    kind = exp["type"]
    if kind == "convert":
        with open(exp["out"], encoding="utf-8") as fh:
            return ref.ggf_widened_mismatch(fh.read(), read_ggf(graph_path))
    doc = json.loads(stdout)
    if kind == "spectrum":
        return _spectrum(ref.as_arrays(doc["values"]), exp)
    if kind == "balance":
        if doc["balanced"] is not exp["balanced"]:
            return f"balanced = {doc['balanced']}, constructed {exp['balanced']}"
        return None
    if kind == "radius":
        for flag in ("balanced", "antibalanced"):
            if doc[flag] is not exp[flag]:
                return f"{flag} = {doc[flag]}, constructed {exp[flag]}"
        if not (doc["bound_holds"] and doc["delta_bound_holds"] and doc["connected"]):
            return "radius bound or connectivity reported false"
        if abs(doc["rho_graph"] - exp["rho_graph"]) > exp["tols"][0]:
            return f"rho_graph {doc['rho_graph']!r} != {exp['rho_graph']!r}"
        exp_arrays = (np.array(exp["std"]), np.array(exp["dual"]))
        return ref.radius_mismatch(doc["rho_gain"]["std"], doc["rho_gain"]["dual"],
                                   exp_arrays, exp["tols"])
    if kind == "interlace":
        return _interlace(doc["holds"], ref.as_arrays(doc["values_full"]),
                          ref.as_arrays(doc["values_sub"]), exp)
    if kind == "check":
        if doc["passes"] != exp["trials"] or doc["failures"] != 0:
            return f"suite passed {doc['passes']}/{exp['trials']} trials"
        return None
    if kind == "charpoly":
        return _coefficients(doc["coefficients"], exp) or _coefficients(
            doc["from_eigenvalues"], exp)
    if kind == "mdet":
        return _mdet(doc["moore_determinant"], exp) or _mdet(doc["via_subgraphs"], exp)
    return f"unknown expectation {kind!r}"


def check_spectrum(exp, spec):
    if spec.vectors is None or len(spec.vectors) != len(spec.values):
        return "eigenvectors missing"
    return _spectrum(_values(spec.values), exp)


def check_interlacing(exp, report):
    return _interlace(report.holds, _values(report.values_full),
                      _values(report.values_sub), exp)
