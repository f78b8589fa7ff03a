"""Command-line front door.

Subcommands: spectrum, balance, radius, interlace, charpoly, mdet, cycle,
path, check, generate, convert.  Exit codes: 0 success, 1 a check suite
found a property violation, 2 input error or any other failure, reported as
one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from itertools import chain

import numpy as np

from . import _rings as rings
from . import char_poly, graph_io, linalg, sampling, spectra
from .errors import BadParameterError, DualGainError
from .gain_graph import GainGraph, _vertex_subset
from .scalars import (
    DualNumber,
    DualScalar,
    RING_COMPLEX,
    RING_QUATERNION,
    RINGS,
    UNIT_TOL,
    parse_dual_scalar,
    render_dual_scalar,
)
from .transcendental import reduce_to_complex


def _fmt_dual(v: DualNumber) -> str:
    sign = "+" if v.dual >= 0 else "-"
    return f"{v.std:.12g} {sign} {abs(v.dual):.12g}·eps"


def _emit(args, answer) -> None:
    """Write one answer to --out or stdout: a dict as an indented JSON
    document, any other iterable as table lines."""
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if isinstance(answer, dict):
            graph_io._write_json(answer, fh.write)
        else:
            fh.writelines(line + "\n" for line in answer)


def _emit_spectrum(args, title: str, spec) -> None:
    _emit(args, spec.to_dict() if args.format == "json"
          else chain([title], (f"  {_fmt_dual(v)}" for v in spec.values)))


def _load(args) -> GainGraph:
    return graph_io.load(args.file, tol=args.tol)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args) -> int:
    phi = _load(args)
    spec = spectra.spectrum(phi, args.matrix, with_vectors=False)
    _emit_spectrum(args, f"{args.matrix} spectrum ({len(spec)} eigenvalues, descending):", spec)
    return 0


def _cmd_balance(args) -> int:
    phi = _load(args)
    cert = phi.balance_certificate()
    if cert.balanced:
        theta = [render_dual_scalar(t) for t in cert.theta]
        _emit(args, {"balanced": True, "theta": theta} if args.format == "json"
              else ["balanced", *(f"  theta[{i}] = {t}" for i, t in enumerate(theta))])
    else:
        cycle = list(cert.witness_cycle)
        _emit(args, {"balanced": False, "witness_cycle": cycle} if args.format == "json"
              else ["unbalanced", f"  witness cycle: {' -> '.join(str(v) for v in cycle)}"])
    return 0


def _cmd_radius(args) -> int:
    phi = _load(args)
    report = spectra.radius_report(phi, args.matrix)
    _emit(args, report.to_dict() if args.format == "json" else [
        f"{args.matrix} radius report:",
        f"  rho(gain graph)   = {_fmt_dual(report.rho_gain)}",
        f"  rho(underlying)   = {report.rho_graph:.12g}",
        f"  degree bound      = {report.delta_bound:.12g}",
        f"  bound holds       = {report.bound_holds}",
        f"  delta bound holds = {report.delta_bound_holds}",
        f"  equality          = {report.equality}",
        f"  connected         = {report.connected}",
        f"  balanced          = {report.balanced}",
        f"  antibalanced      = {report.antibalanced}",
        f"  equality predicted= {report.equality_predicted}",
        f"  consistent        = {report.consistent}",
        f"  paper rule holds  = {report.paper_rule_holds}",
    ])
    return 0


def _vertex_list(text: str) -> list:
    """The vertices of a comma-separated --keep or --drop list."""
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _cmd_interlace(args) -> int:
    phi = _load(args)
    if args.keep:
        subset = _vertex_list(args.keep)
    elif args.drop:
        dropped = set(_vertex_subset(phi.n, _vertex_list(args.drop)))
        subset = [v for v in range(phi.n) if v not in dropped]
    else:
        subset = list(range(phi.n - 1))
    report = spectra.check_interlacing(phi, subset, args.matrix)
    shift = len(report.values_full) - len(report.values_sub)
    _emit(args, report.to_dict() if args.format == "json" else [
        f"{args.matrix} interlacing on subset {list(report.subset)}: "
        f"{'holds' if report.holds else 'VIOLATED'}",
        *(f"  lambda_{i + 1} >= mu_{i + 1} >= lambda_{shift + i + 1}: "
          f"{report.upper_ok[i]} / {report.lower_ok[i]}   (mu = {_fmt_dual(mu)})"
          for i, mu in enumerate(report.values_sub))])
    return 0


def _cmd_charpoly(args) -> int:
    phi = _load(args)
    coeffs = char_poly.coefficients(phi)
    eig = spectra.spectrum(phi, spectra.KIND_ADJACENCY, with_vectors=False).values
    from_eigs = char_poly.char_poly_from_eigenvalues(eig)
    max_err = max((abs(c.std - e.std) + abs(c.dual - e.dual)
                   for c, e in zip(coeffs, from_eigs)), default=0.0)
    if args.format == "json":
        _emit(args, {"coefficients": [{"std": c.std, "dual": c.dual} for c in coeffs],
                     "from_eigenvalues": [{"std": c.std, "dual": c.dual} for c in from_eigs],
                     "max_error": max_err})
    else:
        _emit(args, ["characteristic polynomial coefficients c_1..c_n:",
                     *(f"  c_{i + 1} = {_fmt_dual(c)}" for i, c in enumerate(coeffs)),
                     f"eigenvalue cross-check max error: {max_err:.3e}"])
    return 0


def _cmd_mdet(args) -> int:
    phi = _load(args)
    direct = linalg.moore_determinant(spectra.adjacency_matrix(phi))
    via = char_poly.mdet_via_subgraphs(phi)
    if args.format == "json":
        _emit(args, {"moore_determinant": dict(zip(("std", "dual"), direct.components())),
                     "via_subgraphs": dict(zip(("std", "dual"), via.components()))})
    else:
        _emit(args, [f"Moore determinant (permutation sum): {render_dual_scalar(direct)}",
                     f"Moore determinant (basic subgraphs): {render_dual_scalar(via)}"])
    return 0


def _cmd_cycle(args) -> int:
    gain = parse_dual_scalar(args.gain, args.ring)
    spec = spectra.cycle_spectrum_closed_form(args.n, gain, args.matrix, tol=args.tol)
    _emit_spectrum(args, f"closed-form {args.matrix} spectrum of the {args.n}-cycle "
                         f"with gain {render_dual_scalar(gain)}:", spec)
    return 0


def _cmd_path(args) -> int:
    spec = spectra.path_spectrum_closed_form(args.n, args.matrix)
    _emit_spectrum(args, f"closed-form {args.matrix} spectrum of the {args.n}-path:", spec)
    return 0


def _cmd_generate(args) -> int:
    gain = None if args.gain is None else parse_dual_scalar(args.gain, args.ring)
    phi = graph_io.generate(args.family, n=args.n, ring=args.ring, gain=gain,
                            p=args.p, seed=args.seed)
    _emit(args, graph_io._document(phi))
    return 0


def _cmd_convert(args) -> int:
    phi = _load(args)
    if args.ring:
        if RINGS.index(args.ring) < RINGS.index(phi.ring):
            raise BadParameterError(f"cannot narrow {phi.ring} to {args.ring}")
        widened = tuple(rings.widen(phi.ring, part, args.ring) for part in (phi.std, phi.dual))
        phi = GainGraph(phi.graph, args.ring, widened, phi.tol)
    _emit(args, graph_io._document(phi))
    return 0


# ---------------------------------------------------------------------------
# property-check suites


def _spectra_close(a, b, tol):
    return len(a) == len(b) and bool(
        (np.abs(a.std - b.std) <= tol).all() and (np.abs(a.dual - b.dual) <= tol).all())


def _random_connected(rng, ring, lo, hi):
    """A random connected gain graph on lo..hi-1 vertices."""
    n = int(rng.integers(lo, hi))
    return sampling.random_gain_graph(
        rng, sampling.random_connected_graph(rng, n, int(rng.integers(0, 3))), ring)


# Each trial function takes (rng, trial) and returns None when the trial
# passes, or (counterexample graph or None, message) when it fails.


def _trial_interlacing(rng, trial):
    phi = _random_connected(rng, RINGS[trial % 3], 3, 9)
    k = int(rng.integers(1, phi.n))
    subset = sorted(rng.choice(phi.n, size=k, replace=False).tolist())
    for kind in spectra._KINDS:
        if not spectra.check_interlacing(phi, subset, kind).holds:
            return phi, f"{kind} interlacing violated on subset {subset}"
    return None


def _trial_switching(rng, trial):
    ring = RINGS[trial % 3]
    phi = _random_connected(rng, ring, 3, 9)
    switched = phi.switch(sampling.random_switching(rng, ring, phi.n))
    for kind in spectra._KINDS:
        before = spectra.spectrum(phi, kind, with_vectors=False)
        after = spectra.spectrum(switched, kind, with_vectors=False)
        if not _spectra_close(before, after, 1e-9):
            return phi, f"{kind} spectrum changed under switching"
    return None


def _trial_radius_bounds(rng, trial):
    phi = _random_connected(rng, RINGS[trial % 3], 3, 9)
    for kind in spectra._KINDS:
        report = spectra.radius_report(phi, kind)
        if not (report.bound_holds and report.delta_bound_holds):
            return phi, f"{kind} radius bound violated"
        if report.rho_graph > report.delta_bound + 1e-12:
            return phi, f"{kind} underlying radius exceeds degree bound"
        if report.consistent is False:
            return phi, f"{kind} equality and standard-part balance disagree"
    return None


def _trial_mdet_product(rng, trial):
    phi = _random_connected(rng, RINGS[trial % 3], 2, 7)
    direct = linalg.moore_determinant(spectra.adjacency_matrix(phi)).real_part()
    via = char_poly.mdet_via_subgraphs(phi).real_part()
    prod = DualNumber.one()
    for v in spectra.spectrum(phi, with_vectors=False).values:
        prod = prod * v
    if not (direct.allclose(via, 1e-8) and direct.allclose(prod, 1e-8)):
        return phi, "Moore determinant disagreement"
    return None


def _trial_coefficient(rng, trial):
    phi = _random_connected(rng, RINGS[trial % 3], 2, 8)
    coeffs = char_poly.coefficients(phi)
    eig = spectra.spectrum(phi, with_vectors=False).values
    expected = char_poly.char_poly_from_eigenvalues(eig)
    if not all(c.allclose(e, 1e-8) for c, e in zip(coeffs, expected)):
        return phi, "coefficient theorem disagreement"
    return None


_DQ_KINDS = ("generic", "real_std", "complex_form", "dual_real", "negative_i_axis")


def _trial_dq2dc(rng, trial):
    q = sampling.random_dual_quaternion(rng, _DQ_KINDS[trial % len(_DQ_KINDS)])
    a, u = reduce_to_complex(q)
    residual = a.widen(RING_QUATERNION) - u.conjugate() * q * u
    ok = (max(abs(c) for part in residual.components() for c in part) <= 1e-12
          and u.is_unit(1e-12)
          and a.real_part().allclose(q.real_part(), 1e-12)
          and _imag_magnitude(a).allclose(_imag_magnitude(q), 1e-12))
    if not ok:
        return None, f"reduction failed for {render_dual_scalar(q)}"
    return None


def _imag_magnitude(x: DualScalar) -> DualNumber:
    return (x - x.real_part().to_scalar(x.ring)).magnitude()


def _trial_closed_forms(rng, trial):
    ring = RINGS[trial % 3]
    n = int(rng.integers(3, 11))
    cyc = sampling.random_gain_graph(
        rng, graph_io.cycle_graph(n, DualScalar.one(ring)).graph, ring)
    q = cyc.gain_of_walk(list(range(n)) + [0])
    tol = 1e-8 if ring == RING_QUATERNION else 1e-9
    for kind in spectra._KINDS:
        closed = spectra.cycle_spectrum_closed_form(n, q, kind)
        dense = spectra.spectrum(cyc, kind, with_vectors=False)
        if not _spectra_close(closed, dense, tol):
            return cyc, f"cycle {kind} closed form disagrees"
    pat = sampling.random_gain_graph(rng, graph_io.path_graph(n, ring).graph, ring)
    for kind in spectra._KINDS:
        closed = spectra.path_spectrum_closed_form(n, kind)
        dense = spectra.spectrum(pat, kind, with_vectors=False)
        if not _spectra_close(closed, dense, 1e-9):
            return pat, f"path {kind} closed form disagrees"
    return None


def _run_suite(trial_fn, trials, seed):
    """(failed trial, graph or None, message) for the first failing trial,
    or None when all pass; trial t draws from the generator [seed, t]."""
    for trial in range(trials):
        failure = trial_fn(np.random.default_rng([seed, trial]), trial)
        if failure is not None:
            return (trial, *failure)
    return None


_SUITES = {name: functools.partial(_run_suite, trial_fn) for name, trial_fn in {
    "interlacing": _trial_interlacing,
    "switching-invariance": _trial_switching,
    "radius-bounds": _trial_radius_bounds,
    "mdet-product": _trial_mdet_product,
    "coefficient": _trial_coefficient,
    "dq2dc": _trial_dq2dc,
    "closed-forms": _trial_closed_forms,
}.items()}


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise BadParameterError(f"--trials must be at least 1, got {args.trials}")
    failure = _SUITES[args.suite](args.trials, args.seed)
    payload = {"suite": args.suite, "trials": args.trials}
    if failure is None:
        payload.update(passes=args.trials, failures=0)
        _emit(args, payload if args.format == "json" else
              [f"check {args.suite}: {args.trials}/{args.trials} trials passed"])
        return 0
    trial, phi, message = failure
    counterexample = graph_io.serialize(phi) if phi is not None else None
    payload.update(passes=trial, failures=1, failed_trial=trial, message=message,
                   counterexample=counterexample)
    _emit(args, payload if args.format == "json" else
          [f"check {args.suite}: FAILED at trial {trial} ({message})",
           *(["counterexample:", counterexample.removesuffix("\n")] if counterexample else [])])
    return 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgain",
        description="Spectra, balance and determinants of dual unit gain graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True, with_matrix=True, with_tol=True):
        if with_file:
            p.add_argument("file", help="gain graph file (.ggf)")
        if with_matrix:
            p.add_argument("--matrix", choices=spectra._KINDS,
                           default="adjacency")
        if with_tol:
            p.add_argument("--tol", type=float, default=UNIT_TOL,
                           help="unit/balance tolerance (default %(default)g)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    add_common(sub.add_parser("spectrum", help="sorted dual eigenvalues"))
    add_common(sub.add_parser("balance", help="balance certificate or witness cycle"),
               with_matrix=False)
    add_common(sub.add_parser("radius", help="spectral radius bounds report"))
    p = sub.add_parser("interlace", help="induced-subgraph interlacing check")
    add_common(p)
    subset = p.add_mutually_exclusive_group()
    subset.add_argument("--keep", default=None, help="comma-separated vertices to keep")
    subset.add_argument("--drop", default=None, help="comma-separated vertices to drop")
    add_common(sub.add_parser("charpoly", help="coefficient-theorem coefficients"),
               with_matrix=False)
    add_common(sub.add_parser("mdet", help="Moore determinant, both routes"),
               with_matrix=False)

    p = sub.add_parser("cycle", help="closed-form cycle spectrum")
    add_common(p, with_file=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", choices=RINGS, default=RING_COMPLEX)
    p.add_argument("--gain", required=True,
                   help="total cycle gain, e.g. \"(0+1i) + (0+0i)*eps\"")

    p = sub.add_parser("path", help="closed-form path spectrum")
    add_common(p, with_file=False, with_tol=False)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check", help="run a named property suite")
    add_common(p, with_file=False, with_matrix=False, with_tol=False)
    # fixed when the parser is first built: `run` reuses that parser, so a
    # name added to _SUITES afterwards is refused here (dispatch reads
    # _SUITES at call time, so a replaced suite does run)
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("generate", help="write a named family to a file")
    p.add_argument("family", choices=("path", "cycle", "complete", "random"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", choices=RINGS, default=RING_COMPLEX)
    p.add_argument("--gain", default=None, help="cycle gain (cycle family only)")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("convert", help="re-serialize a file, optionally widening the ring")
    p.add_argument("file")
    p.add_argument("--ring", choices=RINGS, default=None)
    p.add_argument("--tol", type=float, default=UNIT_TOL)
    p.add_argument("--out", default=None)
    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "balance": _cmd_balance,
    "radius": _cmd_radius,
    "interlace": _cmd_interlace,
    "charpoly": _cmd_charpoly,
    "mdet": _cmd_mdet,
    "cycle": _cmd_cycle,
    "path": _cmd_path,
    "check": _cmd_check,
    "generate": _cmd_generate,
    "convert": _cmd_convert,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser behind `run`: built on the first call, not at import, and
    reused, since argparse keeps no per-parse state on it."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (DualGainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a library fault still keeps the exit contract
        detail = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
