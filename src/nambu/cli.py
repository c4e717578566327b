"""Command-line frontend: checkers, classifier, synthesizer and integrator.

Exit codes: 0 = verdict true / success, 1 = verdict false (witness printed),
2 = input error.  ``--json`` switches the output to machine-readable JSON.

The input boundary is in one place.  Handlers and the library refuse input
by raising ``ValueError`` (or the ``ZeroDivisionError`` / ``OverflowError``
of a bad rational or float); ``main`` alone prints ``error: …`` for it and
returns 2, and so it does for ``dynamics.FlowAborted`` after the rows so far.
Every input file goes through ``_load``, which names the file in each
failure: unreadable, not UTF-8, not JSON, or not parseable.  ``KeyError``
and ``TypeError`` count as refusals only there, so a bug elsewhere still
fails loudly.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from fractions import Fraction

from . import bianchi, dynamics, njacobi, npoisson
from .multivector import derived_rank, is_decomposable, multivector_from_json
from .nlie import nlie_from_json, nlie_to_json
from .njacobi import jacobiop_from_json
from .poly import Poly


def _load(path: str, parse, what: str):
    """``parse`` applied to the JSON document in ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    try:
        return parse(data)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: invalid {what}: {exc}") from exc


def _emit(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2, default=str))
        return
    for key, value in data.items():
        print(f"{key}: {value}")


def _witness_str(witness) -> list[str] | None:
    if witness is None:
        return None
    return [str(w) for w in witness]


# -- subcommand handlers -------------------------------------------------------

def cmd_check_nlie(args) -> int:
    ok, witness = _load(args.file, nlie_from_json, "algebra data").check_n_jacobi()
    _emit({"verdict": ok,
           "witness": None if ok else {"u_indices": [i + 1 for i in witness[0]],
                                       "v_indices": [i + 1 for i in witness[1]]}},
          args.json)
    return 0 if ok else 1


def cmd_check_poisson(args) -> int:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be ≥ 0, got {args.max_degree}")
    v = _load(args.file, multivector_from_json, "multivector data")
    if v.degree < 2:
        raise ValueError(f"{args.file}: the fundamental identity needs degree ≥ 2")
    if args.max_degree:
        npoisson.bound_casimir_work(v, args.max_degree)
    ok, witness = npoisson.is_n_poisson(v)
    out = {
        "verdict": ok,
        "witness": _witness_str(witness),
        "decomposable": npoisson.decomposable_given(v, ok),
        "rank_at_origin": derived_rank(v, [0] * v.num_vars),
    }
    if ok and args.max_degree:
        casimirs = npoisson.casimir_polynomials(v, args.max_degree)
        out["casimirs"] = [str(c) for c in casimirs]
    _emit(out, args.json)
    return 0 if ok else 1


def cmd_check_jacobi(args) -> int:
    op = _load(args.file, jacobiop_from_json, "operator pair")
    ok, witness = njacobi.is_n_jacobi(op)
    box_poisson = None
    if op.box.degree >= 2:
        box_poisson = npoisson.is_n_poisson(op.box)[0]
    _emit({"verdict": ok,
           "witness": _witness_str(witness),
           "box_poisson": box_poisson,
           "nabla_decomposable": is_decomposable(op.nabla)
           if op.nabla.degree >= 2 else None},
          args.json)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    p = _load(args.file, nlie_from_json, "algebra data")
    label = bianchi.classify(p)
    form = bianchi.generating_form(p)
    _emit({"label": str(label),
           "label_json": label.to_json(),
           "generating_form": [[str(x) for x in row] for row in form],
           "unimodular": bianchi.is_unimodular(p)},
          args.json)
    return 0


def cmd_derivations(args) -> int:
    basis = bianchi.derivation_algebra(_load(args.file, nlie_from_json, "algebra data"))
    _emit({"dimension": len(basis),
           "basis": [[[str(x) for x in row] for row in mat] for mat in basis]},
          args.json)
    return 0


def cmd_synthesize(args) -> int:
    if args.kind == "unimodular":
        if args.r is None or args.m is None or args.lam is not None:
            raise ValueError("unimodular labels take --r and --m, not --lambda")
        label = bianchi.unimodular_label(args.r, args.m)
    else:
        if args.r is not None or args.m is not None:
            raise ValueError(f"{args.kind} labels take no --r or --m")
        label = bianchi.parse_psi_label(args.kind, args.lam)
    print(json.dumps(nlie_to_json(bianchi.synthesize(label, args.arity)), indent=2))
    return 0


def cmd_compat(args) -> int:
    p = _load(args.file, nlie_from_json, "algebra data")
    ok, witness = p.compat(_load(args.file2, nlie_from_json, "algebra data"))
    _emit({"verdict": ok,
           "witness": None if ok else {"u_indices": [i + 1 for i in witness[0]],
                                       "w_indices": [i + 1 for i in witness[1]]}},
          args.json)
    return 0 if ok else 1


def cmd_hereditary(args) -> int:
    p = _load(args.file, nlie_from_json, "algebra data")
    try:
        vectors = [[Fraction(x) for x in chunk.split(",")]
                   for chunk in args.freeze.split(";")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid --freeze argument: {exc}") from exc
    print(json.dumps(nlie_to_json(p.hereditary(vectors)), indent=2))
    return 0


def _rationals(text: str, flag: str, count: int) -> list[Fraction]:
    try:
        values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag} needs comma-separated rationals: {exc}") from exc
    if len(values) != count:
        raise ValueError(f"{flag}: expected {count} value(s), got {len(values)}")
    return values


def _nambu_system(data: dict) -> dynamics.NambuSystem:
    tensor = multivector_from_json(data["tensor"])
    return dynamics.NambuSystem(tensor, tuple(Poly.from_json(h, tensor.num_vars)
                                              for h in data["hamiltonians"]))


def cmd_integrate(args) -> int:
    if args.builtin == "kepler":
        sys_ = dynamics.KeplerSystem(args.mass, args.k_const)
        field, monitors, dim = sys_.field(), list(sys_.hamiltonians), 6
    else:
        if args.builtin == "spin":
            b = tuple(_rationals(args.b_field, "--B", 3))
            (mu,) = _rationals(args.mu, "--mu", 1)
            nambu_sys = dynamics.SpinSystem(b, mu).nambu()
        elif args.system:
            nambu_sys = _load(args.system, _nambu_system, "system file")
        else:
            raise ValueError("need --builtin spin|kepler or --system FILE")
        field = nambu_sys.dynamics_field()
        monitors, dim = list(nambu_sys.hamiltonians), nambu_sys.tensor.num_vars
    if args.x0 is None:
        raise ValueError("--x0 is required")
    x0 = _rationals(args.x0, "--x0", dim)
    blocks = dynamics.rk4_blocks(field, x0, args.step, args.steps, monitors)
    try:  # raw float errors need the name of the stage
        if args.builtin == "kepler":
            sys_.nu(x0)  # ΣJ is conserved, so only the start can be singular
        first = next(blocks)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot integrate: {exc}") from exc
    header = ["t"] + [f"x{i + 1}" for i in range(dim)] \
        + [f"drift{i + 1}" for i in range(len(monitors))]
    row = ",".join(["{:.12g}"] * len(header)).format
    write = sys.stdout.write
    write(",".join(header) + "\n")
    for times, states, rows in itertools.chain([first], blocks):
        write("".join([row(t, *state, *drifts) + "\n" for t, state, drifts
                       in zip(times, states, rows)]))
    return 0


def cmd_witt_demo(args) -> int:
    ok, brackets = bianchi.witt_embedding_check()
    _emit({"verdict": ok, **{k: str(v) for k, v in brackets.items()}}, args.json)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nambu",
        description="Exact computations with n-Lie algebras, Nambu-Poisson "
                    "tensors and n-Jacobi operators.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-nlie", help="verify the n-ary Jacobi identity")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_nlie)

    p = sub.add_parser("check-poisson", help="verify the fundamental identity")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=0,
                   help="also search polynomial Casimirs up to this degree")
    p.set_defaults(func=cmd_check_poisson)

    p = sub.add_parser("check-jacobi", help="verify the n-Jacobi property of a pair")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_jacobi)

    p = sub.add_parser("classify", help="label an (n+1)-dimensional n-Lie algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    p.add_argument("file")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("synthesize", help="build an algebra from a label")
    p.add_argument("--kind", required=True,
                   choices=["unimodular", "psi_plus", "psi_minus",
                            "psi_one", "psi_zero"])
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lambda", dest="lam", help="λ as p/q, or sqrt(q) for λ² = q")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("compat", help="compatibility of two structures")
    p.add_argument("file")
    p.add_argument("file2")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("hereditary", help="freeze arguments of a bracket")
    p.add_argument("file")
    p.add_argument("--freeze", required=True,
                   help="semicolon-separated vectors of comma-separated rationals")
    p.set_defaults(func=cmd_hereditary)

    p = sub.add_parser("integrate", help="RK4 integration with drift monitoring")
    p.add_argument("--builtin", choices=["spin", "kepler"])
    p.add_argument("--system", help="JSON file with {tensor, hamiltonians}")
    p.add_argument("--B", dest="b_field", default="0,0,1")
    p.add_argument("--mu", default="1")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--k", dest="k_const", type=float, default=1.0)
    p.add_argument("--x0")
    p.add_argument("--h", dest="step", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("witt-demo", help="the quadric-generated bracket demo")
    p.set_defaults(func=cmd_witt_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError, dynamics.FlowAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
