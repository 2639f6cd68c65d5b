"""Command-line front end.

Every run writes canonical JSON (or an aligned table) to stdout and a
reproducibility manifest (command line, parameters, tool version, digest of
the canonical output) to stderr or a file. Output is byte-identical across
repeated runs with the same flags.

Exit codes: 0 success, 2 usage error, 3 domain error (degenerate parameters,
singular limits), 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

try:  # the built-in module: hashlib would load OpenSSL's libcrypto for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .amplitudes import fourpoint_amplitudes, reconstruction_residual
from .channels import channel_coefficients, reduce_sixpoint, reduction_order
from .chiral_ops import (
    chiral_intertwiner,
    chiral_intertwiner_normalized,
    match_reduction,
    reduce_wave,
    verify_chiral_pde,
)
from .errors import ConsistencyError, DegenerateParameterError, SingularDiagonalError
from .gseries import completion_series, verify_biharmonic
from .positivity import positivity_report
from .sixpoint import build_structure, completion_series_2d, restrict_2d
from .special import format_rational, parse_rational
from .tensor_ops import assemble_tensor_intertwiner, solve_intertwiner_space, verify_tensor_pde
from .waves import ChiralWave, WaveSpec, casimir_residual, chiral_wave_series

USAGE_EXIT = 2
DOMAIN_EXIT = 3
INTERNAL_EXIT = 4


def canonical_json(obj) -> str:
    # every handler returns a fresh tree, so the circular-reference walk is waste
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _parse_rational_list(text: str) -> list[Fraction]:
    text = text.strip()
    if not text:
        return []
    return [parse_rational(part) for part in text.split(",")]


def _render_table(obj, indent=0) -> list[str]:
    rows = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                rows.append(f"{pad}{key}:")
                rows.extend(_render_table(val, indent + 1))
            else:
                rows.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                rows.extend(_render_table(item, indent + 1))
                rows.append(pad + "-")
            else:
                rows.append(f"{pad}{item}")
    else:
        rows.append(f"{pad}{obj}")
    return rows


# -- subcommand handlers -----------------------------------------------------


def _spec_from_args(args) -> WaveSpec:
    dims = _parse_rational_list(args.dims)
    proj = _parse_rational_list(args.proj) if args.proj else []
    if len(dims) != args.n:
        raise ValueError(f"--dims lists {len(dims)} values but --n is {args.n}")
    return WaveSpec.from_middle(dims, proj)


def cmd_wave(args) -> dict:
    spec = _spec_from_args(args)
    wave = chiral_wave_series(spec, args.cap)
    return wave.to_json()


def cmd_casimir_check(args) -> dict:
    spec = _spec_from_args(args)
    last = spec.n - 3  # one equation per cross ratio u_1..u_{n-3}
    if last >= 1 and not 0 <= args.which <= last:
        raise ValueError(f"--which must be in 0..{last} for n = {spec.n}, got {args.which}")
    wave = chiral_wave_series(spec, args.cap)
    # n = 3 asks for equation 1 too, which casimir_residual refuses
    which = [args.which] if args.which else range(1, max(last, 1) + 1)
    out = {"spec": spec.to_json(), "cap": args.cap, "residuals": {}}
    for w in which:
        res = casimir_residual(spec, wave, w, args.cap)
        out["residuals"][str(w)] = {
            "zero": res.is_zero(),
            "terms": res.to_json(),
        }
    return out


def cmd_intertwiner(args) -> dict:
    if args.flavor == "chiral":
        if args.normalized:
            op = chiral_intertwiner_normalized(args.h)
        elif args.d1 is None or args.d2 is None:
            raise ValueError("chiral operators need --d1 and --d2 (or --normalized)")
        else:
            op = chiral_intertwiner(args.h, parse_rational(args.d1), parse_rational(args.d2))
        residual_zero = verify_chiral_pde(op).is_zero()
        return {
            "kind": op.kind,
            "h": args.h,
            "coefficients": op.to_json(),
            "intertwines": residual_zero,
        }
    if args.d1 is not None or args.d2 is not None:
        if args.d1 is None or args.d2 is None:
            raise ValueError("tensor kernel solves need both --d1 and --d2")
        d1, d2 = parse_rational(args.d1), parse_rational(args.d2)
        basis = solve_intertwiner_space(args.kappa, args.L, d1, d2)
        return {
            "kappa": args.kappa,
            "L": args.L,
            "d1": format_rational(d1),
            "d2": format_rational(d2),
            "kernel_dimension": len(basis),
            "basis": [op.to_json() for op in basis],
        }
    op = assemble_tensor_intertwiner(args.kappa, args.L)
    return {
        "kappa": args.kappa,
        "L": args.L,
        "coefficients": op.to_json(),
        "intertwines": verify_tensor_pde(op).is_zero(),
    }


def cmd_reduce(args) -> dict:
    with open(args.wave, "r", encoding="utf-8") as fh:
        wave = ChiralWave.from_json(json.load(fh))
    i, j = args.pair
    op = chiral_intertwiner(args.h, wave.spec.d(i), wave.spec.d(j))
    reduced = reduce_wave(wave, (i, j), op)
    is_zero = reduced.terms.is_zero_function()
    out = {
        "pair": [i, j],
        "h": args.h,
        "reliable_order": reduced.reliable_cap,
        "zero": is_zero,
    }
    if not is_zero:
        lam = match_reduction(reduced, wave.spec, (i, j), args.h)
        out["matches_reduced_wave"] = lam is not None
        if lam is not None:
            out["constant"] = format_rational(lam)
        out["terms"] = reduced.terms.to_json()
    return out


def cmd_exotic(args) -> dict:
    if args.exotic_cmd == "build":
        s = build_structure(args.name)
        return {"name": s.name, "monomials": s.monomials.to_json()}
    if args.exotic_cmd == "g":
        g = completion_series(args.cap, args.method)
        out = {"cap": args.cap, "method": args.method, "series": g.to_json()}
        if args.check_biharmonic:
            out["biharmonic_residual_zero"] = verify_biharmonic(g).is_zero()
        return out
    if args.exotic_cmd == "coeff":
        value = channel_coefficients(args.hplus, args.hminus, args.structure)
        return {
            "structure": args.structure,
            "h_plus": args.hplus,
            "h_minus": args.hminus,
            "coefficient": format_rational(value),
        }
    if args.exotic_cmd == "restrict":
        r = restrict_2d(build_structure(args.name))
        out = r.to_json()
        out["name"] = r.name
        if args.cap:
            out["series"] = r.series(args.cap).to_json()
        return out
    if args.exotic_cmd == "reduce":
        weights = (args.hplus, args.hminus, args.hplusprime, args.hminusprime)
        # the series is built only as far as the reduction reads it; a negative
        # order (some h < 1) and a negative cap are left for the callees to refuse
        order = min(args.cap, max(reduction_order(*weights), 0))
        if args.structure == "B":
            series = restrict_2d(build_structure("B")).series(order)
        else:
            series = completion_series_2d(order)
        coeff, ref = reduce_sixpoint(series, *weights)
        return {
            "structure": args.structure,
            "weights": list(weights),
            "coefficient": format_rational(coeff),
            "reference": {
                "plus_exponents": {
                    f"{i},{j}": format_rational(e)
                    for (i, j), e in sorted(ref.chiral_exponents().items())
                },
            },
        }
    if args.exotic_cmd == "amplitudes":
        am = fourpoint_amplitudes(args.h, args.hprime, args.cap)
        out = am.to_json()
        out["reconstruction_residual_zero"] = reconstruction_residual(
            am, args.cap
        ).is_zero()
        return out
    if args.exotic_cmd == "positivity":
        rep = positivity_report(args.structure, args.hmax, args.kmax)
        return rep.to_json()
    raise ValueError(f"unknown exotic subcommand {args.exotic_cmd!r}")


# -- parser and dispatch -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting '-' and a digit, such as
    '-1/2' or '-1/2,0', as a value: no option name starts that way. Subparsers
    inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _pair(text: str) -> tuple[int, int]:
    """'i,j' as two ints; argparse names the option when this raises."""
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers 'i,j', got {text!r}") from None
    return i, j


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactcft",
        description="Exact chiral partial waves, intertwining operators, and"
        " six-point positivity data.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--manifest", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    wave = sub.add_parser("wave", help="n-point chiral partial wave series")
    wave.add_argument("--n", type=int, required=True)
    wave.add_argument("--dims", required=True, help="comma-separated d_1..d_n")
    wave.add_argument("--proj", default="", help="comma-separated a_2..a_{n-2}")
    wave.add_argument("--cap", type=int, default=6)
    wave.set_defaults(handler=cmd_wave)

    cas = sub.add_parser("casimir-check", help="invariant Casimir residuals")
    cas.add_argument("--n", type=int, required=True)
    cas.add_argument("--dims", required=True)
    cas.add_argument("--proj", default="")
    cas.add_argument("--cap", type=int, default=6)
    cas.add_argument("--which", type=int, default=0,
                     help="equation k in 1..n-3 (cross ratio u_k); 0 runs all of them")
    cas.set_defaults(handler=cmd_casimir_check)

    itw = sub.add_parser("intertwiner", help="intertwining operator tables")
    itw_sub = itw.add_subparsers(dest="flavor", required=True)
    ich = itw_sub.add_parser("chiral")
    ich.add_argument("--h", type=int, required=True)
    ich.add_argument("--d1")
    ich.add_argument("--d2")
    ich.add_argument("--normalized", action="store_true",
                     help="factorially renormalized channel variant")
    ich.set_defaults(handler=cmd_intertwiner)
    ite = itw_sub.add_parser("tensor")
    ite.add_argument("--kappa", type=int, required=True)
    ite.add_argument("--L", type=int, required=True)
    ite.add_argument("--d1")
    ite.add_argument("--d2")
    ite.set_defaults(handler=cmd_intertwiner)

    red = sub.add_parser("reduce", help="channel reduction of a wave JSON")
    red.add_argument("--wave", metavar="PATH", required=True)
    red.add_argument("--pair", type=_pair, default="1,2")
    red.add_argument("--h", type=int, required=True)
    red.set_defaults(handler=cmd_reduce)

    exo = sub.add_parser("exotic", help="six-point structures and their data")
    exo_sub = exo.add_subparsers(dest="exotic_cmd", required=True)
    b = exo_sub.add_parser("build")
    b.add_argument("--name", choices=("E6", "B", "BminusHalfE"), required=True)
    b.set_defaults(handler=cmd_exotic)
    gg = exo_sub.add_parser("g")
    gg.add_argument("--cap", type=int, required=True)
    gg.add_argument("--method", choices=("recursion", "closed"), default="closed")
    gg.add_argument("--check-biharmonic", action="store_true")
    gg.set_defaults(handler=cmd_exotic)
    co = exo_sub.add_parser("coeff")
    co.add_argument("--hplus", type=int, required=True)
    co.add_argument("--hminus", type=int, required=True)
    co.add_argument("--structure", choices=("B", "H"), required=True)
    co.set_defaults(handler=cmd_exotic)
    rs = exo_sub.add_parser("restrict")
    rs.add_argument("--name", choices=("E6", "B", "BminusHalfE"), required=True)
    rs.add_argument("--cap", type=int, default=0)
    rs.set_defaults(handler=cmd_exotic)
    rd = exo_sub.add_parser("reduce")
    rd.add_argument("--structure", choices=("B", "H"), required=True)
    rd.add_argument("--hplus", type=int, required=True)
    rd.add_argument("--hminus", type=int, required=True)
    rd.add_argument("--hplusprime", type=int, required=True)
    rd.add_argument("--hminusprime", type=int, required=True)
    rd.add_argument("--cap", type=int, default=12)
    rd.set_defaults(handler=cmd_exotic)
    am = exo_sub.add_parser("amplitudes")
    am.add_argument("--h", type=int, required=True)
    am.add_argument("--hprime", type=int, required=True)
    am.add_argument("--cap", type=int, default=8)
    am.set_defaults(handler=cmd_exotic)
    po = exo_sub.add_parser("positivity")
    po.add_argument("--structure", choices=("B", "H", "E2"), required=True)
    po.add_argument("--hmax", type=int, required=True)
    po.add_argument("--kmax", type=int, required=True)
    po.add_argument("--out", metavar="PATH", default=None)
    po.set_defaults(handler=cmd_exotic)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse strips the value of '--opt=--' and stores an empty list
    if any(isinstance(v, list) for v in vars(args).values()):
        parser.error("an option was given '--' as its value")
    try:
        _run(args, argv)
    except (DegenerateParameterError, SingularDiagonalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


def _run(args, argv: list[str]) -> None:
    """Run the handler, then write the output, the --out copy and the manifest."""
    output = args.handler(args)
    payload = canonical_json(output)
    if args.format == "table":
        text = "\n".join(_render_table(output))
    else:
        text = payload

    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    print(text)

    manifest = {
        "command": "exactcft " + " ".join(argv),
        "parameters": {
            k: str(v)
            for k, v in sorted(vars(args).items())
            if k not in ("handler",) and v is not None
        },
        "tool_version": __version__,
        "output_digest": sha256(payload.encode()).hexdigest(),
    }
    manifest_text = canonical_json(manifest)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest_text + "\n")
    else:
        print(manifest_text, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
