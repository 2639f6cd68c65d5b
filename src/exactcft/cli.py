"""Command-line front end.

Every run writes canonical JSON (or an aligned table) to stdout and a
reproducibility manifest (command line, parameters, tool version, digest of
the canonical output) to stderr or a file. Output is byte-identical across
repeated runs with the same flags.

Exit codes: 0 success, 2 usage error, 3 domain error (degenerate parameters,
singular limits), 4 internal consistency failure, 141 stdout closed early
(128 + SIGPIPE, no message). Run as a program, it imports only its command's modules.
"""

from __future__ import annotations

import json
import sys
from math import comb
from types import SimpleNamespace

try:  # the built-in module: hashlib would load OpenSSL's libcrypto for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .errors import ConsistencyError, DegenerateParameterError, SingularDiagonalError
from .special import format_rational, parse_rational

USAGE_EXIT = 2
DOMAIN_EXIT = 3
INTERNAL_EXIT = 4
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
SERIES_TERM_BUDGET = 100_000  # wave terms a run may ask for: about 1 s and 90 MiB at n = 12


def canonical_json(obj) -> str:
    # every handler returns a fresh tree, so the circular-reference walk is waste
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _parse_rational_list(text: str) -> list:
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


def _spec_from_args(args):
    # C(cap + n - 3, n - 3) exponent tuples of total order <= cap; n < 3 and cap < 0 are refused later.
    # The count passes C(130, 65) when both n - 3 and cap pass 64, and max(n - 3, cap) when both are
    # >= 1: far above the budget, it is refused uncounted (the product takes seconds at min(n - 3, cap)
    # = 10**5, and its digits can pass str's 4,300-digit limit)
    low, high = sorted((args.n - 3, args.cap))
    if low > 64 or (low > 0 and high > SERIES_TERM_BUDGET):
        raise ValueError(f"--n {args.n} --cap {args.cap} asks for more series terms than the budget"
                         f" of {SERIES_TERM_BUDGET}")
    terms = comb(low + high, low) if low >= 0 else 0
    if terms > SERIES_TERM_BUDGET:
        raise ValueError(f"--n {args.n} --cap {args.cap} asks for {terms} series terms,"
                         f" above the budget of {SERIES_TERM_BUDGET}")
    # the budget needs only --n and --cap, so a refused request parses no value
    dims = _parse_rational_list(args.dims)
    proj = _parse_rational_list(args.proj) if args.proj else []
    if len(dims) != args.n:
        raise ValueError(f"--dims lists {len(dims)} values but --n is {args.n}")
    from .waves import WaveSpec  # after parsing: a malformed value exits 2 without compiling waves
    return WaveSpec.from_middle(dims, proj)


def cmd_wave(args) -> dict:
    spec = _spec_from_args(args)
    from .waves import chiral_wave_series
    wave = chiral_wave_series(spec, args.cap)
    return wave.to_json()


def cmd_casimir_check(args) -> dict:
    spec = _spec_from_args(args)
    from .waves import casimir_residual, chiral_wave_series
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
        from .chiral_ops import chiral_intertwiner, chiral_intertwiner_normalized, verify_chiral_pde
        if args.normalized:
            op = chiral_intertwiner_normalized(args.h)
        elif args.d1 is None or args.d2 is None:
            raise ValueError("chiral operators need --d1 and --d2 (or --normalized)")
        else:
            op = chiral_intertwiner(args.h, parse_rational(args.d1), parse_rational(args.d2))
        return {
            "kind": op.kind,
            "h": args.h,
            "coefficients": op.to_json(),
            "intertwines": not verify_chiral_pde(op),
        }
    from .tensor_ops import assemble_tensor_intertwiner, solve_intertwiner_space, verify_tensor_pde
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
        "intertwines": not verify_tensor_pde(op),
    }


def cmd_reduce(args) -> dict:
    from .waves import ChiralWave
    with open(args.wave, "r", encoding="utf-8") as fh:
        wave = ChiralWave.from_json(json.load(fh))
    # a wave file the parser refuses exits before chiral_ops and pairs are compiled
    from .chiral_ops import chiral_intertwiner, match_reduction, reduce_wave
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
        from .sixpoint import build_structure, verify_structure
        s = build_structure(args.name)
        verify_structure(s)
        return {"name": s.name, "monomials": s.monomials.to_json()}
    if args.exotic_cmd == "g":
        from .gseries import completion_series, verify_biharmonic
        g = completion_series(args.cap, args.method)
        out = {"cap": args.cap, "method": args.method, "series": g.to_json()}
        if args.check_biharmonic:
            out["biharmonic_residual_zero"] = verify_biharmonic(g).is_zero()
        return out
    if args.exotic_cmd == "coeff":
        from .channels import channel_coefficients
        value = channel_coefficients(args.hplus, args.hminus, args.structure)
        return {
            "structure": args.structure,
            "h_plus": args.hplus,
            "h_minus": args.hminus,
            "coefficient": format_rational(value),
        }
    if args.exotic_cmd == "restrict":
        from .sixpoint import build_structure, restrict_2d
        r = restrict_2d(build_structure(args.name))
        out = r.to_json()
        out["name"] = r.name
        if args.cap:
            out["series"] = r.series(args.cap).to_json()
        return out
    if args.exotic_cmd == "reduce":
        from .channels import reduce_sixpoint, reduction_order
        weights = (args.hplus, args.hminus, args.hplusprime, args.hminusprime)
        # the series is built only as far as the reduction reads it; a negative
        # order (some h < 1) and a negative cap are left for the callees to refuse
        order = min(args.cap, max(reduction_order(*weights), 0))
        if args.structure == "B":
            from .sixpoint import build_structure, restrict_2d
            series = restrict_2d(build_structure("B")).series(order)
        else:
            from .gseries import completion_series_2d
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
        from .amplitudes import fourpoint_amplitudes, reconstruction_residual
        am = fourpoint_amplitudes(args.h, args.hprime, args.cap)
        out = am.to_json()
        out["reconstruction_residual_zero"] = not reconstruction_residual(am, args.cap)
        return out
    if args.exotic_cmd == "positivity":
        from .positivity import positivity_report
        rep = positivity_report(args.structure, args.hmax, args.kmax)
        return rep.to_json()
    raise ValueError(f"unknown exotic subcommand {args.exotic_cmd!r}")


# -- command table and reader --------------------------------------------------


def _pair(text: str) -> tuple[int, int]:
    """'i,j' as two ints; the reader names the option when this raises."""
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected two integers 'i,j', got {text!r}") from None
    return i, j


REQUIRED = ...  # the default of an option that must be given
_WAVE = (("--n", int, REQUIRED), ("--dims", str, REQUIRED, "comma-separated d_1..d_n"),
         ("--proj", str, "", "comma-separated a_2..a_{n-2}"), ("--cap", int, 6))
_NAMES = ("E6", "B", "BminusHalfE")
# The command line, level by level: the words that reach a level map to what comes next
# (a leaf's handler, or the attribute a group reads its next word into), its options and
# any help. An option is (name, kind, default) and any help; a kind is int, str, _pair,
# a tuple of choices, or bool for a flag, which takes no value.
COMMANDS = {
    (): ("command", (("--format", ("json", "table"), "json"), ("--manifest", str, None)),
         "Exact chiral partial waves, intertwining operators, and six-point positivity data."),
    ("wave",): (cmd_wave, _WAVE, "n-point chiral partial wave series"),
    ("casimir-check",): (cmd_casimir_check, (*_WAVE, ("--which", int, 0, "equation k in 1..n-3"
                         " (cross ratio u_k); 0 runs all of them")), "invariant Casimir residuals"),
    ("intertwiner",): ("flavor", (), "intertwining operator tables"),
    ("intertwiner", "chiral"): (cmd_intertwiner, (("--h", int, REQUIRED), ("--d1", str, None),
        ("--d2", str, None), ("--normalized", bool, False,
                              "factorially renormalized channel variant"))),
    ("intertwiner", "tensor"): (cmd_intertwiner, (("--kappa", int, REQUIRED),
        ("--L", int, REQUIRED), ("--d1", str, None), ("--d2", str, None))),
    ("reduce",): (cmd_reduce, (("--wave", str, REQUIRED), ("--pair", _pair, (1, 2)),
                  ("--h", int, REQUIRED)), "channel reduction of a wave JSON"),
    ("exotic",): ("exotic_cmd", (), "six-point structures and their data"),
    ("exotic", "build"): (cmd_exotic, (("--name", _NAMES, REQUIRED),)),
    ("exotic", "g"): (cmd_exotic, (("--cap", int, REQUIRED), ("--method", ("recursion", "closed"),
        "closed"), ("--check-biharmonic", bool, False))),
    ("exotic", "coeff"): (cmd_exotic, (("--hplus", int, REQUIRED), ("--hminus", int, REQUIRED),
        ("--structure", ("B", "H"), REQUIRED))),
    ("exotic", "restrict"): (cmd_exotic, (("--name", _NAMES, REQUIRED), ("--cap", int, 0))),
    ("exotic", "reduce"): (cmd_exotic, (("--structure", ("B", "H"), REQUIRED),
        ("--hplus", int, REQUIRED), ("--hminus", int, REQUIRED), ("--hplusprime", int, REQUIRED),
        ("--hminusprime", int, REQUIRED), ("--cap", int, 12))),
    ("exotic", "amplitudes"): (cmd_exotic, (("--h", int, REQUIRED), ("--hprime", int, REQUIRED),
        ("--cap", int, 8))),
    ("exotic", "positivity"): (cmd_exotic, (("--structure", ("B", "H", "E2"), REQUIRED),
        ("--hmax", int, REQUIRED), ("--kmax", int, REQUIRED), ("--out", str, None))),
}


def _subcommands(words: tuple) -> tuple:
    return tuple(key[-1] for key in COMMANDS if key and key[:-1] == words)


def _usage(words: tuple, full: bool = False) -> str:
    """The usage line of a level; in full, also its help and each subcommand's and option's."""
    _, options, *about = COMMANDS[words]
    subs = _subcommands(words)
    rows, parts = [(word, *COMMANDS[words + (word,)][2:]) for word in subs], []
    for name, kind, default, *text in options:
        if kind is not bool:
            name += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {name[2:].upper()}"
        parts.append(name if default is REQUIRED else f"[{name}]")
        rows.append((parts[-1], *text))
    if subs:
        parts.append("{" + ",".join(subs) + "} ...")
    lines = [" ".join(["usage: exactcft", *words, "[-h]", *parts]), "", *(f"{a}\n" for a in about)]
    return "\n".join(lines + [f"  {n:<24}{''.join(t)}".rstrip() for n, *t in rows]) if full else lines[0]


def _error(words: tuple, message: str) -> SystemExit:
    sys.stderr.write(f"{_usage(words)}\n{' '.join(('exactcft', *words))}: error: {message}\n")
    return SystemExit(USAGE_EXIT)


def _value(words: tuple, name: str, kind, text: str):
    """An option's value, or a command word, read by its kind."""
    try:
        if not isinstance(kind, tuple):
            return kind(text)
        if text in kind:
            return text
        reason = f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
    except ValueError as exc:
        reason = f"invalid int value: {text!r}" if kind is int else exc
    raise _error(words, f"argument {name}: {reason}")


def _is_value(token: str) -> bool:
    """Whether a token can be a value: no option name starts like '-1/2' or '-.5'."""
    return not token.startswith("-") or token[1:].removeprefix(".")[:1].isdecimal()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """One attribute per option and per group, and the leaf's handler; a level's
    options come before its next word. Usage errors exit 2, and -h or --help exits 0."""
    words, extras, tokens = (), [], iter(argv)
    values = {name: default for name, _, default, *_ in COMMANDS[words][1]}
    for token in tokens:
        then, options, *_ = COMMANDS[words]
        if isinstance(then, str) and _is_value(token):
            values[then] = _value(words, then, _subcommands(words), token)
            words += (token,)
            values.update({name: default for name, _, default, *_ in COMMANDS[words][1]})
            continue
        kinds = {"-h": None, "--help": None, **{option[0]: option[1] for option in options}}
        name, eq, text = token.partition("=")
        # an exact name, or else a unique prefix of a long one ('-' and '--' are neither)
        hits = [name] if name in kinds else [n for n in kinds if n.startswith(name) and name[2:]]
        if len(hits) > 1:
            raise _error(words, f"ambiguous option: {token} could match {', '.join(hits)}")
        if not hits:  # an unknown option, or a stray word at a leaf
            extras.append(token)
            continue
        name, kind = hits[0], kinds[hits[0]]
        if eq and kind in (None, bool):
            raise _error(words, f"argument {name}: ignored explicit argument {text!r}")
        if kind is None:
            print(_usage(words, full=True))
            raise SystemExit(0)
        if eq and text == "--":
            raise _error((), "an option was given '--' as its value")
        if not eq and kind is not bool:
            text = next(tokens, None)
            if text is None or not _is_value(text):
                raise _error(words, f"argument {name}: expected one argument")
        values[name] = True if kind is bool else _value(words, name, kind, text)
    then, options, *_ = COMMANDS[words]
    missing = [name for name, *_ in options if values[name] is REQUIRED]
    if missing or isinstance(then, str):
        raise _error(words, f"the following arguments are required: {', '.join(missing or [then])}")
    if extras:
        raise _error((), "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(handler=then, **{k.strip("-").replace("-", "_"): v for k, v in values.items()})


def run() -> None:
    """The program's entry: exit with main's code, freezing the heap on the way out
    so that interpreter shutdown's collections skip every object still alive."""
    import gc
    try:
        sys.exit(main())
    finally:  # atexit handlers, the stream flushes and refcount deallocation still run
        gc.freeze()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _run(parse_args(argv), argv)
    except (DegenerateParameterError, SingularDiagonalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except BrokenPipeError:  # the reader left; shutdown's flush then writes to nowhere
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
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
    sys.stdout.flush()  # a closed pipe shows here, before the manifest

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
    run()
else:  # cftbench/traced_cli.py wraps only modules loaded before it installs, so a library import
    # loads every command module; this fork goes once the tracer imports its own targets
    from . import amplitudes, channels, chiral_ops, gseries, positivity, sixpoint, tensor_ops, waves
