"""Command line front end.

Subcommands: word (validate/parse/mirror/zeta-check), variety (dual/apply/
member), semigroup (check/green/congruence/quotient/dual/freeband/extend)
and network (generate and emit the lattice networks).  Exit codes: 0 for
success or a true verdict, 1 for a false or unknown verdict or a failed
check, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import networks as nw
from . import semigroups as sg
from . import varieties as va
from . import words as wd


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        out = text if text.endswith("\n") or not text else text + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise CliError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(out)


def _load_basis(source: str) -> va.IdentityBasis:
    if source.startswith("catalog:"):
        try:
            return va.catalog_basis(source.split(":", 1)[1])
        except va.BasisError as exc:
            raise CliError(str(exc))
    try:
        with open(source, encoding="utf-8") as fh:
            return va.parse_basis(fh.read(), source)
    except OSError as exc:
        raise CliError(f"cannot read basis file: {exc}")
    except (va.BasisError, UnicodeDecodeError) as exc:
        raise CliError(f"bad basis file {source}: {exc}")


def _load_table(path: str, axioms: bool = True) -> sg.UnaryCayleyTable:
    """Load a table file; without ``axioms`` only its format is checked."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return (sg.table_from_json if axioms else sg.parse_table)(text)
    except OSError as exc:
        raise CliError(f"cannot read table file: {exc}")
    except ValueError as exc:  # TableError, JSONDecodeError, UnicodeDecodeError
        raise CliError(f"bad table file {path}: {exc}")


# ---------------------------------------------------------------------------
# word


def cmd_word(args) -> int:
    try:
        w = wd.word_from_text(args.word)
    except wd.WordSyntaxError as exc:
        raise CliError(f"syntax error: {exc}")
    if args.action == "validate":
        violation = wd.first_violation(w)
        ok = violation is None
        payload = {"word": wd.word_to_text(w), "valid": ok}
        text = "true" if ok else f"false (condition {violation[0]} at position {violation[1]})"
        if not ok:
            payload["violation"] = {"condition": violation[0], "position": violation[1]}
        _emit(args, payload, text)
        return 0 if ok else 1
    if args.action == "mirror":
        m = wd.mirror(w)
        _emit(args, {"word": wd.word_to_text(w), "mirror": wd.word_to_text(m)}, wd.word_to_text(m))
        return 0
    if args.action == "parse":
        try:
            t = wd.parse_word(w)
        except wd.InvalidWordError as exc:
            raise CliError(f"invalid word: {exc}")
        factors = t.factors if isinstance(t, wd.Prod) else (t,)
        lines = [f"word: {wd.word_to_text(w)}", f"irreducible factors: {len(factors)}"]
        lines += [f"  {wd.term_to_text(f)}" for f in factors]
        _emit(
            args,
            {
                "word": wd.word_to_text(w),
                "factors": [wd.term_to_text(f) for f in factors],
            },
            "\n".join(lines),
        )
        return 0
    # zeta-check
    try:
        other = wd.word_from_text(args.other)
        t1, t2 = wd.parse_word(w), wd.parse_word(other)
    except (wd.WordSyntaxError, wd.InvalidWordError) as exc:
        raise CliError(f"bad word: {exc}")
    if args.budget < 1:
        raise CliError("--budget must be at least 1")
    verdict = wd.zeta_equivalent(t1, t2, args.budget)
    if isinstance(verdict, wd.ZetaEquivalent):
        path = [wd.term_to_text(t) for t in verdict.witness]
        text = f"equivalent, path length {verdict.steps}\n" + "\n".join(
            f"  {p}" for p in path
        )
        _emit(args, {"verdict": "equivalent", "steps": verdict.steps, "path": path}, text)
        return 0
    _emit(
        args,
        {"verdict": "unknown", "budget": args.budget},
        f"unknown (budget {args.budget} exhausted)",
    )
    return 1


# ---------------------------------------------------------------------------
# variety


def cmd_variety(args) -> int:
    B = _load_basis(args.basis)
    if args.action == "dual":
        out = va.dual_basis(B)
        _emit(
            args,
            {"name": out.name, "identities": [str(i) for i in out.identities]},
            va.render_basis(out),
        )
        return 0
    if args.action == "apply":
        ops = [o for chunk in (args.ops or "").split(",") for o in chunk.split() if o]
        if not ops:
            raise CliError("apply requires --ops with operator names")
        try:
            out = va.apply_word(B, ops)
        except va.BasisError as exc:
            raise CliError(str(exc))
        _emit(
            args,
            {"name": out.name, "identities": [str(i) for i in out.identities]},
            va.render_basis(out),
        )
        return 0
    # member
    S = _load_table(args.table)
    witness = va.member_witness(S, B)
    if witness is None:
        _emit(args, {"member": True}, "true")
        return 0
    ident, assignment = witness
    text = f"false: {ident} fails under {assignment}"
    _emit(args, {"member": False, "identity": str(ident), "witness": assignment}, text)
    return 1


# ---------------------------------------------------------------------------
# semigroup

_CONGRUENCES = {
    "L0": sg.L0,
    "R0": sg.R0,
    "H0": sg.H0,
    "tau": sg.tau,
}


def cmd_semigroup(args) -> int:
    if args.action == "freeband":
        try:
            S = sg.free_band(args.generators)
        except sg.TableError as exc:
            raise CliError(str(exc))
        _emit(args, json.loads(sg.table_to_json(S)), sg.table_to_json(S))
        return 0
    if args.action == "check":
        S = _load_table(args.table, axioms=False)
        bad = sg.first_nonassociative_triple(S)
        cr = None if bad is not None else sg.first_cr_failure(S)
        ok = bad is None and cr is None
        if ok:
            text = f"order {S.order}: associative, completely regular"
        elif bad is not None:
            text = f"order {S.order}: not associative, failing triple {bad}"
        else:
            text = f"order {S.order}: axiom {cr[0]} fails at element {cr[1]}"
        _emit(
            args,
            {
                "order": S.order,
                "associative": bad is None,
                "completely_regular": ok,
                "failure": text if not ok else None,
            },
            text,
        )
        return 0 if ok else 1
    S = _load_table(args.table)
    if args.action == "green":
        g = sg.green(S)
        described = {
            "L": sg.describe_partition(g.L),
            "R": sg.describe_partition(g.R),
            "H": sg.describe_partition(g.H),
            "D": sg.describe_partition(g.D),
        }
        text = "\n".join(f"{k}: {v}" for k, v in described.items())
        _emit(args, described, text)
        return 0
    if args.action == "congruence":
        p = _CONGRUENCES[args.kind](S)
        text = f"{args.kind}: {sg.describe_partition(p)}"
        _emit(args, {args.kind: list(p), "description": sg.describe_partition(p)}, text)
        return 0
    if args.action == "quotient":
        Q = sg.quotient(S, _CONGRUENCES[args.kind](S))
        _emit(args, json.loads(sg.table_to_json(Q)), sg.table_to_json(Q))
        return 0
    if args.action == "dual":
        D = sg.dual(S)
        _emit(args, json.loads(sg.table_to_json(D)), sg.table_to_json(D))
        return 0
    if args.action == "extend":
        E = sg.right_zero_extension(S)
        _emit(args, json.loads(sg.table_to_json(E)), sg.table_to_json(E))
        return 0
    raise CliError(f"unknown action {args.action!r}")


# ---------------------------------------------------------------------------
# network


def _parse_bindings(text: Optional[str]):
    if not text:
        return None
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise CliError(f"bad binding {piece!r}, expected NAME=VARIETY")
        key, value = piece.split("=", 1)
        key = {"V": "V", "Vl": "Vl", "Vr": "Vr"}.get(key.strip())
        if key is None:
            raise CliError("bindings accept V, Vl and Vr only")
        try:
            out[key] = va.catalog_basis(value.strip())
        except va.BasisError as exc:
            raise CliError(str(exc))
    return out


def cmd_network(args) -> int:
    generators = {
        "4.2": lambda: nw.gen_K_network(args.depth, args.with_top),
        "4.3": lambda: nw.gen_T_network(args.depth, args.with_top),
        "4.5": lambda: nw.gen_combined(args.depth, args.with_top),
        "5.1": lambda: nw.gen_ladder51(args.depth, args.with_top),
        "6.1": lambda: nw.gen_ladder61(
            args.depth,
            side_conditions=nw.REQUIRED_SIDE_CONDITIONS if args.assume_side_conditions else (),
            use_default_upper=args.default_upper,
            with_top=args.with_top,
        ),
    }
    try:
        net = generators[args.theorem]()
    except nw.MissingSideConditionError as exc:
        raise CliError(f"{exc}; pass --assume-side-conditions or --default-upper")
    except nw.NetworkError as exc:
        raise CliError(str(exc))
    bindings = _parse_bindings(args.bind)
    bases = None
    if bindings is not None:
        try:
            bases = nw.instantiate(net, bindings)
        except va.BasisError as exc:
            raise CliError(str(exc))
    emit = nw.emit_dot if args.fmt == "dot" else nw.emit_json
    # network options name the format ``fmt``, so _emit writes the text as is
    _emit(args, None, emit(net, bases))
    return 0


# ---------------------------------------------------------------------------


def _common(p) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crvar",
        description="word algebra, finite unary semigroups and variety networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", help="word algebra operations")
    wsub = w.add_subparsers(dest="action", required=True)
    for action in ("validate", "parse", "mirror"):
        p = wsub.add_parser(action)
        p.add_argument("word")
        _common(p)
        p.set_defaults(func=cmd_word)
    p = wsub.add_parser("zeta-check")
    p.add_argument("word")
    p.add_argument("other")
    p.add_argument("--budget", type=int, default=6)
    _common(p)
    p.set_defaults(func=cmd_word)

    v = sub.add_parser("variety", help="identity basis operations")
    vsub = v.add_subparsers(dest="action", required=True)
    for action in ("dual", "apply"):
        p = vsub.add_parser(action)
        p.add_argument("basis", help="basis file or catalog:NAME")
        if action == "apply":
            p.add_argument(
                "--ops", required=True, help="comma separated operators from K,T,Tl,Tr,Kl,Kr"
            )
        _common(p)
        p.set_defaults(func=cmd_variety)
    p = vsub.add_parser("member")
    p.add_argument("basis", help="basis file or catalog:NAME")
    p.add_argument("table", help="Cayley table file")
    _common(p)
    p.set_defaults(func=cmd_variety)

    s = sub.add_parser("semigroup", help="finite unary semigroup operations")
    ssub = s.add_subparsers(dest="action", required=True)
    p = ssub.add_parser("freeband")
    p.add_argument("--generators", type=int, default=2)
    _common(p)
    p.set_defaults(func=cmd_semigroup)
    for action in ("check", "green", "congruence", "quotient", "dual", "extend"):
        p = ssub.add_parser(action)
        p.add_argument("table", help="Cayley table file")
        if action in ("congruence", "quotient"):
            p.add_argument("--kind", choices=sorted(_CONGRUENCES), default="L0")
        _common(p)
        p.set_defaults(func=cmd_semigroup)

    n = sub.add_parser("network", help="generate lattice networks")
    n.add_argument("--theorem", choices=["4.2", "4.3", "4.5", "5.1", "6.1"], required=True)
    n.add_argument("--depth", type=int, default=1)
    n.add_argument("--bind", help="V=NAME,Vl=NAME,Vr=NAME catalog bindings")
    n.add_argument("--format", dest="fmt", choices=["dot", "json"], default="dot")
    n.add_argument("--with-top", action="store_true")
    n.add_argument("--assume-side-conditions", action="store_true")
    n.add_argument("--default-upper", action="store_true")
    n.add_argument("-o", "--output")
    n.set_defaults(func=cmd_network)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
