"""Command-line interface.

Subcommands expose the library's computations with deterministic text or
JSON output:

    uqcentre hilb --type A --rank 2
    uqcentre presentation --type E --rank 6 --format json
    uqcentre verify --type D --rank 5
    uqcentre casimir --m 1 --k 2

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .character_ring import independence_check, verify_centre_relations
from .errors import DomainError, ResourceLimitError
from .half_lattice_monoid import TYPE_I, classify_type, hilbert_basis
from .monoid_presentation import (
    generation_check,
    generator_labels,
    presentation,
    verify_relations,
)
from .root_system import build_root_system
from .uq_rank1 import (
    SimpleModule,
    casimir,
    express_in_powers,
    hc_project,
    is_central,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqcentre",
        description="Generators and relations of the centre of U_q(g), exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_rank(p):
        p.add_argument("--type", required=True, dest="family",
                       help="simple type, one of A B C D E F G")
        p.add_argument("--rank", required=True, type=int)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("hilb", help="Hilbert basis of the monoid M+")
    p.set_defaults(func=cmd_hilb)
    add_type_rank(p)
    add_common(p)

    p = sub.add_parser("presentation",
                       help="generators of C[M+] and binomial relations among them")
    p.set_defaults(func=cmd_presentation)
    add_type_rank(p)
    add_common(p)

    p = sub.add_parser("verify", help="run the verification suite for one type")
    p.set_defaults(func=cmd_verify)
    add_type_rank(p)
    p.add_argument("--bound", type=int, default=3,
                   help="coordinate bound for the generation check")
    add_common(p)

    p = sub.add_parser("casimir", help="rank-1 Casimir element C^(k) of L(m)")
    p.set_defaults(func=cmd_casimir)
    p.add_argument("--m", type=int, required=True,
                   help="highest-weight label of the module")
    p.add_argument("--k", type=int, default=1, help="order of the Casimir")
    add_common(p)

    return parser


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def cmd_hilb(args) -> int:
    rsys = build_root_system(args.family, args.rank)
    basis = hilbert_basis(rsys)
    if args.format == "json":
        _emit(args, _json_dump(basis.to_json()))
        return EXIT_OK
    lines = [
        f"Hilbert basis of M+ for {rsys.family}{rsys.rank} "
        f"(type {classify_type(rsys)}): {len(basis.elements)} elements",
        "s = " + str(list(basis.s)),
    ]
    for lab, w in zip(generator_labels(rsys, basis), basis.elements):
        lines.append(f"  {lab} = {list(w)}")
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_presentation(args) -> int:
    rsys = build_root_system(args.family, args.rank)
    pres = presentation(rsys)
    if args.format == "json":
        _emit(args, _json_dump(pres.to_json()))
        return EXIT_OK
    lines = [
        f"presentation of the centre for {rsys.family}{rsys.rank}: "
        f"{len(pres.generators)} generators, {len(pres.relations)} relations"
    ]
    for lab, w in zip(pres.labels, pres.generators):
        lines.append(f"  generator x_{{{lab}}} = {list(w)}")
    for line in pres.render():
        lines.append("  relation " + line)
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    rsys = build_root_system(args.family, args.rank)
    if args.bound < 1:
        raise DomainError("--bound must be >= 1")
    reports = [verify_relations(rsys)]
    reports.append(generation_check(rsys, args.bound))
    if classify_type(rsys) == TYPE_I:
        reports.append(independence_check(rsys, min(args.bound, 3)))
    else:
        reports.append(verify_centre_relations(rsys))
    ok = all(r.ok for r in reports)
    if args.format == "json":
        _emit(args, _json_dump({"ok": ok, "reports": [r.to_json() for r in reports]}))
    else:
        lines = []
        for r in reports:
            lines.append(f"== {r.title}")
            lines.extend("  " + l for l in r.lines())
        lines.append("verdict: " + ("all checks passed" if ok else "FAILURES above"))
        _emit(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_casimir(args) -> int:
    if args.m < 0:
        raise DomainError("--m must be >= 0")
    if args.k < 1:
        raise DomainError("--k must be >= 1")
    V = SimpleModule(args.m)
    c = casimir(V, args.k)
    central = is_central(c)
    hc = hc_project(c) if args.k == 1 else None
    in_base = None
    if args.k > 1:
        in_base = express_in_powers(c, casimir(V, 1), args.k)
    if args.format == "json":
        payload = {
            "m": args.m,
            "k": args.k,
            "element": c.to_json(),
            "central": central,
        }
        if hc is not None:
            payload["hc_image"] = sorted([b, v] for b, v in hc.items())
        if in_base is not None:
            payload["powers_of_C1"] = [x.to_json() for x in in_base]
        _emit(args, _json_dump(payload))
        return EXIT_OK if central else EXIT_VERIFY_FAILED
    lines = [
        f"C^({args.k}) of the {args.m + 1}-dimensional simple module:",
        "  " + c.render(),
        f"  central: {'yes' if central else 'NO'}",
    ]
    if hc is not None:
        img = " + ".join(
            ("K^%d" % b if b else "1") if v == 1 else ("%d*K^%d" % (v, b))
            for b, v in sorted(hc.items(), reverse=True)
        )
        lines.append(f"  Harish-Chandra image: {img or '0'}")
    if in_base is not None:
        parts = []
        for j in range(len(in_base) - 1, -1, -1):
            coeff = in_base[j]
            if coeff.is_zero():
                continue
            cs = coeff.render()
            term = f"({cs})" if (" " in cs or cs.startswith("-") or j) else cs
            if j == 1:
                term += "*C"
            elif j > 1:
                term += f"*C^{j}"
            parts.append(term)
        lines.append("  as a polynomial in C = C^(1): " + " + ".join(parts))
    _emit(args, "\n".join(lines))
    return EXIT_OK if central else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
