"""Command-line interface.

Subcommands expose the library's computations with deterministic text or
JSON output:

    uqcentre hilb --type A --rank 2
    uqcentre presentation --type E --rank 6 --format json
    uqcentre verify --type D --rank 5
    uqcentre casimir --m=1 --k=2
    uqcentre --help
    uqcentre verify --help

``COMMANDS`` is the one table of subcommands and their options; ``_parse``
reads a command line against it and ``_help`` prints it.  The command line
follows argparse's conventions: ``--opt value`` or ``--opt=value``, a unique
prefix of an option, the last value of a repeated option, and a usage line
plus one ``error:`` line on stderr for a malformed command line.  JSON output
is byte-for-byte ``json.dumps(obj, sort_keys=True, indent=2)``, written by
``_json_dump`` without the standard library's pure-Python encoder.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(including output that cannot be written), 3 resource cap exceeded.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii  # json.encoder's C escaper, without json
from collections import namedtuple
from types import SimpleNamespace

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


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        _print(text)


def _print(text: str) -> None:
    """Write ``text`` and a newline to stdout; DomainError if it cannot be written."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe (``| head``) or a full disk
        # the interpreter flushes stdout again at exit: let that go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise DomainError(f"cannot write standard output: {exc.strerror or exc}") from exc


def _json_dump(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    Accepts what the commands emit: dicts with str keys, lists, str, int,
    bool and None.  Any other type raises TypeError, where ``json.dumps``
    might render it in some other way.
    """
    chunks: list[str] = []
    _json_write(obj, "\n", chunks.append)
    return "".join(chunks)


def _json_write(obj, newline: str, put) -> None:
    """Pass the JSON of ``obj`` to ``put``; ``newline`` starts a line at obj's indent."""
    cls = type(obj)
    if cls is str:
        put(encode_basestring_ascii(obj))
    elif cls is int:
        put(str(obj))
    elif cls is list:
        if not obj:
            put("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in obj):
            put("[" + inner + ("," + inner).join(map(str, obj)) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            put(sep)
            _json_write(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif cls is dict:
        if not obj:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring_ascii(key) + ": ")
            _json_write(obj[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


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


REQUIRED = object()  # the default of an option that must be given
_HELP = ("-h", "--help")

# ``type`` converts the value's text; ``choices`` is None or the values allowed
Option = namedtuple("Option", "flag dest type default choices help")

_TYPE_RANK = (
    Option("--type", "family", str, REQUIRED, None, "simple type, one of A B C D E F G"),
    Option("--rank", "rank", int, REQUIRED, None, "rank of the root system"),
)
_OUTPUT = (
    Option("--format", "format", str, "text", ("text", "json"), "output format"),
    Option("--out", "out", str, None, None, "write output to this file instead of stdout"),
)
# name -> (function, summary, options)
COMMANDS = {
    "hilb": (cmd_hilb, "Hilbert basis of the monoid M+", _TYPE_RANK + _OUTPUT),
    "presentation": (cmd_presentation,
                     "generators of C[M+] and binomial relations among them",
                     _TYPE_RANK + _OUTPUT),
    "verify": (cmd_verify, "run the verification suite for one type", _TYPE_RANK + (
        Option("--bound", "bound", int, 3, None, "coordinate bound for the generation check"),
    ) + _OUTPUT),
    "casimir": (cmd_casimir, "rank-1 Casimir element C^(k) of L(m)", (
        Option("--m", "m", int, REQUIRED, None, "highest-weight label of the module"),
        Option("--k", "k", int, 1, None, "order of the Casimir"),
    ) + _OUTPUT),
}


class UsageError(Exception):
    """A malformed command line; ``command`` is the subcommand it was for, if known."""

    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


def _is_value(word: str) -> bool:
    """Whether ``word`` can be an option's value: no flag, or a negative number."""
    if len(word) < 2 or word[0] != "-":
        return True
    head, dot, tail = word[1:].partition(".")
    if not dot:
        return head.isdecimal()
    return (not head or head.isdecimal()) and tail.isdecimal()


def _resolve(word: str, flags, command: str | None) -> str | None:
    """The flag that ``word`` names exactly or as a unique ``--`` prefix, else None."""
    if word in flags:
        return word
    if len(word) < 3 or not word.startswith("--"):
        return None
    matches = [f for f in flags if f.startswith(word)]
    if len(matches) > 1:
        raise UsageError(
            f"ambiguous option: {word} could match {', '.join(matches)}", command)
    return matches[0] if matches else None


def _parse(argv: list[str]):
    """(command, namespace of option values) from ``argv``; namespace None asks for help.

    Raises UsageError for a malformed command line.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    name = argv[0]
    if _resolve(name, _HELP, None):
        return None, None
    if name not in COMMANDS:
        if not _is_value(name):
            raise UsageError(f"unrecognized arguments: {' '.join(argv)}")
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    options = {opt.flag: opt for opt in COMMANDS[name][2]}
    values = {opt.dest: opt.default for opt in options.values()}
    seen = set()
    extras = []
    words = iter(argv[1:])
    for word in words:
        if _is_value(word):
            extras.append(word)
            continue
        written, eq, value = word.partition("=")
        flag = _resolve(written, (*_HELP, *options), name)
        if flag is None:
            extras.append(word)
            continue
        if flag in _HELP:
            if eq:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}", name)
            return name, None
        opt = options[flag]
        if not eq:
            value = next(words, None)
            if value is None or not _is_value(value):
                raise UsageError(f"argument {flag}: expected one argument", name)
        try:
            value = opt.type(value)
        except ValueError:
            raise UsageError(
                f"argument {flag}: invalid {opt.type.__name__} value: {value!r}", name) from None
        if opt.choices is not None and value not in opt.choices:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, opt.choices))})", name)
        values[opt.dest] = value
        seen.add(flag)
    missing = [flag for flag, opt in options.items()
               if opt.default is REQUIRED and flag not in seen]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", name)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}", name)
    return name, SimpleNamespace(**values)


def _metavar(opt: Option) -> str:
    return "{" + ",".join(opt.choices) + "}" if opt.choices else opt.flag[2:].upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: uqcentre [-h] {{{','.join(COMMANDS)}}} ..."
    parts = [f"usage: uqcentre {command} [-h]"]
    for opt in COMMANDS[command][2]:
        part = f"{opt.flag} {_metavar(opt)}"
        parts.append(part if opt.default is REQUIRED else f"[{part}]")
    return " ".join(parts)


def _help(command: str | None) -> str:
    if command is None:
        width = max(map(len, COMMANDS)) + 2
        lines = [_usage(None), "",
                 "Generators and relations of the centre of U_q(g), exactly.", "",
                 "commands:"]
        lines += [f"  {name:<{width}}{entry[1]}" for name, entry in COMMANDS.items()]
        lines += ["", "Run 'uqcentre COMMAND --help' for the options of one command.",
                  "Exit codes: 0 success, 1 verification failure, 2 usage or domain "
                  "error, 3 resource cap exceeded."]
        return "\n".join(lines)
    _, summary, options = COMMANDS[command]
    rows = [("-h, --help", "show this help message and exit")]
    for opt in options:
        text = opt.help
        if opt.default is REQUIRED:
            text += " (required)"
        elif opt.default is not None:  # --out has no default to show
            text += f" (default: {opt.default})"
        rows.append((f"{opt.flag} {_metavar(opt)}", text))
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(command), "", summary, "", "options:"]
    lines += [f"  {left:<{width}}{text}" for left, text in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        command, args = _parse(argv)
    except UsageError as exc:
        prog = "uqcentre" if exc.command is None else f"uqcentre {exc.command}"
        print(f"{_usage(exc.command)}\n{prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args is None:
            _print(_help(command))
            return EXIT_OK
        return COMMANDS[command][0](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
