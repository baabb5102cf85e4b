"""Command-line driver.

Exit codes: 0 verdict true or success, 1 verdict false, 2 usage, parse or
resolution error or input nested too deeply, 3 state-space cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__, kernel
from .dsl import DslError, parse_arguments, parse_config_text, parse_model
from .model import CHAIN_MAX_LEN, CapExceeded, ModelError, Options
from .queries import run_document, run_query


def _absolute(path: str) -> str:
    return str(Path(path).resolve())


def _common_flags(
    sp: argparse.ArgumentParser, transitions: bool = False, split: bool = False, strict: bool = False, report: bool = False
) -> None:
    """The model file and the flags ``sp``'s command reads: with
    ``transitions`` the mode, self-loop and state-cap flags of a command
    that walks the state space, with ``split`` the trivial-split flag of
    one that splits the model, with ``strict`` the actuality flag of cause
    search, and with ``report`` the report file.  A flag a command does not
    read is not defined for it, so giving one exits 2; its field keeps the
    default, so every command's arguments have the same fields."""
    sp.add_argument("model", help="model file")
    if transitions:
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--sync", action="store_true", help="force synchronous transitions")
        mode.add_argument("--async", dest="force_async", action="store_true", help="force asynchronous transitions")
        sp.add_argument("--self-loops", action="store_true", help="include fixpoint self-loops")
        sp.add_argument("--max-states", type=int, metavar="N", help=f"states one search may hold (default {Options.max_states})")
    else:
        sp.set_defaults(sync=False, force_async=False, self_loops=False, max_states=None)
    if split:
        sp.add_argument("--allow-trivial-split", action="store_true", help="admit non-proper interface splits")
    else:
        sp.set_defaults(allow_trivial_split=False)
    if strict:
        sp.add_argument("--strict-ac1", action="store_true", help="literal start-equals-end actuality clause")
    else:
        sp.set_defaults(strict_ac1=False)
    if report:
        sp.add_argument("--report", metavar="PATH", help="write the JSON report here")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every ``main`` call."""
    ap = argparse.ArgumentParser(prog="causalmc", description=__doc__)
    ap.add_argument("--version", action="version", version=f"causalmc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="evaluate a formula at a configuration")
    _common_flags(sp, transitions=True, split=True, report=True)
    sp.add_argument("config")
    sp.add_argument("formula")

    sp = sub.add_parser("cause", help="minimal actual causes of an outcome")
    _common_flags(sp, transitions=True, strict=True, report=True)
    sp.add_argument("--from", dest="start", required=True)
    sp.add_argument("--to", dest="end", required=True)
    sp.add_argument("--effect", nargs="+", required=True)

    sp = sub.add_parser("chain", help="minimal causal chains between configurations")
    _common_flags(sp, transitions=True, strict=True, report=True)
    sp.add_argument("--from", dest="start", required=True)
    sp.add_argument("--to", dest="end", required=True)
    sp.add_argument("--effect", nargs="+")
    sp.add_argument("--max-len", type=int, default=CHAIN_MAX_LEN)
    sp.add_argument("--dot", metavar="PATH", help="write the causal projection as DOT")

    sp = sub.add_parser("bisim", help="bisimulation under intervention between two pointed models")
    _common_flags(sp, transitions=True, report=True)
    sp.add_argument("config")
    sp.add_argument("other_model", type=_absolute)
    sp.add_argument("other_config")

    sp = sub.add_parser("decompose", help="check an interface split and decompose")
    _common_flags(sp, split=True, report=True)
    sp.add_argument("--left", nargs="+", required=True)
    sp.add_argument("--right", nargs="+", required=True)

    for name, help_text in (
        ("recover", "interventions guaranteeing the failure formula stays false"),
        ("mincost", "cheapest qualifying intervention"),
        ("utility", "qualifying intervention with the best cost-penalty trade-off"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _common_flags(sp, transitions=True, split=True, report=True)
        sp.add_argument("config")
        sp.add_argument("formula")

    sp = sub.add_parser("export-dot", help="transition graph or variant graph as DOT")
    _common_flags(sp, transitions=True)
    sp.add_argument("--variants", action="store_true", help="export the intervention variant graph; takes no transition flag")
    sp.add_argument("--reachable-from", metavar="CONFIG", help="restrict to configurations reachable from here")
    sp.add_argument("-o", "--output", metavar="PATH")

    sp = sub.add_parser("export-hp", help="structural-equations export")
    _common_flags(sp)
    sp.add_argument("--init", required=True, metavar="CONFIG")
    sp.add_argument("-o", "--output", metavar="PATH")

    sp = sub.add_parser("run", help="run every query stanza in the model file")
    _common_flags(sp, transitions=True, split=True, strict=True, report=True)
    return ap


def _load(args):
    text = Path(args.model).read_text(encoding="utf-8")
    doc = parse_model(text, path=args.model, stanzas=args.command == "run")  # only run reads the stanzas
    options = Options(
        self_loops=args.self_loops,
        allow_trivial_split=args.allow_trivial_split,
        max_states=Options.max_states if args.max_states is None else args.max_states,
        mode="sync" if args.sync else "async" if args.force_async else None,
        strict_ac1=args.strict_ac1,
    )
    return doc, options


def _emit(reports, payload, path: str | None) -> int:
    """Write the JSON payload to ``path`` if one is given, print one verdict
    line per report, and exit 0 only when every verdict is true."""
    if path:
        _write_file(path, _json(payload) + "\n")
    for r in reports:
        print(f"{r.kind}: {'true' if r.verdict else 'false'}  ({r.query})")
    return 0 if all(r.verdict for r in reports) else 1


def _json(value) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    byte for byte: that call runs the standard library's pure-Python encoder
    whenever ``indent`` is set, and this writer does the same work in one
    recursive walk, with the library's own string quoting.  Dictionary keys
    must be strings, as they are in every report."""
    parts: list[str] = []
    _put(value, "\n", parts.append)
    return "".join(parts)


def _put(value, newline: str, put) -> None:
    """Write ``value`` through ``put``, its nested lines indented past
    ``newline``; types are tested in the order ``json`` tests them."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            put(sep + inner)
            _put(item, inner, put)
            sep = ","
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner, sep = newline + "  ", "{"
        for key, item in sorted(value.items()):
            put(sep + inner)
            put(_quote(key))
            put(": ")
            _put(item, inner, put)
            sep = ","
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


_INFINITY = float("inf")


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command == "export-dot" and args.variants:  # the variant graph reads no transition flag
        given = (
            ("--sync", args.sync),
            ("--async", args.force_async),
            ("--self-loops", args.self_loops),
            ("--max-states", args.max_states is not None),
            ("--reachable-from", args.reachable_from is not None),
        )
        ignored = [flag for flag, on in given if on]
        if ignored:
            ap.error("export-dot --variants does not read " + " ".join(ignored))
    source = args.model  # the text a diagnostic without a file of its own points into
    try:
        doc, options = _load(args)
        if args.command == "run":
            reports = run_document(doc, options)
            return _emit(reports, [r.to_dict() for r in reports], args.report)
        source = "<command line>"  # every text read from here on is an argument
        if args.command == "export-dot":
            if args.variants:
                from .bisim import intervention_closure

                dot = intervention_closure(doc.model).to_dot()
            else:
                dot = _transition_dot(doc, options, args.reachable_from)
            _write_or_print(dot, args.output)
            return 0
        if args.command == "export-hp":
            from .hp import export_hp

            init = parse_config_text(args.init, doc)
            hp = export_hp(doc.model, init)
            _write_or_print(hp.to_json(), args.output)
            return 0
        if args.command == "chain":
            from .causality import check_max_len

            # before the slot reads it: a negative count has no stanza text
            check_max_len(args.max_len)
        # a query subcommand's argument names are the slot fields of its stanza
        stanza = parse_arguments(args.command, vars(args), doc)
        report = run_query(doc, stanza, options)
        if args.command == "chain" and args.dot:
            from .causality import projection_dot

            _write_file(args.dot, projection_dot(report.witnesses["projection"]))
        return _emit([report], report.to_dict(), args.report)
    except DslError as exc:
        for d in exc.diagnostics:
            print(f"{exc.path or source}:{d}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return 2


def _transition_dot(doc, options, reachable_from: str | None) -> str:
    k = kernel.compile(doc.model, options)
    if reachable_from:
        start = k.encode(parse_config_text(reachable_from, doc))
        nodes = [start] + [g for g in k.reachable(start) if g != start]
    else:
        nodes = k.configurations()
    idx = {g: i for i, g in enumerate(nodes)}
    edges = [(i, idx[h]) for g, i in idx.items() for h in k.successors(g) if h in idx]
    return kernel.digraph("transitions", [str(k.decode(g)) for g in nodes], edges)


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        _write_file(output, text + "\n")
    else:
        print(text)


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as a new file.

    A file already at ``path`` is removed first, unless ``path`` is a
    symbolic link, which is written through.  On ext4, closing a file that
    held data and was truncated and rewritten starts its writeback at once
    (``auto_da_alloc``); on a busy disk that took 0.3 to 3 ms per report,
    against 0.1 to 0.2 ms for a new file.  A file that cannot be removed
    is rewritten in place.
    """
    if not os.path.islink(path):
        with contextlib.suppress(OSError):
            os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
