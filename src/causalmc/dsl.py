"""Model description language: parser, document model, canonical printer.

A document declares, in any order after the optional mode line:

    async | sync
    component NAME { domain B1 B2 ...
                     context C1 C2 ...
                     rule OWN (P1, P2, ...) -> OUT ... }
    atom NAME = COMPONENT = BEHAVIOUR
    atom NAME = { CONFIGNAME ... }
    config NAME = (C1=B1, C2=B2, ...)
    intervention NAME on T1 T2 ... { cost N penalty N
                                     rule TARGET: OWN (P...) -> OUT ... }
    formula NAME = FORMULA

and query stanzas, whose grammar is the ``QUERIES`` table below; optional
clauses, bracketed here, come in any order, each at most once, e.g.

    check CONFIG |= FORMULA
    chain from CONFIG to CONFIG [effect { C1 C2 ... }] [maxlen N]

Rule patterns are behaviours or the wildcard `_`; unmatched inputs keep the
current behaviour (identity default).  `#` starts a comment.  Formula
syntax is documented in the formulas module; operands of `*` must be
parenthesized.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from functools import cached_property, partial
from math import isfinite

from . import formulas as F
from .model import (
    AtomDecl,
    ComponentDecl,
    Configuration,
    Intervention,
    ModelError,
    RuleRow,
    RuleTable,
    SystemModel,
    repeated,
    validate_model,
)
from .records import field, record, replace


@record
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"


class DslError(Exception):
    """Diagnostics of one input; ``path`` names its file when that is not the
    model being run (the other model of a bisim query)."""

    def __init__(self, diagnostics, path: str | None = None):
        self.diagnostics = list(diagnostics)
        self.path = path
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@record
class ModelDocument:
    model: SystemModel
    configurations: tuple[tuple[str, Configuration], ...]
    formulas: tuple[tuple[str, F.Formula], ...]
    queries: tuple = ()
    path: str | None = field(default=None, compare=False)

    @cached_property
    def config_map(self) -> dict[str, Configuration]:
        return dict(self.configurations)

    @cached_property
    def formula_map(self) -> dict[str, F.Formula]:
        return dict(self.formulas)

    def configuration(self, name: str) -> Configuration:
        return _lookup(self.config_map, name, "configuration")

    def formula(self, name: str) -> F.Formula:
        return _lookup(self.formula_map, name, "formula")


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise DslError([Diagnostic(0, 0, f"unknown {what} {name!r}")])
    return table[name]


# ---------------------------------------------------------------------------
# tokenizer

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")

# operators of two and three characters, tried before the single characters they start with
_OPERATORS = ("[]+", "<>+", "<?>", "->", "|=", "[]", "<>")
_PUNCT_CHARS = "{}()=,:*&|!<>[]"
_BLANKS = r" \t\r"
_NEWLINE = r"\n"
_COMMENT = r"#[^\n]*"

# The token classes.  Each but the last has first characters of its own, so
# at most one of them matches at a position; the last, tried last, takes any
# other character but a blank, which is an error.  Numbers use \d, which also
# matches non-ASCII digits.
_CLASSES = (
    _NAME_RE.pattern,
    "|".join(map(re.escape, _OPERATORS)) + f"|[{re.escape(_PUNCT_CHARS)}]",
    r'"[^"]*"',
    r"\d+(?:\.\d+)?",
    f"[^{_BLANKS}]",
)

# The scan starts after the blanks, newlines and comments that open the text;
# each match is one token, or the empty end marker, and the blanks, newlines
# and comments after it.  A match never starts at a blank, newline or "#".
_SPACE = f"[{_BLANKS}{_NEWLINE}]*"
_SKIP = re.compile(f"{_SPACE}(?:{_COMMENT}{_SPACE})*")
_STRINGS = re.compile("(" + "|".join(_CLASSES) + r"|\Z)" + _SKIP.pattern)
# the one-character tokens that are not an error; any decimal digit is a number
_ONE_CHAR = frozenset(_PUNCT_CHARS) | _NAME_START


def _strings(text: str) -> list[str]:
    """The tokens of ``text`` as they are written, a string with its quotes,
    ending with the empty string.  A stray character or a lone quote raises
    an error at the first one."""
    tokens = _STRINGS.findall(text, _SKIP.match(text).end())
    if any(map(_stray, set(tokens))):
        at = [*map(_stray, tokens)].index(True)
        message = "unterminated string" if tokens[at] == '"' else f"unexpected character {tokens[at]!r}"
        raise DslError([Diagnostic(*_positions(text, tokens)[at], message)])
    return tokens


def _stray(t: str) -> bool:
    """Whether a token is an error: a one-character token that is no name,
    punctuation or digit, such as a lone quote."""
    return len(t) == 1 and t not in _ONE_CHAR and not t.isdecimal()


def _positions(text: str, tokens: list[str]) -> list[tuple[int, int]]:
    """The (line, column) of each token of ``_strings(text)``.

    A column is the offset from the start of its line, plus one.  Lines are
    counted from the newlines between tokens only: a newline inside a string
    does not start a line, so columns after such a string keep counting from
    the string's line.  After a trailing comment, the end of input is at its "#".
    """
    out: list[tuple[int, int]] = []
    line, line_start, gap = 1, 0, 0  # gap: where the text skipped before the next token starts
    for t in tokens:
        at = _SKIP.match(text, gap).end()
        newlines = text.count("\n", gap, at)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", gap, at) + 1
        if not t:
            comment = text.find("#", max(gap, line_start))
            at = at if comment < 0 else comment
        out.append((line, at - line_start + 1))
        gap = at + len(t)
    return out


def _value(t: str) -> str:
    """A token's text without the quotes of a string."""
    return t[1:-1] if t[:1] == '"' else t


# ---------------------------------------------------------------------------
# parser

# prefix formula operators by token; "<" opens a named intervention "<name>"
PREFIX = {
    "!": F.Not,
    "[]": F.Box,
    "<>": F.Diamond,
    "[]+": F.BoxPlus,
    "<>+": F.DiamondPlus,
    "<?>": F.InterveneExists,
    "<": F.Intervene,
}
# the words a formula reads as constants, so no atom or formula can be named by one
CONSTANTS = {"true": F.TRUE, "false": F.FALSE}


class _Parser:
    """Reads the tokens of ``_strings``; a token is kept by its index, and
    positions are looked up only to build a diagnostic."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _strings(text)
        self.pos = 0

    @cached_property
    def positions(self) -> list[tuple[int, int]]:
        return _positions(self.text, self.tokens)

    def diagnostic(self, at: int, message: str) -> Diagnostic:
        return Diagnostic(*self.positions[at], message)

    def error(self, message: str, at: int | None = None):
        raise DslError([self.diagnostic(self.pos if at is None else at, message)])

    def found(self) -> str:
        """The next token for a message; "end of input" at the end."""
        return _value(self.tokens[self.pos]) or "end of input"

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        t = self.tokens[self.pos]
        if t:
            self.pos += 1
        return t

    def expect_punct(self, value: str) -> None:
        if self.tokens[self.pos] != value:
            self.error(f"expected {value!r}, found {self.found()!r}")
        self.pos += 1

    def expect_name(self, what: str = "name") -> str:
        t = self.tokens[self.pos]
        if t[:1] not in _NAME_START:
            self.error(f"expected {what}, found {self.found()!r}")
        self.pos += 1
        return t

    def expect_number(self, what: str = "number") -> str:
        t = self.tokens[self.pos]
        if not t[:1].isdecimal():
            self.error(f"expected {what}, found {self.found()!r}")
        self.pos += 1
        return t

    def eat(self, value: str) -> bool:
        """Skip the next token if it is ``value``, a punctuation or a name."""
        if self.tokens[self.pos] == value:
            self.pos += 1
            return True
        return False

    # ---- formulas -----------------------------------------------------

    def parse_formula(self) -> F.Formula:
        """A formula.  The descent recurses per parenthesis, ``*`` operand and
        ``->``; past the recursion limit, the error is at the token where it
        stopped."""
        try:
            return self._implies()
        except RecursionError:
            self.error("formula nested too deeply to parse")

    def _implies(self) -> F.Formula:
        left = self._or()
        if self.eat("->"):
            return F.Implies(left, self._implies())
        return left

    def _or(self) -> F.Formula:
        out = self._and()
        while self.eat("|"):
            out = F.Or(out, self._and())
        return out

    def _and(self) -> F.Formula:
        out = self._unary()
        while self.eat("&"):
            out = F.And(out, self._unary())
        return out

    def _unary(self) -> F.Formula:
        wrappers = []
        while self.tokens[self.pos] in PREFIX:
            token = self.next()
            wrap = PREFIX[token]
            if token == "<":
                wrap = partial(wrap, self.expect_name("intervention name"))
                self.expect_punct(">")
            wrappers.append(wrap)
        out = self._postfix()
        for wrap in reversed(wrappers):
            out = wrap(out)
        return out

    def _postfix(self) -> F.Formula:
        parenthesized = self.tokens[self.pos] == "("
        out = self._primary()
        while self.tokens[self.pos] == "*":
            if not parenthesized:
                self.error("operands of '*' must be parenthesized")
            self.next()
            self.expect_punct("(")
            right = self._implies()
            self.expect_punct(")")
            out = F.Star(out, right)
        return out

    def _primary(self) -> F.Formula:
        if self.eat("("):
            out = self._implies()
            self.expect_punct(")")
            return out
        t = self.tokens[self.pos]
        if t[:1] in _NAME_START:
            self.pos += 1
            if t in CONSTANTS:
                return CONSTANTS[t]
            if t == "p" and self.eat("["):
                comp = self.expect_name("component name")
                self.expect_punct("=")
                beh = self.expect_name("behaviour name")
                self.expect_punct("]")
                return F.BehaviourAtom(comp, beh)
            return F.Atom(t)
        self.error(f"expected a formula, found {self.found()!r}")

    # ---- shared pieces -------------------------------------------------

    def parse_name_list(self, stop_values) -> list[str]:
        names: list[str] = []
        while True:
            if self.eat(","):
                continue
            t = self.tokens[self.pos]
            if t[:1] not in _NAME_START or t in stop_values:
                return names
            self.pos += 1
            names.append(t)


# ---------------------------------------------------------------------------
# document parsing


def parse_model(text: str, path: str | None = None, stanzas: bool = True) -> ModelDocument:
    """Parse and validate a model document; raises DslError with diagnostics.

    Every stanza's syntax is read.  Only with ``stanzas`` are the stanzas
    resolved against the document and kept in ``queries``; without it, a
    stanza that names nothing the document declares is not reported, and
    ``queries`` is empty."""
    p = _Parser(text)
    mode = "async"
    components: list[ComponentDecl] = []
    # each declaration and stanza is kept with the index of its first token
    atoms_raw: list[tuple[int, str, object]] = []
    configs_raw: list[tuple[int, str, list[tuple[str, str]]]] = []
    interventions_raw: list = []
    formulas_raw: list[tuple[int, str, F.Formula]] = []
    queries_raw: list[tuple[int, object]] = []

    while p.peek():
        head = p.peek()
        if head[:1] not in _NAME_START:
            p.error(f"expected a declaration or query, found {_value(head)!r}")
        if head in ("async", "sync"):
            p.next()
            mode = head
        elif head == "component":
            components.append(_parse_component(p))
        elif head == "atom":
            atoms_raw.append(_parse_atom(p))
        elif head == "config":
            configs_raw.append(_parse_config_decl(p))
        elif head == "intervention":
            interventions_raw.append(_parse_intervention(p))
        elif head == "formula":
            at = p.pos
            p.next()
            name = p.expect_name("formula name")
            p.expect_punct("=")
            formulas_raw.append((at, name, p.parse_formula()))
        elif head in QUERIES:
            at = p.pos
            queries_raw.append((at, _parse_stanza(p)))
        else:
            p.error(f"unknown declaration {head!r}")

    diags: list[Diagnostic] = []
    if not components:
        diags.append(Diagnostic(1, 1, "no components declared"))
        raise DslError(diags)

    domains = {c.name: c.domain for c in components}

    # configurations, in declaration order
    config_map: dict[str, Configuration] = {}
    order = [c.name for c in components]
    for at, name, pairs in configs_raw:
        if name in config_map:
            diags.append(p.diagnostic(at, f"duplicate configuration name {name!r}"))
            continue
        mapping = dict(pairs)
        missing = [c for c in order if c not in mapping]
        extra = [c for c, _ in pairs if c not in domains]
        msg = [f"component {c!r} assigned twice" for c in repeated(c for c, _ in pairs)]
        if missing:
            msg.append(f"missing components {missing}")
        if extra:
            msg.append(f"unknown components {extra}")
        msg += [f"behaviour {b!r} not in domain of {c!r}" for c, b in pairs if c in domains and b not in domains[c]]
        if msg:
            diags.append(p.diagnostic(at, f"configuration {name!r}: " + ", ".join(msg)))
            continue
        config_map[name] = Configuration(tuple((c, mapping[c]) for c in order))

    # atoms
    atoms: list[AtomDecl] = []
    atom_names: set[str] = set()
    for at, name, body in atoms_raw:
        if name in atom_names:
            diags.append(p.diagnostic(at, f"duplicate atom name {name!r}"))
            continue
        if name in CONSTANTS:
            diags.append(p.diagnostic(at, f"atom name {name!r} is a formula constant"))
            continue
        atom_names.add(name)
        if isinstance(body, tuple):
            comp, beh = body
            atoms.append(AtomDecl(name=name, component=comp, behaviour=beh))
        else:
            ext = []
            for ref in body:
                if ref not in config_map:
                    diags.append(p.diagnostic(at, f"atom {name!r}: unknown configuration {ref!r}"))
                else:
                    ext.append(config_map[ref])
            atoms.append(AtomDecl(name=name, extension=tuple(ext)))

    # interventions
    interventions: list[Intervention] = []
    for name, targets, cost, penalty, rules in interventions_raw:
        tables: dict[str, list[RuleRow]] = {t: [] for t in targets}
        for at, target, row in rules:
            if target not in tables:
                diags.append(p.diagnostic(at, f"intervention {name!r}: rule for non-target {target!r}"))
                continue
            tables[target].append(row)
        interventions.append(
            Intervention(
                name=name,
                targets=tuple(targets),
                rules=tuple((t, RuleTable(tuple(rows))) for t, rows in tables.items()),
                cost=cost,
                penalty=penalty,
            )
        )

    model = SystemModel(
        components=tuple(components),
        atoms=tuple(atoms),
        interventions=tuple(interventions),
        mode=mode,
    )
    for v in validate_model(model):
        diags.append(Diagnostic(0, 0, str(v)))
    if diags:
        raise DslError(diags)

    # named formulas resolve against atoms and earlier formulas
    formula_map: dict[str, F.Formula] = {}
    for at, name, phi in formulas_raw:
        if name in formula_map or name in atom_names:
            diags.append(p.diagnostic(at, f"duplicate formula name {name!r}"))
            continue
        if name in CONSTANTS:
            diags.append(p.diagnostic(at, f"formula name {name!r} is a formula constant"))
            continue
        try:
            formula_map[name] = _resolve_formula(phi, formula_map, model)
        except DslError as exc:
            diags.extend(p.diagnostic(at, d.message) for d in exc.diagnostics)
    if diags:
        raise DslError(diags)

    # stanzas resolve against the document they belong to
    doc = ModelDocument(model, tuple(config_map.items()), tuple(formula_map.items()), path=path)
    if not stanzas:
        return doc
    queries = []
    for at, (head, raw) in queries_raw:
        try:
            queries.append(_resolve_stanza(head, raw, doc))
        except DslError as exc:
            diags.extend(p.diagnostic(at, d.message) for d in exc.diagnostics)
    if diags:
        raise DslError(diags)
    return replace(doc, queries=tuple(queries))


def _parse_component(p: _Parser) -> ComponentDecl:
    p.next()  # component
    name = p.expect_name("component name")
    p.expect_punct("{")
    domain: list[str] = []
    context: list[str] = []
    rows: list[RuleRow] = []
    while not p.eat("}"):
        if p.eat("domain"):
            domain = p.parse_name_list(("domain", "context", "rule"))
        elif p.eat("context"):
            context = p.parse_name_list(("domain", "context", "rule"))
        elif p.eat("rule"):
            rows.append(_parse_rule_row(p))
        else:
            p.error(f"expected domain, context, rule or '}}', found {_value(p.peek())!r}")
    return ComponentDecl(
        name=name, domain=tuple(domain), context=tuple(context), rule=RuleTable(tuple(rows))
    )


def _parse_pattern(p: _Parser) -> str | None:
    t = p.expect_name("behaviour or '_'")
    return None if t == "_" else t


def _parse_rule_row(p: _Parser) -> RuleRow:
    own = _parse_pattern(p)
    context: list[str | None] = []
    if p.eat("("):
        while not p.eat(")"):
            if not p.eat(","):
                context.append(_parse_pattern(p))
    p.expect_punct("->")
    out = p.expect_name("output behaviour")
    return RuleRow(own=own, context=tuple(context), output=out)


def _parse_atom(p: _Parser):
    at = p.pos
    p.next()  # atom
    name = p.expect_name("atom name")
    p.expect_punct("=")
    if p.peek() == "{":
        return (at, name, _parse_braced_names(p))
    comp = p.expect_name("component name")
    p.expect_punct("=")
    beh = p.expect_name("behaviour name")
    return (at, name, (comp, beh))


def _parse_braced_names(p: _Parser) -> list[str]:
    p.expect_punct("{")
    names = p.parse_name_list(())
    p.expect_punct("}")
    return names


def _parse_config_literal(p: _Parser) -> list[tuple[str, str]]:
    p.expect_punct("(")
    pairs: list[tuple[str, str]] = []
    while not p.eat(")"):
        if p.eat(","):
            continue
        comp = p.expect_name("component name")
        p.expect_punct("=")
        beh = p.expect_name("behaviour name")
        pairs.append((comp, beh))
    return pairs


def _parse_config_decl(p: _Parser):
    at = p.pos
    p.next()  # config
    name = p.expect_name("configuration name")
    p.expect_punct("=")
    pairs = _parse_config_literal(p)
    return (at, name, pairs)


def _parse_intervention(p: _Parser):
    p.next()  # intervention
    name = p.expect_name("intervention name")
    if not p.eat("on"):
        p.error("expected 'on' and a target list")
    targets = p.parse_name_list(())
    p.expect_punct("{")
    amounts: dict[str, float] = {}
    rules = []
    while not p.eat("}"):
        at = p.pos
        if p.peek() in ("cost", "penalty"):
            word = p.next()
            amount = amounts[word] = float(p.expect_number(word))
            if not isfinite(amount):
                p.error(f"{word} too large for a float", p.pos - 1)
        elif p.eat("rule"):
            target = p.expect_name("target component")
            p.expect_punct(":")
            rules.append((at, target, _parse_rule_row(p)))
        else:
            p.error(f"expected cost, penalty, rule or '}}', found {_value(p.peek())!r}")
    return (name, targets, amounts.get("cost"), amounts.get("penalty"), rules)


# ---------------------------------------------------------------------------
# query stanzas: one grammar entry per kind, read, resolved and printed by
# one walker each


@record
class Stanza:
    """A resolved query stanza: its kind (the head word) and, per slot of its
    grammar entry, the label it is echoed with and the value it resolved to;
    an absent optional clause has label and value None."""

    kind: str
    labels: tuple
    values: tuple

    def echo(self) -> str:
        """The stanza's query text; an absent optional clause is left out."""
        labels = iter(self.labels)
        parts = [self.kind]
        for item in QUERIES[self.kind]:
            if isinstance(item, str):
                parts.append(item)
            elif (label := next(labels)) is not None:
                if item.keyword:
                    parts.append(item.keyword)
                parts.append(item.type.render(label))
        return " ".join(parts)


@record
class _Type:
    """What a slot holds, how it is read (``parse(parser, slot)``), resolved to
    a (label, value) pair (``resolve(raw, doc)``), and printed from its label."""

    what: str
    parse: Callable
    resolve: Callable
    render: Callable = str


@record
class Slot:
    """A typed value of a stanza; with a keyword it is the optional clause
    ``KEYWORD value``, and such clauses follow the fixed part in any order."""

    field: str
    type: _Type
    keyword: str | None = None


def _parse_config_ref(p: _Parser) -> tuple[str, object]:
    """A configuration reference: a declared name or an inline literal."""
    if p.peek() == "(":
        pairs = _parse_config_literal(p)
        return str(Configuration(tuple(pairs))), pairs
    name = p.expect_name("configuration name")
    return name, name


def _quoted(path: str) -> str:
    """The path as stanza text, which has no way to hold a double quote."""
    if '"' in path:
        raise DslError([Diagnostic(0, 0, "the other model's path cannot hold a double quote")])
    return f'"{path}"'


def _parse_path(p: _Parser) -> str:
    if p.peek()[:1] != '"':
        p.error("expected a quoted path to the other model")
    return p.next()[1:-1]


def _resolve_config_ref(ref, doc: ModelDocument) -> tuple[str, Configuration]:
    label, body = ref
    if isinstance(body, str):
        return label, doc.configuration(body)
    twice = repeated(c for c, _ in body)
    if twice:
        raise DslError([Diagnostic(0, 0, f"component {c!r} assigned twice") for c in twice])
    try:
        return label, doc.model.configuration(dict(body))
    except ModelError as exc:
        raise DslError([Diagnostic(0, 0, str(exc))]) from None


def _resolve_formula_slot(phi, doc: ModelDocument) -> tuple[str, F.Formula]:
    resolved = _resolve_formula(phi, doc.formula_map, doc.model)
    return F.pretty(resolved), resolved


def _resolve_components(names, doc: ModelDocument) -> tuple[tuple, tuple]:
    twice = repeated(names)
    if twice:
        raise DslError([Diagnostic(0, 0, f"component {c!r} named twice") for c in twice])
    for c in names:
        if c not in doc.model.component_map:
            raise DslError([Diagnostic(0, 0, f"unknown component {c!r}")])
    return names, names


def _parse_count(p: _Parser, slot: Slot) -> int:
    at = p.pos
    t = p.expect_number(slot.keyword)
    if "." in t:
        p.error(f"expected a whole number after {slot.keyword!r}, found {t!r}", at)
    return int(t)


def _unresolved(raw, doc: ModelDocument):
    return raw, raw


CONFIG = _Type("configuration", lambda p, slot: _parse_config_ref(p), _resolve_config_ref)
FORMULA = _Type("formula", lambda p, slot: p.parse_formula(), _resolve_formula_slot)
COMPONENTS = _Type(
    "component list", lambda p, slot: tuple(_parse_braced_names(p)), _resolve_components, lambda names: f"{{{' '.join(names)}}}"
)
PATH = _Type("path", lambda p, slot: _parse_path(p), _unresolved, _quoted)
NAME = _Type("configuration name", lambda p, slot: p.expect_name("configuration name"), _unresolved)
NUMBER = _Type("number", _parse_count, _unresolved)

# every query kind: literals (keywords and punctuation) and slots, in order;
# slot fields are also the argument names of the command line and of the
# kind's handler in the queries module
QUERIES = {
    "check": (Slot("config", CONFIG), "|=", Slot("formula", FORMULA)),
    "cause": ("from", Slot("start", CONFIG), "to", Slot("end", CONFIG), "effect", Slot("effect", COMPONENTS)),
    "chain": (
        "from", Slot("start", CONFIG), "to", Slot("end", CONFIG),
        Slot("effect", COMPONENTS, "effect"), Slot("max_len", NUMBER, "maxlen"),
    ),
    "decompose": (Slot("left", COMPONENTS), Slot("right", COMPONENTS)),
    "bisim": (Slot("config", CONFIG), "vs", Slot("other_model", PATH), Slot("other_config", NAME)),
    "recover": (Slot("config", CONFIG), "avoiding", Slot("formula", FORMULA)),
    "mincost": (Slot("config", CONFIG), "avoiding", Slot("formula", FORMULA)),
    "utility": (Slot("config", CONFIG), "avoiding", Slot("formula", FORMULA)),
}


def _slots(kind: str) -> list[Slot]:
    return [item for item in QUERIES[kind] if isinstance(item, Slot)]


def _parse_stanza(p: _Parser) -> tuple[str, list]:
    """The head of the stanza at the parser and one raw value per slot."""
    if p.peek() not in QUERIES:
        p.error(f"expected a query stanza, found {_value(p.peek())!r}")
    head = p.next()
    raw: list = []
    clauses: dict[str, tuple[int, Slot]] = {}
    for item in QUERIES[head]:
        if isinstance(item, Slot) and item.keyword:
            clauses[item.keyword] = (len(raw), item)
            raw.append(None)
        elif isinstance(item, Slot):
            raw.append(item.type.parse(p, item))
        elif _NAME_RE.fullmatch(item):
            if not p.eat(item):
                p.error(f"expected {item!r}")
        else:
            p.expect_punct(item)
    while p.peek() in clauses:
        i, slot = clauses[p.next()]
        if raw[i] is not None:
            p.error(f"clause {slot.keyword!r} given twice", p.pos - 1)
        raw[i] = slot.type.parse(p, slot)
    return head, raw


def _resolve_stanza(head: str, raw: list, doc: ModelDocument) -> Stanza:
    resolved = [(None, None) if r is None else s.type.resolve(r, doc) for s, r in zip(_slots(head), raw)]
    labels, values = zip(*resolved)
    return Stanza(head, labels, values)


# ---------------------------------------------------------------------------
# resolution


def _resolve_atom(x, formula_map, model):
    if x.name in formula_map:
        return formula_map[x.name], None
    if x.name in model.atom_map:
        return x, None
    return x, f"unresolved name {x.name!r} in formula"


def _check_behaviour_atom(x, formula_map, model):
    decl = model.component_map.get(x.component)
    if decl is None:
        return x, f"behaviour atom names unknown component {x.component!r}"
    if x.behaviour not in decl.domain:
        return x, f"behaviour atom names unknown behaviour {x.behaviour!r} of {x.component!r}"
    return x, None


def _check_intervention(x, formula_map, model):
    if x.name not in model.intervention_map:
        return x, f"unresolved intervention name {x.name!r}"
    return x, None


# the node kinds that carry names; each resolves its node or reports an error
_NAME_CHECKS = {
    F.Atom: _resolve_atom,
    F.BehaviourAtom: _check_behaviour_atom,
    F.Intervene: _check_intervention,
}


def _resolve_formula(phi: F.Formula, formula_map, model: SystemModel) -> F.Formula:
    """Substitute named formulas and check every name; the diagnostic is the
    first error in pre-order, a node's own before its subformulas'."""

    def combine(x, results):
        x = F.rebuild(x, [node for node, _ in results])
        error = None
        check = _NAME_CHECKS.get(type(x))
        if check is not None:
            x, error = check(x, formula_map, model)
        return x, error or next((e for _, e in results if e), None)

    resolved, error = F.fold(phi, combine)
    if error:
        raise DslError([Diagnostic(0, 0, error)])
    return resolved


# ---------------------------------------------------------------------------
# text read alone: single items for report replay, and command-line arguments


def _read_alone(text: str, read: Callable, what: str):
    """What ``read(parser)`` reads from ``text``; anything left over is an error."""
    p = _Parser(text)
    out = read(p)
    if p.peek():
        p.error(f"trailing input after {what}")
    return out


def parse_formula_text(text: str, doc: ModelDocument) -> F.Formula:
    phi = _read_alone(text, _Parser.parse_formula, "formula")
    return _resolve_formula(phi, doc.formula_map, doc.model)


def parse_config_text(text: str, doc: ModelDocument) -> Configuration:
    ref = _read_alone(text, _parse_config_ref, "configuration")
    return _resolve_config_ref(ref, doc)[1]


def parse_query_text(text: str, doc: ModelDocument) -> Stanza:
    return _resolve_stanza(*_read_alone(text, _parse_stanza, "query"), doc)


def parse_arguments(kind: str, values: Mapping, doc: ModelDocument) -> Stanza:
    """The ``kind`` stanza whose slots hold ``values`` by field (None leaves a
    clause out).  Each value is printed as its slot's label is and read back
    alone, so it fills its own slot only, and a diagnostic's column is in it."""
    raw = [
        None if values[s.field] is None
        else _read_alone(s.type.render(values[s.field]), partial(s.type.parse, slot=s), s.type.what)
        for s in _slots(kind)
    ]
    return _resolve_stanza(kind, raw, doc)


# ---------------------------------------------------------------------------
# canonical printing


def _print_row(row: RuleRow) -> str:
    own = row.own if row.own is not None else "_"
    if row.context:
        ctx = ", ".join(x if x is not None else "_" for x in row.context)
        return f"rule {own} ({ctx}) -> {row.output}"
    return f"rule {own} -> {row.output}"


def pretty_document(doc: ModelDocument) -> str:
    lines: list[str] = [doc.model.mode, ""]
    for c in doc.model.components:
        lines.append(f"component {c.name} {{")
        lines.append("  domain " + " ".join(c.domain))
        if c.context:
            lines.append("  context " + " ".join(c.context))
        for row in c.rule.rows:
            lines.append("  " + _print_row(row))
        lines.append("}")
    lines.append("")
    named = {f: n for n, f in reversed(doc.configurations)}  # each configuration's first name
    for a in doc.model.atoms:
        if a.is_predicate:
            lines.append(f"atom {a.name} = {a.component} = {a.behaviour}")
        else:
            names = [named[g] for g in a.extension or () if g in named]
            lines.append(f"atom {a.name} = {{ " + " ".join(names) + " }")
    for name, f in doc.configurations:
        lines.append(f"config {name} = {f}")
    for iv in doc.model.interventions:
        lines.append(f"intervention {iv.name} on " + " ".join(iv.targets) + " {")
        if iv.cost is not None:
            cost = int(iv.cost) if float(iv.cost).is_integer() else iv.cost
            lines.append(f"  cost {cost}")
        if iv.penalty is not None:
            pen = int(iv.penalty) if float(iv.penalty).is_integer() else iv.penalty
            lines.append(f"  penalty {pen}")
        for target, table in iv.rules:
            for row in table.rows:
                lines.append(f"  rule {target}: " + _print_row(row)[5:])
        lines.append("}")
    for name, phi in doc.formulas:
        lines.append(f"formula {name} = {F.pretty(phi)}")
    for q in doc.queries:
        lines.append(q.echo())
    return "\n".join(lines) + "\n"
