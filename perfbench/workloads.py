"""The three query batteries: which documents they generate and which
command lines they repeat.

A battery is a fixed list of operations.  One operation is one query
invocation of the ``causalmc`` command line with a ``--report`` file.  The
seed picks the names inside the generated documents and the order in which
the operations run; the multiset of queries, and so the work per pass, is
the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import families

WHY = {
    "cause": (
        "cause and chain queries on pipelines, fan-in trees and micro: cause search dominates, "
        "with thousands of clamped variants and short searches"
    ),
    "check": (
        "check, recover, mincost and utility on rings and micro: formula evaluation dominates, "
        "mixing exhaustive nested reachability with short-circuiting queries"
    ),
    "bisim": (
        "bisim against renamed (bisimilar) and perturbed copies: colour refinement and "
        "distinguishing formulas dominate; no cause search or formula evaluation"
    ),
}


@dataclass
class Op:
    """One query invocation; ``id`` is the same on every seed."""

    id: str
    doc: str
    argv: list[str]
    report: str
    ref: dict = field(default_factory=dict)


@dataclass
class Battery:
    """``declared`` is the definition order; ``ops`` is the seeded run order."""

    tmp: Path
    docs: dict[str, Path]
    declared: list[Op]
    ops: list[Op]

    @property
    def warmups(self) -> list[Op]:
        """The first declared operation of every document."""
        return [next(op for op in self.declared if op.doc == d) for d in self.docs]


# Every battery has 15 or 25 operations.  With m operations of distinct
# cost repeated over whole passes, the median and the 90th percentile of
# the pooled latencies fall in the middle of one operation's samples only
# when m/2 and 9m/10 both end in .5; at a boundary between two operations
# they jump between the two on noise.


class _Builder:
    def __init__(self, workload: str, seed: int, tmp: Path, root: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = tmp
        self.root = root
        self.workload = workload
        self.docs: dict[str, Path] = {}
        self.ops: list[Op] = []

    def write(self, key: str, text: str) -> Path:
        path = self.tmp / f"{key}.model"
        path.write_text(text, encoding="utf-8")
        self.docs[key] = path
        return path

    def bundled(self, key: str, name: str) -> Path:
        path = self.root / "models" / name
        self.docs[key] = path
        return path

    def op(self, key: str, doc: str, args: list[str], **ref) -> None:
        report = self.tmp / (key.replace("/", "__").replace("@", "_at_") + ".report.json")
        argv = [args[0], str(self.docs[doc])] + args[1:]
        self.ops.append(Op(key, doc, argv, str(report), ref))

    def battery(self) -> Battery:
        if len(self.ops) % 10 != 5:
            raise ValueError(f"{self.workload} battery has {len(self.ops)} operations, not 10k+5")
        timed = list(self.ops)
        self.rng.shuffle(timed)
        return Battery(self.tmp, self.docs, list(self.ops), timed)


def _cause_args(start, end, effect, max_len=None):
    head = ["cause"] if max_len is None else ["chain"]
    args = head + ["--from", start, "--to", end, "--effect", *effect]
    if max_len is not None:
        args += ["--max-len", str(max_len)]
    return args


def build_cause(seed: int, tmp: Path, root: Path) -> Battery:
    b = _Builder("cause", seed, tmp, root)
    # (key, generator, chain maxlens); the fault-at-start pipelines and
    # single-fault trees certify a cause, the others have none and exhaust
    # every witness set of every candidate with a but-for contrast
    docs = [
        ("pipe5-fault", lambda: families.pipeline(b.rng, 5, True), (3,)),
        ("pipe5-spont", lambda: families.pipeline(b.rng, 5, False), (2,)),
        ("pipe6-fault", lambda: families.pipeline(b.rng, 6, True), ()),
        ("pipe6-spont", lambda: families.pipeline(b.rng, 6, False), ()),
        ("pipe7-fault", lambda: families.pipeline(b.rng, 7, True), ()),
        ("fan5-single", lambda: families.fanin(b.rng, 3, 1), (3,)),
        ("fan5-double", lambda: families.fanin(b.rng, 3, 2), ()),
        ("fan6-single", lambda: families.fanin(b.rng, 4, 1), ()),
        ("fan6-double", lambda: families.fanin(b.rng, 4, 2), ()),
        ("fan7-single", lambda: families.fanin(b.rng, 5, 1), ()),
    ]
    for key, gen, chains in docs:
        text, names = gen()
        b.write(key, text)
        span = (names["start"], names["end"], [names["comps"][-1]])
        b.op(f"{key}/cause", key, _cause_args(*span), kind="cause", span=span)
        for n in chains:
            b.op(f"{key}/chain{n}", key, _cause_args(*span, max_len=n), kind="chain", span=span)
    b.bundled("micro", "microservice.model")
    span = ("f1", "f2", ["FrontEnd"])
    b.op("micro/cause", "micro", _cause_args(*span), kind="cause", span=span)
    b.op("micro/chain3", "micro", _cause_args(*span, max_len=3), kind="chain", span=span)
    return b.battery()


def build_check(seed: int, tmp: Path, root: Path) -> Battery:
    b = _Builder("check", seed, tmp, root)
    for n in (3, 4, 5, 6):
        text, nm = families.ring(b.rng, n)
        key = f"ring{n}"
        b.write(key, text)
        down, up, (restart, _pin, isolate) = nm["down"], nm["last_up"], nm["ivs"]
        at = nm["failing"]
        queries = {
            # exhaustive: nothing is false, so every nested search runs to the end
            3: [("dplus3", ["check", at, "<>+ <>+ <>+ false"]),
                ("isolate", ["check", at, f"<{isolate}> []+ <>+ {down}"])],
            4: [("dplus3", ["check", at, "<>+ <>+ <>+ false"]),
                ("star", ["check", at, f"(true) * ([]+ <>+ {up})"]),
                ("exists", ["check", at, f"<?> <>+ {up}"]),
                ("mincost", ["mincost", at, down]),
                ("utility", ["utility", at, f"<>+ {down}"])],
            5: [("dplus3", ["check", at, "<>+ <>+ <>+ false"]),
                # short-circuits at the first reachable configuration
                ("dplus3-down", ["check", at, f"<>+ <>+ <>+ {down}"]),
                ("star", ["check", at, f"([]+ <>+ {down}) * ([]+ <>+ {up})"]),
                ("recover", ["recover", at, down])],
            6: [("dplus2", ["check", at, "<>+ <>+ false"]),
                ("box2", ["check", at, f"[]+ []+ <>+ {down}"]),
                ("star", ["check", at, f"([]+ <>+ {down}) * ([]+ <>+ {up})"]),
                ("restart", ["check", at, f"<{restart}> []+ ! {down}"]),
                ("utility", ["utility", at, down]),
                ("exists", ["check", at, f"<?> []+ ! {down}"])],
        }[n]
        for name, args in queries:
            b.op(f"{key}/{name}", key, args, kind=args[0])
    b.bundled("micro", "microservice.model")
    for name, args in [
        ("boxdia-f1", ["check", "f1", "[]+ <>+ phi_fail"]),
        ("boxdia-f2", ["check", "f2", "[]+ <>+ phi_fail"]),
        ("star", ["check", "f1", "(<>+ phi_fail) * (true)"]),
        ("theta1", ["check", "f2", "<theta1> [] ! phi_fail"]),
        ("exists", ["check", "f1", "<?> []+ ! phi_fail"]),
        ("recover", ["recover", "f2", "phi_fail"]),
        ("mincost", ["mincost", "f2", "phi_fail"]),
        ("utility", ["utility", "f2", "phi_fail"]),
    ]:
        b.op(f"micro/{name}", "micro", args, kind=args[0])
    return b.battery()


def build_bisim(seed: int, tmp: Path, root: Path) -> Battery:
    from causalmc.dsl import ModelDocument, parse_model, pretty_document
    from causalmc.generate import perturb_model, rename_component_behaviours

    b = _Builder("bisim", seed, tmp, root)

    def copies(key, text, renamed_comp, perturb_seeds) -> dict[str, Path]:
        """Write the renamed copy and the perturbed copies of one model."""
        doc = parse_model(text)
        ren, ren_cfg = rename_component_behaviours(doc.model, renamed_comp)
        cfgs = tuple((n, ren_cfg(f)) for n, f in doc.configurations)
        bodies = {"ren": pretty_document(ModelDocument(ren, cfgs, ()))}
        for k in perturb_seeds:
            pert = perturb_model(random.Random(k), doc.model)
            bodies[f"pert{k}"] = pretty_document(ModelDocument(pert, doc.configurations, ()))
        paths = {}
        for tag, body in bodies.items():
            paths[tag] = b.tmp / f"{key}.{tag}.model"
            paths[tag].write_text(body, encoding="utf-8")
        return paths

    def bisim(name, key, point, other, tag):
        b.op(name, key, ["bisim", point, str(other), point],
             kind="bisim", renamed=tag == "ren", other=str(other), point=point)

    path = b.bundled("ex1", "ex1.model")
    for tag, other in copies("ex1", path.read_text(encoding="utf-8"), "c1", (0, 2)).items():
        bisim(f"ex1/{tag}", "ex1", "start", other, tag)
    for n, fault, perturb in ((3, True, (0,)), (3, False, (1,)), (4, True, (0,)), (4, False, (2,))):
        key = f"pipe{n}-{'fault' if fault else 'spont'}"
        text, nm = families.pipeline(b.rng, n, fault)
        b.write(key, text)
        for tag, other in copies(key, text, nm["comps"][1], perturb).items():
            bisim(f"{key}/{tag}", key, nm["start"], other, tag)
    text, nm = families.ring(b.rng, 3)
    b.write("ring3", text)
    others = copies("ring3", text, nm["comps"][0], (0, 2))
    for tag, other in others.items():
        bisim(f"ring3/{tag}", "ring3", nm["failing"], other, tag)
    bisim("ring3/ren@healthy", "ring3", nm["healthy"], others["ren"], "ren")
    return b.battery()


BUILDERS = {"cause": build_cause, "check": build_check, "bisim": build_bisim}
