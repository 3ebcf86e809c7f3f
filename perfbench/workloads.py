"""Seeded `.pml` inputs for the benchmark, each with the answer it must get.

Every generator builds a model whose verdict follows from how it was built:
the expected exit code, finding counts by code, role counts, class and
subtype counts, DOT sizes and spanning-class membership are written down
here from the construction, never read back from promisekit.  Every request
gets freshly drawn identifiers, so no two requests share input text.

A request id names the command and size only (``ring.check.n200``); it is the
same for every seed and every round, so known failures can be listed by id.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

KEYWORDS = frozenset(
    "agent type flag bundle extends give use if not and num str service".split()
)

# Sizes are part of the benchmark's definition; WORKLOADS.md explains them.
# A round holds 15 requests (corpus: 55), an odd multiple of five, so that
# the median and p90 ranks fall inside a group of like requests instead of on
# the edge between two groups, where they would read one group's extreme.
# Hence the larger ring and flags size runs twice per round, and links runs
# five requests per size.
RING_SIZES = (100, 200, 200)
FLAG_SIZES = (6, 12, 12)
LINK_SIZES = (3, 6, 12)
LINK_PLAN = ("spanning", "spanning", "spanning", "isa", "isa")
CORPUS_FILE_SIZES = (5, 10)
MUTATIONS_PER_ROUND = 10


@dataclass
class Request:
    """One `pml` invocation (``argv``) or one library verdict (``library``).

    ``files`` are (name, text) pairs; ``argv`` refers to them as ``{0}``,
    ``{1}``, ...  ``size`` is set on ladder requests, which feed
    ``doubling_ratio``.
    """

    id: str
    files: list[tuple[str, str]]
    expect: dict
    argv: Optional[list[str]] = None
    library: Optional[str] = None
    size: Optional[int] = None


class Names:
    """Fresh identifiers, distinct from each other and from keywords."""

    _ALPHABET = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def one(self) -> str:
        while True:
            length = self.rng.randint(4, 9)
            name = "".join(self.rng.choice(self._ALPHABET) for _ in range(length))
            if name not in KEYWORDS and name not in self.used:
                self.used.add(name)
                return name

    def many(self, count: int) -> list[str]:
        return [self.one() for _ in range(count)]


def _rng(seed: int, workload: str, round_no: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_no}:{index}")


def _text(head: list[str], body: list[str], rng: random.Random) -> str:
    """Declarations first, then the promise lines in a seeded order."""
    body = list(body)
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


# ---------------------------------------------------------------------------
# ring: n identical agents, five promises each
# ---------------------------------------------------------------------------
#
# Agent i attaches bundle B {token=$t; load=$t if ready} to its successor,
# gives it load=$x directly, gives `ready` to its predecessor and uses the
# predecessor's token.  On every successor channel the direct load and the
# bundle's gated load can both apply (one channel-overlap) and, when `ready`
# holds, the two scopes' parameters are forced together through `load` (one
# channel-restricted).  All agents look alike, so there is one role, one
# class, and the single gated body is that class's only subtype.

def ring_model(n: int, rng: random.Random) -> str:
    names = Names(rng)
    agents = names.many(n)
    token, load, ready, bundle, t, x = names.many(6)
    head = [
        f"agent {', '.join(agents)};",
        f"type {token}: num;",
        f"type {load}: num;",
        f"flag {ready};",
        f"bundle {bundle} {{ give {token} = ${t}; give {load} = ${t} if {ready}; }}",
    ]
    body = []
    for i, a in enumerate(agents):
        succ, pred = agents[(i + 1) % n], agents[i - 1]
        body += [
            f"{a} -> {succ}: bundle {bundle}",
            f"{a} -> {succ}: give {load} = ${x};",
            f"{a} -> {pred}: give {ready};",
            f"{a} -> {pred}: use {token};",
        ]
    return _text(head, body, rng)


def ring_round(seed: int, round_no: int, sizes=RING_SIZES) -> list[Request]:
    requests = []
    for n in sizes:
        overlap = {"channel-overlap": n, "channel-restricted": n}
        plans = [
            ("check", ["check", "{0}"], {"exit": 1, "findings": overlap, "role_sizes": [n]}),
            ("check-json", ["check", "--json", "{0}"],
             {"exit": 1, "findings": overlap, "role_sizes": [n]}),
            ("roles", ["roles", "{0}"], {"exit": 0, "findings": {}, "role_sizes": [n]}),
            ("classes", ["classes", "{0}"],
             {"exit": 0, "findings": {}, "classes": 1, "subtypes": 1}),
            ("dot", ["dot", "{0}"], {"exit": 0, "nodes": n, "edges": 5 * n}),
        ]
        for command, argv, expect in plans:
            rng = _rng(seed, "ring", round_no, len(requests))
            requests.append(
                Request(f"ring.{command}.n{n}", [("ring.pml", ring_model(n, rng))],
                        expect, argv=argv, size=n)
            )
    return requests


# ---------------------------------------------------------------------------
# flags: one channel with k distinct gates
# ---------------------------------------------------------------------------
#
# Gates: k-4 independent flags g_i plus the complementary pairs a/not a and
# b/not b, so 2^k subsets exist but only 4 maximal worlds.  x promises y one
# gated body per gate (the pairs share a type with different constants, which
# is fine because they are exclusive), and y gives x every flag, so every
# condition is visible.  `check` is clean; `classes` reports one
# hierarchy-overlap per compatible gate pair, C(k,2) - 2 of them.
#
# Bundles for `isa`, all gated by the same k conditions:
#   P / C      C is a renamed copy of P: is-a.
#   SP / RC    SP has width=$w, height=$h; RC forces width=height: restricted.
#   RP / RC    as SP, plus `$w = $h if g_1`.  With g_1 off RC still forces
#              width=height and RP does not, so the answer is restricted.  This
#              is ROADMAP item 3's repro; at seed `isa` answers is-a.  (With
#              k = 4 there is no g_1 and the first gate, a, is used instead.)

def flags_model(k: int, rng: random.Random) -> tuple[str, dict]:
    if k < 4:
        raise ValueError("flags needs k >= 4")
    names = Names(rng)
    x, y = names.many(2)
    gflags = names.many(k - 4)
    fa, fb = names.many(2)
    values = names.many(k - 4)
    ma, mb, width, height = names.many(4)
    p, c, sp, rp, rc = (n.capitalize() for n in names.many(5))
    # (condition text, gated type) for each of the k gates
    gates = [(g, v) for g, v in zip(gflags, values)]
    gates += [(fa, ma), (f"not {fa}", ma), (fb, mb), (f"not {fb}", mb)]

    def gated(skip_first: bool = False) -> str:
        out = []
        for i, (cond, typ) in enumerate(gates):
            if skip_first and i == 0:
                continue
            out.append(f"give {typ} = ${names.one()} if {cond};")
        return " ".join(out)

    w, h, a = names.many(3)
    head = [
        f"agent {x}, {y};",
        *(f"flag {f};" for f in gflags + [fa, fb]),
        *(f"type {t}: num;" for t in values + [ma, mb, width, height]),
        f"bundle {p} {{ {gated()} }}",
        f"bundle {c} {{ {gated()} }}",
        f"bundle {sp} {{ give {width} = ${w}; give {height} = ${h}; {gated()} }}",
        f"bundle {rp} {{ give {width} = ${w}; give {height} = ${h}; "
        f"give ${w} = ${h} if {gates[0][0]}; {gated(skip_first=True)} }}",
        f"bundle {rc} {{ give {width} = ${a}; give {height} = ${a}; }}",
    ]
    body = [f"{y} -> {x}: give {f};" for f in gflags + [fa, fb]]
    for i, (g, v) in enumerate(zip(gflags, values)):
        body.append(f"{x} -> {y}: give {v} = {i + 1} if {g};")
    body += [
        f"{x} -> {y}: give {ma} = 1 if {fa};",
        f"{x} -> {y}: give {ma} = 2 if not {fa};",
        f"{x} -> {y}: give {mb} = 1 if {fb};",
        f"{x} -> {y}: give {mb} = 2 if not {fb};",
    ]
    bundles = {"P": p, "C": c, "SP": sp, "RP": rp, "RC": rc}
    return _text(head, body, rng), bundles


def flags_round(seed: int, round_no: int, sizes=FLAG_SIZES) -> list[Request]:
    requests = []
    for k in sizes:
        pairs = k * (k - 1) // 2 - 2
        plans = [
            ("check", ["check", "{0}"], None, {"exit": 0, "findings": {}, "role_sizes": [1, 1]}),
            ("classes", ["classes", "--json", "{0}"], None,
             {"exit": 0, "findings": {"hierarchy-overlap": pairs}, "classes": 2, "subtypes": 0}),
            ("isa-copy", ["isa", "{0}"], ("C", "P"), {"exit": 0, "isa": "is-a"}),
            ("isa-restricted", ["isa", "--json", "{0}"], ("RC", "SP"),
             {"exit": 1, "isa": "restricted"}),
            ("isa-gated-parent", ["isa", "{0}"], ("RC", "RP"), {"exit": 1, "isa": "restricted"}),
        ]
        for command, argv, operands, expect in plans:
            rng = _rng(seed, "flags", round_no, len(requests))
            text, bundles = flags_model(k, rng)
            if operands:
                argv = argv + [bundles[operands[0]], bundles[operands[1]]]
            requests.append(
                Request(f"flags.{command}.k{k}", [("flags.pml", text)], expect,
                        argv=argv, size=k)
            )
    return requests


# ---------------------------------------------------------------------------
# links: m parameters tied by a cycle of $p = $q links
# ---------------------------------------------------------------------------
#
# Orig ties m parameters in a cycle; four copies rename the parameters,
# reorder the bodies and flip link sides.  Chain ties m parameters in a path
# (not isomorphic to a cycle) and has two copies.  Exactly two spanning
# classes exist: {Orig, copies} and {Chain, copies}.  A copy is-a Orig.  With
# m = 6 a cycle has 720 orderings of tied parameters, which is _PERM_CAP; at
# m = 12 signatures fall back to name order and the copies split, so at seed
# `links.spanning.m12` fails (ROADMAP item 4).

def _link_bundle(name: str, ping: str, m: int, cycle: bool, rng: random.Random,
                 names: Names) -> str:
    params = names.many(m)
    edges = [(params[i], params[i + 1]) for i in range(m - 1)]
    if cycle:
        edges.append((params[-1], params[0]))
    bodies = [f"give {ping};"]
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        bodies.append(f"give ${a} = ${b};")
    rng.shuffle(bodies)
    return f"bundle {name} {{ {' '.join(bodies)} }}"


LINK_COPIES = 4
CHAIN_COPIES = 2


def links_model(m: int, rng: random.Random) -> tuple[str, dict]:
    names = Names(rng)
    u, v, ping = names.many(3)
    cycles = [n.capitalize() for n in names.many(1 + LINK_COPIES)]
    chains = [n.capitalize() for n in names.many(1 + CHAIN_COPIES)]
    head = [f"agent {u}, {v};", f"type {ping}: service;"]
    decls = [_link_bundle(b, ping, m, True, rng, names) for b in cycles]
    decls += [_link_bundle(b, ping, m, False, rng, names) for b in chains]
    rng.shuffle(decls)
    body = [f"{u} -> {v}: bundle {cycles[0]}", f"{v} -> {u}: bundle {chains[0]}"]
    return _text(head + decls, body, rng), {"cycles": cycles, "chains": chains}


def links_round(seed: int, round_no: int, sizes=LINK_SIZES,
                plan=LINK_PLAN) -> list[Request]:
    requests = []
    for m in sizes:
        for kind in plan:
            rng = _rng(seed, "links", round_no, len(requests))
            text, names = links_model(m, rng)
            if kind == "spanning":
                partition = sorted([sorted(names["cycles"]), sorted(names["chains"])])
                req = Request(f"links.spanning.m{m}", [("links.pml", text)],
                              {"partition": partition}, library="spanning", size=m)
            else:
                req = Request(f"links.isa.m{m}", [("links.pml", text)],
                              {"exit": 0, "isa": "is-a"},
                              argv=["isa", "{0}", names["cycles"][1], names["cycles"][0]],
                              size=m)
            requests.append(req)
    return requests


# ---------------------------------------------------------------------------
# corpus: the shipped models, renamed, plus single-token mutations
# ---------------------------------------------------------------------------
#
# Answers for the shipped models, counted by hand from their text and the
# stories their comments tell: every model checks clean; bank's account and
# dispatch's provider split into two exclusive subtypes; Square narrows
# Rectangle (width ~ height); ExtendedApi's "rich" clashes with ClassicApi's
# "plain"; a bundle with disjoint types, or the stricter parent, is stood in
# for.

CORPUS = {
    "bank.pml": {"agents": 2, "promises": 12, "role_sizes": [1, 1], "subtypes": 2, "isa": []},
    "bank_central.pml": {"agents": 5, "promises": 18, "role_sizes": [1, 2, 2],
                         "subtypes": 0, "isa": []},
    "dispatch.pml": {"agents": 2, "promises": 5, "role_sizes": [1, 1], "subtypes": 2,
                     "isa": [("ExtendedApi", "ClassicApi", "inconsistent"),
                             ("ClassicApi", "BaseApi", "is-a")]},
    "geometry.pml": {"agents": 3, "promises": 9, "role_sizes": [1, 2], "subtypes": 0,
                     "isa": [("Square", "Rectangle", "restricted"),
                             ("Rectangle", "Square", "is-a")]},
    "web.pml": {"agents": 5, "promises": 12, "role_sizes": [2, 3], "subtypes": 0, "isa": []},
}

_TOKEN = re.compile(
    r'(?P<comment>#[^\n]*)|(?P<string>"(?:\\.|[^"\\\n])*")|(?P<param>\$[A-Za-z_]\w*)'
    r"|(?P<word>[A-Za-z_]\w*)|(?P<number>\d+(?:\.\d+)?)|(?P<op>->|==|!=|[;,:.{}=])"
    r"|(?P<space>\s+)"
)


def _tokens(text: str) -> list[tuple[str, int, int]]:
    """(kind, start, end) for every token of the text, comments included."""
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot tokenize corpus text at offset {pos}")
        if match.lastgroup != "space":
            out.append((match.lastgroup, match.start(), match.end()))
        pos = match.end()
    return out


def rename(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Consistently replace every identifier and parameter name."""
    names = Names(rng)
    mapping: dict[str, str] = {}
    parts = []
    last = 0
    for kind, start, end in _tokens(text):
        word = text[start:end]
        if kind == "param":
            word = word[1:]
        elif kind != "word" or word in KEYWORDS:
            continue
        if word not in mapping:
            mapping[word] = names.one()
        parts.append(text[last:start])
        parts.append(("$" if kind == "param" else "") + mapping[word])
        last = end
    parts.append(text[last:])
    return "".join(parts), mapping


MUTATION_KINDS = ("illegal-char", "keyword", "unknown-agent", "unknown-type")


def mutate(text: str, kind: str, rng: random.Random) -> tuple[str, tuple]:
    """Replace one token so the model is invalid by construction.

    Returns the new text and the replaced span as (line, col, end_line,
    end_col), 1-based with an exclusive end, which the diagnostic must
    overlap."""
    toks = [t for t in _tokens(text) if t[0] != "comment"]
    words = [(s, e) for k, s, e in toks if k == "word"]
    if kind == "illegal-char":
        candidates = [(s, e) for _, s, e in toks]
        replacement = "@"
    elif kind == "keyword":
        candidates = [(s, e) for s, e in words if text[s:e] in ("give", "use")]
        replacement = None
    elif kind == "unknown-agent":
        # the promiser of a promise declaration: a word followed by '->'
        candidates = [
            (s, e) for (k, s, e), nxt in zip(toks, toks[1:])
            if k == "word" and text[nxt[1]:nxt[2]] == "->"
        ]
        replacement = None
    elif kind == "unknown-type":
        # the subject of a body: a word right after 'give' or 'use'
        candidates = [
            (s, e) for (k0, s0, e0), (k, s, e) in zip(toks, toks[1:])
            if k == "word" and text[s0:e0] in ("give", "use")
            and text[s:e] not in KEYWORDS
        ]
        replacement = None
    else:
        raise ValueError(kind)
    start, end = rng.choice(candidates)
    if replacement is None:
        taken = {text[s:e] for s, e in words}
        names = Names(rng)
        names.used |= taken
        replacement = names.one()
    new = text[:start] + replacement + text[end:]
    return new, _line_col(new, start) + _line_col(new, start + len(replacement))


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "promisekit" / "corpus"


def corpus_round(seed: int, round_no: int) -> list[Request]:
    sources = {name: (CORPUS_DIR / name).read_text(encoding="utf-8") for name in CORPUS}
    requests: list[Request] = []

    def add(req_id: str, model: str, argv, expect) -> dict[str, str]:
        rng = _rng(seed, "corpus", round_no, len(requests))
        text, mapping = rename(sources[model], rng)
        requests.append(Request(req_id, [(model, text)], expect, argv=argv))
        return mapping

    for model, facts in CORPUS.items():
        stem = model[:-4]
        roles = {"role_sizes": facts["role_sizes"]}
        for suffix, json_flag in (("", []), ("-json", ["--json"])):
            add(f"corpus.check{suffix}.{stem}", model, ["check", *json_flag, "{0}"],
                {"exit": 0, "findings": {}, **roles})
            add(f"corpus.roles{suffix}.{stem}", model, ["roles", *json_flag, "{0}"],
                {"exit": 0, "findings": {}, **roles})
            add(f"corpus.classes{suffix}.{stem}", model, ["classes", *json_flag, "{0}"],
                {"exit": 0, "findings": {}, "classes": len(facts["role_sizes"]),
                 "subtypes": facts["subtypes"]})
            for child, parent, outcome in facts["isa"]:
                names = add(f"corpus.isa{suffix}.{stem}.{child}", model, None,
                            {"exit": 0 if outcome == "is-a" else 1, "isa": outcome})
                requests[-1].argv = ["isa", *json_flag, "{0}", names[child], names[parent]]
        add(f"corpus.dot.{stem}", model, ["dot", "{0}"],
            {"exit": 0, "nodes": facts["agents"], "edges": facts["promises"]})

    models = list(CORPUS)
    for count in CORPUS_FILE_SIZES:
        rng = _rng(seed, "corpus", round_no, len(requests))
        files = [(models[i % len(models)], rename(sources[models[i % len(models)]], rng)[0])
                 for i in range(count)]
        sizes = [s for i in range(count) for s in CORPUS[models[i % len(models)]]["role_sizes"]]
        requests.append(
            Request(f"corpus.check-files.f{count}", files,
                    {"exit": 0, "findings": {}, "role_sizes": sorted(sizes)},
                    argv=["check", *(f"{{{i}}}" for i in range(count))], size=count)
        )

    for i in range(MUTATIONS_PER_ROUND):
        model = models[i % len(models)]
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        rng = _rng(seed, "corpus", round_no, len(requests))
        text, _ = rename(sources[model], rng)
        text, span = mutate(text, kind, rng)
        requests.append(
            Request(f"corpus.mutation.{kind}.{model[:-4]}", [(model, text)],
                    {"exit": 2, "diagnostic_at": span}, argv=["check", "--json", "{0}"])
        )
    return requests


WORKLOADS: dict[str, Callable[..., list[Request]]] = {
    "ring": ring_round,
    "flags": flags_round,
    "links": links_round,
    "corpus": corpus_round,
}
