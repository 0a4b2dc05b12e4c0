"""Plain-text formats: words, graphs, markings, splitting blueprints.

Word literals: `a1 a2^-1 a3` ("1" is the identity). Graph files:

    graph { v: v0 v1; e: e1 v0 v1; e2 v1 v1; }
    marking { a1 = e1; a2 = e2 e1^-1; }
    basepoint: v0

The basepoint line is required for pointed graphs and optional otherwise
(the first marking path determines it). Blueprints:

    splitting { type: loop; vertex A = a1 a2; stable: a3;
                ray1: prefix "", period a3; ray2: prefix "", period a3^-1 }

A vertex group's generators are separated by commas, or one per token when
there is no comma; so a lone generator of two or more letters is printed
with a trailing comma (`vertex A0 = a1 a2,`).

Every format round-trips: parse(print(x)) == x.
"""

import re

from .words import word, identity_word
from .graphs import CoreGraph
from .marked import MarkedGraph
from .retract_split import SplittingBlueprint, RayDatum, RetractionData


class FormatError(ValueError):
    pass


_TOKEN = re.compile(r"([a-zA-Z]+)(\d+)(\^-1)?$")


def parse_letter(tok, kind="a"):
    m = _TOKEN.match(tok)
    if not m or m.group(1) != kind:
        raise FormatError("bad %s-token %r" % (kind, tok))
    idx = int(m.group(2))
    return -idx if m.group(3) else idx


def parse_word(text, rank):
    text = text.strip()
    if text in ("", "1"):
        return identity_word(rank)
    letters = [parse_letter(tok) for tok in text.split()]
    return word(letters, rank)


def print_word(w):
    if not w.letters:
        return "1"
    return " ".join("a%d" % a if a > 0 else "a%d^-1" % -a for a in w.letters)


def print_path(path):
    if not path:
        return "1"
    return " ".join("e%d" % d if d > 0 else "e%d^-1" % -d for d in path)


def parse_path(text):
    text = text.strip()
    if text in ("", "1"):
        return ()
    return tuple([parse_letter(tok, "e") for tok in text.split()])


def _block(text, name):
    m = re.search(name + r"\s*\{(.*?)\}", text, re.S)
    if not m:
        return None
    return m.group(1)


def parse_graph(text):
    body = _block(text, "graph")
    if body is None:
        raise FormatError("no graph block")
    stmts = [s.strip() for s in body.split(";") if s.strip()]
    vertices = []
    edges = {}
    mode = None
    for s in stmts:
        if s.startswith("v:"):
            mode = "v"
            s = s[2:].strip()
        elif s.startswith("e:"):
            mode = "e"
            s = s[2:].strip()
        if not s:
            continue
        toks = s.split()
        if mode == "v":
            for t in toks:
                v = _vid(t)
                if v in vertices:
                    raise FormatError("repeated vertex %s" % t)
                vertices.append(v)
        elif mode == "e":
            if len(toks) != 3:
                raise FormatError("edge statement needs `name origin terminus`")
            eid = _eid(toks[0])
            if eid in edges:
                raise FormatError("repeated edge %s" % toks[0])
            edges[eid] = (_vid(toks[1]), _vid(toks[2]))
        else:
            raise FormatError("statement outside v:/e: sections: %r" % s)
    return CoreGraph(vertices, edges)


def _vid(tok):
    m = re.match(r"v(\d+)$", tok)
    if not m:
        raise FormatError("bad vertex name %r" % tok)
    return int(m.group(1))


def _eid(tok):
    m = re.match(r"e(\d+)$", tok)
    if not m:
        raise FormatError("bad edge name %r" % tok)
    return int(m.group(1))


def print_graph(g):
    verts = " ".join("v%d" % v for v in sorted(g.vertices))
    edges = "; ".join("e%d v%d v%d" % (eid, o, t)
                      for eid, (o, t) in sorted(g.edges.items()))
    return "graph { v: %s; e: %s; }" % (verts, edges)


def parse_marked(text, pointed=False):
    g = parse_graph(text)
    body = _block(text, "marking")
    if body is None:
        raise FormatError("no marking block")
    entries = {}
    for s in [s.strip() for s in body.split(";") if s.strip()]:
        if "=" not in s:
            raise FormatError("marking entry without '=': %r" % s)
        lhs, rhs = s.split("=", 1)
        idx = parse_letter(lhs.strip())
        if idx in entries:
            raise FormatError("repeated marking letter %s" % lhs.strip())
        entries[idx] = parse_path(rhs)
    n = g.rank
    if sorted(entries) != list(range(1, n + 1)):
        raise FormatError("marking must cover a1..a%d" % n)
    marking = [entries[i] for i in range(1, n + 1)]
    unknown = {abs(d) for p in marking for d in p} - set(g.edges)
    if unknown:
        raise FormatError("marking uses unknown edge e%d" % min(unknown))
    m = re.search(r"basepoint:\s*(v\d+)", text)
    if m:
        base = _vid(m.group(1))
    elif pointed:
        raise FormatError("a pointed graph needs a basepoint line")
    else:
        first = next((p for p in marking if p), None)
        if first is None:
            raise FormatError("cannot infer basepoint")
        base = g.tail(first[0])
    return MarkedGraph(g, base, marking)


def print_marked(G, pointed=False):
    lines = [print_graph(G.graph)]
    entries = "; ".join("a%d = %s" % (i + 1, print_path(p))
                        for i, p in enumerate(G.marking))
    lines.append("marking { %s; }" % entries)
    if pointed:
        lines.append("basepoint: v%d" % G.basepoint)
    return "\n".join(lines) + "\n"


def parse_blueprint(text, rank=None):
    body = _block(text, "splitting")
    if body is None:
        raise FormatError("no splitting block")
    stmts = [s.strip() for s in body.split(";") if s.strip()]
    kind = None
    vertex_gens = []
    stable = 0
    rays = {}
    declared = set()
    for s in stmts:
        decl = re.match(r"(type|stable|ray\d+):", s)
        if decl:
            if decl.group(1) in declared:
                raise FormatError("repeated %s statement" % decl.group(1))
            declared.add(decl.group(1))
        if s.startswith("type:"):
            kind = s.split(":", 1)[1].strip()
        elif s.startswith("vertex"):
            if "=" not in s:
                raise FormatError("vertex statement without '=': %r" % s)
            vertex_gens.append(s.split("=", 1)[1].strip())
        elif s.startswith("stable:"):
            stable = parse_letter(s.split(":", 1)[1].strip())
        elif s.startswith("ray"):
            m = re.match(r"ray(\d+):\s*prefix\s*\"(.*?)\"\s*,\s*period\s+(.*)$", s)
            if not m:
                raise FormatError("bad ray statement %r" % s)
            if int(m.group(1)) not in (1, 2):
                raise FormatError("ray index must be 1 or 2: %r" % s)
            rays[int(m.group(1))] = (m.group(2), m.group(3))
        else:
            raise FormatError("unknown blueprint statement %r" % s)
    if kind not in ("loop", "segment"):
        raise FormatError("splitting type must be loop or segment")
    if kind == "segment" and "stable" in declared:
        raise FormatError("a segment blueprint has no stable letter")
    if len(rays) == 1:
        raise FormatError("give both ray1 and ray2, or neither")
    if rank is None:
        seen = 0
        for gens in vertex_gens:
            for tok in gens.replace(",", " ").split():
                seen = max(seen, abs(parse_letter(tok)))
        seen = max(seen, abs(stable))
        for pre, per in rays.values():
            for tok in (pre.split() + per.split()):
                if tok not in ("", "1"):
                    seen = max(seen, abs(parse_letter(tok)))
        rank = seen
    gen_words = tuple([
        tuple([parse_word(t, rank) for t in _split_words(g, rank)])
        for g in vertex_gens])
    bp = SplittingBlueprint(kind, gen_words, stable, rank)
    if rays:
        return RetractionData(bp, tuple(
            RayDatum(parse_word(pre, rank), parse_word(per, rank))
            for pre, per in (rays[1], rays[2])))
    from .retract_split import default_retraction_data
    return default_retraction_data(bp)


def _split_words(text, rank):
    # generators separated by commas; a bare token list is one-per-token.
    # One trailing comma marks a lone generator (see _print_gens).
    if "," in text:
        return [t.strip() for t in text.rstrip().removesuffix(",").split(",")]
    return text.split()


def _print_gens(gens):
    # a lone generator of two or more letters takes a trailing comma, so
    # that it does not read as one generator per letter
    text = ", ".join(print_word(w) for w in gens)
    return text + "," if len(gens) == 1 and len(gens[0]) > 1 else text


def print_blueprint(data):
    bp = data.blueprint
    parts = ["type: %s" % bp.kind]
    names = ["A"] if bp.kind == "loop" else ["A0", "A1"]
    for name, gens in zip(names, bp.vertex_gens):
        parts.append("vertex %s = %s" % (name, _print_gens(gens)))
    if bp.kind == "loop":
        parts.append("stable: a%d" % bp.stable)
    for i, ray in enumerate(data.rays, 1):
        pre = print_word(ray.prefix) if ray.prefix.letters else ""
        parts.append("ray%d: prefix \"%s\", period %s"
                     % (i, pre, print_word(ray.period)))
    return "splitting { %s }" % "; ".join(parts)
