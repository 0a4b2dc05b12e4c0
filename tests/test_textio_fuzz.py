"""Seeded parser fuzz and the round-trip law print(parse(x)) == x."""

import random

import pytest

from outerspine import sampling, textio
from outerspine.cli import PRECONDITION_ERRORS
from outerspine.retract_split import (RayDatum, RetractionData,
                                      SplittingBlueprint)
from outerspine.words import word


def random_word(rng, n, max_len=6):
    return sampling.random_reduced_word(rng, n, max_len)


def random_blueprint(rng):
    """Loop or segment blueprint from a random basis, with random rays."""
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        # Nielsen moves x_i -> x_i x_j^(+-1) with i != s keep a basis and
        # fix the stable letter x_s = a_s
        s = rng.randint(1, n)
        basis = [word([i], n) for i in range(1, n + 1)]
        for _ in range(rng.randint(0, 4)):
            i = rng.choice([x for x in range(1, n + 1) if x != s])
            j = rng.choice([x for x in range(1, n + 1) if x != i])
            xj = basis[j - 1]
            basis[i - 1] = basis[i - 1] * (xj if rng.random() < 0.5
                                           else xj.inverse())
        gens = tuple(w for i, w in enumerate(basis, 1) if i != s)
        bp = SplittingBlueprint("loop", (gens,), s, n)
    else:
        basis = sampling.random_token_auto(rng, n, rng.randint(0, 4)).images
        k = rng.randint(1, n - 1)
        bp = SplittingBlueprint("segment", (basis[:k], basis[k:]), 0, n)
    rays = tuple(RayDatum(random_word(rng, n, 4),
                          sampling.random_reduced_word(rng, n, 4,
                                                       nontrivial=True))
                 for _ in range(2))
    return RetractionData(bp, rays)


def canonical_texts(rng, count):
    """(kind, text) pairs printed from seeded random objects."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        out.append(("word", textio.print_word(random_word(rng, n)), n))
        G = sampling.random_marked_graph(rng, n, rng.randint(0, 4))
        out.append(("graph", textio.print_graph(G.graph), n))
        out.append(("marked", textio.print_marked(G), n))
        x = sampling.random_pointed_graph(rng, n, rng.randint(0, 4))
        out.append(("pointed", textio.print_marked(x, pointed=True), n))
        out.append(("blueprint", textio.print_blueprint(random_blueprint(rng)),
                    None))
    return out


PARSE = {
    "word": (lambda text, n: textio.parse_word(text, n), textio.print_word),
    "graph": (lambda text, n: textio.parse_graph(text), textio.print_graph),
    "marked": (lambda text, n: textio.parse_marked(text), textio.print_marked),
    "pointed": (lambda text, n: textio.parse_marked(text, pointed=True),
                lambda x: textio.print_marked(x, pointed=True)),
    "blueprint": (lambda text, n: textio.parse_blueprint(text),
                  textio.print_blueprint),
}


def test_print_parse_roundtrip():
    rng = random.Random(8)
    texts = canonical_texts(rng, 40)
    assert any(kind == "word" and text == "1" for kind, text, _ in texts)
    for kind, text, n in texts:
        parse, show = PARSE[kind]
        assert show(parse(text, n)) == text


_JUNK = ["a0", "a1", "a9", "a1^-1", "e0", "e1", "e2^-1", "e99", "v0", "v1",
         "v7", "1", "=", ";", ",", ":", "{", "}", '"', "^-1", "-1", "x",
         "graph", "marking", "basepoint:", "splitting", "type", "loop",
         "segment", "vertex", "stable", "ray1", "ray2", "prefix", "period",
         "v:", "e:", ""]


def mutate(rng, text):
    toks = text.split()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(toks) + 1)
        roll = rng.random()
        if roll < 0.3 and toks:
            del toks[min(i, len(toks) - 1)]
        elif roll < 0.5 and toks:
            j = rng.randrange(len(toks))
            toks[min(i, len(toks) - 1)], toks[j] = (
                toks[j], toks[min(i, len(toks) - 1)])
        elif roll < 0.65 and toks:
            toks.insert(i, toks[rng.randrange(len(toks))])
        else:
            toks.insert(i, rng.choice(_JUNK))
    return " ".join(toks)


@pytest.mark.parametrize("kind", sorted(PARSE))
def test_mutated_input_parses_or_fails_cleanly(kind):
    rng = random.Random("fuzz-" + kind)
    texts = [t for t in canonical_texts(random.Random(9), 12) if t[0] == kind]
    rejected = 0
    for i in range(600):
        _, text, n = texts[i % len(texts)]
        parse = PARSE[kind][0]
        try:
            parse(mutate(rng, text), n or 3)
        except PRECONDITION_ERRORS:
            rejected += 1
    assert 0 < rejected < 600
