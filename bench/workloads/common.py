"""Pieces the workloads share: the operation record and text round trips.

Inputs live as text in the program's formats. Set-up prints each generated
object and parses it back through textio, and refuses an input that does
not round-trip; each operation then parses its own objects from the text,
so no operation receives a MarkedGraph whose caches (`_values`, `_ikey`)
an earlier operation filled.
"""

from dataclasses import dataclass, field

from outerspine import textio


class InputError(RuntimeError):
    """Set-up produced an input that does not round-trip."""


@dataclass
class Op:
    kind: str
    text: dict                         # name -> text in a program format
    expect: object = None              # answer known by construction
    info: dict = field(default_factory=dict)   # what the check needs


def marked_text(G, pointed=False):
    text = textio.print_marked(G, pointed=pointed)
    back = textio.parse_marked(text, pointed=pointed)
    if textio.print_marked(back, pointed=pointed) != text:
        raise InputError("marked graph does not round-trip:\n" + text)
    return text


def words_text(words):
    """A generator list in the CLI's comma-separated word format."""
    text = ", ".join(textio.print_word(w) for w in words)
    rank = words[0].rank
    back = [textio.parse_word(t, rank) for t in text.split(",")]
    if back != list(words):
        raise InputError("words do not round-trip: " + text)
    return text


def parse_words(text, rank):
    return [textio.parse_word(t, rank) for t in text.split(",")]


def blueprint_text(data):
    text = textio.print_blueprint(data)
    back = textio.parse_blueprint(text, data.blueprint.rank)
    if textio.print_blueprint(back) != text:
        raise InputError("blueprint does not round-trip: " + text)
    return text


def edges_text(forest):
    return ", ".join("e%d" % e for e in sorted(forest))


def parse_edges(text):
    return [int(t.strip()[1:]) for t in text.split(",") if t.strip()]
