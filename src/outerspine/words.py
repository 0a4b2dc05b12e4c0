"""Exact free-group kernel: reduced words, cyclic words, endomorphisms.

Letters are nonzero signed integers: +i is the i-th basis letter, -i its
inverse (so the rank-n alphabet is {-n..-1, 1..n}).

Edge paths in graphs use the same representation (+e and -e are the two
orientations of edge e), so free reduction, inversion, substitution and the
cyclic normal form below are also the path and circuit helpers of every
other module.

Free reduction, substitution and the cyclic normal form each take time
linear in the length L of the letters they read (and, for substitution, of
the letters they write): reduction is one stack pass, `cyclic_core` strips
matching ends, and `least_rotation` is a two-pointer scan of fewer than 4L
comparisons. So `cyclic_reduce` and `MarkedGraph.circuit_of` cost O(L) even
on the classes of thousands of letters that the distortion witnesses trace.

Checks: the public constructors and the `textio` parsers check every word.
A word derived from valid ones (inverse, product, representative, image,
`cyclic_reduce`'s class and conjugator) is built unchecked by `_derived`.
"""

from dataclasses import dataclass, field


class WordError(ValueError):
    pass


def check_letters(letters, rank):
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise WordError("letter %r out of range for rank %d" % (a, rank))


def _derived(cls, letters, rank):
    """cls(letters, rank) with no check, for a word derived from valid ones."""
    w = object.__new__(cls)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


def reduce_letters(letters):
    """Freely reduce a letter sequence; returns (tuple, #cancelled pairs)."""
    out = []
    cancelled = 0
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
            cancelled += 1
        else:
            out.append(a)
    return tuple(out), cancelled


def invert_letters(letters):
    # tuple() of a list allocates the exact size; of a generator it guesses
    # and resizes, which is slower and strands tuples in the free lists
    return tuple([-a for a in reversed(letters)])


def conjugate_letters(p, u):
    """The reduced u^-1 p u of reduced tuples p and u.

    Only the two junctions can cancel: u's prefix shared with p, and u's
    prefix shared with p^-1, as long as the two leave a middle of p; when
    they consume p the rest is reduced in full.
    """
    if not u:
        return p
    n, m = len(p), len(u)
    a = 0
    while a < n and a < m and p[a] == u[a]:
        a += 1
    b = 0
    while a + b < n and b < m and p[n - 1 - b] == -u[b]:
        b += 1
    if a + b == n:
        return reduce_letters(invert_letters(u) + p + u)[0]
    return invert_letters(u[a:]) + p[a:n - b] + u[b:]


def substitute(letters, image):
    """Replace each letter a by image[a] (the inverse of image[-a] when a < 0)
    and freely reduce; returns (tuple, #cancelled pairs).

    `image` maps every positive letter that occurs to a tuple of letters.
    """
    out = []
    cancelled = 0
    for a in letters:
        seg = image[a] if a > 0 else [-x for x in reversed(image[-a])]
        for x in seg:
            if out and out[-1] == -x:
                out.pop()
                cancelled += 1
            else:
                out.append(x)
    return tuple(out), cancelled


def cyclic_core(red):
    """Split a freely reduced tuple as conj + core + conj^-1 with core
    cyclically reduced; returns (conj, core). Linear: strips matching ends."""
    i, j = 0, len(red) - 1
    while i < j and red[i] == -red[j]:
        i += 1
        j -= 1
    return red[:i], red[i:j + 1]


def eventually_periodic_form(head, period):
    """Normal form of the infinite word head period period period ...

    head is a freely reduced tuple and period a nonempty cyclically reduced
    one. Returns (head', period') spelling the same reduced infinite word,
    with head' not ending in the inverse of period'[0]: each end letter of
    head that cancels into the period is dropped and the period rotated by
    one.
    """
    p = len(period)
    m = 0
    while m < len(head) and head[-1 - m] == -period[m % p]:
        m += 1
    r = m % p
    return head[:len(head) - m], period[r:] + period[:r]


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word in F_rank. Immutable value object."""

    letters: tuple
    rank: int
    _derived = classmethod(_derived)

    def __post_init__(self):
        check_letters(self.letters, self.rank)
        for x, y in zip(self.letters, self.letters[1:]):
            if x == -y:
                raise WordError("word %r is not freely reduced" % (self.letters,))

    @staticmethod
    def make(letters, rank):
        """Reduce an arbitrary letter sequence."""
        red, _ = reduce_letters(letters)
        return ReducedWord(red, rank)

    def __len__(self):
        return len(self.letters)

    def is_trivial(self):
        return not self.letters

    def inverse(self):
        return ReducedWord._derived(invert_letters(self.letters), self.rank)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise WordError("rank mismatch")
        return ReducedWord._derived(
            reduce_letters(self.letters + other.letters)[0], self.rank)

    def conjugate_by(self, g):
        """g^-1 * self * g."""
        return g.inverse() * self * g


def word(letters, rank):
    return ReducedWord.make(tuple(letters), rank)


def basis_word(i, rank):
    return ReducedWord((i,), rank)


def identity_word(rank):
    return ReducedWord((), rank)


def least_rotation(s):
    """Smallest offset r with s[r:] + s[:r] the least rotation of s (tuple
    order on signed ints); 0 for the empty tuple.

    Two-pointer least circular shift (Shiloach, "Fast canonization of
    circular strings", J. Algorithms 2, 1981). Candidates i and j are
    compared k letters deep; on the first difference the larger side's
    offsets i..i+k (or j..j+k) are each beaten by the matching offset of the
    other side, so they are dropped. Every offset below min(i, j) has been
    dropped, so when k reaches len(s), or one pointer runs off the end,
    min(i, j) is the smallest least offset. Each comparison advances k or
    drops offsets, so the scan makes fewer than 4 len(s) comparisons.
    """
    n = len(s)
    if n < 2:
        return 0
    ss = s + s
    i, j, k = 0, 1, 0
    while k < n and i < n and j < n:
        a = ss[i + k]
        b = ss[j + k]
        if a == b:
            k += 1
        else:
            if a > b:
                i += k + 1
            else:
                j += k + 1
            if i == j:
                j += 1
            k = 0
    return min(i, j)


def canonical_rotation(letters):
    """Lexicographically least rotation (tuple order on signed ints)."""
    r = least_rotation(letters)
    return tuple(letters[r:] + letters[:r])


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy class: cyclically reduced letters in canonical rotation."""

    letters: tuple
    rank: int
    _derived = classmethod(_derived)

    def __post_init__(self):
        check_letters(self.letters, self.rank)
        n = len(self.letters)
        for i in range(n):
            if self.letters[i] == -self.letters[(i + 1) % n]:
                raise WordError("not cyclically reduced: %r" % (self.letters,))
        if least_rotation(self.letters):
            raise WordError("not in canonical rotation: %r" % (self.letters,))

    @staticmethod
    def of(w):
        cyc, _ = cyclic_reduce(w)
        return cyc

    def representative(self):
        return ReducedWord._derived(self.letters, self.rank)


def cyclic_reduce(w):
    """Split w as conj * cyc * conj^-1 with cyc cyclically reduced, canonical.

    Raises on the trivial word (it has no cyclic representative).
    """
    if w.is_trivial():
        raise WordError("trivial word has no cyclic reduction")
    prefix, core = cyclic_core(w.letters)
    # core = core[:r] * (core[r:] + core[:r]) * core[:r]^-1, r the smallest
    # least offset (on a proper power a larger one shifts conj by a root power);
    # conj is a prefix of w, so it is reduced
    r = least_rotation(core)
    return (CyclicWord._derived(core[r:] + core[:r], w.rank),
            ReducedWord._derived(prefix + core[:r], w.rank))


@dataclass(frozen=True)
class Endomorphism:
    """A map of F_rank given by the images of basis letters."""

    rank: int
    images: tuple  # one ReducedWord per basis letter

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise WordError("need %d images, got %d" % (self.rank, len(self.images)))
        for im in self.images:
            if im.rank != self.rank:
                raise WordError("image rank mismatch")

    @staticmethod
    def from_lists(image_lists, rank):
        return Endomorphism(rank, tuple(word(l, rank) for l in image_lists))

    @staticmethod
    def identity(rank):
        return Endomorphism(rank, tuple(basis_word(i, rank) for i in range(1, rank + 1)))

    def apply(self, w):
        return self.apply_counting_cancellation(w)[0]

    def _table(self):
        return {i: im.letters for i, im in enumerate(self.images, 1)}

    def apply_counting_cancellation(self, w):
        """Apply, also reporting how many letter pairs cancelled.

        Zero cancellation is the train-track positivity certificate for the
        substitution maps used by the distortion witnesses.
        """
        if w.rank != self.rank:
            raise WordError("rank mismatch")
        red, cancelled = substitute(w.letters, self._table())
        return ReducedWord._derived(red, self.rank), cancelled

    def apply_cyclic(self, c):
        """Image of a conjugacy class."""
        im = self.apply(c.representative())
        if im.is_trivial():
            raise WordError("image of conjugacy class collapsed (map not injective)")
        return CyclicWord.of(im)

    def compose(self, other):
        """self o other: apply other first."""
        if self.rank != other.rank:
            raise WordError("rank mismatch")
        image = self._table()
        return Endomorphism(self.rank, tuple([
            ReducedWord._derived(substitute(im.letters, image)[0], self.rank)
            for im in other.images]))


@dataclass(frozen=True)
class Automorphism:
    """A verified-invertible endomorphism with its inverse."""

    endo: Endomorphism
    inverse_endo: Endomorphism = field(compare=False)

    def __post_init__(self):
        """Each map undoes the other on every basis letter, read on the
        letters: a_i's image under the other map, substituted through this
        one, reduces to a_i."""
        for f, g in ((self.endo, self.inverse_endo),
                     (self.inverse_endo, self.endo)):
            image = f._table()
            for i, im in enumerate(g.images, 1):
                if substitute(im.letters, image)[0] != (i,):
                    raise WordError("stored inverse fails to invert")

    @property
    def rank(self):
        return self.endo.rank

    @property
    def images(self):
        return self.endo.images

    def apply(self, w):
        return self.endo.apply(w)

    def apply_cyclic(self, c):
        return self.endo.apply_cyclic(c)


def _nielsen_move(images, tok, inverse):
    """Turn the images of phi, a list of letter tuples, into those of
    phi t (of phi t^-1 when inverse) for the generator t named by tok:
    (phi t)(a_i) is t(a_i) read through phi."""
    kind = tok[0]
    if kind == "perm":
        old = list(images)
        for i, x in enumerate(tok[1]):
            src, dst = (i, abs(x) - 1) if inverse else (abs(x) - 1, i)
            images[dst] = old[src] if x > 0 else invert_letters(old[src])
    elif kind == "inv":
        images[tok[1] - 1] = invert_letters(images[tok[1] - 1])
    elif kind in ("L", "R"):
        _, i, j, s = tok
        aj = images[j - 1] if (s > 0) != inverse \
            else invert_letters(images[j - 1])
        ai = images[i - 1]
        images[i - 1] = reduce_letters(aj + ai if kind == "L" else ai + aj)[0]
    else:
        raise WordError("unknown Nielsen generator %r" % (tok,))


def nielsen_product(tokens, n):
    """The product of Nielsen generators of Aut(F_n), first token applied
    first, as an `Automorphism` checked by composing both ways.

    The generators are the fixed generating set of word-length accounting:
    ("perm", sigma) sends a_i to a_|sigma[i-1]|, inverted when
    sigma[i-1] < 0; ("inv", i) inverts a_i; ("L", i, j, s) and
    ("R", i, j, s) send a_i to a_j^s a_i and to a_i a_j^s (j != i,
    s = +-1). `witness.theta` checks theta's images against its tokens,
    phi_0 is defined by its tokens, and row k's Nielsen bound is
    2k |theta| + |phi_0| in tokens.

    Both maps are built by Nielsen moves (`_nielsen_move`) from the
    identity: the product from the last token down, and its inverse, in
    token order, from the closed-form inverses: the transvection with -s,
    the inversion itself, the inverse permutation. No fold is needed.
    """
    fwd = [(i,) for i in range(1, n + 1)]
    inv = list(fwd)
    for tok in reversed(tokens):
        _nielsen_move(fwd, tok, False)
    for tok in tokens:
        _nielsen_move(inv, tok, True)

    def endo(images):
        return Endomorphism(n, tuple([ReducedWord._derived(im, n)
                                      for im in images]))
    return Automorphism(endo(fwd), endo(inv))


def is_automorphism(f):
    """Decide invertibility of f; return the Automorphism or None.

    The decision folds the wedge of image loops: the images generate F_n
    freely iff the folded graph is the rank-n rose with each basis letter on
    exactly one petal (`folding.fold_onto`). The fold tracks history, so the
    petals' transfer words, reduced and spelled in x_1..x_rank, one letter
    per image, are then the images of the inverse.
    """
    from . import folding, graphs

    vals = folding.fold_onto([im.letters for im in f.images],
                             graphs.rose(f.rank), 0, track_history=True)
    if vals is None:
        return None
    inv = Endomorphism(f.rank, tuple(ReducedWord._derived(vals[i], f.rank)
                                     for i in range(1, f.rank + 1)))
    return Automorphism(f, inv)
