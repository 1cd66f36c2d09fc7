"""Dense bitset graph core, verification predicates, exact solver, formats.

Adjacency rows are Python ints used as bitsets, which keeps neighborhood
intersections (triangle counting, branch-and-bound candidate filtering)
single machine operations per word.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import operator
from dataclasses import dataclass
from itertools import repeat


def bits(x: int):
    """Indices of set bits, ascending.

    Scans the binary string of x from its low end, so a row of n bits
    costs one O(n) conversion rather than O(n) work per set bit.
    """
    s = bin(x)
    top = len(s) - 1  # position of bit 0
    pos = s.rfind("1", 2)
    while pos >= 0:
        yield top - pos
        pos = s.rfind("1", 2, pos)


def transpose(rows):
    """Transpose of a square bit matrix: bit v of row u is bit u of row v.

    The rows are copied into one list padded to a power of two, whose
    off-diagonal w-by-w blocks are swapped in place for w = size/2, ..., 1
    (Hacker's Delight 7-3 on big ints).  The diagonal stays put, and so do
    bits at or above the padded size.
    """
    n = len(rows)
    size = 1 << (n - 1).bit_length() if n else 1
    m = list(rows) + [0] * (size - n)
    w, mask = size >> 1, (1 << (size >> 1)) - 1  # bit k: k mod 2w < w
    while w:
        for j in range(0, size, 2 * w):
            for i in range(j, j + w):
                a, b = m[i], m[i + w]
                t = (a >> w ^ b) & mask
                m[i] = a ^ t << w
                m[i + w] = b ^ t
        w >>= 1
        mask ^= mask << w
    return m[:n]


# Width of the tiles `Graph.check_symmetric` compares: _TILE bits, or the
# largest power of two <= n/3 if that is wider.  A tile then holds at most
# a ninth of the matrix, and the check at most two tiles at once.
_TILE = 1 << 10


def _cut(rows, shift, mask):
    """The bits shift, shift + 1, ... of each row that mask keeps."""
    return map(operator.and_, map(operator.rshift, rows, repeat(shift)),
               repeat(mask))


def _tile_width(n):
    """The tile width for n vertices; below _TILE vertices, the power of
    two >= n, so that one tile is the whole matrix."""
    w = _TILE
    while 6 * w <= n:
        w *= 2
    return min(w, 1 << (n - 1).bit_length())


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitset adjacency."""

    def __init__(self, n: int, adj=None):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"vertex count {n!r} is not a non-negative int")
        self.n = n
        self.adj = list(adj) if adj is not None else [0] * n
        if len(self.adj) != n:
            raise ValueError(f"{len(self.adj)} rows for {n} vertices")

    @classmethod
    def from_edges(cls, n, edges):
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("self-loops are not allowed")
        self._check_vertex(u)
        self._check_vertex(v)
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def _check_vertex(self, v):
        if not isinstance(v, int):
            raise ValueError(f"vertex {v!r} is not an int")
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def degree(self, v) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(higher):
                yield (u, v)

    def check_symmetric(self):
        """Raise AssertionError on a loop, a neighbour outside 0..n-1 or
        an asymmetric pair, and ValueError on a row that is not a
        non-negative int.  Rows, loops and out-of-range bits are checked
        first, by one scan of the rows.

        The pairs are then compared tile by tile, so no transposed copy of
        the whole matrix is made.  The rows fall into bands of w rows
        (`_tile_width`), and tile (I, J) is the bits of columns J*w..J*w+w-1
        in the rows of band I.  For I <= J, tile (I, J) is cut out of its
        rows with a shift and a mask, transposed with `transpose` and
        compared with tile (J, I).  The last band may be narrower, c < w
        columns: its tiles are packed side by side, s bits apart for the
        power of two s >= c, and transposed w // s at a time.  Each tile
        with a mismatch gives its least pair (u, v), u in band I and v in
        band J; the least of these pairs is the first asymmetric pair of
        the matrix, the one a comparison with the whole transpose finds.
        """
        n, adj = self.n, self.adj
        for u, row in enumerate(adj):
            if not isinstance(row, int) or row < 0:
                raise ValueError(f"row {u} is {row!r}, not a non-negative int")
            if row.bit_length() > n:
                raise AssertionError(f"vertex {u} has a neighbour out of range")
            if row >> u & 1:
                raise AssertionError(f"loop at vertex {u}")
        w = _tile_width(n)
        band_mask, pairs = (1 << w) - 1, []
        for hi in range(0, n, w):  # band J
            s = 1 << (min(w, n - hi) - 1).bit_length()
            los = range(0, hi + 1, w)  # the bands I <= J
            for first in range(0, len(los), w // s):
                group = list(enumerate(los[first:first + w // s]))
                packed = [0] * w
                for k, lo in group:
                    rows = adj[lo:lo + w]
                    packed[:len(rows)] = map(operator.or_, packed, map(
                        operator.lshift, _cut(rows, hi, (1 << s) - 1),
                        repeat(k * s)))
                # row k*s + v - hi: row v - hi of tile (I, J) transposed
                packed = transpose(packed)
                for k, lo in group:
                    # row v - hi: the u - lo with bit (u, v) != bit (v, u)
                    diff = list(map(operator.xor, packed[k * s:k * s + s],
                                    _cut(adj[hi:hi + w], lo, band_mask)))
                    if any(diff):
                        diff = transpose(diff + [0] * (w - len(diff)))
                        i = next(i for i, d in enumerate(diff) if d)
                        pairs.append((lo + i, hi + next(bits(diff[i]))))
        if pairs:
            u, v = min(pairs)
            if not adj[u] >> v & 1:
                u, v = v, u
            raise AssertionError(f"asymmetric edge ({u},{v})")

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    # -- predicates --------------------------------------------------------

    def is_independent(self, S):
        """None if S is independent, else one violating edge (u, v)."""
        S = list(S)
        for v in S:
            self._check_vertex(v)
        mask = 0
        for v in S:
            mask |= 1 << v
        for v in S:
            inside = self.adj[v] & mask
            if inside:
                return (v, next(bits(inside)))
        return None

    def is_regular(self, k) -> bool:
        return all(row.bit_count() == k for row in self.adj)

    # -- triangles and girth -----------------------------------------------

    def triangle_count(self) -> int:
        total = 0
        for u, v in self.edges():
            common = self.adj[u] & self.adj[v]
            total += (common >> (v + 1) << (v + 1)).bit_count()
        return total

    def girth(self):
        """Length of a shortest cycle; math.inf for forests.

        Step 1, a local pass, looks for 3- and 4-cycles.  Every vertex r
        with two or more neighbours above it ORs the rows of those upper
        neighbours u into one union.  If the union meets r's upper
        neighbours, two of them are adjacent: a triangle, and the answer
        is 3 at once.  Each row holds r, so rows that share no other
        vertex give a union of sum(deg(u) - 1) + 1 bits; fewer bits mean
        two upper neighbours share a vertex w != r, and w differs from
        both since no vertex is its own neighbour: a 4-cycle r-u-w-u'.
        The answer is then 4, once the whole pass has found no triangle.
        The pass is exact: the least vertex of a triangle or a 4-cycle
        has both of its cycle neighbours above it, and its own
        neighbours' rows reveal the cycle.

        Step 2 runs only when step 1 finds neither: a BFS in bitset layers
        from every root, over the vertices >= root only (a shortest cycle
        is found from its least vertex), starting at layer 1, the root's
        upper neighbours.  An edge inside layer d closes a cycle of length
        at most 2d+1; a vertex of layer d+1 with two neighbours in layer d
        closes one of length at most 2d+2, and from the least vertex of a
        shortest cycle one of the two is exact.  A root's search stops
        once 2d+1 >= best, and the whole search at the first 5-cycle,
        since step 1 has ruled out shorter ones.
        """
        adj = self.adj
        degree = [row.bit_count() for row in adj]
        four = False
        for r, row in enumerate(adj):
            upper = row >> (r + 1) << (r + 1)
            if upper & (upper - 1):  # two or more upper neighbours
                nbs = list(bits(upper))
                union = functools.reduce(operator.or_,
                                         map(adj.__getitem__, nbs))
                if union & upper:
                    return 3
                if not four and union.bit_count() <= sum(
                        map(degree.__getitem__, nbs)) - len(nbs):
                    four = True
        if four:
            return 4
        best = math.inf
        for root in range(self.n):
            frontier = adj[root] >> (root + 1) << (root + 1)
            seen = (2 << root) - 1 | frontier  # lower vertices, root, layer 1
            d = 1
            while frontier and 2 * d + 1 < best:
                unseen = ~seen
                inside = reached = twice = 0
                for u in bits(frontier):
                    row = adj[u]
                    inside |= row & frontier
                    fresh = row & unseen
                    twice |= reached & fresh
                    reached |= fresh
                if inside:
                    best = 2 * d + 1
                    if best == 5:
                        return best
                elif twice:
                    best = min(best, 2 * d + 2)
                seen |= reached
                frontier = reached
                d += 1
        return best


# -- exact maximum independent set ------------------------------------------

@dataclass
class SolveBudget:
    max_nodes: int = 10 ** 8

    def __post_init__(self):
        if not isinstance(self.max_nodes, int):
            raise ValueError(f"budget {self.max_nodes!r} is not an int")
        if self.max_nodes <= 0:
            raise ValueError("budget must be positive")


@dataclass
class MISResult:
    size: int
    vertices: list
    status: str  # "optimal" | "budget_exhausted"
    nodes: int = 0


def _mirror(x, n):
    """x with bit v moved to bit n - 1 - v, for 0 <= x < 2**n."""
    return int(format(x, f"0{n}b")[::-1], 2)


def _mirrored_rows(adj):
    """The rows of `adj` in mirrored bit order, and their one-bit masks.

    Vertex v is bit n - 1 - v, so the least vertex of a nonempty set x is
    its top bit.  Both lists are indexed by k = x.bit_length(): rows[k] is
    that vertex's mirrored row and masks[k] = 1 << (k - 1) its bit; entry
    0 of each is 0.
    """
    n = len(adj)
    return ([0] + [_mirror(row, n) for row in reversed(adj)],
            [0] + [1 << k for k in range(n)])


# The most bytes `_pair_table` may estimate for a table it builds: ER_q up to
# q = 32 (about 12 MB there) gets one, ER_64 (about 150 MB) does not.
_PAIR_TABLE_BYTES = 16 << 20


def _pair_table(rows, masks):
    """Masks that close a clique of the greedy cover (`_cover_exceeds`) in
    one `&`, indexed like rows and masks (`_mirrored_rows`).

    For an edge (k, w) whose ends share at most one neighbour,
    pairs[k][w] = pairs[w][k] is the set of all vertices but k, w and that
    neighbour; for an edge whose ends share two or more it is None, and so
    is every other entry off column 0.  pairs[k][0] is the set of all
    vertices but k, for a clique that is k alone.  Each row is walked once,
    and both entries of an edge hold the same int.  The table takes
    (n + 1)^2 pointers and one n-bit int per vertex and per edge; when that
    estimate exceeds _PAIR_TABLE_BYTES, every row is one shared list of
    None, which costs O(n), and the cover grows every clique vertex by
    vertex.
    """
    n = len(rows) - 1
    ints = n + sum(row.bit_count() for row in rows) // 2
    nones = [None] * (n + 1)
    if 8 * (n + 1) ** 2 + ints * (32 + n // 7) > _PAIR_TABLE_BYTES:
        return [nones] * (n + 1)
    full = (1 << n) - 1
    pairs = [[full ^ mask] + nones[1:] for mask in masks]
    for k in range(2, n + 1):
        row, pair_row = rows[k], pairs[k]
        for p in bits(row & masks[k] - 1):  # the neighbours w = p + 1 < k
            shared = row & rows[p + 1]
            if not shared & (shared - 1):  # at most one common neighbour
                pair_row[p + 1] = pairs[p + 1][k] = full ^ (
                    masks[k] | masks[p + 1] | shared)
    return pairs


def _cover_exceeds(rows, masks, pairs, cand, limit):
    """True iff the greedy clique cover of cand has more than limit cliques.

    rows, masks and cand are in mirrored bit order (`_mirrored_rows`), and
    pairs is `_pair_table(rows, masks)`.  The cover takes the least
    remaining vertex k, the top bit of what is left, and grows its clique
    by the least common neighbour, the top bit of their common neighbours,
    as long as one is left.  With w the first of these (0 if there is
    none), a mask in pairs[k][w] closes the clique with one `&`: the
    vertices that could still join lie in the common neighbourhood of k
    and w, which holds at most one vertex z, and after z nothing is left,
    since z is not its own neighbour.  So the `&` removes exactly the
    clique that growth vertex by vertex removes (clearing z's bit is a
    no-op when z has already left), and every count, and so every prune,
    is the same.  Where the entry is None the clique grows vertex by
    vertex.  The count bounds the independence number of cand from above,
    so a node with limit = best - |chosen| is pruned iff this returns
    False.  A cover never has more cliques than vertices, so
    |cand| <= limit answers False at once, and the cover stops as soon as
    it needs clique limit + 1.
    """
    if cand.bit_count() <= limit:
        return False
    rest = cand
    for _ in range(limit):
        k = rest.bit_length()
        pair = pairs[k][(rest & rows[k]).bit_length()]
        if pair is None:
            rest ^= masks[k]
            grow = rest & rows[k]
            while grow:
                k = grow.bit_length()
                rest ^= masks[k]
                grow &= rows[k]
        else:
            rest &= pair
        if not rest:
            return False
    return True


def max_independent_set(g: Graph, budget: SolveBudget | None = None,
                        initial=None) -> MISResult:
    """Exact maximum independent set by bitset branch-and-bound.

    The search runs on mirrored bitsets (`_mirrored_rows`): vertex v is
    bit n - 1 - v, so the least vertex of a set is its top bit, found by
    one `bit_length()`, and rows and masks are indexed by that bit length.
    `initial` is mapped into this order and the witness back out of it.
    Branches on a maximum-degree candidate vertex v (degree within the
    candidates, least index on ties), including it first.  The degrees
    are kept as bit-sliced counters: bit n - 1 - u of cnt[k] is bit k of
    |adj[u] & cand|.  From the highest slice down, cand is narrowed to the
    vertices with that bit set wherever some are left; what remains has
    the maximum degree, and v is its top bit.  A node inherits its
    parent's counters with the vertices removed since then pending, and
    only a node that survives the bound subtracts them, one borrow chain
    of a row through the slices each.  A node is pruned when
    the greedy clique cover of its candidates (`_cover_exceeds`) needs no
    more than best - |chosen| cliques; the cover stops early once it needs
    more.  A table built once per call (`_pair_table`) holds, for each
    edge whose ends share at most one neighbour, the mask that removes the
    clique the cover grows from that edge, so such a clique costs one `&`;
    the cover finds the cliques that growth vertex by vertex finds, and
    the tree does not change.  A graph whose table would exceed
    _PAIR_TABLE_BYTES gets none, and its cover grows every clique vertex
    by vertex.  The include child is searched in place, diving until a
    leaf, a prune or the budget ends the dive; only the exclude children
    wait on an explicit stack, so the graph size is not limited by the
    recursion limit.  Every visited node counts against the budget, so
    max_nodes = k reports k + 1 nodes when the budget runs out.
    Deterministic: identical inputs give identical outputs.  `initial`
    seeds the incumbent with a known independent set.  Rows that are not
    non-negative ints, or with a loop, an out-of-range neighbour or an
    asymmetric pair, raise ValueError.
    """
    try:
        g.check_symmetric()
    except AssertionError as e:
        raise ValueError(f"not a simple graph: {e}") from None
    if budget is None:
        budget = SolveBudget()
    n = g.n
    rows, masks = _mirrored_rows(g.adj)
    pairs = _pair_table(rows, masks)
    full = (1 << n) - 1

    best_set = 0
    initial = list(initial or ())  # read once: it may be an iterator
    if initial:
        witness = g.is_independent(initial)
        if witness is not None:
            raise ValueError(f"initial set is not independent: edge {witness}")
        for v in initial:
            best_set |= masks[n - v]
    best = best_set.bit_count()

    degrees = [row.bit_count() for row in g.adj]
    slices = range(max(degrees, default=0).bit_length())
    cnt = [int("".join(str(d >> k & 1) for d in degrees), 2) for k in slices]

    max_nodes = budget.max_nodes
    nodes = 0
    exhausted = False
    # dives to start: (chosen, its size, candidates, the parent's degree
    # counters, candidates removed since the parent)
    stack = [(0, 0, full, cnt, 0)]
    while stack and not exhausted:
        chosen, csize, cand, cnt, pending = stack.pop()
        while True:  # dive through include children
            nodes += 1
            if nodes > max_nodes:
                exhausted = True
                break
            if not cand:
                if csize > best:
                    best, best_set = csize, chosen
                break
            if not _cover_exceeds(rows, masks, pairs, cand, best - csize):
                break
            if pending:
                cnt = cnt[:]
                while pending:
                    k = pending.bit_length()
                    pending ^= masks[k]
                    borrow = rows[k] & cand
                    i = 0
                    while borrow:  # counts within cand never go below 0
                        c = cnt[i] ^ borrow
                        cnt[i] = c
                        borrow &= c
                        i += 1
            top = cand
            for c in reversed(cnt):
                narrowed = top & c
                if narrowed:
                    top = narrowed
            k = top.bit_length()
            bit = masks[k]
            stack.append((chosen, csize, cand ^ bit, cnt, bit))
            chosen |= bit
            csize += 1
            pending = cand & (rows[k] | bit)
            cand ^= pending
    status = "budget_exhausted" if exhausted else "optimal"
    return MISResult(best, list(bits(_mirror(best_set, n))), status, nodes)


# -- interchange formats -----------------------------------------------------

# Bits of graph6, or characters of DIMACS or CSV text, that a codec holds
# in one piece: no string spans the whole graph.
_CHUNK = 1 << 16

# The most vertices the DIMACS and CSV decoders accept, checked before
# the rows are allocated, so that a dozen bytes naming 10^9 vertices
# cannot ask for 10^9 rows.  ER_1024 has 1,049,601 vertices.
_MAX_VERTICES = 1 << 21


def _vertex_count(n):
    """n, or ValueError if it is not an int or is above _MAX_VERTICES;
    Graph rejects a negative n, after any parse error."""
    if not isinstance(n, int):
        raise ValueError(f"vertex count {n!r} is not a non-negative int")
    if n > _MAX_VERTICES:
        raise ValueError(f"{n} vertices, more than the limit of "
                         f"{_MAX_VERTICES}")
    return n


def _graph6_size_bytes(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63
                                   for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError("graph too large for graph6")


# graph6 stores 6-bit groups as bytes 63..126; base64 stores the same groups
# as its alphabet, so binascii packs and unpacks them and a byte translation
# converts between the two alphabets.
_B64 = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
        b"0123456789+/")
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)


def _pack6(stream):
    """graph6 bytes of a bit string whose length is a multiple of 24."""
    raw = int(stream, 2).to_bytes(len(stream) // 8, "big")
    return binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)


def _graph6_pieces(g):
    """Header-less graph6 in pieces: upper triangle column-wise, 6 bits
    per byte.

    The size field is the first piece.  Column v is bits 0..v-1 of row v,
    written lowest vertex first.  The columns are gathered until about
    _CHUNK bits are waiting; the longest prefix that is a multiple of 24
    bits is packed as the next piece, and the rest carried into the one
    after.  Only the last piece is padded, and trimmed to (nbits + 5) // 6
    bytes of body in all.
    """
    yield _graph6_size_bytes(g.n)
    columns, waiting = [], 0
    for v in range(1, g.n):
        columns.append(format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1])
        waiting += v
        if waiting >= _CHUNK:
            stream = "".join(columns)
            cut = waiting - waiting % 24
            if cut:
                yield _pack6(stream[:cut])
            columns, waiting = [stream[cut:]], waiting - cut
    if waiting:
        stream = "".join(columns)
        yield _pack6(stream + "0" * (-waiting % 24))[:(waiting + 5) // 6]


def to_graph6(g: Graph) -> bytes:
    """Header-less graph6 (`_graph6_pieces` joined)."""
    return b"".join(_graph6_pieces(g))


def _graph6_size(data):
    """(n, length of the size field) of a graph6 string."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        width, size = 1, data[:1]
    elif data[1:2] == b"~":
        width, size = 8, data[2:8]
    else:
        width, size = 4, data[1:4]
    if len(data) < width or any(not 63 <= b <= 126 for b in size):
        raise ValueError("malformed graph6 size field")
    n = 0
    for b in size:
        n = n << 6 | (b - 63)
    return n, width


def from_graph6(data: bytes) -> Graph:
    """Parse header-less graph6; ValueError if the string is malformed.

    The body is checked and unpacked in pieces of a multiple of 4 bytes
    (24 bits), about _CHUNK bits each.  Column v is bits 0..v-1 of row v,
    as `to_graph6` writes them; a column cut by the end of a piece is
    carried into the next.  The bits left after the last column are
    padding and must be 0.  The lower rows are ORed with their transpose.
    """
    data = bytes(data).strip()
    n, start = _graph6_size(data)
    size, nbits = len(data) - start, n * (n - 1) // 2
    if size != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {size} bytes, "
                         f"n = {n} needs {(nbits + 5) // 6}")
    low, v, stream = [0] * min(n, 1), 1, ""  # column 0 has no bits
    step = 4 * max(1, _CHUNK // 24)
    for i in range(start, len(data), step):
        piece = data[i:i + step]
        if piece.translate(None, _G6):
            raise ValueError("invalid graph6 byte")
        raw = binascii.a2b_base64(piece.translate(_G6_TO_B64)
                                  + b"A" * (-len(piece) % 4))
        stream += format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
        pos = 0
        while v < n and pos + v <= len(stream):
            low.append(int(stream[pos:pos + v][::-1], 2))
            pos += v
            v += 1
        stream = stream[pos:]
    if "1" in stream:
        raise ValueError("nonzero graph6 padding bits")
    return Graph(n, [a | b for a, b in zip(low, transpose(low))])


def _blocks(data):
    """UTF-8 `data` cut into blocks, each decoded on its own: the first
    line, then blocks of about _CHUNK bytes.  Each block ends right after
    a b"\\n" or at the end of the data, so no "\\r\\n" is cut in two and
    every block ends a line.  The byte 0x0A occurs in UTF-8 only as "\\n",
    never inside a multi-byte character, so no character is cut either.
    A byte that is not UTF-8 raises the UnicodeDecodeError that decoding
    the whole data would raise, with its position in the whole data."""
    data = bytes(data)
    start, end, size = 0, len(data), 0
    while start < end:
        cut = data.find(b"\n", start + size)
        stop = end if cut < 0 else cut + 1
        try:
            block = data[start:stop].decode()
        except UnicodeDecodeError as e:
            raise UnicodeDecodeError(e.encoding, data, start + e.start,
                                     start + e.end, e.reason) from None
        yield block
        start, size = stop, _CHUNK


# str.translate table that deletes the ASCII digits.
_NO_DIGITS = dict.fromkeys(map(ord, "0123456789"))


def _canonical_edges(block, head, sep, to_json):
    """The endpoints [u0, v0, u1, v1, ...] of a block made only of
    canonical edge lines head + u + sep + v + "\\n", where u != v are
    decimal integers without sign or leading zero; else None.

    Deleting the digits must leave head + sep + "\\n" once per line, and
    every line must start with head, so each line has two digit fields.
    The block translated by `to_json`, less the commas at its ends, must
    then read with one `json.loads` as a list of two integers per line:
    JSON rejects an empty field inside the list, a leading zero and two
    numbers with no comma between them, and a field emptied at either end
    leaves the list short.
    """
    shape = head + sep + "\n"
    digitless = block.translate(_NO_DIGITS)
    lines = len(digitless) // len(shape)
    if (not block.endswith("\n") or digitless != shape * lines
            or not block.startswith(head)
            or head and block.count("\n" + head, 0, -1) != lines - 1):
        return None
    try:
        ends = json.loads("[" + block.translate(to_json).strip(",") + "]")
    except ValueError:
        return None
    pairs = iter(ends)
    if len(ends) != 2 * lines or any(map(operator.eq, pairs, pairs)):
        return None  # an empty field at either end, or a loop
    return ends


def _or_edges(adj, ends):
    """OR the edges (ends[0], ends[1]), (ends[2], ends[3]), ... into the
    rows."""
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u


def _edge_rows(g, head, names):
    """One chunk of text per vertex u with a higher neighbour: a line
    head(u) + names[v] for each such neighbour v, ascending."""
    for u, row in enumerate(g.adj):
        higher = row >> (u + 1) << (u + 1)
        if higher:
            h = head(u)
            yield (h + ("\n" + h).join([names[v] for v in bits(higher)])
                   + "\n").encode()


def _dimacs_pieces(g):
    """DIMACS edge format in pieces: the problem line, then "e u v"
    1-based, u < v, one piece per row."""
    yield f"p edge {g.n} {g.num_edges()}\n".encode()
    yield from _edge_rows(g, lambda u: f"e {u + 1} ",
                          [str(v + 1) for v in range(g.n)])


def to_dimacs(g: Graph) -> bytes:
    """DIMACS edge format (`_dimacs_pieces` joined)."""
    return b"".join(_dimacs_pieces(g))


_DIMACS_TO_JSON = str.maketrans({"e": None, " ": ",", "\n": None})  # ",u,v"


def _dimacs_lines(lines, adj):
    """The DIMACS line loop, which defines the format: read `lines` into
    the rows, which are None until the problem line, and return them.

    Vertex v (1-based) is row v and bit v; row 0 and bit 0 stay 0.
    """
    for raw in lines:
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if adj is not None or len(tok) != 4 or int(tok[2]) < 0:
                raise ValueError(f"bad DIMACS problem line {raw!r}")
            adj = [0] * (_vertex_count(int(tok[2])) + 1)
        elif tok[0] == "e":
            if adj is None:
                raise ValueError("DIMACS edge line before the problem line")
            n = len(adj) - 1
            try:
                u, v = int(tok[1]), int(tok[2])
            except (IndexError, ValueError):
                u = v = 0
            # a missing, non-integer or out-of-range endpoint, or a loop
            if u == v or not (0 < u <= n and 0 < v <= n):
                raise ValueError(f"bad DIMACS edge line {raw!r} for n = {n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def from_dimacs(data: bytes) -> Graph:
    """Parse DIMACS edge format; ValueError if the text is malformed.

    The text is read a block at a time (`_blocks`), the first line on its
    own.  Once the problem line has been read, a block made only of lines
    "e u v\\n" as `to_dimacs` writes them, with 1 <= u, v <= n, is read by
    one `json.loads` (`_canonical_edges`) and its edges are ORed into the
    rows.  Every other block (the problem line, comments, blank lines, CR
    or other line separators, other spacing, signs, leading zeros, a bad
    edge) goes through the line loop `_dimacs_lines`.  The line loop is
    the definition of the format: a block takes the fast path only if the
    line loop would read the same edges from it without error, and the
    line loop raises on the first bad line.  A problem line with more
    than _MAX_VERTICES vertices raises before any row is allocated.
    """
    adj = None
    for block in _blocks(data):
        if adj is not None:
            ends = _canonical_edges(block, "e ", " ", _DIMACS_TO_JSON)
            if ends is not None and 0 not in ends and max(ends) < len(adj):
                _or_edges(adj, ends)
                del ends  # before the next block is parsed
                continue
        adj = _dimacs_lines(block.splitlines(), adj)
    if adj is None:
        raise ValueError("missing DIMACS problem line")
    adj.pop(0)
    for v, row in enumerate(adj):
        adj[v] = row >> 1
    return Graph(len(adj), adj)


def _csv_pieces(g):
    """A "u,v" header, then one "u,v" line per edge, u < v, one piece per
    row."""
    yield b"u,v\n"
    yield from _edge_rows(g, lambda u: f"{u},", [str(v) for v in range(g.n)])


def to_edgelist_csv(g: Graph) -> bytes:
    """A "u,v" edge list (`_csv_pieces` joined)."""
    return b"".join(_csv_pieces(g))


_CSV_TO_JSON = str.maketrans({"\n": ","})  # "u,v,"


def _csv_lines(lines, adj, top, fault, n):
    """The CSV line loop, which defines the format: read `lines` into the
    rows; returns the largest vertex seen and the first loop or
    out-of-range edge, which stops the ORs."""
    for r in lines:
        if r.strip():
            u, v = r.split(",")  # ValueError unless exactly two fields
            u, v = int(u), int(v)
            if u > top or v > top:
                top = max(u, v)
                if n is None and top < _MAX_VERTICES:
                    adj.extend([0] * (top + 1 - len(adj)))
            if fault is None:
                if u == v or (u | v) < 0 or top >= len(adj):
                    fault = (u, v)  # the first edge add_edge would reject
                else:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
    return top, fault


def from_edgelist_csv(data: bytes, n=None) -> Graph:
    """Parse a "u,v" edge list; ValueError if the text is malformed.

    n defaults to 1 + the largest vertex, and the rows grow with it.  An
    n above _MAX_VERTICES raises before the text is read; with n = None,
    the rows do not grow past _MAX_VERTICES, and a larger vertex raises
    once the whole text has parsed, before a loop or an out-of-range
    vertex would.  The text is read a block at a time (`_blocks`), the
    first line, the header, on its own.  After it, a block made only of
    lines "u,v\\n" as `to_edgelist_csv` writes them, with u, v < n, is
    read by one `json.loads` (`_canonical_edges`) and its edges are ORed
    into the rows.  Every other block (the header, blank lines, CR or
    other line separators, spaces, signs, leading zeros, extra fields, a
    loop or an out-of-range vertex) goes through the line loop
    `_csv_lines`.  The line loop is the definition of the format: a
    block takes the fast path only if the line loop would read the same
    edges from it without error.  A loop or an out-of-range vertex is
    raised only once the whole text has parsed, for the first such edge,
    so a line that does not parse wins over it wherever it is; once one
    is found, the rows are never returned.
    """
    adj = [] if n is None else [0] * _vertex_count(n)
    limit = _MAX_VERTICES if n is None else n
    blocks = _blocks(data)
    after_header = next(blocks, "").splitlines()[1:]
    top, fault = _csv_lines(after_header, adj, -1, None, n)
    for block in blocks:
        ends = _canonical_edges(block, "", ",", _CSV_TO_JSON)
        if ends is not None:
            high = max(ends)
            if high < limit:
                top = max(top, high)
                if n is None:
                    adj.extend([0] * (top + 1 - len(adj)))
                _or_edges(adj, ends)
                del ends  # before the next block is parsed
                continue
        top, fault = _csv_lines(block.splitlines(), adj, top, fault, n)
    g = Graph(_vertex_count(top + 1) if n is None else n, adj)
    if fault is not None:
        g.add_edge(*fault)  # raises
    return g


_EXPORTERS = {"graph6": _graph6_pieces, "dimacs": _dimacs_pieces,
              "csv": _csv_pieces}


def export_pieces(g: Graph, fmt: str):
    """The bytes of `export(g, fmt)` as an iterator of the pieces the
    encoder builds, so that a writer holds one piece at a time.  An
    unknown format raises ValueError at once."""
    try:
        pieces = _EXPORTERS[fmt]
    except KeyError:
        raise ValueError(f"unsupported format {fmt!r}; "
                         f"choose from {sorted(_EXPORTERS)}")
    return pieces(g)


def export(g: Graph, fmt: str) -> bytes:
    return b"".join(export_pieces(g, fmt))
