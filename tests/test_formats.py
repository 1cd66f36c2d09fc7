"""graph6, DIMACS and CSV codecs against the whole-string oracles.

The package encodes a row, and decodes a block, at a time; the oracles in
`reference.py` build or parse each file as one string.  Both must give the
same bytes, the same graph, or the same exception type and message.  Every
check is repeated with `graphs._CHUNK` patched down to a few bits or
characters, so that every piece boundary is crossed.
"""

import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from erpg import graphs as gr
from erpg.field import field_for_order
from erpg.graphs import Graph
from erpg.plane import ProjectivePlane
from erpg.polarity import build_er_graph

from reference import (from_dimacs_reference, from_edgelist_csv_reference,
                       from_graph6_reference, random_graph,
                       to_dimacs_reference, to_edgelist_csv_reference,
                       to_graph6_reference)

CHUNKS = [gr._CHUNK, 1, 5, 24, 31]

# format: (encoder, its oracle, decoder)
CODECS = {"graph6": (gr.to_graph6, to_graph6_reference, gr.from_graph6),
          "dimacs": (gr.to_dimacs, to_dimacs_reference, gr.from_dimacs),
          "csv": (gr.to_edgelist_csv, to_edgelist_csv_reference,
                  gr.from_edgelist_csv)}

# The least n for each residue of n(n - 1)/2 mod 24 that occurs; the
# residues repeat with period 48 in n.
RESIDUE_NS = sorted({n * (n - 1) // 2 % 24: n
                     for n in reversed(range(48))}.values())


def er(q):
    return build_er_graph(ProjectivePlane(field_for_order(q)))


def outcome(decode, data, **kw):
    """The decoded graph, or the type and message of what was raised."""
    try:
        return decode(data, **kw)
    except Exception as e:
        return type(e), str(e)


def sample_graphs():
    rng = random.Random(18)
    graphs = [Graph(0), Graph(1), Graph(2), Graph.from_edges(2, [(0, 1)])]
    graphs += [random_graph(n, rng.random(), rng) for n in RESIDUE_NS]
    graphs += [random_graph(n, p, rng) for n in (70, 130) for p in (0.1, 0.9)]
    graphs += [er(q) for q in (2, 3, 4, 5, 8, 9)]
    return graphs


GRAPHS = sample_graphs()


def test_residue_ns_cover_every_residue_of_the_bit_count():
    residues = {n * (n - 1) // 2 % 24 for n in RESIDUE_NS}
    assert residues == {n * (n - 1) // 2 % 24 for n in range(1000)}
    assert len(residues) == 16  # n(n - 1)/2 is never 2 mod 3


def decode(fmt, data, g):
    """data read back by fmt's decoder; CSV is told n, since a last
    vertex without neighbours leaves no line."""
    return CODECS[fmt][2](data, **({"n": g.n} if fmt == "csv" else {}))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("fmt", CODECS)
def test_encoders_match_whole_string_oracles(fmt, chunk):
    encode, reference, _ = CODECS[fmt]
    with mock.patch.object(gr, "_CHUNK", chunk):
        for g in GRAPHS:
            data = encode(g)
            assert data == reference(g), g.n
            assert decode(fmt, data, g) == g


DIMACS_INPUTS = [
    b"p edge 3 2\r\ne 1 2\r\ne 2 3\r\n",
    b"p edge 3 2\x85e 1 2\xe2\x80\xa8e 2 3",
    "p edge 3 2\x85e 1 2\u2028e 2 3 e 1 3\n".encode(),
    b"c a comment\n\n   \np edge 4 3\nc e 9 9\ne 1 2\n\ne 1 2\ne 2 1\n",
    b"p edge 3 1\ne 1 2\ne 1 2\n",
    b"p edge 3 1\ne 1 \xff\n",
    b"\xffp edge 3 1\n",
    b"p edge 3 1\ne 1 4\ne 1\n",
    b"p edge 3 1\ne 1 1\np edge 3 1\n",
    b"e 1 2\np edge 2 1\n",
    b"p edge 2\n",
    b"p edge 2 x\n",
    b"p edge -1 0\n",
    b"p edge 2 0\np edge 2 0\n",
    b"c only\n",
    b"",
    b"p edge 4 1\re 1 2\r\re 3 4\n",
    b"p edge 4 1\ve 1 2\x0ce 3 4\x1ce 2 3\n",
    # Lines that the block path must leave to the line loop, and faults
    # after blocks it reads.  The first two have as many spaces and
    # newlines as canonical lines.
    b"p edge 4 2\ne 1 2 3\ne 4\n",
    b"p edge 4 2\ne 1 2\ne 3\ne 3 4 1\n",
    b"p edge 3 1\ne 01 2\n",
    b"p edge 3 1\ne 1  2\n",
    b"p edge 3 1\ne 1,2 3\n",
    b"p edge 3 1\ne 2 2\n",
    b"p edge 3 1\ne 0 1\n",
    b"p edge 3 1\ne 1 4\n",
    b"p edge 3 1\ne +1 2\n",
    b"p edge 3 1\ne  2\n",
    b"p edge 3 1\ne 1 \n",
    b"p edge 3 1\ne 1 2\ne 1 99999999999999999999999\n",
    b"p edge 3 1\ne 1 2\n3e 2 3\n",
    b"p edge 3 1\n1e 2 3\n",
    b"p edge 3 1\ne1 2 3\n",
    b"p edge 9999 1\ne 1 \n5e3 3 4\n",
    b"p edge 3 2\ne 1 2\ne 2 3",
    b"p edge 3 2\ne 1 2\n23",
    b"p edge 300 1\ne 1 2\n23",
    b"p edge 3 1\ne1 2 \n",
    b"p edge 3 1\n1e 2 \n",
    b"p edge 3 1\ne 1 2\np edge 3 1\n",
    b"p edge 3 1\n" + b"e 1 2\n" * 12000 + b"p edge 3 1\ne 2 3\n",
    b"p edge 3 1\n" + b"e 1 2\n" * 12000 + b"e 2 3\ne 3 4\n",
    b"p edge 3 1\n" + b"e 1 2\n" * 12000 + b"c x\n" + b"e 2 3\n" * 12000,
]

CSV_INPUTS = [
    b"u,v\r\n0,1\r\n1,2\r\n",
    b"u,v\x850,1\xe2\x80\xa81,2",
    "u,v\u20280,1\x851,2 \n2,3".encode(),
    b"u,v\n\n   \n0,1\n0,1\n1,0\n 2 , 3 \n",
    b"u,v\n0,1\n0,\xff\n",
    b"u,\xff\n",
    b"u,v\n1,1\n0,x\n",
    b"u,v\n0,5\n1,2,3\n",
    b"u,v\n-1,2\n2\n",
    b"u,v\n0,5\n1,1\n",
    b"u,v\n1,1\n0,5\n",
    b"u,v\n-1,2\n3,4\n",
    b"u,v\n-1,-1\n",
    b"0,1\n1,2\n",
    b"u,v\n",
    b"",
    b"u,v\n1\n",
    b"u,v\n1,2,3\n4\n",
    b"u,v\n0,1\n1,2,3\n2\n",
    b"u,v\n01,2\n",
    b"u,v\n1,2 \n",
    b"u,v\n,1\n",
    b"u,v\n1,\n",
    b"u,v\n0,1\n1,\n",
    b"u,v\n0,1\n2,2\n",
    b"u,v\n0,1\n1,99999999999999999999999\n",
    b"u,v\n0,1\n1,2",
    b"u,v\n0,1\n12",
    b"u,v\n0,1\n1,1\n0,2\n1,2\n0,x\n",
    b"u,v\n0,1\n0,7\n0,2\n1,2\n0,x\n",
    b"u,v\n1,1\n" + b"0,1\n" * 20000 + b"1,2\n" * 20000 + b"0,x\n",
    b"u,v\n" + b"0,1\n" * 20000 + b"0,7\n" + b"1,2\n" * 20000,
    b"u,v\n" + b"0,1\n" * 20000 + b"\n" + b"1,2\n" * 20000,
]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("data", DIMACS_INPUTS)
def test_dimacs_decoder_matches_oracle(data, chunk):
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert outcome(gr.from_dimacs, data) == outcome(
            from_dimacs_reference, data)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("data", CSV_INPUTS)
def test_csv_decoder_matches_oracle(data, chunk):
    with mock.patch.object(gr, "_CHUNK", chunk):
        for n in (None, -1, 0, 3, 6):
            assert outcome(gr.from_edgelist_csv, data, n=n) == outcome(
                from_edgelist_csv_reference, data, n=n)


@pytest.mark.parametrize("data", [b"u,v\n1,1\n0,x\n", b"u,v\n0,5\n1,2,3\n",
                                  b"u,v\n-1,2\n2\n"])
def test_csv_parse_error_wins_over_an_earlier_range_or_loop_error(data):
    with pytest.raises(ValueError) as caught:
        gr.from_edgelist_csv(data, n=3)
    assert "out of range" not in str(caught.value)
    assert "self-loops" not in str(caught.value)


def graph6_inputs():
    rng = random.Random(6)
    inputs = [b"", b"D", b"~?A", b"B\x7f", b"Bx", b"Bw", b"  Bw\n", b"?",
              b"@", b"A_", b"A`", b"A?", b"~~??????"]
    for n in (2, 3, 4, 9, 13, 63, 70):
        data = bytearray(gr.to_graph6(random_graph(n, 0.5, rng)))
        inputs += [bytes(data), bytes(data[:-1]), bytes(data) + b"?"]
        for _ in range(4):
            mutant = bytearray(data)
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
            inputs.append(bytes(mutant))
        last = bytearray(data)
        last[-1] |= 1  # a set padding bit unless n(n - 1)/2 % 6 == 0
        inputs.append(bytes(last))
    return inputs


@pytest.mark.parametrize("chunk", CHUNKS)
def test_graph6_decoder_matches_oracle(chunk):
    with mock.patch.object(gr, "_CHUNK", chunk):
        for data in graph6_inputs():
            assert outcome(gr.from_graph6, data) == outcome(
                from_graph6_reference, data), data


LINE_TEXT = st.lists(st.sampled_from(
    ["0", "1", "2", "3", "-", ",", " ", "e", "p edge ", "c", "x",
     "\n", "\r", "\r\n", "\x85", "\u2028", "\x0b"]),
    max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=LINE_TEXT, head=st.sampled_from(["", "u,v\n", "p edge 4 2\n"]),
       chunk=st.sampled_from(CHUNKS), n=st.sampled_from([None, 0, 4]))
def test_text_decoders_match_oracles_on_arbitrary_text(text, head, chunk, n):
    data = (head + text).encode()
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert outcome(gr.from_dimacs, data) == outcome(
            from_dimacs_reference, data)
        assert outcome(gr.from_edgelist_csv, data, n=n) == outcome(
            from_edgelist_csv_reference, data, n=n)


# Whole lines as `to_dimacs` and `to_edgelist_csv` write them, for n = 4
# and beyond it, mixed with the characters a block must hold to take the
# block path, so that most blocks come near it.
NEAR_CANONICAL_TEXT = st.lists(st.sampled_from(
    ["e 1 2\n", "e 2 4\n", "e 3 3\n", "e 0 1\n", "e 5 1\n", "e 10 2\n",
     "0,1\n", "1,3\n", "2,2\n", "4,1\n", "10,2\n", "01,2\n",
     "e", " ", ",", "\n", "0", "1", "3"]),
    max_size=30).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=NEAR_CANONICAL_TEXT, chunk=st.sampled_from([1, 5, 9, 24]),
       n=st.sampled_from([None, 4, 11]))
def test_text_decoders_match_oracles_near_canonical_lines(text, chunk, n):
    dimacs, csv = ("p edge 4 2\n" + text).encode(), ("u,v\n" + text).encode()
    with mock.patch.object(gr, "_CHUNK", chunk):
        assert outcome(gr.from_dimacs, dimacs) == outcome(
            from_dimacs_reference, dimacs)
        assert outcome(gr.from_edgelist_csv, csv, n=n) == outcome(
            from_edgelist_csv_reference, csv, n=n)


@pytest.mark.parametrize("chunk", [gr._CHUNK, 1000])
@pytest.mark.parametrize("fmt, line_loop", [("dimacs", "_dimacs_lines"),
                                            ("csv", "_csv_lines")])
def test_canonical_text_takes_the_block_path(fmt, line_loop, chunk):
    """Of what `to_dimacs` and `to_edgelist_csv` write for ER_27, the
    line loop reads only the first line, the problem line or header;
    every later block is read in one step."""
    g = er(27)
    data = CODECS[fmt][0](g)
    real = getattr(gr, line_loop)
    seen = []

    def counting(lines, *state):
        seen.extend(lines)
        return real(lines, *state)

    with mock.patch.object(gr, "_CHUNK", chunk), \
            mock.patch.object(gr, line_loop, counting):
        assert decode(fmt, data, g) == g
    assert len(data) > chunk + 100  # two blocks or more after the first
    assert seen == (["p edge 757 10584"] if fmt == "dimacs" else [])


# -- ER_64 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def er64():
    return er(64)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", CODECS)
def test_encoders_match_oracles_on_er64(er64, fmt):
    encode, reference, _ = CODECS[fmt]
    assert encode(er64) == reference(er64)


@pytest.mark.parametrize("fmt", CODECS)
def test_codec_peak_memory_is_a_small_multiple_of_its_data(er64, fmt):
    """At ER_64 an encoder's traced peak is at most 3 times its output.
    The graph6 decoder's is at most 4 times its input plus the rows it
    returns.  The DIMACS and CSV decoders, which decode a block at a time,
    hold at most half their input beyond the rows: 0.28 and 0.40 times,
    where decoding the whole text took 1.28 and 1.40 times.  The
    whole-string codecs took 7.9-12.2 and 2.9-6.7 times data plus rows."""
    encode, _, decode = CODECS[fmt]
    data, peak = traced_peak(encode, er64)
    assert peak <= 3 * len(data), peak / len(data)
    g, peak = traced_peak(decode, data)
    assert g == er64
    rows = sum(sys.getsizeof(row) for row in g.adj)
    if fmt == "graph6":
        assert peak <= 4 * (len(data) + rows), peak / (len(data) + rows)
    else:
        assert peak - rows <= len(data) / 2, (peak - rows) / len(data)
