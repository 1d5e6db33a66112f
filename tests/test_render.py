"""SVG output for drawings and decompositions, and the streamed writers."""

import functools
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twolayer as tl
from twolayer import BipartiteGraph, PathDecomposition, TwoLayerDrawing
from twolayer.cli import _output

from oracles import dumps_decomposition_to_json, join_render_decomposition, join_render_drawing

SINGLE_EDGE_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 -30 80 160">\n'
    '<line x1="40" y1="0" x2="40" y2="100" stroke="black" stroke-width="1"/>\n'
    '<circle cx="40" cy="0" r="5" fill="white" stroke="black"/>\n'
    '<text x="40" y="-10" font-size="10" text-anchor="middle">u</text>\n'
    '<circle cx="40" cy="100" r="5" fill="white" stroke="black"/>\n'
    '<text x="40" y="118" font-size="10" text-anchor="middle">v</text>\n'
    "</svg>\n"
)


def test_single_edge_drawing_golden():
    g = BipartiteGraph(("u",), ("v",), (("u", "v"),))
    d = TwoLayerDrawing(g, ("u",), ("v",))
    assert tl.render_drawing(d) == SINGLE_EDGE_SVG


def test_drawing_svg_structure():
    g, d = tl.complete_binary_tree(2)
    svg = tl.render_drawing(d)
    assert svg.count("<circle") == len(g.vertices)
    assert svg.count("<line") == len(g.edges)
    assert svg.count("<text") == len(g.vertices)
    # ranks map to x = 40 * rank on each rail
    assert 'cx="40" cy="0"' in svg and 'cx="40" cy="100"' in svg


def test_drawing_svg_deterministic():
    _, d = tl.random_drawing(5, 5, 0.6, 2)
    assert tl.render_drawing(d) == tl.render_drawing(d)


def test_decomposition_svg_structure():
    pd = PathDecomposition((("u",), ("u", "v"), ("v", "w")))
    svg = tl.render_decomposition(pd)
    assert svg.count("<rect") == 3
    assert ">1<" in svg and ">3<" in svg  # 1-based bag indices
    assert ">w<" in svg


def test_svg_escapes_markup_in_ids():
    g = BipartiteGraph(("a&<b>",), ("y",), (("a&<b>", "y"),))
    d = TwoLayerDrawing(g, ("a&<b>",), ("y",))
    svg = tl.render_drawing(d)
    assert "a&amp;&lt;b&gt;" in svg
    assert "<b>" not in svg
    pd_svg = tl.render_decomposition(PathDecomposition((("a&<b>",),)))
    assert "a&amp;&lt;b&gt;" in pd_svg


def test_empty_drawing_still_renders():
    d = TwoLayerDrawing(BipartiteGraph((), (), ()), (), ())
    svg = tl.render_drawing(d)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


# ------------------------------------------------------ streamed writers

MARKUP = '&<>"\\'  # the characters SVG or JSON must escape


@functools.cache
def wide_decomposition() -> PathDecomposition:
    """The decomposition of a wide-bags drawing: 310 bags up to 271 wide."""
    return tl.decompose_drawing(tl.random_drawing(160, 160, 0.032, 3)[1])[0]


def _named_ids_drawing(a, b) -> TwoLayerDrawing:
    g = BipartiteGraph(a, b, tuple(zip(a, b)))
    return TwoLayerDrawing(g, a, tuple(reversed(b)))


DRAWINGS = {
    "empty": lambda: TwoLayerDrawing(BipartiteGraph((), (), ()), (), ()),
    "tree": lambda: tl.complete_binary_tree(3)[1],
    "markup": lambda: _named_ids_drawing((MARKUP, "a" + MARKUP), ("é", "😀")),
    "wide": lambda: tl.random_drawing(160, 160, 0.032, 3)[1],
}

DECOMPOSITIONS = {
    "no bags": lambda: PathDecomposition(()),
    "empty bag": lambda: PathDecomposition(((), ("u",), ())),
    "markup": lambda: PathDecomposition(((MARKUP, "a" + MARKUP), (MARKUP,))),
    "non-ascii": lambda: PathDecomposition((("é", "x😀"), ("😀", "é"), ("ü",))),
    "tree": lambda: tl.decompose_drawing(tl.complete_binary_tree(3)[1])[0],
    "wide": wide_decomposition,
}


@pytest.mark.parametrize("make", DRAWINGS.values(), ids=DRAWINGS)
def test_drawing_svg_matches_join_oracle(make):
    d = make()
    assert tl.render_drawing(d) == join_render_drawing(d)


@pytest.mark.parametrize("make", DECOMPOSITIONS.values(), ids=DECOMPOSITIONS)
def test_decomposition_writers_match_join_oracles(make):
    """The SVG and pd.json chunk writers give the join-based documents byte
    for byte; ensure_ascii writes an astral id as a surrogate pair."""
    pd = make()
    assert tl.render_decomposition(pd) == join_render_decomposition(pd)
    assert tl.decomposition_to_json(pd) == dumps_decomposition_to_json(pd)


@pytest.mark.parametrize("write", [tl.render_decomposition, tl.decomposition_to_json])
def test_streamed_writer_holds_a_small_part_of_its_output(tmp_path, write):
    """Written as the CLI writes it, a document never exists whole in
    memory: the traced peak stays below a quarter of the file (4.9 MB of
    SVG, 0.9 MB of pd.json), where a joined document is held several times
    over."""
    pd = wide_decomposition()
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        with _output(str(path)) as fh:
            assert write(pd, fh) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    assert peak < size / 4, (peak, size)


class _CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    writes = 0

    def write(self, s: str) -> int:
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("write", [tl.render_decomposition, tl.decomposition_to_json])
def test_streamed_writer_writes_once_per_bag(write):
    """The opening, one chunk per bag, the closing: 312 writes for the 310
    bags, where json.JSONEncoder(indent=2).iterencode makes 68,890 chunks."""
    pd = wide_decomposition()
    fh = _CountingStream()
    assert write(pd, fh) is None
    assert fh.writes <= len(pd.bags) + 2
    assert fh.getvalue() == write(pd)


# Markup, control, non-ASCII and astral characters, and lone surrogates.
IDS = st.text(
    st.one_of(
        st.sampled_from(MARKUP),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
        st.characters(min_codepoint=0x10000),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
        st.characters(),
    ),
    max_size=4,
)


@given(st.lists(st.lists(IDS, max_size=5), max_size=4))
@settings(max_examples=200, deadline=None)
def test_decomposition_writers_match_oracles_on_any_ids(bags):
    pd = PathDecomposition(bags)
    for write, oracle in [
        (tl.decomposition_to_json, dumps_decomposition_to_json),
        (tl.render_decomposition, join_render_decomposition),
    ]:
        expected = oracle(pd)
        assert write(pd) == expected
        fh = io.StringIO()
        assert write(pd, fh) is None
        assert fh.getvalue() == expected


def test_decomposition_json_rejects_a_non_str_id_before_writing():
    """Ids are str; one that is not raises TypeError, and nothing is
    written, where json.dumps would have written it as a number."""
    pd = PathDecomposition((("u",), (1,)))
    fh = io.StringIO()
    with pytest.raises(TypeError):
        tl.decomposition_to_json(pd, fh)
    assert fh.getvalue() == ""
