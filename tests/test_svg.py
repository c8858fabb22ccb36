"""SVG rendering: byte-stable output checked against a committed picture."""

from xml.sax.saxutils import escape

import hypothesis.strategies as st
from hypothesis import given

from conftest import golden_path
from weylshift.parser import parse_poly
from weylshift.shifts import ShiftSystem
from weylshift.svg import _escape, render_svg
from weylshift.vertex import VertexConfig


def test_matches_golden_file(staircase_config):
    with open(golden_path("staircase.svg"), "rb") as handle:
        golden = handle.read()
    assert render_svg(staircase_config).encode("utf-8") == golden


def test_deterministic(staircase_config):
    assert render_svg(staircase_config) == render_svg(staircase_config)


def test_edge_and_boundary_elements(staircase_config):
    text = render_svg(staircase_config)
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert 'version="1.1"' in text
    assert text.count('stroke="#2060c0"') == 5
    assert text.count('stroke-dasharray="6,4"') == 2
    assert text.count('stroke-width="3"') == 5  # every multiplicity is 1


def test_multiplicity_styling(gl3_file):
    sys = gl3_file.sys
    config = VertexConfig.build(
        sys, parse_poly("u1", 2), (0, 1), [(1, 0, 2), (2, 1, 1)]
    )
    text = render_svg(config)
    assert 'stroke-width="4"' in text  # doubled edge drawn thicker
    assert ">2</text>" in text


def test_generator_label_escaped():
    sys = ShiftSystem.from_rows([[2, -2]])
    config = VertexConfig.build(sys, parse_poly("u1", 1), (0, 1), [(1, 0, 1)])
    text = render_svg(config)
    assert ">u1</text>" in text
    wide = VertexConfig.build(
        sys, parse_poly("u1^2 - 2", 1), (0, 1), [(1, 0, 1), (3, 1, 1)]
    )
    assert "u1^2 - 2" in render_svg(wide)


@given(st.text(alphabet=st.sampled_from("&<>;amp lt gt u1^2-+*\"'"), max_size=30))
def test_escape_matches_the_xml_library(text):
    assert _escape(text) == escape(text)


def test_empty_config_renders(gl3_file):
    config = VertexConfig.build(gl3_file.sys, parse_poly("u1", 2), (0, 1), [])
    text = render_svg(config)
    assert text.endswith("</svg>\n")
    assert 'stroke="#2060c0"' not in text


def test_rank_zero_lattice_has_no_boundaries(gl3_file, staircase_config):
    # u1*u2 is moved by every nonzero combination of the two shifts,
    # so there is no fundamental strip to mark
    free = VertexConfig.build(gl3_file.sys, parse_poly("u1*u2", 2), (0, 1), [])
    assert len(free.lattice) == 0
    assert "stroke-dasharray" not in render_svg(free)
    assert "stroke-dasharray" in render_svg(staircase_config)



def test_boundaries_run_horizontally_when_the_lattice_is_vertical(gl3_file):
    # direction 3 fixes u1, so over the pair (1, 3) the stabilizer is (0, 1)
    # and the fundamental strip is bounded by the rows y = 0 and y = 2
    config = VertexConfig.build(gl3_file.sys, parse_poly("u1", 2), (0, 2), [(1, 0, 1)])
    assert config.lattice == ((0, 1),)
    dashed = [line for line in render_svg(config).splitlines() if "stroke-dasharray" in line]
    assert len(dashed) == 2
    for line in dashed:
        fields = dict(part.split("=") for part in line.split()[1:5])
        assert fields["y1"] == fields["y2"] and fields["x1"] != fields["x2"]
