"""Grid2D: indexing, snapping, rasterization conservation and bitwise parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Grid2D, Point, Rect


@pytest.fixture
def grid():
    return Grid2D(Rect(0, 0, 4, 2), nx=8, ny=4)


class TestConstruction:
    def test_spacing(self, grid):
        assert grid.dx == pytest.approx(0.5)
        assert grid.dy == pytest.approx(0.5)
        assert grid.num_nodes == 32

    def test_from_pitch(self):
        g = Grid2D.from_pitch(Rect(0, 0, 6.8, 6.7), 0.4)
        assert g.nx == 17
        assert g.ny == 17

    def test_from_pitch_minimum_two_nodes(self):
        g = Grid2D.from_pitch(Rect(0, 0, 0.3, 0.3), 1.0)
        assert g.nx == 2 and g.ny == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid2D(Rect(0, 0, 1, 1), 0, 5)
        with pytest.raises(ValueError):
            Grid2D.from_pitch(Rect(0, 0, 1, 1), -1.0)


class TestIndexing:
    def test_node_id_roundtrip(self, grid):
        for i, j in grid.iter_indices():
            assert grid.node_index(grid.node_id(i, j)) == (i, j)

    def test_node_id_order(self, grid):
        # Flat ids are row-major in y.
        assert grid.node_id(0, 0) == 0
        assert grid.node_id(1, 0) == 1
        assert grid.node_id(0, 1) == grid.nx

    def test_out_of_range(self, grid):
        with pytest.raises(IndexError):
            grid.node_id(8, 0)
        with pytest.raises(IndexError):
            grid.node_index(32)

    def test_node_point_at_cell_center(self, grid):
        p = grid.node_point(0, 0)
        assert (p.x, p.y) == (pytest.approx(0.25), pytest.approx(0.25))

    def test_nearest_node_snaps_and_clamps(self, grid):
        assert grid.nearest_node(Point(0.3, 0.3)) == (0, 0)
        assert grid.nearest_node(Point(100, 100)) == (7, 3)
        assert grid.nearest_node(Point(-5, -5)) == (0, 0)

    def test_nodes_in_rect(self, grid):
        inside = grid.nodes_in_rect(Rect(0, 0, 1, 1))
        assert set(inside) == {(0, 0), (1, 0), (0, 1), (1, 1)}


class TestCoverage:
    def test_full_cover(self, grid):
        frac = grid.coverage_fractions(grid.outline)
        assert np.allclose(frac, 1.0)

    def test_partial_cell(self, grid):
        # A rect covering exactly half of cell (0, 0).
        frac = grid.coverage_fractions(Rect(0, 0, 0.25, 0.5))
        assert frac[0, 0] == pytest.approx(0.5)
        assert frac.sum() == pytest.approx(0.5)

    def test_conservation(self, grid):
        rect = Rect(0.3, 0.2, 2.7, 1.9)
        frac = grid.coverage_fractions(rect)
        covered = frac.sum() * grid.dx * grid.dy
        assert covered == pytest.approx(rect.area, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=0.5),
    )
    def test_conservation_property(self, x0, y0, w, h):
        """Rasterized area equals geometric area for any interior rect."""
        grid = Grid2D(Rect(0, 0, 4, 2), nx=8, ny=4)
        rect = Rect(x0, y0, min(x0 + w, 4.0), min(y0 + h, 2.0))
        frac = grid.coverage_fractions(rect)
        covered = frac.sum() * grid.dx * grid.dy
        assert covered == pytest.approx(rect.area, abs=1e-9)
        assert np.all(frac >= 0.0) and np.all(frac <= 1.0 + 1e-12)


def _reference_coverage(grid, rect):
    """Per-cell rasterization through ``Rect`` objects, over every cell."""
    frac = np.zeros((grid.ny, grid.nx))
    cell_area = grid.dx * grid.dy
    for i, j in grid.iter_indices():
        frac[j, i] = grid.cell_rect(i, j).overlap_area(rect) / cell_area
    return frac


#: (nx, ny) with the degenerate 1xN and Nx1 shapes drawn as often as 2-D ones.
_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 16)),
    st.tuples(st.integers(1, 16), st.just(1)),
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
)


@st.composite
def _grid_and_rect(draw):
    nx, ny = draw(_SHAPES)
    ox = draw(st.floats(-5.0, 5.0))
    oy = draw(st.floats(-5.0, 5.0))
    grid = Grid2D(
        Rect(ox, oy, ox + draw(st.floats(0.1, 10.0)), oy + draw(st.floats(0.1, 10.0))),
        nx,
        ny,
    )

    def coord(origin, pitch, n):
        # A cell edge exactly as cell_rect computes it, or any point in and
        # around the outline (rects may stick out of it).
        if draw(st.booleans()):
            return origin + draw(st.integers(0, n)) * pitch
        return draw(st.floats(origin - 3.0, origin + n * pitch + 3.0))

    def extent(pitch):
        # Zero (zero-area rects), whole cells, or any length.
        return draw(st.one_of(
            st.just(0.0),
            st.integers(1, 4).map(lambda k: k * pitch),
            st.floats(0.0, 6.0),
        ))

    x0 = coord(grid.outline.x0, grid.dx, nx)
    y0 = coord(grid.outline.y0, grid.dy, ny)
    rect = Rect(x0, y0, x0 + extent(grid.dx), y0 + extent(grid.dy))
    if draw(st.booleans()):
        axis = draw(st.one_of(
            st.just(grid.outline.center.x), st.floats(-5.0, 15.0)
        ))
        rect = rect.mirrored_x(axis)
    return grid, rect


class TestCoverageBitwise:
    @settings(max_examples=300, deadline=None)
    @given(_grid_and_rect())
    def test_matches_per_cell_reference_byte_for_byte(self, case):
        grid, rect = case
        got = grid.coverage_fractions(rect)
        want = _reference_coverage(grid, rect)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # -0.0 vs 0.0 counts

    @pytest.mark.parametrize("nx,ny", [(1, 7), (7, 1), (1, 1)])
    def test_degenerate_shapes_on_cell_edges(self, nx, ny):
        grid = Grid2D(Rect(-1.0, 0.5, 2.5, 3.0), nx, ny)
        edge_x = grid.outline.x0 + grid.dx
        edge_y = grid.outline.y0 + grid.dy
        for rect in (
            Rect(edge_x, edge_y, edge_x, edge_y),  # zero-area point on an edge
            Rect(edge_x, grid.outline.y0, edge_x + grid.dx, edge_y),
            Rect(-4.0, -4.0, 0.0, 1.0),  # partly outside the outline
            grid.outline.mirrored_x(grid.outline.center.x),
        ):
            got = grid.coverage_fractions(rect)
            assert got.tobytes() == _reference_coverage(grid, rect).tobytes()

    @pytest.mark.parametrize("nx,ny", [(1, 3), (3, 1), (4, 4)])
    def test_signed_zero_edges(self, nx, ny):
        # Python's max/min keep their first argument on ties, so a
        # zero-width rect at x = -0.0 on the cell edge x = 0.0 covers
        # -0.0 of the cell; the rasterizer must keep that sign.
        grid = Grid2D(Rect(0.0, 0.0, 2.0, 1.0), nx, ny)
        for rect in (
            Rect(-0.0, 0.0, -0.0, 1.0),
            Rect(0.0, -0.0, 1.0, -0.0),
            Rect(-0.0, -0.0, 0.5, 0.5),
        ):
            got = grid.coverage_fractions(rect)
            assert got.tobytes() == _reference_coverage(grid, rect).tobytes()
