package geometry

import (
	"fmt"
	"math"
)

// CellGrid partitions a structure along its long axis into equal-width
// coverage cells. Cells are the unit of fleet sharding: a capsule belongs to
// exactly one cell (by its long-axis coordinate), a station covers the run
// of cells within its acoustic range, and a shard owns a contiguous range of
// cells. Keying the partition to the structure's geometry — rather than to
// the shard count — keeps cell membership, and therefore every per-cell
// derived quantity (station coverage, reachability), stable when the fleet
// is resharded.
type CellGrid struct {
	structure *Structure
	// axisLen is the structure's long-axis extent in metres; width is one
	// cell's share of it.
	axisLen float64
	//ecolint:unit m
	width float64
	cells int
}

// NewCellGrid partitions the structure's long axis into n equal cells.
func NewCellGrid(s *Structure, n int) (*CellGrid, error) {
	if n <= 0 {
		return nil, fmt.Errorf("geometry: cell grid needs at least 1 cell, got %d", n)
	}
	axis := s.MaxRangeAxis()
	if axis <= 0 {
		return nil, fmt.Errorf("geometry: structure %q has no long axis to partition", s.Name)
	}
	return &CellGrid{structure: s, axisLen: axis, width: axis / float64(n), cells: n}, nil
}

// Cells returns the number of cells in the grid.
func (g *CellGrid) Cells() int { return g.cells }

// Width returns one cell's extent along the long axis in metres.
//
//ecolint:unit return m
func (g *CellGrid) Width() float64 { return g.width }

// axisCoord projects p onto the partition axis. Boxes partition along
// Length (X); cylinders along their vertical axis (Y).
func (g *CellGrid) axisCoord(p Vec3) float64 {
	if g.structure.Shape == Cylinder {
		return p.Y
	}
	return p.X
}

// CellOf returns the cell index owning position p, clamped into the grid so
// positions on (or marginally past) the boundary still land in a valid cell.
func (g *CellGrid) CellOf(p Vec3) int {
	c := int(math.Floor(g.axisCoord(p) / g.width))
	if c < 0 {
		c = 0
	}
	if c >= g.cells {
		c = g.cells - 1
	}
	return c
}

// Center returns the mid-axis coordinate of cell c in metres.
//
//ecolint:unit return m
func (g *CellGrid) Center(c int) float64 {
	return (float64(c) + 0.5) * g.width
}

// Span returns cell c's [lo, hi) extent along the axis in metres.
func (g *CellGrid) Span(c int) (lo, hi float64) {
	return float64(c) * g.width, float64(c+1) * g.width
}
