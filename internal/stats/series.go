package stats

import (
	"fmt"
	"strings"
)

// Series is an ordered sequence of (x, y) samples, e.g. "probability of
// reception versus packet number" — the unit of data behind each figure in
// the paper.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one sample to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.X) }

// MaxAbsDiff returns the maximum absolute difference between the Y values
// of two series sampled at the same X positions. It panics if the series
// have different lengths; comparing differently shaped series is a caller
// bug.
func MaxAbsDiff(a, b *Series) float64 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("stats: MaxAbsDiff on series of length %d and %d", a.Len(), b.Len()))
	}
	var maxDiff float64
	for i := range a.Y {
		d := a.Y[i] - b.Y[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// MeanAbsDiff returns the mean absolute difference between the Y values of
// two equally shaped series.
func MeanAbsDiff(a, b *Series) float64 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("stats: MeanAbsDiff on series of length %d and %d", a.Len(), b.Len()))
	}
	if a.Len() == 0 {
		return 0
	}
	var sum float64
	for i := range a.Y {
		d := a.Y[i] - b.Y[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(a.Len())
}

// MinMaxY returns the smallest and largest Y value. An empty series
// reports (0, 0).
func (s *Series) MinMaxY() (min, max float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	min, max = s.Y[0], s.Y[0]
	for _, y := range s.Y[1:] {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	return min, max
}

// GnuplotData renders the series as whitespace-separated "x y" rows, the
// format the paper's figures were plotted from.
func (s *Series) GnuplotData() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i := range s.X {
		fmt.Fprintf(&b, "%g %g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// AsciiChart renders one or more series sharing an X axis as a crude
// terminal chart (rows = Y buckets from 1.0 down to 0.0, columns = X
// samples of the first series). Each series is drawn with its own rune.
// It is intentionally simple — just enough to eyeball the figure shapes in
// CI logs.
func AsciiChart(width, height int, series ...*Series) string {
	if len(series) == 0 || series[0].Len() == 0 || width <= 0 || height <= 0 {
		return ""
	}
	marks := []rune{'*', '+', 'o', 'x', '#', '@'}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	minX, maxX := series[0].X[0], series[0].X[0]
	for _, s := range series {
		for _, x := range s.X {
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
		}
	}
	spanX := maxX - minX
	if spanX == 0 {
		spanX = 1
	}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			col := int((s.X[i] - minX) / spanX * float64(width-1))
			y := s.Y[i]
			if y < 0 {
				y = 0
			}
			if y > 1 {
				y = 1
			}
			row := int((1 - y) * float64(height-1))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	for r, row := range grid {
		yVal := 1 - float64(r)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", yVal, string(row))
	}
	fmt.Fprintf(&b, "      x: %.0f .. %.0f   ", minX, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "[%c] %s  ", marks[si%len(marks)], s.Name)
	}
	b.WriteByte('\n')
	return b.String()
}
