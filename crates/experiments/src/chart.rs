//! A small ASCII line-chart renderer for terminal figure output.
//!
//! The paper presents its results as line plots; `sda repro --plot`
//! renders the same curves on a character grid so the shape (orderings,
//! gaps, crossovers) is visible without leaving the terminal.

use std::fmt;

/// Marker glyphs assigned to series in order, echoing the paper's point
/// styles (□ ◇ × △ ...).
const GLYPHS: [char; 8] = ['o', '*', 'x', '^', '#', '+', '@', '%'];

/// A multi-series ASCII line chart.
///
/// ```
/// use sda_experiments::chart::Chart;
/// let mut c = Chart::new("demo", 40, 10);
/// c.series("linear", vec![(0.0, 0.0), (1.0, 1.0)]);
/// c.series("flat", vec![(0.0, 0.5), (1.0, 0.5)]);
/// let out = c.to_string();
/// assert!(out.contains("demo"));
/// assert!(out.contains("linear"));
/// ```
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    width: usize,
    height: usize,
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Chart {
    /// Creates an empty chart with a plot area of `width` × `height`
    /// characters.
    ///
    /// # Panics
    ///
    /// Panics if the plot area is smaller than 8 × 4.
    pub fn new(title: &str, width: usize, height: usize) -> Chart {
        assert!(width >= 8 && height >= 4, "plot area too small");
        Chart {
            title: title.to_string(),
            width,
            height,
            x_label: String::new(),
            y_label: String::new(),
            series: Vec::new(),
        }
    }

    /// Sets the axis labels.
    pub fn labels(&mut self, x: &str, y: &str) -> &mut Chart {
        self.x_label = x.to_string();
        self.y_label = y.to_string();
        self
    }

    /// Adds a series (drawn with the next marker glyph).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is not finite.
    pub fn series(&mut self, label: &str, points: Vec<(f64, f64)>) -> &mut Chart {
        assert!(
            points.iter().all(|(x, y)| x.is_finite() && y.is_finite()),
            "chart points must be finite"
        );
        self.series.push((label.to_string(), points));
        self
    }

    fn ranges(&self) -> ((f64, f64), (f64, f64)) {
        let mut x_min = f64::INFINITY;
        let mut x_max = f64::NEG_INFINITY;
        let mut y_max = f64::NEG_INFINITY;
        for (_, points) in &self.series {
            for &(x, y) in points {
                x_min = x_min.min(x);
                x_max = x_max.max(x);
                y_max = y_max.max(y);
            }
        }
        if !x_min.is_finite() {
            // No data at all.
            return ((0.0, 1.0), (0.0, 1.0));
        }
        if x_max == x_min {
            x_max = x_min + 1.0;
        }
        if y_max <= 0.0 {
            y_max = 1.0;
        }
        ((x_min, x_max), (0.0, y_max * 1.05))
    }
}

impl fmt::Display for Chart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((x_min, x_max), (y_min, y_max)) = self.ranges();
        let mut grid = vec![vec![' '; self.width]; self.height];

        let to_col = |x: f64| -> usize {
            let frac = (x - x_min) / (x_max - x_min);
            ((frac * (self.width - 1) as f64).round() as usize).min(self.width - 1)
        };
        let to_row = |y: f64| -> usize {
            let frac = ((y - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
            let from_bottom = (frac * (self.height - 1) as f64).round() as usize;
            self.height - 1 - from_bottom.min(self.height - 1)
        };

        for (i, (_, points)) in self.series.iter().enumerate() {
            let glyph = GLYPHS[i % GLYPHS.len()];
            // Linear interpolation between consecutive points, one sample
            // per column, so curves read as lines; data points get the
            // series glyph, interpolated cells a faint dot.
            for pair in points.windows(2) {
                let (x0, y0) = pair[0];
                let (x1, y1) = pair[1];
                let (c0, c1) = (to_col(x0), to_col(x1));
                // The row is computed per column, so this is a genuine
                // 2-D walk, not an iterable slice.
                #[allow(clippy::needless_range_loop)]
                for c in (c0 + 1)..c1 {
                    let t = (c - c0) as f64 / (c1 - c0) as f64;
                    let y = y0 + t * (y1 - y0);
                    let cell = &mut grid[to_row(y)][c];
                    if *cell == ' ' {
                        *cell = '.';
                    }
                }
            }
            for &(x, y) in points {
                grid[to_row(y)][to_col(x)] = glyph;
            }
        }

        writeln!(f, "## {}", self.title)?;
        let y_tick_width = 8;
        for (r, row) in grid.iter().enumerate() {
            // Y tick labels on a few rows.
            let y_here = y_max - (y_max - y_min) * r as f64 / (self.height - 1) as f64;
            let label = if r == 0 || r == self.height - 1 || r == self.height / 2 {
                format!("{y_here:7.3}")
            } else {
                " ".repeat(7)
            };
            writeln!(
                f,
                "{label:>y_tick_width$} |{}",
                row.iter().collect::<String>()
            )?;
        }
        writeln!(f, "{:>y_tick_width$} +{}", "", "-".repeat(self.width))?;
        writeln!(
            f,
            "{:>y_tick_width$}  {:<w$.3}{:>r$.3}",
            "",
            x_min,
            x_max,
            w = self.width / 2,
            r = self.width - self.width / 2,
        )?;
        if !self.x_label.is_empty() || !self.y_label.is_empty() {
            writeln!(
                f,
                "{:>y_tick_width$}  x: {}, y: {}",
                "", self.x_label, self.y_label
            )?;
        }
        for (i, (label, _)) in self.series.iter().enumerate() {
            writeln!(
                f,
                "{:>y_tick_width$}  {} {}",
                "",
                GLYPHS[i % GLYPHS.len()],
                label
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_axes_and_legend() {
        let mut c = Chart::new("test chart", 30, 8);
        c.labels("load", "MD");
        c.series("UD", vec![(0.1, 0.02), (0.5, 0.25), (0.9, 0.97)]);
        c.series("GF", vec![(0.1, 0.02), (0.5, 0.09), (0.9, 0.18)]);
        let out = c.to_string();
        assert!(out.contains("## test chart"));
        assert!(out.contains("x: load, y: MD"));
        assert!(out.contains("o UD"));
        assert!(out.contains("* GF"));
        // The grid has height rows plus axis and legend lines.
        assert!(out.lines().count() >= 8 + 2 + 2);
    }

    #[test]
    fn marker_positions_reflect_ordering() {
        // A strictly higher curve must render its glyph on a strictly
        // higher (earlier) row in the final column.
        let mut c = Chart::new("order", 20, 10);
        c.series("high", vec![(0.0, 0.2), (1.0, 1.0)]);
        c.series("low", vec![(0.0, 0.1), (1.0, 0.3)]);
        let out = c.to_string();
        let lines: Vec<&str> = out.lines().collect();
        let row_of = |glyph: char| {
            lines
                .iter()
                .position(|l| {
                    // Only look at the last plot column.
                    l.ends_with(glyph)
                })
                .expect("glyph on final column")
        };
        assert!(row_of('o') < row_of('*'), "high curve above low curve");
    }

    #[test]
    fn empty_chart_renders() {
        let c = Chart::new("empty", 10, 4);
        let out = c.to_string();
        assert!(out.contains("## empty"));
    }

    #[test]
    fn single_point_series() {
        let mut c = Chart::new("point", 10, 4);
        c.series("p", vec![(0.5, 0.5)]);
        assert!(c.to_string().contains('o'));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_points_rejected() {
        Chart::new("bad", 10, 4).series("nan", vec![(0.0, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_plot_area_rejected() {
        Chart::new("tiny", 2, 2);
    }
}
