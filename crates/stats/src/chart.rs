//! Terminal line charts for the figure binaries.
//!
//! Figures 5 and 6 of the paper are line plots; [`Chart`] renders the same
//! series as a character grid so the bench binaries show the curve shapes
//! directly in the terminal, next to the exact tables.

use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
struct Series {
    /// Legend label.
    name: String,
    /// Data points (need not be sorted; plotted by x).
    points: Vec<(f64, f64)>,
}

/// Glyphs assigned to series, in order.
const GLYPHS: [char; 6] = ['o', '+', 'x', '*', '#', '@'];

/// A fixed-size character-grid line chart.
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    width: usize,
    height: usize,
    series: Vec<Series>,
    y_label: String,
    x_label: String,
}

impl Chart {
    /// Creates a chart of `width × height` plot cells.
    pub fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        assert!(width >= 10 && height >= 4);
        Self {
            title: title.into(),
            width,
            height,
            series: Vec::new(),
            y_label: String::new(),
            x_label: String::new(),
        }
    }

    /// Sets the axis labels.
    pub fn with_labels(mut self, x: impl Into<String>, y: impl Into<String>) -> Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Adds a series (max 6).
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        assert!(self.series.len() < GLYPHS.len(), "too many series");
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    /// Number of series added.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series has been added.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the chart.
    pub fn render(&self) -> String {
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if all.is_empty() {
            return format!("{}\n(no data)\n", self.title);
        }
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &all {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        // Zero-base the y axis when data is non-negative: the paper's
        // figures do, and it keeps ratios honest.
        if y_min > 0.0 {
            y_min = 0.0;
        }
        if (x_max - x_min).abs() < f64::EPSILON {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < f64::EPSILON {
            y_max = y_min + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si];
            for &(x, y) in &s.points {
                if !x.is_finite() || !y.is_finite() {
                    continue;
                }
                let cx = ((x - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy =
                    ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                let row = self.height - 1 - cy;
                let cell = &mut grid[row][cx];
                // Overlap: later series win, but mark collisions distinctly.
                *cell = if *cell == ' ' || *cell == glyph {
                    glyph
                } else {
                    '‡'
                };
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let y_top = format!("{y_max:.4}");
        let y_bot = format!("{y_min:.4}");
        let margin = y_top.len().max(y_bot.len());
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{y_top:>margin$}")
            } else if i == self.height - 1 {
                format!("{y_bot:>margin$}")
            } else {
                " ".repeat(margin)
            };
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{label} |{line}");
        }
        let _ = writeln!(out, "{} +{}", " ".repeat(margin), "-".repeat(self.width));
        let _ = writeln!(
            out,
            "{}  {:<w$}{:>8}",
            " ".repeat(margin),
            format!("{x_min}"),
            format!("{x_max}"),
            w = self.width.saturating_sub(8)
        );
        if !self.x_label.is_empty() || !self.y_label.is_empty() {
            let _ = writeln!(
                out,
                "{}  x: {}   y: {}",
                " ".repeat(margin),
                self.x_label,
                self.y_label
            );
        }
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{} {}", GLYPHS[i], s.name))
            .collect();
        let _ = writeln!(out, "{}  {}", " ".repeat(margin), legend.join("   "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_in_the_grid() {
        let mut c = Chart::new("demo", 20, 6).with_labels("load", "thr");
        c.series("a", vec![(0.1, 0.0), (0.5, 0.5), (0.9, 1.0)]);
        let s = c.render();
        assert!(s.contains("demo"));
        assert!(s.contains('o'), "glyph plotted");
        assert!(s.contains("x: load"));
        assert!(s.contains("o a"));
        // Max y labelled at the top row.
        assert!(s.contains("1.0000"));
        assert!(s.contains("0.0000"));
    }

    #[test]
    fn multiple_series_get_distinct_glyphs() {
        let mut c = Chart::new("two", 20, 6);
        c.series("first", vec![(0.0, 0.0), (1.0, 1.0)]);
        c.series("second", vec![(0.0, 1.0), (1.0, 0.0)]);
        let s = c.render();
        assert!(s.contains('o'));
        assert!(s.contains('+'));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn collision_marker() {
        let mut c = Chart::new("overlap", 20, 6);
        c.series("a", vec![(0.5, 0.5)]);
        c.series("b", vec![(0.5, 0.5)]);
        let s = c.render();
        assert!(s.contains('‡'), "{s}");
    }

    #[test]
    fn empty_chart_is_graceful() {
        let c = Chart::new("empty", 20, 6);
        assert!(c.render().contains("no data"));
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let mut c = Chart::new("flat", 20, 6);
        c.series("a", vec![(0.0, 3.0), (1.0, 3.0)]);
        let s = c.render();
        assert!(s.contains('o'));
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let mut c = Chart::new("inf", 20, 6);
        c.series("a", vec![(0.0, f64::INFINITY), (0.5, 1.0), (1.0, f64::NAN)]);
        let s = c.render();
        assert!(s.contains('o'));
    }

    #[test]
    #[should_panic(expected = "too many series")]
    fn series_limit() {
        let mut c = Chart::new("limit", 20, 6);
        for i in 0..7 {
            c.series(format!("s{i}"), vec![(0.0, 0.0)]);
        }
    }
}
