//! Minimal SVG line charts for experiment curves (convergence traces,
//! utility-vs-parameter sweeps) — no plotting dependencies.

use std::fmt::Write as _;

/// One named data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points; rendered in the given order.
    pub points: Vec<(f64, f64)>,
}

/// A line chart with labeled axes and a legend.
///
/// # Example
///
/// ```
/// use mec_viz::{LineChart, Series};
///
/// let chart = LineChart::new("demo", "x", "y")
///     .with_series(Series {
///         label: "curve".into(),
///         points: vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)],
///     });
/// let svg = chart.render();
/// assert!(svg.contains("<polyline"));
/// assert!(svg.contains("curve"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

/// Chart width in pixels.
const WIDTH: f64 = 720.0;
/// Chart height in pixels.
const HEIGHT: f64 = 420.0;

/// Series colors (cycled).
const COLORS: [&str; 6] = [
    "#1d3557", "#2a9d8f", "#e76f51", "#7b2cbf", "#e9c46a", "#457b9d",
];

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Renders the chart to an SVG document string.
    ///
    /// # Panics
    ///
    /// Panics if no series has any point or if any coordinate is
    /// non-finite.
    pub fn render(&self) -> String {
        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        assert!(!all.is_empty(), "chart needs at least one data point");
        assert!(
            all.iter().all(|(x, y)| x.is_finite() && y.is_finite()),
            "chart data must be finite"
        );

        let (mut x0, mut x1, mut y0, mut y1) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for (x, y) in &all {
            x0 = x0.min(*x);
            x1 = x1.max(*x);
            y0 = y0.min(*y);
            y1 = y1.max(*y);
        }
        if x0 == x1 {
            x1 = x0 + 1.0;
        }
        if y0 == y1 {
            y1 = y0 + 1.0;
        }

        // Plot area with margins for labels.
        let (ml, mr, mt, mb) = (64.0, 16.0, 36.0, 48.0);
        let pw = WIDTH - ml - mr;
        let ph = HEIGHT - mt - mb;
        let tx = |x: f64| ml + (x - x0) / (x1 - x0) * pw;
        let ty = |y: f64| mt + (1.0 - (y - y0) / (y1 - y0)) * ph;

        let mut svg = String::new();
        let _ = write!(
            svg,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\" font-family=\"sans-serif\">",
            WIDTH, HEIGHT, WIDTH, HEIGHT
        );
        // Frame, title, axis labels.
        let _ = write!(
            svg,
            "<rect x=\"{ml}\" y=\"{mt}\" width=\"{pw:.1}\" height=\"{ph:.1}\" \
             fill=\"none\" stroke=\"#444\" stroke-width=\"1\"/>\
             <text x=\"{:.1}\" y=\"22\" font-size=\"15\" text-anchor=\"middle\">{}</text>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\">{}</text>\
             <text x=\"16\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\" \
             transform=\"rotate(-90 16 {:.1})\">{}</text>",
            ml + pw / 2.0,
            self.title,
            ml + pw / 2.0,
            HEIGHT - 12.0,
            self.x_label,
            mt + ph / 2.0,
            mt + ph / 2.0,
            self.y_label
        );
        // Axis extreme ticks.
        let _ = write!(
            svg,
            "<text x=\"{ml}\" y=\"{:.1}\" font-size=\"10\">{x0:.3}</text>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{x1:.3}</text>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{y0:.3}</text>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{y1:.3}</text>",
            mt + ph + 14.0,
            ml + pw,
            mt + ph + 14.0,
            ml - 4.0,
            mt + ph,
            ml - 4.0,
            mt + 10.0,
        );
        // Series polylines + legend.
        for (i, series) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let mut points = String::new();
            for (x, y) in &series.points {
                let _ = write!(points, "{:.1},{:.1} ", tx(*x), ty(*y));
            }
            let _ = write!(
                svg,
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.6\"/>",
                points.trim_end()
            );
            let ly = mt + 14.0 + 16.0 * i as f64;
            let _ = write!(
                svg,
                "<line x1=\"{:.1}\" y1=\"{ly:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\" \
                 stroke=\"{color}\" stroke-width=\"2\"/>\
                 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}</text>",
                ml + pw - 140.0,
                ml + pw - 120.0,
                ml + pw - 114.0,
                ly + 4.0,
                series.label
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> LineChart {
        LineChart::new("t", "x", "y")
            .with_series(Series {
                label: "a".into(),
                points: vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)],
            })
            .with_series(Series {
                label: "b".into(),
                points: vec![(0.0, 1.0), (2.0, 3.0)],
            })
    }

    #[test]
    fn renders_one_polyline_per_series_plus_legend() {
        let svg = chart().render();
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn axis_extremes_appear() {
        let svg = chart().render();
        assert!(svg.contains("0.000"));
        assert!(svg.contains("3.000"));
    }

    #[test]
    fn degenerate_ranges_are_padded() {
        // A single point must not divide by zero.
        let svg = LineChart::new("p", "x", "y")
            .with_series(Series {
                label: "dot".into(),
                points: vec![(5.0, 5.0)],
            })
            .render();
        assert!(svg.contains("<polyline"));
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn deterministic() {
        assert_eq!(chart().render(), chart().render());
    }

    #[test]
    #[should_panic(expected = "data point")]
    fn empty_chart_panics() {
        let _ = LineChart::new("e", "x", "y").render();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_data_panics() {
        let _ = LineChart::new("n", "x", "y")
            .with_series(Series {
                label: "bad".into(),
                points: vec![(0.0, f64::NAN)],
            })
            .render();
    }
}
