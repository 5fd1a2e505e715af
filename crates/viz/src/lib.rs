//! # mec-viz
//!
//! Dependency-free SVG rendering of MEC networks and offloading
//! decisions: hexagonal cells, base stations, users colored by decision,
//! and links from each offloaded user to its serving station. Useful for
//! README figures, debugging schedules, and eyeballing mobility runs.
//!
//! ## Example
//!
//! ```
//! use mec_topology::{NetworkLayout, Point2};
//! use mec_viz::SvgScene;
//! use mec_types::constants;
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let layout = NetworkLayout::hexagonal(9, constants::INTER_SITE_DISTANCE)?;
//! let svg = SvgScene::new(&layout)
//!     .with_users(&[Point2::new(100.0, 50.0)])
//!     .render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.ends_with("</svg>"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;

pub use chart::{LineChart, Series};

use mec_system::Assignment;
use mec_topology::{NetworkLayout, Point2};
use mec_types::UserId;
use std::fmt::Write as _;

/// Output width in pixels; the height follows the aspect ratio.
const WIDTH_PX: f64 = 720.0;
/// Cell fill.
const CELL_FILL: &str = "#f3f6fb";
/// Cell border.
const CELL_STROKE: &str = "#8aa0c2";
/// Base-station marker.
const STATION: &str = "#1d3557";
/// Offloaded-user dot and user→station link.
const OFFLOADED: &str = "#2a9d8f";
/// Local-user dot.
const LOCAL: &str = "#e76f51";

/// A renderable scene: layout plus optional users and decision.
#[derive(Debug, Clone)]
pub struct SvgScene<'a> {
    layout: &'a NetworkLayout,
    users: &'a [Point2],
    assignment: Option<&'a Assignment>,
}

impl<'a> SvgScene<'a> {
    /// Starts a scene from a network layout.
    pub fn new(layout: &'a NetworkLayout) -> Self {
        Self {
            layout,
            users: &[],
            assignment: None,
        }
    }

    /// Adds user positions (required for [`with_assignment`]).
    ///
    /// [`with_assignment`]: Self::with_assignment
    pub fn with_users(mut self, users: &'a [Point2]) -> Self {
        self.users = users;
        self
    }

    /// Adds an offloading decision; offloaded users are linked to their
    /// serving station and colored differently from local users.
    ///
    /// # Panics
    ///
    /// `render` panics if the decision's user count does not match the
    /// provided positions.
    pub fn with_assignment(mut self, assignment: &'a Assignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Renders the scene to an SVG document string.
    ///
    /// # Panics
    ///
    /// Panics if an attached assignment disagrees with the user count.
    pub fn render(&self) -> String {
        if let Some(a) = self.assignment {
            assert_eq!(
                a.num_users(),
                self.users.len(),
                "assignment user count must match positions"
            );
        }
        let r = self.layout.cell_radius().as_meters();
        // World-space bounding box over cells and users.
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in self.layout.stations().iter().chain(self.users) {
            min_x = min_x.min(p.x - r);
            max_x = max_x.max(p.x + r);
            min_y = min_y.min(p.y - r);
            max_y = max_y.max(p.y + r);
        }
        let world_w = (max_x - min_x).max(1.0);
        let world_h = (max_y - min_y).max(1.0);
        let scale = WIDTH_PX / world_w;
        let height_px = world_h * scale;
        // Flip y so north is up.
        let tx = |p: &Point2| -> (f64, f64) { ((p.x - min_x) * scale, (max_y - p.y) * scale) };

        let mut svg = String::new();
        let _ = write!(
            svg,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\">",
            WIDTH_PX, height_px, WIDTH_PX, height_px
        );

        // Cells (pointy-top hexagons) and stations.
        for (i, station) in self.layout.stations().iter().enumerate() {
            let mut points = String::new();
            for k in 0..6 {
                let angle = std::f64::consts::FRAC_PI_6 + k as f64 * std::f64::consts::FRAC_PI_3;
                let vertex = Point2::new(station.x + r * angle.cos(), station.y + r * angle.sin());
                let (x, y) = tx(&vertex);
                let _ = write!(points, "{x:.1},{y:.1} ");
            }
            let _ = write!(
                svg,
                "<polygon points=\"{}\" fill=\"{}\" stroke=\"{}\" stroke-width=\"1\"/>",
                points.trim_end(),
                CELL_FILL,
                CELL_STROKE
            );
            let (x, y) = tx(station);
            let _ = write!(
                svg,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{}\"/>\
                 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"{}\">s{}</text>",
                x - 5.0,
                y - 5.0,
                STATION,
                x + 7.0,
                y - 7.0,
                STATION,
                i
            );
        }

        // Links first (under the dots).
        if let Some(assignment) = self.assignment {
            for (i, p) in self.users.iter().enumerate() {
                if let Some((s, _)) = assignment.slot(UserId::new(i)) {
                    let station = self
                        .layout
                        .station(s)
                        .expect("assignment servers fit the layout");
                    let (x1, y1) = tx(p);
                    let (x2, y2) = tx(&station);
                    let _ = write!(
                        svg,
                        "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
                         stroke=\"{OFFLOADED}\" stroke-width=\"0.8\" opacity=\"0.6\"/>"
                    );
                }
            }
        }

        // Users.
        for (i, p) in self.users.iter().enumerate() {
            let offloaded = self
                .assignment
                .map(|a| a.is_offloaded(UserId::new(i)))
                .unwrap_or(false);
            let color = if offloaded { OFFLOADED } else { LOCAL };
            let (x, y) = tx(p);
            let _ = write!(
                svg,
                "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"4\" fill=\"{color}\"/>"
            );
        }

        svg.push_str("</svg>");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_types::{Meters, ServerId, SubchannelId};

    fn layout() -> NetworkLayout {
        NetworkLayout::hexagonal(4, Meters::new(1000.0)).unwrap()
    }

    fn count(haystack: &str, needle: &str) -> usize {
        haystack.matches(needle).count()
    }

    #[test]
    fn renders_one_polygon_per_cell_and_one_circle_per_user() {
        let l = layout();
        let users = vec![Point2::new(0.0, 0.0), Point2::new(200.0, 100.0)];
        let svg = SvgScene::new(&l).with_users(&users).render();
        assert_eq!(count(&svg, "<polygon"), 4);
        assert_eq!(count(&svg, "<circle"), 2);
        assert_eq!(count(&svg, "<rect"), 4, "one station marker per cell");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn assignment_draws_links_and_colors() {
        let l = layout();
        let users = vec![Point2::new(0.0, 0.0), Point2::new(300.0, 0.0)];
        let mut x = Assignment::with_dims(2, 4, 2);
        x.assign(UserId::new(0), ServerId::new(1), SubchannelId::new(0))
            .unwrap();
        let svg = SvgScene::new(&l)
            .with_users(&users)
            .with_assignment(&x)
            .render();
        assert_eq!(count(&svg, "<line"), 1, "one offloaded user, one link");
        assert!(svg.contains(OFFLOADED));
        assert!(svg.contains(LOCAL));
    }

    #[test]
    fn tags_are_balanced() {
        let l = layout();
        let users = vec![Point2::new(0.0, 0.0)];
        let svg = SvgScene::new(&l).with_users(&users).render();
        // All emitted elements are self-closing except <svg> and <text>.
        assert_eq!(count(&svg, "<svg"), 1);
        assert_eq!(count(&svg, "</svg>"), 1);
        assert_eq!(count(&svg, "<text"), count(&svg, "</text>"));
        // No stray unescaped ampersands etc. (we never emit them).
        assert!(!svg.contains('&'));
    }

    #[test]
    fn rendering_is_deterministic() {
        let l = layout();
        let users = vec![Point2::new(10.0, 20.0), Point2::new(-300.0, 40.0)];
        let a = SvgScene::new(&l).with_users(&users).render();
        let b = SvgScene::new(&l).with_users(&users).render();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "match positions")]
    fn mismatched_assignment_panics() {
        let l = layout();
        let users = vec![Point2::new(0.0, 0.0)];
        let x = Assignment::with_dims(3, 4, 2);
        let _ = SvgScene::new(&l)
            .with_users(&users)
            .with_assignment(&x)
            .render();
    }
}
