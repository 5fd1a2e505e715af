//! The multi-cell network layout.

use crate::hex::{cell_circumradius, hex_centers, hex_contains};
use crate::point::Point2;
use mec_types::{Error, Meters, ServerId};
use serde::{Deserialize, Serialize};

/// A multi-cell network: base-station positions plus the cell geometry.
///
/// The paper's evaluation uses hexagonal cells with a 1 km inter-site
/// distance ([`NetworkLayout::hexagonal`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkLayout {
    stations: Vec<Point2>,
    cell_radius: Meters,
}

impl NetworkLayout {
    /// Builds the paper's hexagonal layout: `count` cells in spiral order
    /// at inter-site distance `isd`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `count` is zero or `isd` is
    /// non-positive.
    pub fn hexagonal(count: usize, isd: Meters) -> Result<Self, Error> {
        if count == 0 {
            return Err(Error::invalid("S", "network needs at least one cell"));
        }
        if !isd.is_finite() || isd.as_meters() <= 0.0 {
            return Err(Error::invalid(
                "isd",
                "inter-site distance must be positive",
            ));
        }
        Ok(Self {
            stations: hex_centers(count, isd),
            cell_radius: cell_circumradius(isd),
        })
    }

    /// Number of base stations / cells.
    #[inline]
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// All station positions, in [`ServerId`] order.
    #[inline]
    pub fn stations(&self) -> &[Point2] {
        &self.stations
    }

    /// Position of one station.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] if the id is out of range.
    pub fn station(&self, id: ServerId) -> Result<Point2, Error> {
        self.stations
            .get(id.index())
            .copied()
            .ok_or(Error::UnknownEntity {
                kind: "server",
                index: id.index(),
                count: self.stations.len(),
            })
    }

    /// The hexagonal cell circumradius.
    #[inline]
    pub fn cell_radius(&self) -> Meters {
        self.cell_radius
    }

    /// Distance from `point` to the given station.
    pub fn distance_to(&self, id: ServerId, point: Point2) -> Result<Meters, Error> {
        Ok(self.station(id)?.distance(point))
    }

    /// The station nearest to `point` (ties broken by lowest id).
    pub fn nearest_station(&self, point: Point2) -> ServerId {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, s) in self.stations.iter().enumerate() {
            let d = s.distance_sq(point);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        ServerId::new(best)
    }

    /// Whether `point` lies inside any cell's hexagon (i.e. inside the
    /// network coverage area).
    pub fn contains(&self, point: Point2) -> bool {
        self.stations
            .iter()
            .any(|c| hex_contains(*c, self.cell_radius, point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nine_cells() -> NetworkLayout {
        NetworkLayout::hexagonal(9, Meters::new(1000.0)).unwrap()
    }

    #[test]
    fn hexagonal_rejects_degenerate_inputs() {
        assert!(NetworkLayout::hexagonal(0, Meters::new(1000.0)).is_err());
        assert!(NetworkLayout::hexagonal(9, Meters::new(0.0)).is_err());
        assert!(NetworkLayout::hexagonal(9, Meters::new(-5.0)).is_err());
    }

    #[test]
    fn station_lookup_and_bounds() {
        let l = nine_cells();
        assert_eq!(l.num_stations(), 9);
        assert_eq!(l.station(ServerId::new(0)).unwrap(), Point2::ORIGIN);
        assert!(matches!(
            l.station(ServerId::new(9)),
            Err(Error::UnknownEntity {
                index: 9,
                count: 9,
                ..
            })
        ));
    }

    #[test]
    fn nearest_station_is_own_center() {
        let l = nine_cells();
        for (i, s) in l.stations().iter().enumerate() {
            assert_eq!(l.nearest_station(*s), ServerId::new(i));
        }
    }

    #[test]
    fn coverage_contains_centers_but_not_far_field() {
        let l = nine_cells();
        for s in l.stations() {
            assert!(l.contains(*s));
        }
        assert!(!l.contains(Point2::new(1.0e6, 1.0e6)));
    }

    #[test]
    fn distance_to_matches_point_distance() {
        let l = nine_cells();
        let p = Point2::new(123.0, -456.0);
        let d = l.distance_to(ServerId::new(3), p).unwrap();
        assert_eq!(d, l.station(ServerId::new(3)).unwrap().distance(p));
        assert!(l.distance_to(ServerId::new(99), p).is_err());
    }

    #[test]
    fn single_cell_layout_works() {
        let l = NetworkLayout::hexagonal(1, Meters::new(500.0)).unwrap();
        assert_eq!(l.num_stations(), 1);
        assert!(l.contains(Point2::ORIGIN));
        assert_eq!(l.nearest_station(Point2::new(10.0, 10.0)), ServerId::new(0));
    }
}
