use crate::{Point, SamplePoint, TimeInterval};

/// An axis-aligned 2D rectangle (the spatial footprint of an index node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum x.
    pub x_min: f64,
    /// Minimum y.
    pub y_min: f64,
    /// Maximum x.
    pub x_max: f64,
    /// Maximum y.
    pub y_max: f64,
}

impl Rect {
    /// Creates a rectangle from its corner coordinates.
    pub fn new(x_min: f64, y_min: f64, x_max: f64, y_max: f64) -> Self {
        debug_assert!(x_min <= x_max && y_min <= y_max);
        Rect {
            x_min,
            y_min,
            x_max,
            y_max,
        }
    }

    /// The degenerate rectangle covering a single point.
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// True when the point lies inside the closed rectangle.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.x_min <= p.x && p.x <= self.x_max && self.y_min <= p.y && p.y <= self.y_max
    }

    /// Classic MINDIST between a static point and the rectangle: 0 when the
    /// point is inside, otherwise the distance to the nearest face.
    pub fn min_distance(&self, p: &Point) -> f64 {
        let dx = (self.x_min - p.x).max(0.0).max(p.x - self.x_max);
        let dy = (self.y_min - p.y).max(0.0).max(p.y - self.y_max);
        (dx * dx + dy * dy).sqrt()
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x_min: self.x_min.min(other.x_min),
            y_min: self.y_min.min(other.y_min),
            x_max: self.x_max.max(other.x_max),
            y_max: self.y_max.max(other.y_max),
        }
    }

    /// Rectangle width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.x_max - self.x_min
    }

    /// Rectangle height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.y_max - self.y_min
    }
}

/// A 3D (x, y, t) minimum bounding box — the unit of space the R-tree-like
/// structures reason about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbb {
    /// Minimum x.
    pub x_min: f64,
    /// Minimum y.
    pub y_min: f64,
    /// Minimum t.
    pub t_min: f64,
    /// Maximum x.
    pub x_max: f64,
    /// Maximum y.
    pub y_max: f64,
    /// Maximum t.
    pub t_max: f64,
}

impl Mbb {
    /// Creates a box from min/max corners.
    pub fn new(x_min: f64, y_min: f64, t_min: f64, x_max: f64, y_max: f64, t_max: f64) -> Self {
        debug_assert!(x_min <= x_max && y_min <= y_max && t_min <= t_max);
        Mbb {
            x_min,
            y_min,
            t_min,
            x_max,
            y_max,
            t_max,
        }
    }

    /// The "empty" box that is the identity of [`Mbb::union`]: every
    /// coordinate range is reversed infinite, so the union with any real box
    /// yields that box.
    pub fn empty() -> Self {
        Mbb {
            x_min: f64::INFINITY,
            y_min: f64::INFINITY,
            t_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            y_max: f64::NEG_INFINITY,
            t_max: f64::NEG_INFINITY,
        }
    }

    /// True for the [`Mbb::empty`] sentinel.
    pub fn is_empty(&self) -> bool {
        self.x_min > self.x_max
    }

    /// The box covering a single spatiotemporal sample.
    pub fn from_sample(p: &SamplePoint) -> Self {
        Mbb::new(p.x, p.y, p.t, p.x, p.y, p.t)
    }

    /// Smallest box covering both inputs.
    pub fn union(&self, other: &Mbb) -> Mbb {
        Mbb {
            x_min: self.x_min.min(other.x_min),
            y_min: self.y_min.min(other.y_min),
            t_min: self.t_min.min(other.t_min),
            x_max: self.x_max.max(other.x_max),
            y_max: self.y_max.max(other.y_max),
            t_max: self.t_max.max(other.t_max),
        }
    }

    /// True when `other` lies inside this closed box. The comparison is
    /// exact: a box built as the min/max union of its parts encloses each
    /// part bit for bit, with no tolerance needed.
    pub fn encloses(&self, other: &Mbb) -> bool {
        self.x_min <= other.x_min
            && self.y_min <= other.y_min
            && self.t_min <= other.t_min
            && other.x_max <= self.x_max
            && other.y_max <= self.y_max
            && other.t_max <= self.t_max
    }

    /// Volume of the box (x-extent × y-extent × t-extent).
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.x_max - self.x_min) * (self.y_max - self.y_min) * (self.t_max - self.t_min)
        }
    }

    /// Half the surface "margin" of the box: sum of its extents. Used as a
    /// split tie-breaker.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.x_max - self.x_min) + (self.y_max - self.y_min) + (self.t_max - self.t_min)
        }
    }

    /// Volume increase needed to absorb `other`.
    pub fn enlargement(&self, other: &Mbb) -> f64 {
        if self.is_empty() {
            return other.volume();
        }
        self.union(other).volume() - self.volume()
    }

    /// Overlap volume of two boxes (0 when disjoint).
    pub fn overlap_volume(&self, other: &Mbb) -> f64 {
        let dx = (self.x_max.min(other.x_max) - self.x_min.max(other.x_min)).max(0.0);
        let dy = (self.y_max.min(other.y_max) - self.y_min.max(other.y_min)).max(0.0);
        let dt = (self.t_max.min(other.t_max) - self.t_min.max(other.t_min)).max(0.0);
        dx * dy * dt
    }

    /// True when the boxes intersect (closed boxes, faces touching counts).
    pub fn intersects(&self, other: &Mbb) -> bool {
        self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
            && self.t_min <= other.t_max
            && other.t_min <= self.t_max
    }

    /// The spatial footprint of the box.
    pub fn rect(&self) -> Rect {
        Rect::new(self.x_min, self.y_min, self.x_max, self.y_max)
    }

    /// The temporal extent of the box.
    pub fn time(&self) -> TimeInterval {
        TimeInterval::new(self.t_min, self.t_max)
            // invariant: Mbb construction rejects t_min > t_max and NaN
            .expect("a non-empty Mbb always has a valid time interval")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_min_distance() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        // Inside.
        assert_eq!(r.min_distance(&Point::new(1.0, 1.0)), 0.0);
        // Beyond a face.
        assert_eq!(r.min_distance(&Point::new(3.0, 1.0)), 1.0);
        // Beyond a corner.
        assert!((r.min_distance(&Point::new(5.0, 6.0)) - 5.0).abs() < 1e-12);
        // On the boundary.
        assert_eq!(r.min_distance(&Point::new(2.0, 2.0)), 0.0);
    }

    #[test]
    fn union_encloses_both_parts_exactly() {
        let a = Mbb::new(0.1, 0.2, 0.3, 0.7, 0.9, 1.1);
        let b = Mbb::new(-3.3, 0.25, 0.35, 0.5, 4.4, 0.4);
        let u = a.union(&b);
        assert!(u.encloses(&a) && u.encloses(&b) && u.encloses(&u));
        assert!(!a.encloses(&u));
        // Touching faces still count; one ulp outside does not.
        let edge = Mbb::new(0.7, 0.2, 0.3, 0.7, 0.9, 1.1);
        assert!(a.encloses(&edge));
        let past = Mbb::new(
            0.7,
            0.2,
            0.3,
            f64::from_bits(0.7f64.to_bits() + 1),
            0.9,
            1.1,
        );
        assert!(!a.encloses(&past));
    }

    #[test]
    fn rect_union_covers_both() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn empty_mbb_is_union_identity() {
        let e = Mbb::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let b = Mbb::new(0.0, 1.0, 2.0, 3.0, 4.0, 5.0);
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
    }

    #[test]
    fn volume_and_enlargement() {
        let a = Mbb::new(0.0, 0.0, 0.0, 2.0, 2.0, 2.0);
        assert_eq!(a.volume(), 8.0);
        let b = Mbb::new(0.0, 0.0, 0.0, 4.0, 2.0, 2.0);
        assert_eq!(a.enlargement(&b), 8.0);
        // Enlargement is zero for contained boxes.
        let inner = Mbb::new(0.5, 0.5, 0.5, 1.0, 1.0, 1.0);
        assert_eq!(a.enlargement(&inner), 0.0);
    }

    #[test]
    fn overlap_volume_cases() {
        let a = Mbb::new(0.0, 0.0, 0.0, 2.0, 2.0, 2.0);
        let b = Mbb::new(1.0, 1.0, 1.0, 3.0, 3.0, 3.0);
        assert_eq!(a.overlap_volume(&b), 1.0);
        let c = Mbb::new(5.0, 5.0, 5.0, 6.0, 6.0, 6.0);
        assert_eq!(a.overlap_volume(&c), 0.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = Mbb::new(0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
        let b = Mbb::new(1.0, 0.0, 0.0, 2.0, 1.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_volume(&b), 0.0);
    }

    #[test]
    fn rect_and_time_projections() {
        let b = Mbb::new(0.0, 1.0, 2.0, 3.0, 4.0, 5.0);
        assert_eq!(b.rect(), Rect::new(0.0, 1.0, 3.0, 4.0));
        assert_eq!(b.time().start(), 2.0);
        assert_eq!(b.time().end(), 5.0);
    }
}
