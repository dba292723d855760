//! MINDIST between a (moving-point) query trajectory and an index node MBB.
//!
//! Following the nearest-neighbour groundwork of Frentzos et al. that the
//! MST paper builds on, `MINDIST(Q, N)` is the minimum *spatial* Euclidean
//! distance between the query's moving point and the node's spatial
//! rectangle, taken over the temporal overlap of the query period and the
//! node's temporal extent. It is exact for the linear-interpolation
//! movement model:
//!
//! For one query segment, the point's coordinates are linear in `t`, so the
//! clamped axis gaps `dx(t) = max(0, x_min - x(t), x(t) - x_max)` (and
//! `dy(t)` alike) are piecewise linear with breakpoints where the moving
//! point crosses the rectangle's face lines. On each piece,
//! `dx(t)^2 + dy(t)^2` is a convex quadratic whose minimum is at its vertex
//! or at the piece boundary — all closed-form.

use mst_trajectory::float;
use mst_trajectory::{Mbb, Rect, SamplePoint, Segment, TimeInterval, Trajectory};

/// Minimum spatial distance between a moving point (one trajectory segment)
/// and a static rectangle, over the segment's own time span.
pub fn segment_rect_mindist(seg: &Segment, rect: &Rect) -> f64 {
    let t0 = seg.start().t;
    let t1 = seg.end().t;
    // Work in relative time for conditioning.
    let dur = t1 - t0;
    let (vx, vy) = seg.velocity();
    let (x0, y0) = (seg.start().x, seg.start().y);

    // Breakpoints: crossings of the four face lines within (0, dur).
    let mut cuts = [0.0f64; 6];
    let mut n = 0;
    cuts[n] = 0.0;
    n += 1;
    for (p0, v, lo, hi) in [
        (x0, vx, rect.x_min, rect.x_max),
        (y0, vy, rect.y_min, rect.y_max),
    ] {
        if !float::exactly_zero(v) {
            for bound in [lo, hi] {
                let tc = (bound - p0) / v;
                if tc > 0.0 && tc < dur {
                    cuts[n] = tc;
                    n += 1;
                }
            }
        }
    }
    cuts[n] = dur;
    n += 1;
    let cuts = &mut cuts[..n];
    cuts.sort_by(f64::total_cmp);

    // Axis gap of a clamped coordinate.
    let gap = |p: f64, lo: f64, hi: f64| (lo - p).max(0.0).max(p - hi);

    let mut best = f64::INFINITY;
    for w in cuts.windows(2) {
        let (u, v) = (w[0], w[1]);
        if u == v {
            continue;
        }
        // Linear gap functions on this piece, written as g(s) = g_u + slope*s
        // with s in [0, v-u].
        let dx_u = gap(x0 + vx * u, rect.x_min, rect.x_max);
        let dx_v = gap(x0 + vx * v, rect.x_min, rect.x_max);
        let dy_u = gap(y0 + vy * u, rect.y_min, rect.y_max);
        let dy_v = gap(y0 + vy * v, rect.y_min, rect.y_max);
        let len = v - u;
        let (bx, by) = ((dx_v - dx_u) / len, (dy_v - dy_u) / len);
        // f(s) = (dx_u + bx s)^2 + (dy_u + by s)^2, convex: check endpoints
        // and the interior vertex.
        let mut piece = (dx_u * dx_u + dy_u * dy_u).min(dx_v * dx_v + dy_v * dy_v);
        let denom = bx * bx + by * by;
        if denom > 0.0 {
            let s_star = -(dx_u * bx + dy_u * by) / denom;
            if s_star > 0.0 && s_star < len {
                let gx = dx_u + bx * s_star;
                let gy = dy_u + by * s_star;
                piece = piece.min(gx * gx + gy * gy);
            }
        }
        best = best.min(piece);
        if float::exactly_zero(best) {
            break;
        }
    }
    best.sqrt()
}

/// Squared distance between `rect` and the spatial bounding box of the
/// samples `a` and `b`: a lower bound on the squared distance of every
/// point of the segment between them.
fn box_gap_sq(a: &SamplePoint, b: &SamplePoint, rect: &Rect) -> f64 {
    let dx = (rect.x_min - a.x.max(b.x))
        .max(0.0)
        .max(a.x.min(b.x) - rect.x_max);
    let dy = (rect.y_min - a.y.max(b.y))
        .max(0.0)
        .max(a.y.min(b.y) - rect.y_max);
    dx * dx + dy * dy
}

/// `MINDIST(Q, N)`: minimum spatial distance between the query trajectory
/// and the node MBB over the temporal overlap of `period`, the query's
/// validity, and the node's temporal extent.
///
/// Returns `None` when there is no temporal overlap (the node cannot
/// contribute to the query period at all).
pub fn trajectory_mbb_mindist(query: &Trajectory, mbb: &Mbb, period: &TimeInterval) -> Option<f64> {
    let window = period.intersect(&query.time())?.intersect(&mbb.time())?;
    let rect = mbb.rect();
    if window.is_instant() {
        // Point-in-time overlap: a single interpolated position.
        let p = query.position_at(window.start()).ok()?;
        return Some(rect.min_distance(&p));
    }
    let mut best = f64::INFINITY;
    // Jump straight to the first segment overlapping the window instead of
    // scanning from the query's start (internal nodes are checked once per
    // child entry, so this is hot).
    let first = query
        .segment_index_at(window.start())
        // invariant: `window` was intersected with `query.time()` above.
        .expect("window is inside the query's validity");
    let points = query.points();
    for i in first..query.num_segments() {
        let (a, b) = (&points[i], &points[i + 1]);
        if a.t >= window.end() {
            break;
        }
        // Every point of the segment lies in the box of its two samples, so
        // a box farther from `rect` than `best` cannot lower the minimum.
        // Squares compare like the distances: sqrt is monotone and
        // `sqrt(best * best) == best` in IEEE arithmetic.
        if box_gap_sq(a, b, &rect) > best * best {
            continue;
        }
        let Some(clipped) = query.segment(i).clip(&window) else {
            continue;
        };
        best = best.min(segment_rect_mindist(&clipped, &rect));
        if float::exactly_zero(best) {
            break;
        }
    }
    (best < f64::INFINITY).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::SamplePoint;

    fn seg(t0: f64, x0: f64, y0: f64, t1: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(SamplePoint::new(t0, x0, y0), SamplePoint::new(t1, x1, y1)).unwrap()
    }

    /// Brute-force oracle: sample the segment densely.
    fn oracle(s: &Segment, r: &Rect) -> f64 {
        let (t0, t1) = (s.start().t, s.end().t);
        let mut best = f64::INFINITY;
        for i in 0..=10_000 {
            let t = t0 + (t1 - t0) * f64::from(i) / 10_000.0;
            let p = s.position_at_unchecked(t);
            best = best.min(r.min_distance(&p));
        }
        best
    }

    #[test]
    fn stationary_point_outside_rect() {
        let s = seg(0.0, 5.0, 0.0, 1.0, 5.0, 0.0);
        let r = Rect::new(0.0, -1.0, 2.0, 1.0);
        assert!((segment_rect_mindist(&s, &r) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn passing_through_the_rect_gives_zero() {
        let s = seg(0.0, -5.0, 0.5, 1.0, 5.0, 0.5);
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert_eq!(segment_rect_mindist(&s, &r), 0.0);
    }

    #[test]
    fn closest_approach_between_faces() {
        // Moves parallel to the rect's top edge at height 3, rect top at 1.
        let s = seg(0.0, -10.0, 3.0, 1.0, 10.0, 3.0);
        let r = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert!((segment_rect_mindist(&s, &r) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_flyby_matches_oracle() {
        let cases = [
            (
                seg(0.0, -4.0, 6.0, 3.0, 7.0, -5.0),
                Rect::new(0.0, 0.0, 2.0, 2.0),
            ),
            (
                seg(1.0, 8.0, 8.0, 4.0, 9.0, 9.0),
                Rect::new(-1.0, -1.0, 1.0, 1.0),
            ),
            (
                seg(0.0, -3.0, -3.0, 2.0, -2.9, -3.1),
                Rect::new(0.0, 0.0, 1.0, 1.0),
            ),
            (
                seg(0.0, 0.5, -9.0, 5.0, 0.5, 9.0),
                Rect::new(0.0, 0.0, 1.0, 1.0),
            ),
        ];
        for (s, r) in cases {
            let fast = segment_rect_mindist(&s, &r);
            let slow = oracle(&s, &r);
            assert!(
                (fast - slow).abs() < 1e-3,
                "fast={fast} oracle={slow} for {s:?} {r:?}"
            );
            assert!(fast <= slow + 1e-12, "analytic must lower-bound sampling");
        }
    }

    #[test]
    fn trajectory_mindist_respects_temporal_overlap() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        // Node active only in [20, 30]: no overlap with the query's life.
        let far = Mbb::new(0.0, 0.0, 20.0, 1.0, 1.0, 30.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        assert_eq!(trajectory_mbb_mindist(&q, &far, &period), None);
        // Node active in [2, 4]; query x in [2, 4] then, and the node's rect
        // is x,y in [100, 101]: distance is approx 96+ in x.
        let node = Mbb::new(100.0, 0.0, 2.0, 101.0, 1.0, 4.0);
        let d = trajectory_mbb_mindist(&q, &node, &period).unwrap();
        assert!((d - 96.0).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn trajectory_mindist_zero_when_query_enters_box() {
        let q = Trajectory::from_txy(&[(0.0, -5.0, 0.5), (10.0, 5.0, 0.5)]).unwrap();
        let node = Mbb::new(-1.0, -1.0, 0.0, 1.0, 1.0, 10.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        assert_eq!(trajectory_mbb_mindist(&q, &node, &period), Some(0.0));
    }

    #[test]
    fn instant_overlap_uses_point_distance() {
        let q = Trajectory::from_txy(&[(0.0, 0.0, 0.0), (10.0, 10.0, 0.0)]).unwrap();
        // Node's time extent touches the query period at exactly t=10.
        let node = Mbb::new(13.0, 0.0, 10.0, 14.0, 1.0, 20.0);
        let period = TimeInterval::new(0.0, 10.0).unwrap();
        let d = trajectory_mbb_mindist(&q, &node, &period).unwrap();
        // Query is at (10, 0) at t=10; rect x starts at 13.
        assert!((d - 3.0).abs() < 1e-12);
    }

    /// The loop before the box test: clips and measures every segment in
    /// the window. Also counts the segments whose box is farther than the
    /// running minimum, the ones the box test skips.
    fn unpruned_mindist(
        query: &Trajectory,
        mbb: &Mbb,
        period: &TimeInterval,
        skippable: &mut usize,
    ) -> Option<f64> {
        let window = period.intersect(&query.time())?.intersect(&mbb.time())?;
        let rect = mbb.rect();
        if window.is_instant() {
            let p = query.position_at(window.start()).ok()?;
            return Some(rect.min_distance(&p));
        }
        let mut best = f64::INFINITY;
        let first = query.segment_index_at(window.start()).unwrap();
        for i in first..query.num_segments() {
            let seg = query.segment(i);
            if seg.time().start() >= window.end() {
                break;
            }
            if box_gap_sq(&seg.start(), &seg.end(), &rect) > best * best {
                *skippable += 1;
            }
            let Some(clipped) = seg.clip(&window) else {
                continue;
            };
            best = best.min(segment_rect_mindist(&clipped, &rect));
            if float::exactly_zero(best) {
                break;
            }
        }
        (best < f64::INFINITY).then_some(best)
    }

    /// Node MBBs of an R-tree over `fleet`, internal entries and leaf
    /// entries alike.
    fn node_mbbs(fleet: &[Trajectory]) -> Vec<Mbb> {
        use crate::{Node, Rtree3D, TrajectoryIndex};
        let mut tree = Rtree3D::new();
        for (id, t) in fleet.iter().enumerate() {
            tree.insert_trajectory(mst_trajectory::TrajectoryId(id as u64), t)
                .unwrap();
        }
        let mut mbbs = Vec::new();
        let mut stack: Vec<_> = tree.root().into_iter().collect();
        while let Some(page) = stack.pop() {
            match tree.read_node(page).unwrap() {
                Node::Internal { entries, .. } => {
                    for e in entries {
                        stack.push(e.child);
                        mbbs.push(e.mbb);
                    }
                }
                Node::Leaf { entries, .. } => {
                    mbbs.extend(entries.iter().step_by(17).map(|e| e.segment.mbb()));
                }
            }
        }
        mbbs
    }

    /// `query` clipped to a random window of `share` of its duration.
    fn sub_query(query: &Trajectory, share: f64, rng: &mut mst_prng::Rng) -> Trajectory {
        let (t0, t1) = (query.start_time(), query.end_time());
        let len = (t1 - t0) * share;
        let start = rng.f64_range(t0, t1 - len);
        query
            .clip(&TimeInterval::new(start, start + len).unwrap())
            .unwrap()
    }

    /// `query` with runs of repeated positions: every third segment stands
    /// still.
    fn with_stops(query: &Trajectory) -> Trajectory {
        let mut points = query.points().to_vec();
        for i in (1..points.len()).step_by(3) {
            let prev = points[i - 1];
            points[i] = SamplePoint::new(points[i].t, prev.x, prev.y);
        }
        Trajectory::new(points).unwrap()
    }

    #[test]
    fn box_test_returns_the_unpruned_value_bit_for_bit() {
        use mst_datagen::GstdConfig;
        let fleet = GstdConfig {
            num_objects: 12,
            samples_per_object: 400,
            ..GstdConfig::paper_dataset(12, 7)
        }
        .generate();
        let mut mbbs = node_mbbs(&fleet);
        // Zero-extent rectangles: single sample points held over time.
        for t in fleet.iter().take(4) {
            let p = t.points()[t.num_points() / 2];
            mbbs.push(Mbb::new(p.x, p.y, p.t - 30.0, p.x, p.y, p.t + 30.0));
            mbbs.push(Mbb::new(p.x, p.y, p.t, p.x, p.y, p.t));
        }
        let mut queries = Vec::new();
        let sources = GstdConfig {
            num_objects: 6,
            samples_per_object: 400,
            ..GstdConfig::paper_dataset(6, 8)
        }
        .generate();
        let mut rng = mst_prng::Rng::seed_from(0x4D49_4E44);
        for q in &sources {
            for share in [0.05, 0.4] {
                let sub = sub_query(q, share, &mut rng);
                queries.push(with_stops(&sub));
                queries.push(sub);
            }
        }
        for q in &queries {
            // A rectangle containing the query, and the same one moved far away.
            let (mut lo_x, mut lo_y, mut hi_x, mut hi_y) = (1e9, 1e9, -1e9, -1e9);
            for p in q.points() {
                (lo_x, lo_y) = (p.x.min(lo_x), p.y.min(lo_y));
                (hi_x, hi_y) = (p.x.max(hi_x), p.y.max(hi_y));
            }
            let (t0, t1) = (q.start_time(), q.end_time());
            mbbs.push(Mbb::new(
                lo_x - 0.01,
                lo_y - 0.01,
                t0,
                hi_x + 0.01,
                hi_y + 0.01,
                t1,
            ));
            mbbs.push(Mbb::new(
                lo_x + 5.0,
                lo_y + 3.0,
                t0,
                hi_x + 5.0,
                hi_y + 3.0,
                t1,
            ));
        }
        let mut checked = 0usize;
        let mut skippable = 0usize;
        let mut nones = 0usize;
        for q in &queries {
            let (t0, t1) = (q.start_time(), q.end_time());
            let mid = t0 + (t1 - t0) * 0.37;
            let periods = [
                TimeInterval::new(t0, t1).unwrap(),
                // Cuts mid-segment at both ends (sample times are integers).
                TimeInterval::new(t0 + 0.25, mid + 0.5).unwrap(),
                TimeInterval::new(mid, mid).unwrap(),
                TimeInterval::new(t0.floor() + 1.0, t0.floor() + 1.0).unwrap(),
            ];
            for period in &periods {
                for mbb in &mbbs {
                    let got = trajectory_mbb_mindist(q, mbb, period);
                    let want = unpruned_mindist(q, mbb, period, &mut skippable);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "query {:?}.. {mbb:?} {period:?}: {got:?} vs {want:?}",
                        q.points()[0]
                    );
                    checked += 1;
                    nones += usize::from(got.is_none());
                }
            }
        }
        // The corpus must exercise the skip and the no-overlap path.
        assert!(
            checked - nones > 5_000,
            "{checked} pairs, {nones} without overlap"
        );
        assert!(nones > 0);
        assert!(skippable > checked, "{skippable} skippable segments");
    }

    #[test]
    fn tighter_window_cannot_decrease_distance() {
        let q =
            Trajectory::from_txy(&[(0.0, -10.0, 2.0), (5.0, 0.0, 2.0), (10.0, 10.0, 2.0)]).unwrap();
        let node = Mbb::new(-1.0, -1.0, 0.0, 1.0, 1.0, 10.0);
        let full = TimeInterval::new(0.0, 10.0).unwrap();
        let tight = TimeInterval::new(0.0, 2.0).unwrap();
        let d_full = trajectory_mbb_mindist(&q, &node, &full).unwrap();
        let d_tight = trajectory_mbb_mindist(&q, &node, &tight).unwrap();
        assert!(d_tight >= d_full);
    }
}
