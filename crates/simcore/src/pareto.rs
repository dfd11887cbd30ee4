//! Pareto-frontier extraction.
//!
//! The design-space exploration (Figures 7 and 8) selects accelerator
//! configurations on the power–performance and area–performance Pareto
//! frontiers: points for which no other point has both lower cost (power or
//! area) and higher throughput.

/// A candidate design point: a cost to minimise, a benefit to maximise, and a
/// caller-supplied tag identifying the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint<T> {
    /// The quantity to minimise (e.g. watts or mm²).
    pub cost: f64,
    /// The quantity to maximise (e.g. frames per second).
    pub benefit: f64,
    /// Caller-supplied configuration tag.
    pub tag: T,
}

impl<T> ParetoPoint<T> {
    /// Creates a design point.
    ///
    /// # Panics
    /// Panics if either coordinate is not finite.
    pub fn new(cost: f64, benefit: f64, tag: T) -> Self {
        assert!(
            cost.is_finite() && benefit.is_finite(),
            "Pareto coordinates must be finite"
        );
        ParetoPoint { cost, benefit, tag }
    }

    /// Returns `true` if `self` dominates `other`: no worse on both axes and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint<T>) -> bool {
        (self.cost <= other.cost && self.benefit >= other.benefit)
            && (self.cost < other.cost || self.benefit > other.benefit)
    }
}

/// Extracts the Pareto frontier (minimise `cost`, maximise `benefit`) from a
/// set of points. The result is sorted by ascending cost and has strictly
/// increasing benefit.
///
/// ```
/// use dscs_simcore::pareto::{pareto_frontier, ParetoPoint};
/// let pts = vec![
///     ParetoPoint::new(1.0, 10.0, "a"),
///     ParetoPoint::new(2.0, 5.0, "dominated"),
///     ParetoPoint::new(3.0, 20.0, "b"),
/// ];
/// let frontier = pareto_frontier(pts);
/// let tags: Vec<_> = frontier.iter().map(|p| p.tag).collect();
/// assert_eq!(tags, vec!["a", "b"]);
/// ```
pub fn pareto_frontier<T>(mut points: Vec<ParetoPoint<T>>) -> Vec<ParetoPoint<T>> {
    if points.is_empty() {
        return points;
    }
    // Sort by ascending cost; ties broken by descending benefit so the best
    // point at a given cost comes first.
    points.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .expect("finite by construction")
            .then(
                b.benefit
                    .partial_cmp(&a.benefit)
                    .expect("finite by construction"),
            )
    });
    let mut frontier: Vec<ParetoPoint<T>> = Vec::new();
    let mut best_benefit = f64::NEG_INFINITY;
    for p in points {
        if p.benefit > best_benefit {
            best_benefit = p.benefit;
            frontier.push(p);
        }
    }
    frontier
}

/// Filters points to those satisfying a hard cost budget (e.g. the ≤25 W
/// storage-drive power envelope) before frontier extraction.
pub fn within_budget<T>(points: Vec<ParetoPoint<T>>, max_cost: f64) -> Vec<ParetoPoint<T>> {
    points.into_iter().filter(|p| p.cost <= max_cost).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_removes_dominated_points() {
        let pts = vec![
            ParetoPoint::new(1.0, 1.0, 0usize),
            ParetoPoint::new(2.0, 3.0, 1),
            ParetoPoint::new(2.5, 2.0, 2), // dominated by 1
            ParetoPoint::new(4.0, 5.0, 3),
            ParetoPoint::new(5.0, 4.5, 4), // dominated by 3
        ];
        let frontier = pareto_frontier(pts);
        let tags: Vec<usize> = frontier.iter().map(|p| p.tag).collect();
        assert_eq!(tags, vec![0, 1, 3]);
    }

    #[test]
    fn frontier_is_monotone() {
        let pts: Vec<ParetoPoint<usize>> = (0..100)
            .map(|i| {
                let cost = (i % 17) as f64 + 1.0;
                let benefit = ((i * 31) % 23) as f64;
                ParetoPoint::new(cost, benefit, i)
            })
            .collect();
        let frontier = pareto_frontier(pts);
        assert!(frontier
            .windows(2)
            .all(|w| w[0].cost < w[1].cost && w[0].benefit < w[1].benefit));
    }

    #[test]
    fn dominance_relation() {
        let a = ParetoPoint::new(1.0, 2.0, ());
        let b = ParetoPoint::new(2.0, 1.0, ());
        let c = ParetoPoint::new(1.0, 2.0, ());
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "equal points do not dominate each other");
    }

    #[test]
    fn ties_keep_best_benefit() {
        let pts = vec![
            ParetoPoint::new(1.0, 5.0, "good"),
            ParetoPoint::new(1.0, 3.0, "worse"),
        ];
        let frontier = pareto_frontier(pts);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].tag, "good");
    }

    #[test]
    fn budget_filter() {
        let pts = vec![
            ParetoPoint::new(10.0, 1.0, "in"),
            ParetoPoint::new(30.0, 100.0, "out"),
        ];
        let kept = within_budget(pts, 25.0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].tag, "in");
    }

    #[test]
    fn empty_input_yields_empty_frontier() {
        let frontier: Vec<ParetoPoint<()>> = pareto_frontier(Vec::new());
        assert!(frontier.is_empty());
    }
}
