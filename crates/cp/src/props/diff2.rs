//! The `Diff2` global constraint (Beldiceanu & Contejean, 1994):
//! pairwise non-overlap of rectangles in two dimensions.
//!
//! A rectangle is `[origin₁, origin₂, length₁, length₂]` where origins and
//! lengths are finite-domain variables (lengths are variables because the
//! paper's constraint (11) uses data-node *lifetimes* — themselves derived
//! variables — as rectangle lengths). Two rectangles do not overlap iff
//! there is a dimension in which one ends no later than the other begins.
//! Zero-length rectangles occupy nothing and never conflict.
//!
//! Filtering: for every pair, if overlap in one dimension is *forced*
//! (neither ordering can separate them there), the pair becomes a
//! disjunctive constraint in the other dimension, pruned with standard
//! edge-finding-style bounds rules; if separation is impossible in both
//! dimensions, fail.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

/// A rectangle of the `Diff2` constraint.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    pub origin: [VarId; 2],
    pub len: [VarId; 2],
}

pub struct Diff2 {
    pub rects: Vec<Rect>,
}

impl Diff2 {
    pub fn new(rects: Vec<Rect>) -> Self {
        Diff2 { rects }
    }

    /// Can rectangle `a` end no later than `b` begins in dimension `d`
    /// under *some* assignment? (`min end_a ≤ max start_b`)
    fn can_precede(s: &Store, a: &Rect, b: &Rect, d: usize) -> bool {
        s.min(a.origin[d]) + s.min(a.len[d]) <= s.max(b.origin[d])
    }

    /// Enforce `a` before `b` in dimension `d`: `o_a + l_a ≤ o_b`.
    fn enforce_before(s: &mut Store, a: &Rect, b: &Rect, d: usize) -> PropResult {
        s.remove_below(b.origin[d], s.min(a.origin[d]) + s.min(a.len[d]))?;
        s.remove_above(a.origin[d], s.max(b.origin[d]) - s.min(a.len[d]))?;
        s.remove_above(a.len[d], s.max(b.origin[d]) - s.min(a.origin[d]))?;
        Ok(())
    }

    /// A rectangle with possibly-zero length in some dimension never
    /// conflicts once its length can be zero — only treat it as solid when
    /// its minimal lengths are positive in both dimensions… except we must
    /// still separate if lengths are forced positive.
    fn may_be_empty(s: &Store, r: &Rect) -> bool {
        s.min(r.len[0]) <= 0 || s.min(r.len[1]) <= 0
    }
}

impl Diff2 {
    /// Pigeonhole check along dimension 0: if at some point `t` more
    /// rectangles *must* overlap `t` (their dim-0 occupancy is compulsory
    /// there) than there are rows available in dimension 1, fail. This
    /// catches k-clique infeasibilities (e.g. "8 data alive at cycle 0 in
    /// 7 slots") that pairwise filtering cannot see.
    fn pigeonhole(&self, s: &Store) -> PropResult {
        let mut rows_min = i64::MAX;
        let mut rows_max = i64::MIN;
        let mut events: Vec<(i32, i32)> = Vec::new();
        for r in &self.rects {
            if Self::may_be_empty(s, r) {
                continue;
            }
            rows_min = rows_min.min(s.min(r.origin[1]) as i64);
            rows_max = rows_max.max(s.max(r.origin[1]) as i64 + s.min(r.len[1]) as i64 - 1);
            // Compulsory dim-0 part: [lst, ect) if non-empty; each rect
            // consumes its (minimal) height in rows while it lives.
            let lst = s.max(r.origin[0]);
            let ect = s.min(r.origin[0]) + s.min(r.len[0]);
            if lst < ect {
                let h = s.min(r.len[1]);
                events.push((lst, h));
                events.push((ect, -h));
            }
        }
        if events.is_empty() || rows_min > rows_max {
            return Ok(());
        }
        let rows = rows_max - rows_min + 1;
        events.sort_unstable();
        let mut live: i64 = 0;
        for &(_, d) in &events {
            live += d as i64;
            if live > rows {
                return Err(Fail);
            }
        }
        Ok(())
    }
}

impl Propagator for Diff2 {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // All four vars of a rect feed only bound computations (min/max
        // of origins and lengths), so interior holes never matter. All
        // four carry the rect index as tag for incremental pair work.
        for (i, r) in self.rects.iter().enumerate() {
            for &v in r.origin.iter().chain(r.len.iter()) {
                subs.watch_tagged(v, DomainEvent::BOUNDS, i as u32);
            }
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // The pigeonhole sweep stays global so failure detection is
        // identical to a full rescan's.
        self.pigeonhole(s)?;
        let n = self.rects.len();
        // Pairs where neither rect moved a bound since our previous run
        // were examined clean then and read only unchanged values: skip.
        let mut dirty: Vec<bool> = Vec::new();
        if !wake.rescan() {
            dirty = vec![false; n];
            for &tag in wake.tags() {
                dirty[tag as usize] = true;
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if !dirty.is_empty() && !dirty[i] && !dirty[j] {
                    continue;
                }
                let (a, b) = (self.rects[i], self.rects[j]);
                if Self::may_be_empty(s, &a) || Self::may_be_empty(s, &b) {
                    continue;
                }
                // Per dimension: which orderings remain possible?
                // sep[d][0] = a-before-b possible, sep[d][1] = b-before-a.
                let mut sep = [[false; 2]; 2];
                for (d, sd) in sep.iter_mut().enumerate() {
                    sd[0] = Self::can_precede(s, &a, &b, d);
                    sd[1] = Self::can_precede(s, &b, &a, d);
                }
                let dim_possible = [sep[0][0] || sep[0][1], sep[1][0] || sep[1][1]];
                match (dim_possible[0], dim_possible[1]) {
                    (false, false) => return Err(Fail),
                    (false, true) => {
                        // Must separate in dim 1.
                        match (sep[1][0], sep[1][1]) {
                            (true, false) => Self::enforce_before(s, &a, &b, 1)?,
                            (false, true) => Self::enforce_before(s, &b, &a, 1)?,
                            _ => {}
                        }
                    }
                    (true, false) => {
                        // Must separate in dim 0.
                        match (sep[0][0], sep[0][1]) {
                            (true, false) => Self::enforce_before(s, &a, &b, 0)?,
                            (false, true) => Self::enforce_before(s, &b, &a, 0)?,
                            _ => {}
                        }
                    }
                    (true, true) => {
                        // If everything is fixed, verify no overlap remains.
                        // (can_precede used min-end vs max-start, so with all
                        // vars fixed, dim_possible already reflects truth —
                        // nothing to do.)
                    }
                }
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "diff2"
    }

    fn priority(&self) -> Priority {
        Priority::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// Helper: fixed-length rectangle with variable origins.
    fn rect(s: &mut Store, x: (i32, i32), y: (i32, i32), w: i32, h: i32) -> Rect {
        Rect {
            origin: [s.new_var(x.0, x.1), s.new_var(y.0, y.1)],
            len: [s.new_const(w), s.new_const(h)],
        }
    }

    #[test]
    fn fixed_overlapping_rects_fail() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 2, 2);
        let b = rect(&mut s, (1, 1), (1, 1), 2, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b])), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn touching_rects_are_fine() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 2, 2);
        let b = rect(&mut s, (2, 2), (0, 0), 2, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b])), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn forced_x_overlap_separates_in_y() {
        let mut s = Store::new();
        // Both occupy x ∈ [0,4) — forced overlap in x.
        let a = rect(&mut s, (0, 0), (0, 5), 4, 1);
        let b = rect(&mut s, (0, 0), (0, 0), 4, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b])), &s);
        e.fixpoint(&mut s).unwrap();
        // b fixed at y=0 height 2 → a.y ≥ 2.
        assert_eq!(s.min(a.origin[1]), 2);
    }

    #[test]
    fn slot_style_allocation_three_lifetimes_two_slots() {
        // Memory-allocation shape: x = time (fixed), y = slot ∈ {0,1},
        // three rectangles with overlapping lifetimes cannot fit 2 slots.
        let mut s = Store::new();
        let mut rects = Vec::new();
        for _ in 0..3 {
            let x = s.new_const(0);
            let y = s.new_var(0, 1);
            rects.push(Rect {
                origin: [x, y],
                len: [s.new_const(10), s.new_const(1)],
            });
        }
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects)), &s);
        // The pigeonhole sweep sees three compulsory lifetimes over two
        // rows immediately.
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn disjoint_lifetimes_share_a_slot() {
        let mut s = Store::new();
        let t0 = s.new_const(0);
        let t10 = s.new_const(10);
        let y0 = s.new_var(0, 0);
        let y1 = s.new_var(0, 0);
        let l = s.new_const(10);
        let one = s.new_const(1);
        let rects = vec![
            Rect {
                origin: [t0, y0],
                len: [l, one],
            },
            Rect {
                origin: [t10, y1],
                len: [l, one],
            },
        ];
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn zero_length_rect_never_conflicts() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 5, 5);
        // Zero-width rectangle at the same place.
        let x = s.new_const(2);
        let y = s.new_const(2);
        let zero = s.new_const(0);
        let one = s.new_const(1);
        let b = Rect {
            origin: [x, y],
            len: [zero, one],
        };
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b])), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn variable_length_prunes_when_forced() {
        let mut s = Store::new();
        // a: x ∈ {0}, len ∈ [1, 10]; b fixed at x=4, same y row.
        let ax = s.new_const(0);
        let ay = s.new_const(0);
        let alen = s.new_var(1, 10);
        let one = s.new_const(1);
        let a = Rect {
            origin: [ax, ay],
            len: [alen, one],
        };
        let b = rect(&mut s, (4, 4), (0, 0), 3, 1);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b])), &s);
        e.fixpoint(&mut s).unwrap();
        // Forced y-overlap; a can only precede b in x → len ≤ 4.
        assert_eq!(s.max(alen), 4);
    }
}
