//! Incremental event-rate maintenance with O(log E) tree selection.
//!
//! [`RateContext::fill_rates`] re-evaluates every candidate event from
//! scratch after each tunnel event — O(E) work per step, which pins the
//! Monte-Carlo loop's cost to the circuit size. This module exploits two
//! structural facts of orthodox theory to avoid that:
//!
//! 1. **ΔF is linear in the island occupation.** Firing an a→b event on
//!    junction `f` shifts every junction `j`'s ΔF potential-gap term by the
//!    build-time constant [`TunnelSystem::junction_coupling`]`(f, j)`
//!    (negated for b→a), so the table maintains every ΔF by one axpy over
//!    `f`'s *strong list* ([`TunnelSystem::junction_strong_couplings`]) —
//!    the junctions whose coupling is non-negligible — and recomputes the
//!    Boltzmann kernel only for those events. The per-event cost is
//!    O(strong + log E), not O(E) — but "strong" is not always short:
//!    couplings decay with electrostatic distance along a chain (a 256-
//!    island chain lists about a tenth of its junctions), while in a 2-D
//!    array with stray capacitance they decay slowly, and a 32×32 array's
//!    lists cover about 70 % of all junctions.
//! 2. **Unlisted couplings are negligible.**
//!    An event outside every fired strong list keeps its ΔF and rate
//!    verbatim; the drift such an event can accumulate between two exact
//!    refreshes is bounded by [`TunnelSystem::coupling_margin`], a few
//!    parts in 10⁷ of the strongest coupling.
//!
//! The rates live in the leaves of a fixed-shape [`PartialSumTree`],
//! giving an O(log E) total and an O(log E) inverse-CDF selection.
//!
//! A strong list is stored as maximal runs of consecutive junction
//! indices ([`runs`](crate::system::StrongCouplings::runs)): a chain's list is one run, a 32×32
//! array's about 46. Every fired event takes one pass over the runs. Per
//! run it shifts the contiguous ΔF pairs in place, evaluates their rates
//! straight into the matching contiguous leaves with one branch-free,
//! auto-vectorized kernel behind the frozen-cutoff select, and writes the
//! leaves without comparing them first. Then
//! [`PartialSumTree::rebuild_span`] recomputes the ancestors of the leaf
//! span from the first run to the last. A refill runs the same kernel over
//! every junction.
//!
//! The pass is bitwise an entry-by-entry one (shift, `rate_from_parts`
//! cascade behind the cutoff, fix up the changed leaves): the branch-free
//! kernel is bitwise the cascade, rewriting a leaf with its own value
//! changes nothing, and the tree recomputes its nodes rather than
//! adjusting them, so a span rebuild equals a partial fix-up bit for bit.
//!
//! Synchronisation contract: the table tracks the [`LiveState`] generation
//! counter. Drive/background syncs, explicit refreshes and the periodic
//! exact refresh all bump it, and the table answers by refilling from
//! scratch — every ΔF recomputed from the freshly solved potentials with
//! the very expression `fill_rates` uses. The deterministic refresh
//! cadence that bounds the potential drift therefore bounds the rate-table
//! drift the same way, and at every refill the table is bit-identical to a
//! `fill_rates` pass (pinned by the proptests in
//! `tests/integration_hotpath.rs`). Between refills the maintained rates
//! are a pure function of the refill state and the fired-event sequence,
//! so runs are bit-reproducible; they differ from a per-step `fill_rates`
//! in final ulps (axpy association) — which, together with the tree
//! total's pairwise association, makes the kernel revision trace-visible
//! (see `docs/DETERMINISM.md` §10).

use crate::live::{LiveState, RateContext};
use crate::system::{Direction, TunnelEvent, TunnelSystem};
use se_numeric::partial_sum::PartialSumTree;

/// Below this many candidate events, the KMC engine's `KmcKernel::Auto`
/// stays on the reference full-recompute path: a handful-of-junctions
/// refill is a few dozen flops, cheaper than any tree bookkeeping, and
/// small-circuit traces keep their committed bits. From this count up, the
/// O(strong + log E) incremental kernel wins and Auto routes through it.
pub const AUTO_TREE_THRESHOLD: usize = 64;

/// Incrementally maintained event rates for a scalar [`LiveState`] walk.
///
/// Construct once, then per Monte-Carlo step: [`EventRateTable::sync`]
/// (after any system mutation), read [`EventRateTable::total`], select with
/// [`EventRateTable::select`], apply the event to the live state, and call
/// [`EventRateTable::apply_event`] — O(strong list + log E) instead of
/// `fill_rates`' O(E).
///
/// # Example
///
/// ```
/// use se_orthodox::system::{ChargeState, TunnelSystemBuilder};
/// use se_orthodox::{EventRateTable, LiveState, RateContext};
///
/// # fn main() -> Result<(), se_orthodox::OrthodoxError> {
/// let mut b = TunnelSystemBuilder::new();
/// let island = b.island("dot", 0.0);
/// let drain = b.external("drain", 0.25);
/// let source = b.external("source", 0.0);
/// b.junction("JD", drain, island, 0.5e-18, 100e3);
/// b.junction("JS", island, source, 0.5e-18, 100e3);
/// let system = b.build()?;
/// let ctx = RateContext::new(&system, 1.0)?;
/// let mut live = LiveState::new(&system, ChargeState::neutral(1));
/// let mut table = EventRateTable::new(&system, &ctx, &live);
///
/// let event = system.event(table.select(0.5 * table.total()));
/// live.apply(&system, event);
/// table.apply_event(&system, &ctx, &live, event);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventRateTable {
    /// Partial-sum tree whose leaves are the event rates in canonical
    /// [`TunnelSystem::event`] order.
    tree: PartialSumTree,
    /// Maintained directed ΔF values (joule), interleaved `[a→b, b→a]` per
    /// junction — axpy-updated between refills, recomputed exactly from the
    /// live potentials at every refill.
    df: Vec<f64>,
    /// The live-state generation the table was last filled against.
    seen_generation: u64,
}

impl EventRateTable {
    /// Builds and fills the table for the live state's current potentials.
    #[must_use]
    pub fn new(_system: &TunnelSystem, ctx: &RateContext, live: &LiveState) -> Self {
        let junctions = ctx.endpoints().len();
        let mut table = EventRateTable {
            tree: PartialSumTree::new(2 * junctions),
            df: vec![0.0; 2 * junctions],
            seen_generation: 0,
        };
        table.refill(ctx, live);
        table
    }

    /// Refills the table if the live state was refreshed or synced since
    /// the last fill (detected via the generation counter). Returns whether
    /// a refill happened. Call after [`LiveState::sync`], before reading
    /// totals.
    pub fn sync(&mut self, _system: &TunnelSystem, ctx: &RateContext, live: &LiveState) -> bool {
        if live.generation() == self.seen_generation {
            return false;
        }
        self.refill(ctx, live);
        true
    }

    /// Full refill: recompute every ΔF and rate from the live potentials
    /// and rebuild the tree — the table twin of an exact potential refresh.
    fn refill(&mut self, ctx: &RateContext, live: &LiveState) {
        ctx.fill_delta_f(live, &mut self.df);
        let (df_pairs, _) = self.df.as_chunks::<2>();
        let (leaf_pairs, _) = self.tree.leaves_mut().as_chunks_mut::<2>();
        ctx.rates_into(df_pairs, ctx.prefactors(), leaf_pairs);
        self.tree.rebuild();
        self.seen_generation = live.generation();
    }

    /// Folds a just-applied event into the table — call immediately after
    /// [`LiveState::apply`] with the same event. If the live state
    /// refreshed (or synced) under the table — the periodic exact refresh
    /// included — the table refills from the fresh potentials, the same
    /// deterministic cadence as the potentials themselves. Otherwise it is
    /// one axpy over the fired junction's strong list: ΔF shifts by the
    /// build-time coupling constant and the Boltzmann kernel is recomputed
    /// only for the shifted events.
    ///
    /// Run by run, the shifted ΔF pairs are evaluated in place by an
    /// auto-vectorized kernel straight into their leaves; then the tree
    /// recomputes the ancestors of the span the runs cover.
    pub fn apply_event(
        &mut self,
        system: &TunnelSystem,
        ctx: &RateContext,
        live: &LiveState,
        event: TunnelEvent,
    ) {
        if live.generation() != self.seen_generation {
            self.refill(ctx, live);
            return;
        }
        let strong = system.junction_strong_couplings(event.junction);
        let runs = strong.runs();
        // A junction between two electrodes moves no island charge.
        let (Some(&(first, _)), Some(&(last, last_len))) = (runs.first(), runs.last()) else {
            return;
        };
        // +1 for a→b, −1 for b→a — the convention [`LiveState::apply`]
        // uses for its potential axpy.
        let sign = match event.direction {
            Direction::AToB => 1.0,
            Direction::BToA => -1.0,
        };
        let mut values = system.junction_strong_coupling_values(event.junction);
        let (df_pairs, _) = self.df.as_chunks_mut::<2>();
        let (leaf_pairs, _) = self.tree.leaves_mut().as_chunks_mut::<2>();
        for &(start, len) in runs {
            let run = start as usize..(start + len) as usize;
            let (run_values, rest) = values.split_at(len as usize);
            values = rest;
            let df = &mut df_pairs[run.clone()];
            for (pair, &g) in df.iter_mut().zip(run_values) {
                let shift = sign * g;
                *pair = [pair[0] + shift, pair[1] - shift];
            }
            ctx.rates_into(df, &ctx.prefactors()[run.clone()], &mut leaf_pairs[run]);
        }
        let end = (last + last_len) as usize;
        self.tree.rebuild_span(2 * first as usize, 2 * end - 1);
    }

    /// The total rate — the partial-sum tree's root, a fixed pairwise
    /// reduction of the leaf rates (associates differently from
    /// [`RateContext::fill_rates`]' sequential fold; see the module docs).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tree.total()
    }

    /// The maintained rate of canonical event `index`.
    #[must_use]
    pub fn rate(&self, index: usize) -> f64 {
        self.tree.leaf(index)
    }

    /// The maintained ΔF of canonical event `index`, in joule.
    #[must_use]
    pub fn delta_f(&self, index: usize) -> f64 {
        self.df[index]
    }

    /// Number of candidate events (2 × junctions).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tree.len()
    }

    /// Inverse-CDF selection: the canonical event index whose cumulative
    /// bucket contains `target ∈ [0, total)`, by O(log E) tree descent,
    /// with the final-bucket clamp to the last positive-rate event when
    /// round-off leaves `target` above every accumulated sum.
    ///
    /// # Panics
    ///
    /// Panics if every rate is zero (callers gate on `total() > 0`).
    #[must_use]
    pub fn select(&self, target: f64) -> usize {
        let idx = self.tree.descend(target);
        if self.tree.leaf(idx) > 0.0 {
            return idx;
        }
        // Final-bucket clamp: floating-point round-off steered the descent
        // onto a zero-rate leaf (or past the last event); fall back to the
        // last positive-rate event, mirroring the linear scan's fallback.
        (0..self.tree.len())
            .rev()
            .find(|&e| self.tree.leaf(e) > 0.0)
            .expect("the total rate was positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ChargeState, TunnelSystemBuilder};

    /// Two-island chain with a gate (the `live` module's test circuit).
    fn chain(vd: f64, vg: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let i0 = b.island("i0", 0.0);
        let i1 = b.island("i1", 0.1);
        let drain = b.external("drain", vd);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("J0", drain, i0, 0.7e-18, 80e3);
        b.junction("J1", i0, i1, 0.4e-18, 120e3);
        b.junction("J2", i1, source, 0.6e-18, 90e3);
        b.capacitor("Cg0", gate, i0, 0.3e-18);
        b.capacitor("Cg1", gate, i1, 0.5e-18);
        b.build().unwrap()
    }

    fn assert_table_matches_fill(
        system: &TunnelSystem,
        ctx: &RateContext,
        live: &LiveState,
        table: &EventRateTable,
        context: &str,
    ) {
        let mut rates = Vec::new();
        ctx.fill_rates(system, live, &mut rates);
        for (e, &expected) in rates.iter().enumerate() {
            assert_eq!(
                table.rate(e).to_bits(),
                expected.to_bits(),
                "{context}: event {e} rate diverged from fill_rates"
            );
        }
    }

    #[test]
    fn refills_match_fill_rates_bit_for_bit_over_event_walks() {
        // At every refill boundary — construction, forced refresh, drive
        // sync — the maintained rates are fill_rates' bits exactly, for any
        // temperature including T = 0 and whatever walk came before.
        for temperature in [0.0, 0.1, 1.0, 4.2] {
            let system = chain(2e-3, 0.05);
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut live = LiveState::new(&system, ChargeState::neutral(2));
            let mut table = EventRateTable::new(&system, &ctx, &live);
            assert_table_matches_fill(
                &system,
                &ctx,
                &live,
                &table,
                &format!("T = {temperature}, fresh"),
            );
            let mut x = 17_u64;
            for round in 0..5 {
                for _ in 0..200 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let event = system.event((x >> 33) as usize % system.event_count());
                    live.apply(&system, event);
                    table.apply_event(&system, &ctx, &live, event);
                }
                live.refresh(&system);
                assert!(table.sync(&system, &ctx, &live), "refresh forces a refill");
                assert_table_matches_fill(
                    &system,
                    &ctx,
                    &live,
                    &table,
                    &format!("T = {temperature}, round {round}"),
                );
            }
        }
    }

    #[test]
    fn axpy_maintenance_tracks_the_exact_rates_to_first_order() {
        // Between refills the maintained ΔFs differ from a fresh
        // recomputation only in final ulps (axpy association vs. the
        // potential-difference expression), so every non-negligible rate
        // must track fill_rates to far better than physical accuracy. This
        // pins the coupling-table sign convention: a sign error would be
        // off by whole Boltzmann factors after one event.
        for temperature in [0.1, 1.0] {
            let system = chain(2e-3, 0.05);
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut live = LiveState::new(&system, ChargeState::neutral(2));
            let mut table = EventRateTable::new(&system, &ctx, &live);
            let mut rates = Vec::new();
            let mut x = 29_u64;
            for step in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let event = system.event((x >> 33) as usize % system.event_count());
                live.apply(&system, event);
                table.apply_event(&system, &ctx, &live, event);
                let total = ctx.fill_rates(&system, &live, &mut rates);
                for (e, &fresh) in rates.iter().enumerate() {
                    if fresh > 1e-12 * total {
                        let maintained = table.rate(e);
                        assert!(
                            (maintained - fresh).abs() <= 1e-9 * fresh,
                            "T = {temperature}, step {step}, event {e}: \
                             maintained {maintained:e} vs fresh {fresh:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn maintained_delta_f_crosses_the_frozen_cutoff_both_ways() {
        // Drive a walk long enough that some event's maintained ΔF crosses
        // the frozen cutoff in each direction — the rate must snap exactly
        // to 0.0 past the cutoff and come back non-zero below it, with no
        // refill in between.
        let system = chain(5e-3, 0.0);
        let ctx = RateContext::new(&system, 0.02).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        let cutoff = ctx.frozen_cutoff();
        let mut froze = false;
        let mut thawed = false;
        let mut was_frozen: Vec<bool> = (0..table.event_count())
            .map(|e| table.delta_f(e) > cutoff)
            .collect();
        let mut x = 5_u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let event = system.event((x >> 33) as usize % system.event_count());
            live.apply(&system, event);
            table.apply_event(&system, &ctx, &live, event);
            for (e, seen) in was_frozen.iter_mut().enumerate() {
                let frozen = table.delta_f(e) > cutoff;
                if frozen != *seen {
                    if frozen {
                        froze = true;
                        assert_eq!(table.rate(e), 0.0, "frozen event {e} must rate 0");
                    } else {
                        thawed = true;
                    }
                    *seen = frozen;
                }
            }
        }
        assert!(froze, "no event froze across the cutoff");
        assert!(thawed, "no event thawed across the cutoff");
    }

    #[test]
    fn sync_refills_after_drive_changes() {
        let mut system = chain(0.0, 0.0);
        let ctx = RateContext::new(&system, 1.0).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        assert!(!table.sync(&system, &ctx, &live), "clean state: no refill");
        system.set_external_voltage(0, 5e-3).unwrap();
        live.sync(&system);
        assert!(table.sync(&system, &ctx, &live), "drive change: refill");
        assert_table_matches_fill(&system, &ctx, &live, &table, "after drive sync");
    }

    #[test]
    fn selection_matches_rates_and_clamps_the_final_bucket() {
        let system = chain(2e-3, 0.05);
        let ctx = RateContext::new(&system, 1.0).unwrap();
        let live = LiveState::new(&system, ChargeState::neutral(2));
        let table = EventRateTable::new(&system, &ctx, &live);
        let total = table.total();
        assert!(total > 0.0);
        // Any in-range target lands on a positive-rate event.
        for i in 0..100 {
            let target = total * i as f64 / 100.0;
            let chosen = table.select(target);
            assert!(
                table.rate(chosen) > 0.0,
                "target {target} chose a zero rate"
            );
        }
        // At (or past) the total, the clamp returns the last positive leaf.
        let last_positive = (0..table.event_count())
            .rev()
            .find(|&e| table.rate(e) > 0.0)
            .unwrap();
        assert_eq!(table.select(total), last_positive);
        assert_eq!(table.select(total * 1.5), last_positive);
    }

    #[test]
    fn strong_lists_cover_every_non_negligible_coupling() {
        // The gated chain's lists are one run each. A junction between the
        // two electrodes, listed between a dot's two junctions, has an
        // empty list and leaves a gap in theirs.
        let mut b = TunnelSystemBuilder::new();
        let dot = b.island("dot", 0.0);
        let drain = b.external("drain", 1e-3);
        let source = b.external("source", 0.0);
        b.junction("JD", drain, dot, 0.7e-18, 80e3);
        b.junction("Jleak", drain, source, 0.1e-18, 1e9);
        b.junction("JS", dot, source, 0.6e-18, 90e3);
        let leaky = b.build().unwrap();
        let mut gapped = false;
        for system in [chain(1e-3, 0.02), leaky] {
            let junctions = system.junctions().len();
            let mut g_max = 0.0_f64;
            for f in 0..junctions {
                for j in 0..junctions {
                    g_max = g_max.max(system.junction_coupling(f, j).abs());
                }
            }
            assert!(g_max > 0.0);
            for f in 0..junctions {
                let strong = system.junction_strong_couplings(f);
                let runs = strong.runs();
                let values = system.junction_strong_coupling_values(f);
                assert!(runs.iter().all(|&(_, len)| len > 0), "runs are non-empty");
                assert!(
                    runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0),
                    "runs ascend and no two touch: {runs:?}"
                );
                let entries: u32 = runs.iter().map(|&(_, len)| len).sum();
                assert_eq!(entries as usize, values.len(), "one value per entry");
                assert_eq!(strong.len(), values.len(), "view length");
                gapped |= runs.len() > 1;
                let expanded: Vec<usize> = strong.iter().collect();
                let dense: Vec<usize> = (0..junctions)
                    .filter(|&j| system.junction_coupling(f, j).abs() > 1e-7 * g_max)
                    .collect();
                assert_eq!(expanded, dense, "junction {f}: runs vs threshold set");
                for (j, &g) in expanded.into_iter().zip(values) {
                    assert_eq!(
                        g.to_bits(),
                        system.junction_coupling(f, j).to_bits(),
                        "stored coupling {f}->{j} differs from the dense lookup"
                    );
                }
                // A junction couples strongly to itself unless it moves no
                // island charge at all.
                let moves_charge = system.junction_coupling(f, f) != 0.0;
                assert_eq!(strong.iter().any(|j| j == f), moves_charge);
                assert_eq!(strong.is_empty(), !moves_charge);
            }
            assert!(system.coupling_margin() > 0.0);
        }
        assert!(gapped, "some list must span more than one run");
    }
}
