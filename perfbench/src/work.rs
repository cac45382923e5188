//! Output checks and host-independent measures over finished results:
//! simulated-work counts, slot accounting, and fidelity to the paper's
//! Tables 5 and 6.

use std::fmt::Write as _;

use specfetch_core::SimResult;
use specfetch_experiments::experiments::{table5, table6};
use specfetch_experiments::paper::{TABLE5, TABLE6};
use specfetch_experiments::RunOptions;

/// Simulated work summed over a set of distinct grid points. Every
/// field is an exact integer, so two builds of the same model compare
/// at zero tolerance.
#[derive(Default)]
pub struct Work {
    pub results: u64,
    /// Results failing either check: slot accounting off by a cycle's
    /// width or more, or a window not retired exactly.
    pub bad: u64,
    /// Results for which `SimResult::slots_balance()` is false. It
    /// compares `cycles × width` with `correct + lost` exactly, but the
    /// engine also leaves the unused slots of the final fetch cycle
    /// (fewer than `width`) out of both, so this counts runs whose last
    /// cycle was not full; reported, not failed.
    pub unbalanced: u64,
    pub cycles: u64,
    pub correct_instrs: u64,
    pub correct_fetches: u64,
    pub wrong_fetches: u64,
    pub accesses: u64,
    pub misses: u64,
    pub fills: u64,
    pub bus_lines: u64,
    pub prefetch_issued: u64,
    pub prefetch_hits: u64,
    pub cond_resolved: u64,
    pub cond_mispredicted: u64,
    pub btb_lookups: u64,
    pub btb_hits: u64,
}

impl Work {
    /// Adds one result simulated over a `window`-instruction path.
    pub fn add(&mut self, r: &SimResult, window: u64) {
        let (unbalanced, short) = (!r.slots_balance(), r.correct_instrs != window);
        // The engine's own identity: correct + lost + unused-at-end =
        // cycles × width, with fewer than `width` unused end slots.
        let slots = r.cycles * u64::from(r.issue_width);
        let used = r.correct_instrs + r.lost.total();
        let off = used > slots || slots - used >= u64::from(r.issue_width);
        self.results += 1;
        self.bad += u64::from(off || short);
        self.unbalanced += u64::from(unbalanced);
        self.cycles += r.cycles;
        self.correct_instrs += r.correct_instrs;
        self.correct_fetches += r.cache_correct.accesses;
        self.wrong_fetches += r.cache_wrong.accesses;
        self.accesses += r.cache_correct.accesses + r.cache_wrong.accesses;
        self.misses += r.cache_correct.misses + r.cache_wrong.misses;
        // The engine keeps no per-line install count; every demand miss
        // transaction installs one line.
        self.fills += r.traffic_demand_correct + r.traffic_demand_wrong;
        self.bus_lines += r.total_traffic();
        self.prefetch_issued += r.prefetches_issued;
        self.prefetch_hits += r.prefetch_hits;
        self.cond_resolved += r.bpred.cond_resolved;
        self.cond_mispredicted += r.bpred.cond_mispredicted;
        self.btb_lookups += r.bpred.btb_lookups;
        self.btb_hits += r.bpred.btb_hits;
    }

    pub fn json(&self) -> String {
        let fields = [
            ("results", self.results),
            ("bad", self.bad),
            ("unbalanced", self.unbalanced),
            ("cycles", self.cycles),
            ("correct_instrs", self.correct_instrs),
            ("correct_fetches", self.correct_fetches),
            ("wrong_fetches", self.wrong_fetches),
            ("accesses", self.accesses),
            ("misses", self.misses),
            ("fills", self.fills),
            ("bus_lines", self.bus_lines),
            ("prefetch_issued", self.prefetch_issued),
            ("prefetch_hits", self.prefetch_hits),
            ("cond_resolved", self.cond_resolved),
            ("cond_mispredicted", self.cond_mispredicted),
            ("btb_lookups", self.btb_lookups),
            ("btb_hits", self.btb_hits),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Fidelity of one window's Table 5 and Table 6 against the paper.
pub struct Fidelity {
    /// Mean absolute ISPI error over every cell of both tables.
    pub ispi_mae: f64,
    /// Mean Kendall τ-b of the five-policy order, per table row.
    pub rank_tau: f64,
    /// Cells that rendered `FAILED(...)` instead of a value.
    pub failed: usize,
}

/// Kendall τ-b of two equally long samples; `None` when either is
/// constant. Pairs tied in both samples count for neither side.
fn kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    let (mut concordant, mut discordant, mut tied_x, mut tied_y) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            let dx = (x[i] - x[j]).partial_cmp(&0.0).map_or(0, |o| o as i64);
            let dy = (y[i] - y[j]).partial_cmp(&0.0).map_or(0, |o| o as i64);
            match (dx, dy) {
                (0, 0) => {}
                (0, _) => tied_x += 1,
                (_, 0) => tied_y += 1,
                _ if dx == dy => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let n = concordant + discordant;
    let denom = (((n + tied_x) * (n + tied_y)) as f64).sqrt();
    (denom > 0.0).then(|| (concordant - discordant) as f64 / denom)
}

/// Measures Tables 5 and 6 at `opts`' window. Run after the grid
/// points are in the result memo, this only renders.
pub fn fidelity(opts: &RunOptions) -> Fidelity {
    let mut rows: Vec<([Option<f64>; 5], [f64; 5])> = Vec::new();
    for (i, row) in table5::data(opts).iter().enumerate() {
        let paper = TABLE5[i / table5::DEPTHS.len()][i % table5::DEPTHS.len()];
        rows.push((std::array::from_fn(|p| row.ispi[p].as_ref().ok().copied()), paper));
    }
    for (i, row) in table6::data(opts).iter().enumerate() {
        rows.push((std::array::from_fn(|p| row.ispi[p].as_ref().ok().copied()), TABLE6[i]));
    }
    let (mut abs_err, mut cells, mut failed, mut tau_sum, mut tau_rows) = (0.0, 0, 0, 0.0, 0);
    for (measured, paper) in &rows {
        if measured.iter().any(Option::is_none) {
            failed += measured.iter().filter(|m| m.is_none()).count();
            continue;
        }
        let measured: Vec<f64> = measured.iter().map(|m| m.unwrap_or_default()).collect();
        for (m, p) in measured.iter().zip(paper) {
            abs_err += (m - p).abs();
            cells += 1;
        }
        // Rank the values the report prints (two decimals), as the
        // paper's are.
        let printed: Vec<f64> = measured.iter().map(|m| (m * 100.0).round() / 100.0).collect();
        if let Some(tau) = kendall_tau_b(&printed, paper) {
            tau_sum += tau;
            tau_rows += 1;
        }
    }
    Fidelity {
        ispi_mae: abs_err / cells.max(1) as f64,
        rank_tau: tau_sum / f64::from(tau_rows.max(1)),
        failed,
    }
}

impl Fidelity {
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"ispi_mae\":{:e},\"rank_tau\":{:e},\"failed\":{}}}",
            self.ispi_mae, self.rank_tau, self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::kendall_tau_b;

    #[test]
    fn tau_b_orders_and_ties() {
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), Some(1.0));
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(kendall_tau_b(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        let t = kendall_tau_b(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap();
        assert!((t - 2.0 / 6f64.sqrt()).abs() < 1e-12);
    }
}
