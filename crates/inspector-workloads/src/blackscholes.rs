//! `blackscholes` (PARSEC): embarrassingly parallel option pricing.
//!
//! Each worker prices a contiguous slice of European options with the
//! Black–Scholes closed form. Option parameters live in one shared region
//! (read-only after initialisation), prices are written to a second region.
//! The access pattern is the friendliest in the suite: mostly reads, one
//! small write per option, synchronization only at spawn/join.

use inspector_runtime::{InspectorSession, SessionConfig};

use crate::input::{rng_for, InputSize};
use crate::{partition_ranges, Suite, Workload, WorkloadResult};

use rand::Rng;

/// Number of `f64` parameters per option: spot, strike, rate, volatility,
/// time-to-maturity.
const FIELDS: usize = 5;
/// Options per unit of input scale.
const BASE_OPTIONS: usize = 2_000;

/// The blackscholes workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct Blackscholes;

/// Cumulative distribution function of the standard normal distribution
/// (Abramowitz–Stegun polynomial approximation, as in the PARSEC kernel).
fn cndf(x: f64) -> f64 {
    let l = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * l);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let w = 1.0 - 1.0 / (2.0 * std::f64::consts::PI).sqrt() * (-l * l / 2.0).exp() * poly;
    if x < 0.0 {
        1.0 - w
    } else {
        w
    }
}

/// Prices one call option.
fn black_scholes_call(spot: f64, strike: f64, rate: f64, vol: f64, time: f64) -> f64 {
    let d1 = ((spot / strike).ln() + (rate + vol * vol / 2.0) * time) / (vol * time.sqrt());
    let d2 = d1 - vol * time.sqrt();
    spot * cndf(d1) - strike * (-rate * time).exp() * cndf(d2)
}

impl Workload for Blackscholes {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn suite(&self) -> Suite {
        Suite::Parsec
    }

    fn execute(&self, config: SessionConfig, threads: usize, size: InputSize) -> WorkloadResult {
        let options = BASE_OPTIONS * size.scale();
        let session = InspectorSession::new(config);
        let params = session.map_region("options", (options * FIELDS * 8) as u64);
        let prices = session.map_region("prices", (options * 8) as u64);

        // Initialise the option parameters directly in the shared image (the
        // paper reads them from `in_64K.txt` via the mmap shim).
        let mut rng = rng_for("blackscholes", size);
        for i in 0..options {
            let base = params.at((i * FIELDS * 8) as u64);
            let spot = rng.gen_range(10.0..200.0);
            let strike = rng.gen_range(10.0..200.0);
            let rate = rng.gen_range(0.01..0.1);
            let vol = rng.gen_range(0.05..0.9);
            let time = rng.gen_range(0.1..5.0);
            for (f, v) in [spot, strike, rate, vol, time].into_iter().enumerate() {
                session.image().write_f64_direct(base.add(f as u64 * 8), v);
            }
        }

        let params_base = params.base();
        let prices_base = prices.base();
        let digest = session.map_region("price-digest", 8).base();
        let ranges = partition_ranges(options, threads);

        let report = session.run(move |ctx| {
            let mut handles = Vec::new();
            for (start, end) in ranges {
                handles.push(ctx.spawn(move |ctx| {
                    ctx.set_pc(0x42_0000);
                    for i in start..end {
                        let base = params_base.add((i * FIELDS * 8) as u64);
                        let spot = ctx.read_f64(base);
                        let strike = ctx.read_f64(base.add(8));
                        let rate = ctx.read_f64(base.add(16));
                        let vol = ctx.read_f64(base.add(24));
                        let time = ctx.read_f64(base.add(32));
                        let price = black_scholes_call(spot, strike, rate, vol, time);
                        // In-the-money check mirrors the PARSEC kernel's
                        // branchy error check.
                        ctx.branch(price > 0.0);
                        ctx.write_f64(prices_base.add((i * 8) as u64), price);
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
            // Output stage: the main thread aggregates the prices (what the
            // original writes to `prices.txt`), creating the worker → main
            // data dependencies in the CPG.
            let mut total = 0.0;
            for i in 0..options {
                total += ctx.read_f64(prices_base.add((i * 8) as u64));
            }
            ctx.write_f64(digest, total);
        });

        // Checksum over the produced prices (mode independent).
        let mut checksum = 0u64;
        for i in 0..options {
            let bits = session
                .image()
                .read_f64_direct(prices_base.add((i * 8) as u64))
                .to_bits();
            checksum = checksum.wrapping_mul(31).wrapping_add(bits >> 12);
        }
        WorkloadResult { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspector_runtime::ExecutionMode;

    #[test]
    fn cndf_matches_known_values() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-6);
        assert!((cndf(1.96) - 0.975).abs() < 1e-3);
        assert!((cndf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn call_price_is_positive_and_bounded() {
        let p = black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0);
        assert!(p > 0.0 && p < 100.0);
    }

    #[test]
    fn native_and_inspector_agree() {
        let w = Blackscholes;
        let native = w.execute(SessionConfig::native(), 2, InputSize::Tiny);
        let tracked = w.execute(SessionConfig::inspector(), 2, InputSize::Tiny);
        assert_eq!(native.checksum, tracked.checksum);
        assert_eq!(native.report.mode, ExecutionMode::Native);
        assert_eq!(tracked.report.mode, ExecutionMode::Inspector);
        assert!(tracked.report.cpg.node_count() > 0);
        assert!(tracked.report.stats.pt.branches > 0);
    }

    #[test]
    fn worker_count_matches_request() {
        let w = Blackscholes;
        let r = w.execute(SessionConfig::inspector(), 3, InputSize::Tiny);
        assert_eq!(r.report.stats.threads, 4); // 3 workers + main
    }
}
