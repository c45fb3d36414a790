//! The campaign digest the correctness gate compares.
//!
//! It covers what a campaign found, not how it was executed: the
//! statistics without their transport counters, the findings, the raw
//! coverage maps and the hourly snapshots with their raw maps.

use o4a_core::CampaignResult;
use o4a_solvers::coverage::universe;
use o4a_solvers::{CoverageMap, SolverId};
use std::collections::BTreeMap;
use std::fmt::Write;

/// FNV-1a, 64 bit, hashing text as it is written, so that the digest
/// of a large result buffers nothing (and adds nothing to the peak
/// memory the benchmark reports).
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn export(out: &mut Fnv1a, maps: &BTreeMap<SolverId, CoverageMap>) {
    for (&id, map) in maps {
        let _ = write!(out, "{id:?}={:?};", map.export(&universe(id)));
    }
}

/// The digest of one campaign result.
pub fn digest(result: &CampaignResult) -> u64 {
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    let _ = write!(
        hash,
        "{:?}\n{:?}\n{:?}\n",
        result.stats.sans_transport(),
        result.findings,
        result.snapshots
    );
    export(&mut hash, &result.coverage);
    for hour in &result.hourly_coverage {
        let _ = hash.write_char('\n');
        export(&mut hash, hour);
    }
    hash.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_core::{run_campaign, CampaignConfig, Fuzzer, TestCase};
    use rand::rngs::StdRng;

    /// A fuzzer without generator construction, cycling fixed scripts,
    /// so the test campaign runs in milliseconds.
    struct Fixed(usize);

    impl Fuzzer for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }

        fn next_case(&mut self, _rng: &mut StdRng) -> TestCase {
            const SCRIPTS: [&str; 3] = [
                "(declare-const x Int)(assert (> x 2))(check-sat)",
                "(declare-const y Int)(assert (and (< y 0) (> y 0)))(check-sat)",
                "(declare-const s String)(assert (= (str.len s) 3))(check-sat)",
            ];
            self.0 += 1;
            TestCase {
                text: SCRIPTS[self.0 % SCRIPTS.len()].into(),
                gen_micros: 100,
            }
        }
    }

    fn campaign() -> CampaignResult {
        let config = CampaignConfig {
            virtual_hours: 3,
            max_cases: 12,
            ..CampaignConfig::default()
        };
        run_campaign(&mut Fixed(0), &config)
    }

    #[test]
    fn equal_campaigns_have_equal_digests() {
        assert_eq!(digest(&campaign()), digest(&campaign()));
    }

    #[test]
    fn transport_counters_do_not_count() {
        let plain = campaign();
        let mut churned = plain.clone();
        churned.stats.processes_spawned += 2;
        churned.stats.cache_hits += 5;
        churned.stats.leases_granted += 1;
        assert_eq!(digest(&plain), digest(&churned));
    }

    #[test]
    fn every_covered_part_changes_the_digest() {
        let plain = campaign();
        let base = digest(&plain);
        assert!(plain.stats.cases == 12 && !plain.hourly_coverage.is_empty());

        let mut r = plain.clone();
        r.stats.decisive += 1;
        assert_ne!(digest(&r), base, "stats");

        let mut r = plain.clone();
        r.snapshots[0].cases += 1;
        assert_ne!(digest(&r), base, "snapshots");

        let mut r = plain.clone();
        r.coverage.clear();
        assert_ne!(digest(&r), base, "coverage");

        let mut r = plain.clone();
        r.hourly_coverage.pop();
        assert_ne!(digest(&r), base, "hourly coverage");
    }
}
