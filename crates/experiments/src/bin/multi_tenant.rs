//! Multi-tenant machine: concurrent attacks in a fleet of benign services.
//!
//! `--async-ingest` makes the detector tier slow and jittery: verdicts
//! are published into the engine's bounded per-shard ingest rings 3–5
//! epochs after their measurements, and the epoch driver drains whatever
//! has arrived with `drain_tick` — demonstrating that detector latency
//! costs detection lag (compare the "mean epochs to kill" row against a
//! synchronous run), never a stalled response tick.
//!
//! `--fused` swaps the detector tier for the heterogeneous fused
//! ensemble: a weakened fast member (TPR 0.70) publishing every epoch
//! plus a slow-strong member publishing every 4th epoch with dropout,
//! combined by the engine's weighted-evidence fusion under the
//! graduated escalation ladder. Mutually exclusive with `--async-ingest`
//! and `--flood`.
//!
//! `--flood` (implies `--async-ingest`) runs a noise-floor DoS against
//! the ingest rings while the attacks run underneath: a second publisher
//! handle spams benign-looking decoys at exactly the shards that own the
//! attack pids. Add `--defend` to harden the rings with priority lanes +
//! per-publisher fair queueing and watch the kills come back.
//!
//! Any other argument is an error: the usage is printed and the process
//! exits with code 2.
use valkyrie_core::IngestDefense;
use valkyrie_experiments::multi_tenant::{AsyncIngest, FloodTier, FusionTier, MultiTenantConfig};

const USAGE: &str =
    "usage: multi_tenant [--async-ingest] [--flood [--defend]]\n       multi_tenant --fused";

/// Builds the run's configuration from the command-line arguments
/// (program name excluded).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<MultiTenantConfig, String> {
    let (mut async_ingest, mut fused, mut flood, mut defend) = (false, false, false, false);
    for arg in args {
        match arg.as_str() {
            "--async-ingest" => async_ingest = true,
            "--fused" => fused = true,
            "--flood" => flood = true,
            "--defend" => defend = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if defend && !flood {
        return Err("`--defend` needs `--flood`".into());
    }
    if fused && (async_ingest || flood) {
        return Err("`--fused` cannot be combined with `--async-ingest` or `--flood`".into());
    }
    let base = MultiTenantConfig::default();
    Ok(MultiTenantConfig {
        ingest: (async_ingest || flood).then(AsyncIngest::default),
        fusion: fused.then(FusionTier::default),
        flood: flood.then(|| FloodTier {
            defense: if defend {
                IngestDefense::full()
            } else {
                IngestDefense::default()
            },
            ..FloodTier::default()
        }),
        tpr: if fused { 0.70 } else { base.tpr },
        ..base
    })
}

fn main() {
    let cfg = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("multi_tenant: {err}\n{USAGE}");
        std::process::exit(2);
    });
    println!("{}", valkyrie_experiments::multi_tenant::run(&cfg).report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<MultiTenantConfig, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn removed_and_misspelt_flags_are_rejected() {
        for bad in ["--pool", "--fuse", "--quick", "fused"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        assert!(parse(&["--fused", "--pool"]).is_err());
    }

    #[test]
    fn tiers_combine_as_documented() {
        assert_eq!(parse(&[]), Ok(MultiTenantConfig::default()));
        let flood = parse(&["--flood", "--defend"]).unwrap();
        assert!(flood.ingest.is_some());
        assert_eq!(flood.flood.unwrap().defense, IngestDefense::full());
        let fused = parse(&["--fused"]).unwrap();
        assert!(fused.fusion.is_some() && fused.ingest.is_none());
        assert_eq!(fused.tpr, 0.70);
        assert!(parse(&["--defend"]).is_err());
        assert!(parse(&["--fused", "--async-ingest"]).is_err());
        assert!(parse(&["--fused", "--flood"]).is_err());
    }
}
