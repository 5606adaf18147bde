//! The benchmark's own checks, on machines small enough for debug builds.

use tt_apps::{AppId, DataSet};
use tt_base::{FaultSpec, SystemConfig, WindowPolicy};
use tt_perfbench::metrics::{end_to_end, per_layer, Metric};
use tt_perfbench::run::{run_sim, Mode};
use tt_perfbench::workloads::{self, Job, Sim, System, DEFAULT_SEED, WORKLOADS};
use tt_perfbench::{parse_digests, run_batch, DIGESTS};
use tt_serve::{KvParams, KvVariant};

/// EM3D on both machines with two simulator threads, plus both KV
/// servers, one of them behind the lossy network.
fn small_sims() -> Vec<Sim> {
    let mut cfg = SystemConfig::test_config(8);
    cfg.sim_threads = 2;
    cfg.window_policy = WindowPolicy::Adaptive;
    let app = Job::App {
        app: AppId::Em3d,
        set: DataSet::Small,
        scale: 64,
        seed: 3,
    };
    let mut sims: Vec<Sim> = [System::Typhoon, System::Dirnnb]
        .into_iter()
        .map(|system| Sim {
            label: format!("em3d-{}", system.name()),
            system,
            cfg: cfg.clone(),
            job: app.clone(),
        })
        .collect();
    for (variant, fault) in [
        (KvVariant::Stache, None),
        (KvVariant::Update, Some(FaultSpec::uniform(7, 20))),
    ] {
        let params = KvParams::small(variant);
        let mut cfg = SystemConfig::test_config(params.nodes);
        cfg.fault = fault;
        sims.push(Sim {
            label: variant.name().to_string(),
            system: System::Typhoon,
            cfg,
            job: Job::Kv(params),
        });
    }
    sims
}

/// Metric names listed under `section` in the repository's
/// `BENCHMARK.json` (sections appear in the order workloads,
/// end_to_end, per_layer).
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = match body[1..].find("\"per_layer\"") {
        Some(end) if section != "per_layer" => &body[..end],
        _ => body,
    };
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn metric_names_are_well_formed_and_match_the_manifest() {
    let sims = small_sims();
    let traced = run_batch(&sims, true, &mut vec![None; sims.len()]);
    let plain = run_batch(&sims, false, &mut vec![None; sims.len()]);
    let e2e = end_to_end(&sims, &[plain]);
    let layers = per_layer(&sims, &[traced]);
    for m in e2e.iter().chain(&layers) {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
    }
    assert_eq!(names(&e2e), listed("end_to_end"));
    assert_eq!(names(&layers), listed("per_layer"));
}

#[test]
fn a_corrupted_digest_counts_as_a_failure() {
    let sims = small_sims();
    let mut reference = vec![None; sims.len()];
    let first = run_batch(&sims, false, &mut reference);
    assert!(first.failures.is_empty(), "{:?}", first.failures);
    assert_eq!(first.attempted, sims.len() as u64);
    reference[1] = reference[1].map(|d| d ^ 1);
    let second = run_batch(&sims, false, &mut reference);
    assert_eq!(second.failures.len(), 1, "{:?}", second.failures);
    assert!(second.failures[0].starts_with("em3d-dirnnb: digest"));
}

#[test]
fn the_traced_run_leaves_simulated_outputs_unchanged() {
    for sim in small_sims().iter().filter(|s| s.system == System::Typhoon) {
        let plain = run_sim(sim, Mode::Plain);
        let observed = run_sim(sim, Mode::Observed);
        assert_eq!(
            plain.outcome.digest(),
            observed.outcome.digest(),
            "{}",
            sim.label
        );
        let events: u64 = observed
            .events
            .expect("observed runs profile")
            .count
            .iter()
            .sum();
        assert!(events > 0, "{}: no events profiled", sim.label);
    }
}

#[test]
fn traced_batches_check_every_leg() {
    let sims = small_sims();
    let batch = run_batch(&sims, true, &mut vec![None; sims.len()]);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    // Plain legs, observed legs of the three Typhoon runs, and the
    // sequential legs of the two parallel simulations.
    assert_eq!(batch.attempted, 4 + 3 + 2);
    let sequential = batch.runs.iter().filter(|r| r.sequential.is_some()).count();
    assert_eq!(sequential, 2);
}

#[test]
fn kv_plumbing_matches_the_library_runners() {
    for sim in small_sims() {
        let Job::Kv(params) = &sim.job else { continue };
        let ours = run_sim(&sim, Mode::Plain).outcome;
        let theirs = match params.variant {
            KvVariant::Stache => tt_serve::run_kv_stache(&sim.cfg, params),
            KvVariant::Update => tt_apps::run_kv_update(&sim.cfg, params),
        };
        assert_eq!(ours.cycles, theirs.cycles, "{}", sim.label);
        assert_eq!(ours.report, theirs.report, "{}", sim.label);
        assert_eq!(ours.lat.as_ref(), Some(&theirs.lat), "{}", sim.label);
    }
}

#[test]
fn spans_cover_the_batch() {
    let sims = small_sims();
    let batch = run_batch(&sims, true, &mut vec![None; sims.len()]);
    let layers = per_layer(&sims, &[batch]);
    let coverage = layers
        .iter()
        .find(|m| m.name == "spans.coverage")
        .expect("coverage metric");
    assert!(
        coverage.value >= 0.95,
        "spans cover {} of the batch",
        coverage.value
    );
}

#[test]
fn the_seed_reaches_every_generator() {
    for name in WORKLOADS {
        for sim in workloads::sims(name, 9).expect("known workload") {
            assert_eq!(sim.cfg.seed, 9, "{name} {}", sim.label);
            let seed = match &sim.job {
                Job::App { seed, .. } => *seed,
                Job::Kv(p) => p.seed,
            };
            assert_eq!(seed, 9, "{name} {}", sim.label);
        }
    }
}

#[test]
fn every_simulation_has_a_pinned_digest() {
    let pinned = parse_digests(DIGESTS);
    let mut total = 0;
    for name in WORKLOADS {
        for sim in workloads::sims(name, DEFAULT_SEED).expect("known workload") {
            assert!(
                pinned.contains_key(&format!("{name} {}", sim.label)),
                "{name} {}",
                sim.label
            );
            total += 1;
        }
    }
    assert_eq!(
        pinned.len(),
        total,
        "digests.txt lists simulations no workload runs"
    );
}
