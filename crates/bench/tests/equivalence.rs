//! Direct execution is purely a simulator-speed optimization: with the
//! inline hit-run executor forced off, every machine must produce the
//! exact same cycle tables. These tests pin that equivalence over the
//! full figure 3 small-scale sweep (Typhoon/Stache and DirNNB at every
//! app × cache point) and the figure 4 sweep (which adds Typhoon/Update
//! and flush synchronization).
//!
//! The same property holds for the conservative-parallel simulator:
//! `sim_threads > 1` shards the event queue across OS threads but must
//! reproduce the sequential cycle tables bit for bit, so the sweeps are
//! also pinned parallel-vs-sequential, plus a targeted test of the one
//! ordering hazard sharding introduces — two nodes in different shards
//! whose messages reach the same home at the same cycle.

use tt_apps::AppId;
use tt_bench::{bench_config, figure3_sweep, figure4_sweep, smoke};

#[test]
fn figure3_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    assert!(on.direct_execution, "direct execution defaults on");
    let fast = figure3_sweep(&AppId::ALL, smoke::SCALE, &on, 4, 1);
    let slow = figure3_sweep(&AppId::ALL, smoke::SCALE, &off, 4, 1);
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(
            f.typhoon, s.typhoon,
            "Typhoon/Stache cycles diverged at {} {}/{}",
            f.app, f.set, f.cache_bytes
        );
        assert_eq!(
            f.dirnnb, s.dirnnb,
            "DirNNB cycles diverged at {} {}/{}",
            f.app, f.set, f.cache_bytes
        );
    }
}

#[test]
fn figure4_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    let fast = figure4_sweep(smoke::SCALE, &on, 4, 1);
    let slow = figure4_sweep(smoke::SCALE, &off, 4, 1);
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(
            f.cycles, s.cycles,
            "cycles diverged at {}% remote (DirNNB, Typhoon/Stache, Typhoon/Update)",
            f.pct_remote * 100.0
        );
    }
}

#[test]
fn figure3_sweep_is_identical_under_parallel_simulation() {
    let seq = bench_config(smoke::NODES);
    let mut par = bench_config(smoke::NODES);
    par.sim_threads = 2;
    let sequential = figure3_sweep(&AppId::ALL, smoke::SCALE, &seq, 4, 1);
    let parallel = figure3_sweep(&AppId::ALL, smoke::SCALE, &par, 4, 1);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            s.typhoon, p.typhoon,
            "Typhoon/Stache cycles diverged under sim_threads=2 at {} {}/{}",
            s.app, s.set, s.cache_bytes
        );
        assert_eq!(
            s.dirnnb, p.dirnnb,
            "DirNNB cycles diverged under sim_threads=2 at {} {}/{}",
            s.app, s.set, s.cache_bytes
        );
    }
}

#[test]
fn figure4_sweep_is_identical_under_parallel_simulation() {
    let seq = bench_config(smoke::NODES);
    let mut par = bench_config(smoke::NODES);
    par.sim_threads = 3;
    let sequential = figure4_sweep(smoke::SCALE, &seq, 4, 1);
    let parallel = figure4_sweep(smoke::SCALE, &par, 4, 1);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            s.cycles, p.cycles,
            "cycles diverged under sim_threads=3 at {}% remote \
             (DirNNB, Typhoon/Stache, Typhoon/Update)",
            s.pct_remote * 100.0
        );
    }
}

/// Adaptive windowing (idle-window batching + per-shard lookahead
/// widening) is purely a rendezvous-count optimization: the full
/// figure 3 grid must be byte-identical to the sequential tables at
/// every thread count the smoke sweeps use.
#[test]
fn figure3_sweep_is_identical_under_adaptive_windows() {
    let seq = bench_config(smoke::NODES);
    let sequential = figure3_sweep(&AppId::ALL, smoke::SCALE, &seq, 4, 1);
    for threads in [2, 3] {
        let mut par = bench_config(smoke::NODES);
        par.sim_threads = threads;
        par.window_policy = tt_base::WindowPolicy::Adaptive;
        let parallel = figure3_sweep(&AppId::ALL, smoke::SCALE, &par, 4, 1);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(
                s.typhoon, p.typhoon,
                "Typhoon/Stache cycles diverged under adaptive sim_threads={threads} \
                 at {} {}/{}",
                s.app, s.set, s.cache_bytes
            );
            assert_eq!(
                s.dirnnb, p.dirnnb,
                "DirNNB cycles diverged under adaptive sim_threads={threads} at {} {}/{}",
                s.app, s.set, s.cache_bytes
            );
        }
    }
}

#[test]
fn figure4_sweep_is_identical_under_adaptive_windows() {
    let seq = bench_config(smoke::NODES);
    let mut par = bench_config(smoke::NODES);
    par.sim_threads = 2;
    par.window_policy = tt_base::WindowPolicy::Adaptive;
    let sequential = figure4_sweep(smoke::SCALE, &seq, 4, 1);
    let parallel = figure4_sweep(smoke::SCALE, &par, 4, 1);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(
            s.cycles, p.cycles,
            "cycles diverged under adaptive sim_threads=2 at {}% remote \
             (DirNNB, Typhoon/Stache, Typhoon/Update)",
            s.pct_remote * 100.0
        );
    }
}

/// The ordering hazard the deterministic barrier merge exists for:
/// nodes in *different* shards whose requests reach the same home
/// directory at the *same cycle*. The sequential heap breaks that tie by
/// (cycle, origin, counter); the parallel merge must reproduce it
/// exactly or the deferred/granted order (and every downstream cycle)
/// flips. Nodes 1..4 run identical op streams hammering one block homed
/// on node 0, so their `HomeRequest`s are issued — and land — at
/// identical cycles; with 4 threads each node is its own shard and every
/// request crosses a shard boundary.
#[test]
fn same_cycle_cross_shard_requests_merge_in_sequential_order() {
    use tt_base::addr::{PAGE_BYTES, VAddr};
    use tt_base::workload::{
        Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE,
    };
    use tt_base::{NodeId, SystemConfig};
    use tt_dirnnb::DirnnbMachine;

    let run = |sim_threads: usize, sim_shards: usize, policy: tt_base::WindowPolicy| {
        let mut layout = Layout::new();
        layout.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: PAGE_BYTES,
            placement: Placement::PerPage(vec![NodeId::new(0)]),
            mode: 0,
        });
        let nodes = 4;
        let mut w = ScriptWorkload::new(nodes).with_layout(layout);
        w.set(0, vec![]);
        // Identical streams on nodes 1..4: every round of requests
        // leaves at the same cycle and lands at the home at the same
        // cycle, so the directory sees same-cycle conflicts every round.
        for n in 1..nodes {
            let mut ops = Vec::new();
            for i in 0..20u64 {
                ops.push(Op::Write {
                    addr: VAddr::new(SHARED_SEGMENT_BASE),
                    value: (n as u64) << 32 | i,
                });
                ops.push(Op::Read { addr: VAddr::new(SHARED_SEGMENT_BASE), expect: None });
            }
            w.set(n, ops);
        }
        let mut cfg = SystemConfig::test_config(nodes);
        cfg.placement = tt_base::config::DirPlacement::Owner;
        cfg.verify_values = false; // nodes race on the same word by design
        cfg.sim_threads = sim_threads;
        cfg.sim_shards = sim_shards;
        cfg.window_policy = policy;
        let r = DirnnbMachine::new(cfg, Box::new(w)).run();
        let rows: Vec<(String, f64)> =
            r.report.iter().map(|row| (row.name.clone(), row.value)).collect();
        (r.cycles, rows)
    };
    use tt_base::WindowPolicy::{Adaptive, Fixed};
    let sequential = run(1, 0, Fixed);
    // The race must actually exercise the directory's conflict path, or
    // this test pins nothing.
    assert!(
        sequential.1.iter().any(|(name, v)| name == "dir.deferred" && *v > 0.0),
        "workload failed to produce same-cycle conflicting requests"
    );
    for threads in [2, 3, 4] {
        for policy in [Fixed, Adaptive] {
            assert_eq!(
                sequential,
                run(threads, 0, policy),
                "sim_threads={threads} policy={policy} diverged"
            );
        }
    }
    // Worker multiplexing: more shards than OS threads, so each worker
    // owns several shards — the same-cycle merge must still hold.
    for (threads, shards) in [(2, 4), (3, 4)] {
        for policy in [Fixed, Adaptive] {
            assert_eq!(
                sequential,
                run(threads, shards, policy),
                "sim_threads={threads} sim_shards={shards} policy={policy} diverged"
            );
        }
    }
}
