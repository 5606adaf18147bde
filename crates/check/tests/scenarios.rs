//! Promoted failure-injection scenarios, now shared across machines:
//! broken protocols and malformed workloads must be *caught* — by value
//! verification, the deadlock detector, or the invariant engine. The
//! same workload builders run on both `tt-typhoon` and `tt-dirnnb`.

use tt_base::SystemConfig;
use tt_check::scenarios::{
    impossible_read_workload, lost_resume_workload, mismatched_barrier_workload,
    stale_read_workload, LoseResume, NeverInvalidate,
};
use tt_dirnnb::DirnnbMachine;
use tt_stache::StacheProtocol;
use tt_typhoon::TyphoonMachine;

#[test]
#[should_panic(expected = "coherence violation")]
fn typhoon_verification_catches_a_protocol_that_never_invalidates() {
    let mut m = TyphoonMachine::new(
        SystemConfig::test_config(2),
        Box::new(stale_read_workload()),
        &|id, layout, cfg| Box::new(NeverInvalidate::new(id, layout, cfg)),
    );
    let _ = m.run();
}

#[test]
#[should_panic(expected = "coherence violation")]
fn dirnnb_verification_catches_an_impossible_read() {
    let mut m =
        DirnnbMachine::new(SystemConfig::test_config(2), Box::new(impossible_read_workload()));
    let _ = m.run();
}

#[test]
fn typhoon_with_stache_passes_the_stale_read_scenario() {
    let mut m = TyphoonMachine::new(
        SystemConfig::test_config(2),
        Box::new(stale_read_workload()),
        &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
    );
    let _ = m.run();
}

#[test]
fn dirnnb_passes_the_stale_read_scenario() {
    let mut m = DirnnbMachine::new(SystemConfig::test_config(2), Box::new(stale_read_workload()));
    let _ = m.run();
}

#[test]
#[should_panic(expected = "deadlocked")]
fn typhoon_deadlock_detector_catches_a_lost_resume() {
    let mut m = TyphoonMachine::new(
        SystemConfig::test_config(1),
        Box::new(lost_resume_workload()),
        &|_, _, _| Box::new(LoseResume),
    );
    let _ = m.run();
}

#[test]
#[should_panic(expected = "deadlocked")]
fn typhoon_detects_mismatched_barrier_counts() {
    let mut m = TyphoonMachine::new(
        SystemConfig::test_config(2),
        Box::new(mismatched_barrier_workload()),
        &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
    );
    let _ = m.run();
}

#[test]
#[should_panic(expected = "deadlocked")]
fn dirnnb_detects_mismatched_barrier_counts() {
    let mut m =
        DirnnbMachine::new(SystemConfig::test_config(2), Box::new(mismatched_barrier_workload()));
    let _ = m.run();
}
