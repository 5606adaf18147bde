//! `Layout::home_of` is the one answer to "which node homes page P":
//! both machines and every protocol ask it instead of building a map.
//! Its binary search must agree with `Layout::pages` on every page of
//! the real layouts (each Table 3 application, both sync modes, and the
//! KV store) and find nothing just outside each region.

use tt_apps::{AppId, DataSet, SyncMode};
use tt_base::addr::Vpn;
use tt_base::workload::Layout;
use tt_bench::build_app;
use tt_serve::{KvParams, KvVariant};

const NODES: [usize; 2] = [32, 256];

fn assert_lookup_matches_pages(name: &str, layout: &Layout, nodes: usize) {
    let mut pages = 0;
    for (vpn, home, mode) in layout.pages(nodes) {
        assert_eq!(
            layout.home_of(vpn, nodes),
            Some((home, mode)),
            "{name} at {nodes} nodes: page {vpn:?}"
        );
        pages += 1;
    }
    assert!(pages > 0, "{name}: empty layout");
    for r in &layout.regions {
        let first = r.base.page().0;
        let past = first + r.pages() as u64;
        for outside in [first - 1, past] {
            let covered = layout.regions.iter().any(|o| {
                let start = o.base.page().0;
                (start..start + o.pages() as u64).contains(&outside)
            });
            if !covered {
                assert_eq!(
                    layout.home_of(Vpn(outside), nodes),
                    None,
                    "{name} at {nodes} nodes: page {outside:#x} is outside every region"
                );
            }
        }
    }
}

#[test]
fn home_of_agrees_with_pages_on_table3_layouts() {
    for nodes in NODES {
        for app in AppId::ALL {
            for set in [DataSet::Small, DataSet::Large] {
                for sync in [SyncMode::Barrier, SyncMode::Flush] {
                    let layout = build_app(app, set, 1, nodes, sync).layout();
                    let name = format!("{app} {set:?} {sync:?}");
                    assert_lookup_matches_pages(&name, &layout, nodes);
                }
            }
        }
    }
}

#[test]
fn home_of_agrees_with_pages_on_the_kv_layout() {
    for nodes in NODES {
        let mut p = KvParams::small(KvVariant::Stache);
        p.nodes = nodes;
        assert_lookup_matches_pages("kv", &p.kv_layout().layout(), nodes);
    }
}
