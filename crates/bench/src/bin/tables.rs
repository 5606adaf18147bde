//! Regenerates the paper's Tables 1–3 from the live code: the Tempest
//! tag operations, the simulation parameters actually used by the
//! machines, and the application data sets.

use tt_apps::{AppId, DataSet};
use tt_base::config::{
    SystemConfig, BARRIER_LATENCY, CACHE_ASSOC, DIR_OP_BASE, DIR_OP_BLOCK_RECV, DIR_OP_BLOCK_SEND,
    DIR_OP_PER_MSG, LOCAL_MISS, NP_DCACHE_ASSOC, NP_DCACHE_BYTES, NP_TLB_MISS, REMOTE_INVALIDATE,
    REMOTE_MISS_FINISH, REMOTE_MISS_REQUEST, REPLACE_EXCLUSIVE, REPLACE_SHARED, RTLB_ENTRIES,
    STACHE_HOME_INSTR, STACHE_REPLY_INSTR, STACHE_REQUEST_INSTR, TLB_ENTRIES, TLB_MISS,
};
use tt_base::table::Table;
use tt_tempest::TagOp;

fn main() {
    println!("TABLE 1. Operations on tagged memory blocks.\n");
    let mut t1 = Table::new(vec!["Operation", "Description"]);
    for op in TagOp::ALL {
        t1.row(vec![op.name().to_string(), op.description().to_string()]);
    }
    println!("{t1}");

    let cfg = SystemConfig::default();
    println!("TABLE 2. Simulation parameters.\n");
    let mut t2 = Table::new(vec!["Parameter", "Value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Nodes", cfg.nodes.to_string()),
        (
            "CPU cache",
            format!(
                "{CACHE_ASSOC}-way assoc., random repl. ({} KB default; Figure 3 sweeps 4-256 KB)",
                cfg.cpu.cache_bytes / 1024
            ),
        ),
        ("Block size", "32 bytes".into()),
        ("CPU TLB", format!("{TLB_ENTRIES} ent., fully assoc., FIFO repl.")),
        ("Page size", "4 Kbytes".into()),
        ("Local cache miss", format!("{LOCAL_MISS} cycles")),
        ("Local writeback", "0 (perfect write buffer)".into()),
        ("TLB miss", format!("{TLB_MISS} cycles")),
        ("Network latency", format!("{} cycles", cfg.network_latency)),
        ("Barrier latency", format!("{BARRIER_LATENCY} cycles")),
        (
            "DirNNB remote miss",
            format!(
                "{REMOTE_MISS_REQUEST} + {REPLACE_SHARED}-{REPLACE_EXCLUSIVE} if replacement \
                 + network/directory + {REMOTE_MISS_FINISH}"
            ),
        ),
        (
            "DirNNB remote invalidate",
            format!("{REMOTE_INVALIDATE} + {REPLACE_SHARED}-{REPLACE_EXCLUSIVE} if replacement"),
        ),
        (
            "DirNNB directory op",
            format!(
                "{DIR_OP_BASE} + {DIR_OP_BLOCK_RECV} if block rcvd + {DIR_OP_PER_MSG} per msg \
                 sent + {DIR_OP_BLOCK_SEND} if block sent"
            ),
        ),
        (
            "Typhoon NP TLB / RTLB",
            format!("{RTLB_ENTRIES} ent., fully assoc., FIFO repl.; miss {NP_TLB_MISS} cycles"),
        ),
        (
            "Typhoon NP D-cache",
            format!("{} KB, {NP_DCACHE_ASSOC}-way assoc.", NP_DCACHE_BYTES / 1024),
        ),
        (
            "Stache handler path lengths",
            format!(
                "{STACHE_REQUEST_INSTR} request / {STACHE_HOME_INSTR} home / \
                 {STACHE_REPLY_INSTR} reply instructions"
            ),
        ),
    ];
    for (k, v) in rows {
        t2.row(vec![k.to_string(), v]);
    }
    println!("{t2}");

    println!("TABLE 3. Application data sets.\n");
    let mut t3 = Table::new(vec!["Application", "Small Data Set", "Large Data Set"]);
    for app in AppId::ALL {
        t3.row(vec![
            app.name().to_string(),
            DataSet::Small.describe(app),
            DataSet::Large.describe(app),
        ]);
    }
    println!("{t3}");
}
