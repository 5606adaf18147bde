//! The baseline server protocol: Stache plus the latency stamp.
//!
//! Gets and puts are ordinary tag-checked loads and stores; Stache's
//! transparent invalidation-based coherence does all the work. The only
//! KV-specific behavior is the [`KV_STAMP_OP`] user call that records a
//! finished request's latency — which is exactly the paper's pitch:
//! start from transparent shared memory, then specialize (the
//! write-update variant in `tt-apps::kv_update`) only where the access
//! pattern rewards it.

use tt_base::stats::Report;
use tt_base::workload::Layout;
use tt_base::{NodeId, SystemConfig};
use tt_stache::StacheProtocol;
use tt_tempest::{BlockFault, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall};

use crate::lat::{LatSink, SharedKvLatency};
use crate::layout::{KV_PUT_OP, KV_STAMP_OP};

/// NP instructions to process a latency stamp.
const STAMP_INSTR: u64 = 4;

/// Stache with KV latency stamping.
pub struct KvStacheProtocol {
    stache: StacheProtocol,
    sink: LatSink,
}

impl KvStacheProtocol {
    /// One node's protocol; latencies fold into `shared` at teardown.
    pub fn new(
        node: NodeId,
        layout: &Layout,
        cfg: &SystemConfig,
        shared: SharedKvLatency,
    ) -> Self {
        KvStacheProtocol {
            stache: StacheProtocol::new(node, layout, cfg),
            sink: LatSink::new(shared),
        }
    }
}

impl Protocol for KvStacheProtocol {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        self.stache.init(ctx);
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        self.stache.on_page_fault(ctx, fault);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        self.stache.on_block_fault(ctx, fault);
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        self.stache.on_message(ctx, msg);
    }

    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        match call.op {
            KV_STAMP_OP => {
                ctx.charge(STAMP_INSTR);
                self.sink.record(ctx.now(), call.arg);
                ctx.resume(thread);
            }
            KV_PUT_OP => panic!(
                "KV_PUT_OP under the stache variant: the workload's variant \
                 does not match the protocol"
            ),
            _ => ctx.resume(thread),
        }
    }

    fn report(&self, report: &mut Report) {
        self.stache.report(report);
        report.push_count("kv.gets", self.sink.local.get.total());
        report.push_count("kv.puts", self.sink.local.put.total());
    }

    fn inspect_directory(&self, out: &mut Vec<tt_tempest::BlockDirSnapshot>) {
        self.stache.inspect_directory(out);
    }
}
