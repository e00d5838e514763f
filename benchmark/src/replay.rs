//! Stack replay: the device command stream a traced run recorded is
//! driven again, on fresh instances, at each boundary below the cache
//! in turn — payload store, FTL, controller, I/O manager. The commands
//! before the measured region rebuild the state (mapping, GC pressure)
//! the region ran against and are not timed; the region's commands are.
//!
//! A layer's self time is its replay cost minus the cost of the
//! boundaries below it: the controller calls the FTL and the store, the
//! I/O manager calls the controller.

use std::sync::Arc;
use std::time::Instant;

use fdpcache_core::{IoManager, PlacementHandle, SharedController};
use fdpcache_ftl::{Ftl, FtlConfig};
use fdpcache_nvme::{Controller, DataStore, DeallocRange, MemStore, Namespace, NamespaceState};

use crate::stack::{Place, BLOCK_BYTES};
use crate::store::{Cmd, CmdKind};

/// Device lanes of a replay I/O manager: `NvmConfig::default().io_lanes`,
/// what the traced cache's own queue pair used.
const IO_LANES: usize = 8;

/// What a traced run hands to the replay.
pub struct Recording<'a> {
    /// The command stream from device construction onward.
    pub cmds: &'a [Cmd],
    /// Index of the first command of the measured region.
    pub region_start: usize,
    /// One past the last command of the measured region.
    pub region_end: usize,
    /// The device the stream ran on.
    pub ftl: &'a FtlConfig,
    /// Whether the device honoured placement directives.
    pub fdp: bool,
    /// Namespaces in creation order.
    pub namespaces: &'a [Namespace],
    /// Block ranges with their placement.
    pub places: &'a [Place],
}

/// Nanoseconds per measured-region command at each boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCost {
    /// `MemStore` alone.
    pub datastore: f64,
    /// `Ftl` alone.
    pub ftl: f64,
    /// `Controller` (FTL and store beneath it).
    pub controller: f64,
    /// `IoManager` (controller beneath it).
    pub io: f64,
    /// Commands that failed on replay; any is a correctness failure,
    /// because every recorded command succeeded when it was recorded.
    pub errors: u64,
}

impl Recording<'_> {
    fn place(&self, lba: u64) -> &Place {
        self.places
            .iter()
            .find(|p| (p.start..p.end).contains(&lba))
            .expect("every recorded LBA lies in a namespace")
    }

    /// Drives the stream through `apply`, timing only the measured
    /// region. Returns `(ns per region command, failed commands)`.
    fn drive(&self, mut apply: impl FnMut(&Cmd, &Place) -> bool) -> (f64, u64) {
        let mut errors = 0u64;
        let mut run = |cmds: &[Cmd]| {
            for c in cmds {
                errors += u64::from(!apply(c, self.place(c.lba as u64)));
            }
        };
        run(&self.cmds[..self.region_start]);
        let region = &self.cmds[self.region_start..self.region_end];
        let t = Instant::now();
        run(region);
        let ns = t.elapsed().as_nanos() as f64;
        (if region.is_empty() { 0.0 } else { ns / region.len() as f64 }, errors)
    }

    fn fresh_controller(&self) -> (SharedController, Vec<Arc<NamespaceState>>) {
        let ctrl = Controller::new(self.ftl.clone(), Box::new(MemStore::new()))
            .expect("the recorded device configuration validates");
        ctrl.set_fdp_enabled(self.fdp);
        let opened = self
            .namespaces
            .iter()
            .map(|ns| {
                let nsid = ctrl
                    .create_namespace(ns.lba_count, ns.ruh_list.clone())
                    .expect("replay carves the recorded namespaces");
                ctrl.open_namespace(nsid).expect("namespace was just created")
            })
            .collect();
        (Arc::new(ctrl), opened)
    }

    /// Replays the stream at all four boundaries.
    pub fn replay(&self) -> ReplayCost {
        let max_blocks = self.cmds.iter().map(|c| c.nblocks).max().unwrap_or(1) as usize;
        let mut buf = vec![0xA5u8; max_blocks * BLOCK_BYTES];
        let mut cost = ReplayCost::default();
        let mut errors = 0u64;

        {
            let store = MemStore::with_capacity(self.ftl.exported_lbas(), BLOCK_BYTES as u32);
            let (ns, e) = self.drive(|c, _| {
                let bytes = c.nblocks as usize * BLOCK_BYTES;
                match c.kind {
                    CmdKind::Write => store.write_blocks(c.lba as u64, &buf[..bytes], BLOCK_BYTES),
                    CmdKind::Read => {
                        store.read_blocks(c.lba as u64, &mut buf[..bytes], BLOCK_BYTES)
                    }
                    CmdKind::Discard => store.discard_blocks(c.lba as u64, c.nblocks as u64),
                }
                true
            });
            cost.datastore = ns;
            errors += e;
        }

        {
            let mut ftl = Ftl::new(self.ftl.clone()).expect("recorded configuration validates");
            let (ns, e) = self.drive(|c, p| {
                let (lba, n) = (c.lba as u64, c.nblocks as u64);
                match c.kind {
                    CmdKind::Write => ftl.write_placed_batch(lba, n, 0, p.ruh).is_ok(),
                    CmdKind::Read => ftl.read_contig(lba, n).is_ok(),
                    CmdKind::Discard => ftl.trim_batch(&[(lba, n)]).is_ok(),
                }
            });
            cost.ftl = ns;
            errors += e;
        }

        {
            let (ctrl, opened) = self.fresh_controller();
            let (ns, e) = self.drive(|c, p| {
                let state = &opened[p.namespace];
                let slba = c.lba as u64 - self.namespaces[p.namespace].start_lba;
                let bytes = c.nblocks as usize * BLOCK_BYTES;
                match c.kind {
                    CmdKind::Write => ctrl.write_ns(state, slba, &buf[..bytes], p.dspec).is_ok(),
                    CmdKind::Read => ctrl.read_ns(state, slba, &mut buf[..bytes]).is_ok(),
                    CmdKind::Discard => ctrl
                        .deallocate_ns(state, &[DeallocRange { slba, nlb: c.nblocks as u64 }])
                        .is_ok(),
                }
            });
            cost.controller = ns;
            errors += e;
        }

        {
            let (ctrl, opened) = self.fresh_controller();
            let mut ios: Vec<IoManager> = opened
                .iter()
                .map(|state| {
                    IoManager::new(Arc::clone(&ctrl), state.nsid(), IO_LANES)
                        .expect("namespace exists")
                })
                .collect();
            let (ns, e) = self.drive(|c, p| {
                let io = &mut ios[p.namespace];
                let block = c.lba as u64 - self.namespaces[p.namespace].start_lba;
                let bytes = c.nblocks as usize * BLOCK_BYTES;
                let handle = p.dspec.map_or(PlacementHandle::DEFAULT, PlacementHandle::with_dspec);
                match c.kind {
                    CmdKind::Write => io.write(block, &buf[..bytes], handle).is_ok(),
                    CmdKind::Read => io.read(block, &mut buf[..bytes]).is_ok(),
                    CmdKind::Discard => io.discard(block, c.nblocks as u64).is_ok(),
                }
            });
            cost.io = ns;
            errors += e;
        }

        cost.errors = errors;
        cost
    }
}
