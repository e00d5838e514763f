//! `TimedStore`: a payload-store decorator that times every vectored
//! call and records the device command stream.
//!
//! It follows the `FaultStore` precedent in `fdpcache-nvme`: wrap a
//! `Box<dyn DataStore>`, forward everything, add behaviour on the side.
//! The controller calls the store outside its media lock, once per
//! command, with device LBAs — so the sequence of calls seen here *is*
//! the command stream below the controller, which the stack replay
//! re-drives on fresh instances of every lower layer.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fdpcache_nvme::{DataStore, FaultOp, FaultRates, FaultTotals, InjectedFault};

/// Kind of a recorded store call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// `write_blocks` / `write_block`.
    Write = 0,
    /// `read_blocks` / `read_block`.
    Read = 1,
    /// `discard_blocks` / `discard`.
    Discard = 2,
}

/// One recorded store call: what the controller asked for and how long
/// the inner store took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    /// Call kind.
    pub kind: CmdKind,
    /// First device LBA.
    pub lba: u32,
    /// Contiguous blocks moved.
    pub nblocks: u32,
    /// Wall-clock nanoseconds spent inside the inner store.
    pub ns: u32,
}

/// The shared log a [`TimedStore`] appends to. The benchmark keeps one
/// handle, the controller owns the store with the other.
#[derive(Debug, Default)]
pub struct Recorder {
    log: Mutex<Vec<Cmd>>,
}

impl Recorder {
    fn push(&self, kind: CmdKind, lba: u64, nblocks: u64, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let cmd = Cmd { kind, lba: lba as u32, nblocks: nblocks as u32, ns };
        self.log.lock().expect("recorder lock: a store call panicked").push(cmd);
    }

    /// Commands recorded so far; used to mark the measured region.
    pub fn len(&self) -> usize {
        self.log.lock().expect("recorder lock: a store call panicked").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The command stream from construction onward.
    pub fn snapshot(&self) -> Vec<Cmd> {
        self.log.lock().expect("recorder lock: a store call panicked").clone()
    }
}

/// Decorator over any [`DataStore`]: identical behaviour, plus a timed
/// record of every call.
pub struct TimedStore {
    inner: Box<dyn DataStore>,
    recorder: Arc<Recorder>,
}

impl TimedStore {
    /// Wraps `inner`, returning the store and the handle onto its log.
    pub fn new(inner: Box<dyn DataStore>) -> (Self, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::default());
        (TimedStore { inner, recorder: Arc::clone(&recorder) }, recorder)
    }
}

impl DataStore for TimedStore {
    fn attach(&self, exported_lbas: u64, lba_bytes: u32) {
        assert!(exported_lbas <= u32::MAX as u64, "recorded LBAs are 32-bit");
        self.inner.attach(exported_lbas, lba_bytes);
    }

    fn write_block(&self, lba: u64, data: &[u8]) {
        let t = Instant::now();
        self.inner.write_block(lba, data);
        self.recorder.push(CmdKind::Write, lba, 1, t);
    }

    fn read_block(&self, lba: u64, out: &mut [u8]) -> bool {
        let t = Instant::now();
        let found = self.inner.read_block(lba, out);
        self.recorder.push(CmdKind::Read, lba, 1, t);
        found
    }

    fn discard(&self, lba: u64) {
        let t = Instant::now();
        self.inner.discard(lba);
        self.recorder.push(CmdKind::Discard, lba, 1, t);
    }

    fn retains_data(&self) -> bool {
        self.inner.retains_data()
    }

    fn write_blocks(&self, lba: u64, data: &[u8], block_bytes: usize) {
        let t = Instant::now();
        self.inner.write_blocks(lba, data, block_bytes);
        self.recorder.push(CmdKind::Write, lba, (data.len() / block_bytes) as u64, t);
    }

    fn read_blocks(&self, lba: u64, out: &mut [u8], block_bytes: usize) {
        let t = Instant::now();
        self.inner.read_blocks(lba, out, block_bytes);
        self.recorder.push(CmdKind::Read, lba, (out.len() / block_bytes) as u64, t);
    }

    fn discard_blocks(&self, lba: u64, count: u64) {
        let t = Instant::now();
        self.inner.discard_blocks(lba, count);
        self.recorder.push(CmdKind::Discard, lba, count, t);
    }

    fn fault(&self, op: FaultOp, lba: u64, nlb: u64) -> Option<InjectedFault> {
        self.inner.fault(op, lba, nlb)
    }

    fn fault_totals(&self) -> FaultTotals {
        self.inner.fault_totals()
    }

    fn set_fault_rates(&self, rates: FaultRates) -> bool {
        self.inner.set_fault_rates(rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdpcache_nvme::MemStore;

    #[test]
    fn passes_every_call_through_and_records_it() {
        let (store, rec) = TimedStore::new(Box::new(MemStore::new()));
        store.attach(64, 4096);
        assert!(store.retains_data());

        let data: Vec<u8> = (0..3 * 4096).map(|i| (i % 251) as u8).collect();
        store.write_blocks(5, &data, 4096);
        let mut out = vec![0u8; 3 * 4096];
        store.read_blocks(5, &mut out, 4096);
        assert_eq!(out, data, "vectored round trip must be bit-exact");

        store.discard_blocks(6, 1);
        store.read_blocks(5, &mut out, 4096);
        assert_eq!(out[..4096], data[..4096]);
        assert!(out[4096..2 * 4096].iter().all(|&b| b == 0), "discarded block reads zero");
        assert_eq!(out[2 * 4096..], data[2 * 4096..]);

        store.write_block(9, &data[..4096]);
        let mut one = vec![0u8; 4096];
        assert!(store.read_block(9, &mut one));
        assert_eq!(one, data[..4096]);
        store.discard(9);
        assert!(!store.read_block(9, &mut one));

        let log = rec.snapshot();
        let shape: Vec<(CmdKind, u32, u32)> =
            log.iter().map(|c| (c.kind, c.lba, c.nblocks)).collect();
        assert_eq!(
            shape,
            vec![
                (CmdKind::Write, 5, 3),
                (CmdKind::Read, 5, 3),
                (CmdKind::Discard, 6, 1),
                (CmdKind::Read, 5, 3),
                (CmdKind::Write, 9, 1),
                (CmdKind::Read, 9, 1),
                (CmdKind::Discard, 9, 1),
                (CmdKind::Read, 9, 1),
            ]
        );
        assert_eq!(rec.len(), 8);
    }

    #[test]
    fn forwards_the_fault_hooks() {
        let (store, _rec) = TimedStore::new(Box::new(MemStore::new()));
        assert!(store.fault(FaultOp::Write, 0, 1).is_none());
        assert_eq!(store.fault_totals(), FaultTotals::default());
        assert!(!store.set_fault_rates(FaultRates::default()));
    }
}
