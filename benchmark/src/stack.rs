//! Builds the system under test for a workload and reads its counters
//! from outside, through public `stats()` snapshots only.

use std::sync::Arc;

use fdpcache_cache::builder::{build_cache, create_namespace};
use fdpcache_cache::config::{CacheConfig, NvmConfig};
use fdpcache_cache::{CacheStats, ConcurrentPool, FlashVerify, HybridCache};
use fdpcache_core::{RoundRobinPolicy, SharedController};
use fdpcache_ftl::{FtlConfig, FtlStats, RuhId};
use fdpcache_nand::{Geometry, NandStats};
use fdpcache_nvme::{Controller, DataStore, FdpStatsLog, MemStore, Namespace};

use crate::spec::{Dram, Workload};
use crate::store::{Recorder, TimedStore};

/// Device block size; the SOC bucket size must equal it.
pub const BLOCK_BYTES: usize = 4096;

/// The entry point clients call into.
pub enum Target {
    /// One `HybridCache`, driven by one client.
    Cache(Box<HybridCache>),
    /// One 2-shard `ConcurrentPool`, driven by two client threads.
    Pool(ConcurrentPool),
}

/// A built stack: device, cache tier and, on traced runs, the handle
/// onto the `TimedStore` command log.
pub struct Stack {
    /// The device.
    pub ctrl: SharedController,
    /// The cache tier on it.
    pub target: Target,
    /// The command log (traced runs only).
    pub recorder: Option<Arc<Recorder>>,
    /// The device configuration, kept to build replay instances.
    pub ftl: FtlConfig,
}

/// `FtlConfig::scaled_default()` at the workload's capacity and
/// reclaim-unit size.
pub fn ftl_config(w: &Workload) -> FtlConfig {
    let geometry = Geometry::with_capacity(w.device_mib << 20, w.ru_mib << 20, BLOCK_BYTES as u32)
        .expect("workload geometry: capacity and RU size are whole superblocks");
    FtlConfig { geometry, ..FtlConfig::scaled_default() }
}

/// Bytes of the workload's namespace(s): its share of the exported
/// capacity.
pub fn namespace_bytes(w: &Workload, ftl: &FtlConfig) -> u64 {
    (ftl.exported_bytes() as f64 * w.utilization) as u64
}

/// The cache configuration: SOC 4 % of the namespace, region = one
/// reclaim unit, DRAM per the workload.
pub fn cache_config(w: &Workload, namespace_bytes: u64) -> CacheConfig {
    let ram_bytes = match w.dram {
        Dram::Share(s) => ((namespace_bytes as f64 * s) as u64).max(1 << 20),
        Dram::Bytes(b) => b,
    };
    CacheConfig {
        ram_bytes,
        nvm: NvmConfig { region_bytes: w.ru_mib << 20, ..NvmConfig::default() },
        use_fdp: w.fdp,
        ..CacheConfig::default()
    }
}

/// Builds the device (over a `TimedStore` when `traced`) with its
/// namespace at 100 % utilisation and the workload's cache tier on it.
pub fn build(w: &Workload, traced: bool) -> Stack {
    let ftl = ftl_config(w);
    let mem: Box<dyn DataStore> = Box::new(MemStore::new());
    let (store, recorder) = if traced {
        let (timed, rec) = TimedStore::new(mem);
        (Box::new(timed) as Box<dyn DataStore>, Some(rec))
    } else {
        (mem, None)
    };
    let ctrl: SharedController =
        Arc::new(Controller::new(ftl.clone(), store).expect("device configuration validates"));
    ctrl.set_fdp_enabled(w.fdp);
    let config = cache_config(w, namespace_bytes(w, &ftl));
    let target = if w.clients == 1 {
        let ruhs: Vec<RuhId> = (0..ftl.num_ruhs).collect();
        let nsid = create_namespace(&ctrl, w.utilization, ruhs).expect("namespace fits the device");
        let mut cache = build_cache(&ctrl, nsid, &config, Box::new(RoundRobinPolicy::new()))
            .expect("cache fits the namespace");
        cache.set_queue_depth(w.queue_depth);
        Target::Cache(Box::new(cache))
    } else {
        let pool = ConcurrentPool::new(&ctrl, &config, w.clients, w.utilization, || {
            Box::new(RoundRobinPolicy::new())
        })
        .expect("pool fits the device");
        pool.set_queue_depth(w.queue_depth);
        Target::Pool(pool)
    };
    Stack { ctrl, target, recorder, ftl }
}

impl Target {
    /// Runs `f` on every shard in shard order (the one cache, or each
    /// pool shard under its lock).
    pub fn each_shard(&mut self, mut f: impl FnMut(&mut HybridCache)) {
        match self {
            Target::Cache(c) => f(c),
            Target::Pool(p) => {
                for i in 0..p.shards() {
                    p.with_shard(i, &mut f);
                }
            }
        }
    }

    /// Runs `f` on the shard that owns `key`.
    pub fn on_shard_of<R>(&mut self, key: u64, f: impl FnOnce(&mut HybridCache) -> R) -> R {
        match self {
            Target::Cache(c) => f(c),
            Target::Pool(p) => p.with_shard(p.shard_of(key), f).expect("shard_of is in range"),
        }
    }

    /// Verifies `key`'s on-flash bytes against the acknowledged object.
    pub fn verify(&mut self, key: u64) -> FlashVerify {
        self.on_shard_of(key, |c| c.verify_flash_key(key))
            .expect("no fault is injected, so verification reads cannot fail")
    }

    /// Keys with a persisted copy on flash, sorted so that sampling
    /// them repeats.
    pub fn persisted_keys(&mut self) -> Vec<u64> {
        let mut keys = Vec::new();
        self.each_shard(|c| keys.extend(c.persisted_keys()));
        keys.sort_unstable();
        keys
    }
}

/// Counters of the SOC the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocCounts {
    /// Lookup attempts.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Flash reads saved by the bloom filters.
    pub bloom_rejects: u64,
    /// Read-modify-write page reads.
    pub rmw_reads: u64,
    /// Bucket page writes.
    pub page_writes: u64,
}

/// Counters of the LOC the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocCounts {
    /// Lookup attempts.
    pub lookups: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Regions sealed.
    pub seals: u64,
    /// Regions evicted.
    pub region_evictions: u64,
}

/// Counters of the cache's queue pair(s) the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Write commands.
    pub writes: u64,
    /// Read commands.
    pub reads: u64,
    /// Discard commands.
    pub discards: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// Every simulated observable the benchmark reads, at one instant:
/// virtual clock and the public counters of each layer, summed over
/// shards. Two runs that agree on a `Snapshot` simulated the same thing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    /// Virtual clock (the slowest shard's, on a pool).
    pub now_ns: u64,
    /// Hybrid-cache counters.
    pub cache: CacheStats,
    /// Queue-pair counters.
    pub io: IoCounts,
    /// SOC counters.
    pub soc: SocCounts,
    /// LOC counters.
    pub loc: LocCounts,
    /// Device bytes written by the flash engines (ALWA numerator).
    pub amp_device_bytes: u64,
    /// Application bytes handed to the flash engines (ALWA denominator).
    pub amp_app_bytes: u64,
    /// FTL counters.
    pub ftl: FtlStats,
    /// NAND counters.
    pub nand: NandStats,
    /// The FDP statistics log page.
    pub fdp: FdpStatsLog,
}

impl Snapshot {
    /// Reads every counter. In-flight commands are reaped first so the
    /// clock reflects all submitted work.
    pub fn take(stack: &mut Stack) -> Snapshot {
        let mut s = Snapshot::default();
        stack.target.each_shard(|c| {
            c.drain_io();
            s.now_ns = s.now_ns.max(c.now_ns());
            s.cache = s.cache.merge(&c.stats());
            let io = c.navy().io().stats();
            s.io.writes += io.writes;
            s.io.reads += io.reads;
            s.io.discards += io.discards;
            s.io.bytes_written += io.bytes_written;
            s.io.bytes_read += io.bytes_read;
            let soc = c.navy().soc().stats();
            s.soc.lookups += soc.lookups;
            s.soc.hits += soc.hits;
            s.soc.bloom_rejects += soc.bloom_rejects;
            s.soc.rmw_reads += soc.rmw_reads;
            s.soc.page_writes += soc.page_writes;
            let loc = c.navy().loc().stats();
            s.loc.lookups += loc.lookups;
            s.loc.hits += loc.hits;
            s.loc.seals += loc.seals;
            s.loc.region_evictions += loc.region_evictions;
            let (device, app) = c.amp_bytes();
            s.amp_device_bytes += device;
            s.amp_app_bytes += app;
        });
        (s.ftl, s.nand) = stack.ctrl.with_ftl(|f| (f.stats(), f.nand_stats()));
        s.fdp = stack.ctrl.fdp_stats_log();
        s
    }

    /// Field-wise `self - earlier`.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            now_ns: self.now_ns - earlier.now_ns,
            cache: self.cache.delta(&earlier.cache),
            io: IoCounts {
                writes: self.io.writes - earlier.io.writes,
                reads: self.io.reads - earlier.io.reads,
                discards: self.io.discards - earlier.io.discards,
                bytes_written: self.io.bytes_written - earlier.io.bytes_written,
                bytes_read: self.io.bytes_read - earlier.io.bytes_read,
            },
            soc: SocCounts {
                lookups: self.soc.lookups - earlier.soc.lookups,
                hits: self.soc.hits - earlier.soc.hits,
                bloom_rejects: self.soc.bloom_rejects - earlier.soc.bloom_rejects,
                rmw_reads: self.soc.rmw_reads - earlier.soc.rmw_reads,
                page_writes: self.soc.page_writes - earlier.soc.page_writes,
            },
            loc: LocCounts {
                lookups: self.loc.lookups - earlier.loc.lookups,
                hits: self.loc.hits - earlier.loc.hits,
                seals: self.loc.seals - earlier.loc.seals,
                region_evictions: self.loc.region_evictions - earlier.loc.region_evictions,
            },
            amp_device_bytes: self.amp_device_bytes - earlier.amp_device_bytes,
            amp_app_bytes: self.amp_app_bytes - earlier.amp_app_bytes,
            ftl: self.ftl.delta(&earlier.ftl),
            nand: self.nand.delta(&earlier.nand),
            fdp: self.fdp.delta(&earlier.fdp),
        }
    }

    /// Media bytes over host bytes; 1 when the host wrote nothing (the
    /// repo's own convention in `FdpStatsLog::dlwa`).
    pub fn dlwa(&self) -> f64 {
        self.fdp.dlwa()
    }

    /// Device bytes over application bytes; 1 when nothing reached the
    /// flash engines (the repo's own convention in `NavyEngine::alwa`).
    pub fn alwa(&self) -> f64 {
        if self.amp_app_bytes == 0 {
            1.0
        } else {
            self.amp_device_bytes as f64 / self.amp_app_bytes as f64
        }
    }
}

/// Where one block range of the device belongs: which namespace, and
/// which placement directive and reclaim unit handle its writes carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    /// First device LBA of the range.
    pub start: u64,
    /// One past the last device LBA.
    pub end: u64,
    /// Index into the namespace list, in creation order.
    pub namespace: usize,
    /// Placement directive writes to this range carry.
    pub dspec: Option<u16>,
    /// The device handle that directive resolves to.
    pub ruh: RuhId,
}

/// The device layout the replay needs: namespaces in creation order,
/// and for each its SOC and LOC block ranges with their handles (the
/// SOC owns the first blocks of a namespace, the LOC and its footers
/// the rest).
pub fn layout(stack: &mut Stack, fdp: bool) -> (Vec<Namespace>, Vec<Place>) {
    let mut namespaces = Vec::new();
    let mut places = Vec::new();
    stack.target.each_shard(|c| {
        let ns = c.navy().io().namespace().info().clone();
        let soc_blocks = c.navy().soc().num_buckets();
        let resolve = |dspec: Option<u16>| match dspec {
            Some(pid) if fdp => ns.resolve_pid(pid & 0xFF).expect("cache handles resolve"),
            // FDP off: the controller ignores directives.
            Some(_) => fdpcache_ftl::DEFAULT_RUH,
            None if fdp => ns.default_ruh(),
            None => fdpcache_ftl::DEFAULT_RUH,
        };
        let soc = c.navy().soc().handle().dspec();
        let loc = c.navy().loc().handle().dspec();
        let split = ns.start_lba + soc_blocks;
        let namespace = namespaces.len();
        places.push(Place {
            start: ns.start_lba,
            end: split,
            namespace,
            dspec: soc,
            ruh: resolve(soc),
        });
        places.push(Place {
            start: split,
            end: ns.start_lba + ns.lba_count,
            namespace,
            dspec: loc,
            ruh: resolve(loc),
        });
        namespaces.push(ns);
    });
    (namespaces, places)
}
