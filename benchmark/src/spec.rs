//! What the benchmark runs and what it reports: the five workloads and
//! the metric tables. `BENCHMARK.json` at the repo root mirrors these
//! tables; the smoke test fails when the two drift apart.

use fdpcache_workloads::WorkloadProfile;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, `layer.quantity` for per-layer metrics.
    pub name: String,
    /// Unit. Virtual-time quantities say `sim_` so they are never read
    /// as wall-clock.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric { name: name.to_string(), unit, better, bound }
}

/// The end-to-end metrics, from the untraced run. Every workload emits
/// every one of them.
///
/// A bound must hold on the noisiest workload, since it is per metric:
/// `dlwa`, `hit_ratio` and `peak_rss_mib` get at least three times the
/// widest seed-to-seed spread seen at the seed commit; the others sit at
/// the contract's ceiling of 0.25 because `flash_resident_get`'s
/// simulated metrics move by 7-12 % with the seed (its size table has
/// 500 large keys) and wall-clock on the reference host drifts by
/// 10-20 % (README, "Run-to-run agreement").
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("host_kops", "kops/s", Higher, Some(0.25)),
        metric("sim_kops", "kops/sim_s", Higher, Some(0.25)),
        metric("sim_get_mean_us", "sim_us", Lower, Some(0.25)),
        metric("sim_set_mean_us", "sim_us", Lower, Some(0.25)),
        metric("dlwa", "ratio", Lower, Some(0.10)),
        metric("alwa", "ratio", Lower, Some(0.25)),
        metric("hit_ratio", "ratio", Higher, Some(0.10)),
        metric("peak_rss_mib", "MiB", Lower, Some(0.05)),
    ]
}

/// Client-op classes timed by the traced run on the 1-client workloads
/// (`cache.<class>.*`).
pub const CACHE_CLASSES: [&str; 6] =
    ["get_ram_hit", "get_soc_hit", "get_loc_hit", "get_miss", "put_ram_only", "put_flush"];

/// Client-op classes timed by the traced run on the 2-client workloads
/// (`pool.<class>.*`).
pub const POOL_CLASSES: [&str; 4] = ["get_ram_hit", "get_flash_hit", "get_miss", "put"];

/// Payload-store call kinds timed by `TimedStore` (`datastore.<kind>.*`).
pub const STORE_KINDS: [&str; 3] = ["write", "read", "discard"];

/// The per-layer metrics, from the traced run, grouped by module. A
/// metric of a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        m.push(metric(name, unit, better, None));
    };
    add("workloads.gen.ns_per_req", "ns", Lower);
    add("fleet.route.p50_ns", "ns", Lower);
    for (layer, classes) in [("pool", &POOL_CLASSES[..]), ("cache", &CACHE_CLASSES[..])] {
        for class in classes {
            let more_is_better = class.ends_with("ram_hit") || *class == "put_ram_only";
            add(
                &format!("{layer}.{class}.count"),
                "count",
                if more_is_better { Higher } else { Lower },
            );
            add(&format!("{layer}.{class}.p50_ns"), "ns", Lower);
            add(&format!("{layer}.{class}.time_share"), "ratio", Lower);
        }
    }
    add("pool.solo_kops", "kops/s", Higher);
    add("pool.scaling_2v1", "ratio", Higher);
    add("cache.self_ns_per_op", "ns", Lower);
    add("sim.get_p50_us", "sim_us", Lower);
    add("sim.get_p99_us", "sim_us", Lower);
    add("sim.set_p99_us", "sim_us", Lower);
    add("ram.hit_ratio", "ratio", Higher);
    add("ram.evictions", "count", Lower);
    add("navy.insert_attempts", "count", Lower);
    add("navy.inserts", "count", Lower);
    add("navy.app_bytes", "bytes", Lower);
    add("soc.lookups", "count", Lower);
    add("soc.hits", "count", Higher);
    add("soc.bloom_rejects", "count", Higher);
    add("soc.rmw_reads", "count", Lower);
    add("soc.page_writes", "count", Lower);
    add("loc.lookups", "count", Lower);
    add("loc.hits", "count", Higher);
    add("loc.seals", "count", Lower);
    add("loc.region_evictions", "count", Lower);
    add("io.writes", "count", Lower);
    add("io.reads", "count", Lower);
    add("io.discards", "count", Lower);
    add("io.bytes_written", "bytes", Lower);
    add("io.bytes_read", "bytes", Lower);
    add("io.replay_ns_per_cmd", "ns", Lower);
    add("io.self_ns_per_cmd", "ns", Lower);
    add("controller.replay_ns_per_cmd", "ns", Lower);
    add("controller.self_ns_per_cmd", "ns", Lower);
    add("controller.dlwa", "ratio", Lower);
    add("ftl.replay_ns_per_cmd", "ns", Lower);
    add("ftl.gc_runs", "count", Lower);
    add("ftl.relocated_pages", "count", Lower);
    add("ftl.rus_erased", "count", Lower);
    add("ftl.host_pages_written", "count", Lower);
    add("ftl.nand_pages_written", "count", Lower);
    add("nand.pages_programmed", "count", Lower);
    add("nand.pages_read", "count", Lower);
    add("nand.superblock_erases", "count", Lower);
    for kind in STORE_KINDS {
        add(&format!("datastore.{kind}.calls"), "count", Lower);
        add(&format!("datastore.{kind}.blocks"), "count", Lower);
        add(&format!("datastore.{kind}.p50_ns"), "ns", Lower);
        add(&format!("datastore.{kind}.time_share"), "ratio", Lower);
    }
    add("datastore.replay_ns_per_cmd", "ns", Lower);
    add("model.dlwa_analytic", "ratio", Lower);
    add("model.dlwa_rel_err", "ratio", Lower);
    add("harness.cpu_user_s", "s", Lower);
    add("harness.cpu_sys_s", "s", Lower);
    add("harness.setup_sys_s", "s", Lower);
    add("harness.trace_overhead_share", "ratio", Lower);
    add("harness.sim_match", "bool", Higher);
    add("harness.audit_keys", "count", Higher);
    add("harness.failed_ops_share", "ratio", Lower);
    m
}

/// DRAM budget of a workload's cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dram {
    /// A share of the flash namespace (the paper's 42 GB over 930 GB is
    /// 4.5 %).
    Share(f64),
    /// A fixed byte count.
    Bytes(u64),
}

/// How the workload's key population is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keyspace {
    /// Logical working set as a multiple of the flash namespace, so the
    /// flash cache churns like the production traces.
    FlashMultiple(f64),
    /// A fixed number of keys.
    Keys(u64),
}

/// How the cache is brought to steady state before the measured region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Warmup {
    /// Replay the workload until the host has written this many times
    /// the device's raw capacity.
    Turnovers(f64),
    /// SET every key once, then replay this many requests per client.
    Preload {
        /// Requests replayed per client after the preload.
        ops: u64,
    },
}

/// One benchmark workload: a closed loop of `clients` callers, each
/// waiting for every reply, over a pre-generated request vector.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// 1 drives a `HybridCache` directly; 2 drives one 2-shard
    /// `ConcurrentPool` from two threads with independent streams over
    /// the same keys.
    pub clients: usize,
    /// The traffic mix.
    pub profile: fn() -> WorkloadProfile,
    /// Raw device capacity.
    pub device_mib: u64,
    /// Reclaim-unit size, which is also the LOC region size: one sealed
    /// region fills one reclaim unit.
    pub ru_mib: u64,
    /// Share of the exported capacity the namespace covers; the rest of
    /// the LBA space is host overprovisioning.
    pub utilization: f64,
    /// FDP segregation on (placement handles) or off (one stream).
    pub fdp: bool,
    /// Device queue depth of the cache's queue pair.
    pub queue_depth: usize,
    /// DRAM budget.
    pub dram: Dram,
    /// Key population.
    pub keyspace: Keyspace,
    /// Path to steady state.
    pub warmup: Warmup,
    /// Per client and per second of `--seconds`, the number of measured
    /// ops the simulated metrics are taken over. It sits a little below
    /// what this code does on the reference host, so the count is
    /// reached inside the time window and every simulated metric and
    /// counter repeats exactly under one seed whatever the host speed.
    pub quota_ops_per_s: u64,
}

fn kv_cache_reads() -> WorkloadProfile {
    WorkloadProfile {
        name: "kv-cache-reads",
        get_ratio: 0.95,
        churn_per_op: 0.0,
        ..WorkloadProfile::meta_kv_cache()
    }
}

/// The five workloads. Devices are small (128 reclaim units of 4 MiB)
/// so that three set-ups, each with turnovers of warm-up, and several
/// turnovers of measured traffic fit a run of under half a minute;
/// README, "How run lengths were sized".
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "kv_mixed_fdp",
            why: "The paper's headline set-up: KV-cache GET/SET mix with FDP on, past the LOC's first wrap; every layer does some work and dlwa must stay near 1.",
            clients: 1,
            profile: WorkloadProfile::meta_kv_cache,
            device_mib: 512,
            ru_mib: 4,
            utilization: 0.85,
            fdp: true,
            queue_depth: 1,
            dram: Dram::Share(0.045),
            keyspace: Keyspace::FlashMultiple(4.0),
            warmup: Warmup::Turnovers(4.0),
            quota_ops_per_s: 500_000,
        },
        Workload {
            name: "wo_kv_nonfdp",
            why: "The paper's baseline: the same device, write-only KV mix, FDP off, so SOC and LOC intermix and GC relocates; the only workload where GC and NAND work hard.",
            clients: 1,
            profile: WorkloadProfile::wo_kv_cache,
            device_mib: 512,
            ru_mib: 4,
            utilization: 0.85,
            fdp: false,
            queue_depth: 1,
            dram: Dram::Share(0.045),
            keyspace: Keyspace::FlashMultiple(4.0),
            warmup: Warmup::Turnovers(4.0),
            quota_ops_per_s: 200_000,
        },
        Workload {
            name: "loc_seal_write",
            why: "8-64 KiB objects, 90% SET, queue depth 4: whole-region vectored seals through submit_batch and slab memcpy instead of 4 KiB read-modify-write.",
            clients: 1,
            profile: WorkloadProfile::loc_seal_heavy,
            device_mib: 512,
            ru_mib: 4,
            utilization: 1.0,
            fdp: true,
            queue_depth: 4,
            dram: Dram::Share(0.045),
            keyspace: Keyspace::FlashMultiple(4.0),
            warmup: Warmup::Turnovers(2.0),
            quota_ops_per_s: 60_000,
        },
        Workload {
            name: "flash_resident_get",
            why: "Two clients contend on one 2-shard pool whose keys live on flash: most GETs are SOC/LOC lookups under the shard mutex, each followed by promote, evict and rewrite.",
            clients: 2,
            profile: kv_cache_reads,
            device_mib: 512,
            ru_mib: 4,
            utilization: 1.0,
            fdp: true,
            queue_depth: 1,
            dram: Dram::Bytes(512 << 10),
            keyspace: Keyspace::Keys(100_000),
            warmup: Warmup::Preload { ops: 100_000 },
            quota_ops_per_s: 90_000,
        },
        Workload {
            name: "dram_hot_reads",
            why: "Two clients on 2000 DRAM-resident keys: index, ram and pool do all the work and the device none, so every device-side change must predict no change here.",
            clients: 2,
            profile: WorkloadProfile::read_mostly_hot,
            device_mib: 128,
            ru_mib: 1,
            utilization: 1.0,
            fdp: true,
            queue_depth: 1,
            dram: Dram::Bytes(64 << 20),
            keyspace: Keyspace::Keys(2_000),
            warmup: Warmup::Preload { ops: 100_000 },
            quota_ops_per_s: 2_500_000,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}
