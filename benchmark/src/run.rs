//! One run of one workload: set-up, the measured region, the audits,
//! and — on traced runs — per-op timing, the stack replay and an
//! untraced reference run to compare against.
//!
//! Everything is measured from outside: the code here only calls public
//! functions of the repo's crates and times those calls.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fdpcache_cache::config::{CacheConfig, NvmConfig};
use fdpcache_cache::{
    CacheError, ConcurrentPool, FlashVerify, FleetDevice, FleetRouter, GetOutcome, HybridCache,
    Value, DEFAULT_VNODES,
};
use fdpcache_core::{HealthConfig, RoundRobinPolicy, SharedController};
use fdpcache_ftl::FtlConfig;
use fdpcache_metrics::Histogram;
use fdpcache_model::dlwa_theorem1;
use fdpcache_nvme::{Controller, MemStore};
use fdpcache_workloads::{Op, Request, TraceGen};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;
use crate::replay::{Recording, ReplayCost};
use crate::spec::{Keyspace, Warmup, Workload, CACHE_CLASSES, POOL_CLASSES, STORE_KINDS};
use crate::stack::{self, Snapshot, Stack, Target, BLOCK_BYTES};
use crate::stats::{median, percentile};
use crate::store::{Cmd, CmdKind};

/// Keys whose on-flash bytes are verified after every run.
const AUDIT_KEYS: usize = 20_000;

/// Requests of a clocked pass per second of `--seconds`.
const PASS_OPS_PER_S: f64 = 100_000.0;

/// Longest pre-generated request vector of a workload whose keys do not
/// churn; such a client loops over its vector, which is sound because a
/// repeat of the stream is the same stream.
const LOOPED_TRACE_CAP: u64 = 4_000_000;

/// How often a client looks at the clock once its op quota is done.
const DEADLINE_CHECK_OPS: u64 = 64;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of the request generators; it reaches nothing else.
    pub seed: u64,
    /// Length of the measured region in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// How many times an untraced run sets up; `setup_s` is the median.
    pub setups: usize,
    /// Scales warm-up lengths; 1 except in the smoke tests.
    pub warmup_scale: f64,
    /// When the process started, for the first set-up's clock.
    pub process_start: Instant,
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// No correctness check failed.
    pub correct: bool,
    /// Client ops issued plus keys audited.
    pub attempted: u64,
    /// Ops that returned `Err`, hits with the wrong value, audit
    /// mismatches and replay errors.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind.
    pub metrics: Vec<(String, f64)>,
}

/// What the cache must return for a key.
enum Oracle {
    /// One client: the length of the key's last acknowledged SET, 0 for
    /// a key never set or deleted. Indexed by key; trace keys are dense.
    LastLen(Vec<u32>),
    /// Contending clients: a shared key has no single last writer, so
    /// the trace makes SET size a pure function of the key.
    ByKey(Arc<Vec<u32>>),
}

impl Oracle {
    fn expected(&self, key: u64) -> u32 {
        let table = match self {
            Oracle::LastLen(t) => t.as_slice(),
            Oracle::ByKey(t) => t.as_slice(),
        };
        table.get(key as usize).copied().unwrap_or(0)
    }

    fn acknowledged(&mut self, key: u64, len: u32) {
        if let Oracle::LastLen(t) = self {
            let k = key as usize;
            if k >= t.len() {
                t.resize((k + 1).next_power_of_two(), 0);
            }
            t[k] = len;
        }
    }
}

/// The calls a client makes, over either entry point.
trait Client {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError>;
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError>;
    fn delete(&mut self, key: u64) -> Result<bool, CacheError>;
    /// The client's virtual clock, where one exists: a pool's clock is
    /// per shard and behind the shard lock, and taking that lock around
    /// every op would distort the contention being measured.
    fn now_ns(&self) -> Option<u64>;
}

impl Client for HybridCache {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        HybridCache::get(self, key)
    }
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        HybridCache::put(self, key, value)
    }
    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        HybridCache::delete(self, key)
    }
    fn now_ns(&self) -> Option<u64> {
        Some(HybridCache::now_ns(self))
    }
}

impl Client for &ConcurrentPool {
    fn get(&mut self, key: u64) -> Result<(GetOutcome, Option<Value>), CacheError> {
        ConcurrentPool::get(self, key)
    }
    fn put(&mut self, key: u64, value: Value) -> Result<(), CacheError> {
        ConcurrentPool::put(self, key, value)
    }
    fn delete(&mut self, key: u64) -> Result<bool, CacheError> {
        ConcurrentPool::delete(self, key)
    }
    fn now_ns(&self) -> Option<u64> {
        None
    }
}

/// Outcome class of one client op; indexes the per-class histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    GetRam = 0,
    GetSoc = 1,
    GetLoc = 2,
    GetMiss = 3,
    /// A SET that only touched DRAM (its virtual cost is the host op).
    PutRamOnly = 4,
    /// A SET whose eviction reached flash.
    PutFlush = 5,
}

const CLASSES: usize = 6;

/// Issues one request and checks the reply against the oracle. Returns
/// the reply's class (a SET is `PutRamOnly` until its clock delta says
/// otherwise) and whether the op failed.
fn exec<C: Client + ?Sized>(c: &mut C, req: Request, oracle: &mut Oracle) -> (Class, bool) {
    match req.op {
        Op::Get => match c.get(req.key) {
            Ok((outcome, value)) => {
                let expected = oracle.expected(req.key);
                let wrong = value.is_some_and(|v| expected == 0 || v != Value::synthetic(expected));
                let class = match outcome {
                    GetOutcome::RamHit => Class::GetRam,
                    GetOutcome::SocHit => Class::GetSoc,
                    GetOutcome::LocHit => Class::GetLoc,
                    GetOutcome::Miss => Class::GetMiss,
                };
                (class, wrong)
            }
            Err(_) => (Class::GetMiss, true),
        },
        Op::Set => match c.put(req.key, Value::synthetic(req.size)) {
            Ok(()) => {
                oracle.acknowledged(req.key, req.size);
                (Class::PutRamOnly, false)
            }
            Err(_) => (Class::PutRamOnly, true),
        },
        Op::Delete => match c.delete(req.key) {
            Ok(_) => {
                oracle.acknowledged(req.key, 0);
                (Class::PutRamOnly, false)
            }
            Err(_) => (Class::PutRamOnly, true),
        },
    }
}

/// When a stretch of the measured loop ends.
#[derive(Clone, Copy)]
enum Stop {
    /// At this op index: the quota the simulated metrics are taken over.
    AtOp(u64),
    /// Once the wall clock passes this instant.
    AtDeadline(Instant),
}

/// What one client did in the measured region.
struct ClientRun {
    ops: u64,
    failed: u64,
    /// Virtual-clock delta of each GET / SET, in op order.
    get_sim: Vec<u32>,
    set_sim: Vec<u32>,
    gets: u64,
    hits: u64,
    /// Wall-clock time of each op by class; empty unless ops were timed.
    wall: Vec<Histogram>,
}

impl ClientRun {
    fn new(wall: bool) -> Self {
        ClientRun {
            ops: 0,
            failed: 0,
            get_sim: Vec::new(),
            set_sim: Vec::new(),
            gets: 0,
            hits: 0,
            wall: if wall { (0..CLASSES).map(|_| Histogram::new()).collect() } else { Vec::new() },
        }
    }

    fn absorb(&mut self, other: ClientRun) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.get_sim.extend(other.get_sim);
        self.set_sim.extend(other.set_sim);
        self.gets += other.gets;
        self.hits += other.hits;
        if self.wall.is_empty() {
            self.wall = other.wall;
        } else {
            for (a, b) in self.wall.iter_mut().zip(&other.wall) {
                a.merge(b);
            }
        }
    }
}

/// How a stretch of the loop observes its ops.
#[derive(Clone, Copy)]
struct Observe {
    /// Keep each op's virtual-clock delta.
    sim: bool,
    /// Time each op with `Instant` and class it.
    wall: bool,
    /// Virtual cost of an op that only touched DRAM.
    host_op_ns: u64,
}

/// The closed loop: walks `trace` from op index `from` (wrapping) until
/// `stop`, each op issued only after the previous one returned.
fn drive<C: Client + ?Sized>(
    c: &mut C,
    oracle: &mut Oracle,
    trace: &[Request],
    from: u64,
    stop: Stop,
    observe: Observe,
) -> ClientRun {
    let mut run = ClientRun::new(observe.wall);
    let len = trace.len() as u64;
    let mut i = from;
    loop {
        match stop {
            Stop::AtOp(n) if i >= n => break,
            Stop::AtDeadline(t)
                if (i - from).is_multiple_of(DEADLINE_CHECK_OPS) && Instant::now() >= t =>
            {
                break
            }
            _ => {}
        }
        let req = trace[(i % len) as usize];
        let sim0 = if observe.sim { c.now_ns() } else { None };
        let wall0 = observe.wall.then(Instant::now);
        let (mut class, failed) = exec(c, req, oracle);
        let wall = wall0.map(|t| t.elapsed());
        let sim = sim0.and_then(|t0| c.now_ns().map(|t1| (t1 - t0).min(u32::MAX as u64) as u32));
        run.failed += u64::from(failed);
        if req.op == Op::Get {
            run.gets += 1;
            run.hits += u64::from(class != Class::GetMiss);
        }
        if let Some(sim) = sim {
            if req.op == Op::Get {
                run.get_sim.push(sim);
            } else {
                run.set_sim.push(sim);
                if sim as u64 > observe.host_op_ns {
                    class = Class::PutFlush;
                }
            }
        }
        if let Some(wall) = wall {
            run.wall[class as usize].record(wall.as_nanos() as u64);
        }
        i += 1;
    }
    run.ops = i - from;
    run
}

/// A stack brought to steady state, with everything the measured region
/// walks already in memory.
struct Prepared {
    stack: Stack,
    /// One request vector per client.
    traces: Vec<Vec<Request>>,
    oracles: Vec<Oracle>,
    /// Virtual cost of an op that only touched DRAM, as observed during
    /// warm-up (the smallest clock delta of any op).
    host_op_ns: u64,
    setup_ops: u64,
    setup_failed: u64,
    gen_ns_per_req: f64,
}

/// Ops per client the simulated metrics are taken over.
fn quota(w: &Workload, seconds: f64) -> u64 {
    ((w.quota_ops_per_s as f64 * seconds) as u64).max(1)
}

fn keyspace(w: &Workload, namespace_bytes: u64) -> u64 {
    match w.keyspace {
        Keyspace::FlashMultiple(m) => (w.profile)().keyspace_for(namespace_bytes, m),
        Keyspace::Keys(k) => k,
    }
}

/// Builds the stack and brings it to steady state: device build and
/// pre-fault, warm-up or preload, and generation of the measured
/// request vectors.
fn prepare(w: &Workload, args: &RunArgs, traced: bool) -> Prepared {
    let mut stack = stack::build(w, traced);
    let profile = (w.profile)();
    let keys = keyspace(w, stack::namespace_bytes(w, &stack.ftl));
    let mut gens: Vec<TraceGen> =
        (0..w.clients).map(|c| profile.generator(keys, args.seed + c as u64)).collect();
    // With contending clients the SET size must be a function of the key
    // alone, so one table overrides what each stream remembers per rank.
    let sizes: Option<Arc<Vec<u32>>> = (w.clients > 1).then(|| {
        let mut rng = StdRng::seed_from_u64(args.seed);
        Arc::new((0..keys).map(|_| profile.sizes.sample(&mut rng).max(1)).collect())
    });
    let resize = |mut r: Request| {
        if let Some(t) = &sizes {
            r.size = t[r.key as usize];
        }
        r
    };
    let mut oracles: Vec<Oracle> = (0..w.clients)
        .map(|_| match &sizes {
            Some(t) => Oracle::ByKey(Arc::clone(t)),
            None => Oracle::LastLen(Vec::new()),
        })
        .collect();

    let mut setup_ops = 0u64;
    let mut setup_failed = 0u64;
    let mut host_op_ns = u64::MAX;
    {
        let mut pool_client;
        let client: &mut dyn Client = match &mut stack.target {
            Target::Cache(c) => &mut **c,
            Target::Pool(p) => {
                pool_client = &*p;
                &mut pool_client
            }
        };
        let mut step = |req: Request, oracle: &mut Oracle| {
            let t0 = client.now_ns();
            let (_, failed) = exec(client, req, oracle);
            if let (Some(t0), Some(t1)) = (t0, client.now_ns()) {
                host_op_ns = host_op_ns.min(t1 - t0);
            }
            setup_ops += 1;
            setup_failed += u64::from(failed);
        };
        match w.warmup {
            Warmup::Turnovers(turnovers) => {
                let raw = stack.ftl.geometry.total_pages() * BLOCK_BYTES as u64;
                let target = (raw as f64 * turnovers * args.warmup_scale) as u64;
                let ctrl = Arc::clone(&stack.ctrl);
                let mut n = 0u64;
                // The log page takes the media lock, so look only now and then.
                while !n.is_multiple_of(64) || ctrl.fdp_stats_log().host_bytes_written < target {
                    let req = resize(gens[0].next_request());
                    step(req, &mut oracles[0]);
                    n += 1;
                }
            }
            Warmup::Preload { ops } => {
                let table = sizes.as_deref().expect("preload workloads share a size table");
                for (key, &size) in table.iter().enumerate() {
                    step(Request { op: Op::Set, key: key as u64, size }, &mut oracles[0]);
                }
                let ops = (ops as f64 * args.warmup_scale) as u64;
                for (gen, oracle) in gens.iter_mut().zip(&mut oracles) {
                    for _ in 0..ops {
                        step(resize(gen.next_request()), oracle);
                    }
                }
            }
        }
    }

    let n = quota(w, args.seconds);
    let cap = if profile.churn_per_op == 0.0 { LOOPED_TRACE_CAP } else { u64::MAX };
    let len = (n + n / 2).min(cap).max(1) as usize;
    let t = Instant::now();
    let traces: Vec<Vec<Request>> =
        gens.iter_mut().map(|g| (0..len).map(|_| resize(g.next_request())).collect()).collect();
    let gen_ns_per_req = t.elapsed().as_nanos() as f64 / (len * w.clients) as f64;

    Prepared {
        stack,
        traces,
        oracles,
        host_op_ns: if host_op_ns == u64::MAX { 0 } else { host_op_ns },
        setup_ops,
        setup_failed,
        gen_ns_per_req,
    }
}

/// The measured region of one prepared stack.
struct Measured {
    /// Ops of all clients in the timed region, and its wall-clock length
    /// from the common start to the last client's finish.
    ops: u64,
    wall: Duration,
    /// Ops and counter deltas of the window the simulated metrics are
    /// taken over. Its length is a fixed op count, so everything read
    /// from it repeats exactly under one seed: with one client the first
    /// `quota` ops of the timed region; with two, a single-threaded pass
    /// that alternates between the clients' streams before the timed
    /// region (contending threads interleave differently every time).
    sim_ops: u64,
    window: Snapshot,
    /// Absolute counters at the end of that window, for `sim_match`.
    mark: Snapshot,
    /// Counter deltas over the timed region, which the recorded command
    /// stream and the per-class timings belong to. With one client this
    /// is `window`.
    counters: Snapshot,
    run: ClientRun,
    /// What the clocked pass saw; empty when none ran.
    pass: ClientRun,
    /// Recorder positions of the timed region's commands (traced runs).
    region: (usize, usize),
    /// 1-client throughput before the 2-client region, when asked for.
    solo_kops: f64,
}

impl Measured {
    /// Throughput of the timed region.
    fn host_kops(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64() / 1e3
    }
}

fn cache_of(stack: &mut Stack) -> &mut HybridCache {
    match &mut stack.target {
        Target::Cache(c) => c,
        Target::Pool(_) => unreachable!("1-client workloads build a HybridCache"),
    }
}

fn pool_of(stack: &Stack) -> &ConcurrentPool {
    match &stack.target {
        Target::Pool(p) => p,
        Target::Cache(_) => unreachable!("2-client workloads build a ConcurrentPool"),
    }
}

/// One client's share of the timed region: `n` ops from op index
/// `from`, then on until `span` has passed since it started.
fn client_region<C: Client>(
    c: &mut C,
    oracle: &mut Oracle,
    trace: &[Request],
    from: u64,
    n: u64,
    span: Duration,
    observe: Observe,
) -> (ClientRun, Duration) {
    let t0 = Instant::now();
    let mut run = drive(c, oracle, trace, from, Stop::AtOp(from + n), observe);
    let rest = drive(c, oracle, trace, from + n, Stop::AtDeadline(t0 + span), observe);
    run.absorb(rest);
    (run, t0.elapsed())
}

/// How to run a measured region.
#[derive(Clone, Copy)]
struct Region {
    /// Ops per client the simulated window covers.
    n: u64,
    /// Wall-clock length; the region runs on past `n` ops until then.
    span: Duration,
    /// Time every op with `Instant` and class it (traced runs).
    wall_timing: bool,
    /// On a pool, first serve client 0 alone for half of `n` and `span`.
    solo: bool,
    /// Requests of the clocked pass (a write-only trace's read-back, a
    /// pool's simulated window); 0 skips it.
    pass_ops: usize,
}

/// Runs the measured region: `n` ops per client, then on until `span`
/// has passed.
fn measure(p: &mut Prepared, region: Region) -> Measured {
    let Region { n, span, wall_timing, solo, pass_ops } = region;
    let Prepared { stack, traces, oracles, host_op_ns, .. } = p;
    let recorded = |stack: &Stack| stack.recorder.as_ref().map_or(0, |r| r.len());
    let quiet = Observe { sim: false, wall: false, host_op_ns: *host_op_ns };

    if traces.len() == 1 {
        let before = Snapshot::take(stack);
        let region_start = recorded(stack);
        let observe = Observe { sim: true, wall: wall_timing, ..quiet };
        let t0 = Instant::now();
        let mut run =
            drive(cache_of(stack), &mut oracles[0], &traces[0], 0, Stop::AtOp(n), observe);
        // Still inside the timed region: reading the counters costs
        // microseconds against seconds.
        let mark = Snapshot::take(stack);
        let region_end = recorded(stack);
        // A write-only trace is read back here, with the wall clock
        // stopped, so that what the read-back sees is a function of the
        // seed and not of how far past the quota this host gets.
        let pause = Instant::now();
        let trace = &traces[0];
        let pass = if trace.iter().any(|r| r.op == Op::Get) {
            ClientRun::new(false)
        } else {
            // Keys evenly spaced over what the window wrote.
            let count = pass_ops.min(n as usize);
            let stride = (n as usize / count.max(1)).max(1);
            let keys = (0..count).map(|i| (0, Request { op: Op::Get, ..trace[i * stride] }));
            clocked_pass(stack, keys, oracles)
        };
        let paused = pause.elapsed();
        let rest = drive(
            cache_of(stack),
            &mut oracles[0],
            &traces[0],
            n,
            Stop::AtDeadline(t0 + span + paused),
            Observe { sim: false, ..observe },
        );
        let wall = t0.elapsed() - paused;
        run.absorb(rest);
        let window = mark.delta(&before);
        return Measured {
            ops: run.ops,
            wall,
            sim_ops: n,
            window,
            mark,
            counters: window,
            run,
            pass,
            region: (region_start, region_end),
            solo_kops: 0.0,
        };
    }

    // The simulated window: both streams, alternating, one op at a time.
    let clients = traces.len();
    let pass_ops = pass_ops.min(traces[0].len() * clients) / clients * clients;
    let before = Snapshot::take(stack);
    let alternating = (0..pass_ops).map(|i| (i % clients, traces[i % clients][i / clients]));
    let pass = clocked_pass(stack, alternating, oracles);
    let mark = Snapshot::take(stack);
    let from = (pass_ops / clients) as u64;

    let mut solo_kops = 0.0;
    if solo {
        let (run, wall) = client_region(
            &mut pool_of(stack),
            &mut oracles[0],
            &traces[0],
            from,
            n / 2,
            span / 2,
            quiet,
        );
        solo_kops = run.ops as f64 / wall.as_secs_f64() / 1e3;
    }
    let region_before = Snapshot::take(stack);
    let region_start = recorded(stack);
    let pool = pool_of(stack);
    let observe = Observe { wall: wall_timing, ..quiet };
    let barrier = Barrier::new(clients);
    let finished: Vec<(ClientRun, Instant, Instant)> = std::thread::scope(|s| {
        let threads: Vec<_> = traces
            .iter()
            .zip(oracles.iter_mut())
            .map(|(trace, oracle)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = pool;
                    barrier.wait();
                    let t0 = Instant::now();
                    let (run, _) = client_region(&mut c, oracle, trace, from, n, span, observe);
                    (run, t0, Instant::now())
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
    });
    let start = finished.iter().map(|f| f.1).min().expect("at least one client");
    let end = finished.iter().map(|f| f.2).max().expect("at least one client");
    let mut run = ClientRun::new(wall_timing);
    for (r, ..) in finished {
        run.absorb(r);
    }
    let counters = Snapshot::take(stack).delta(&region_before);
    Measured {
        ops: run.ops,
        wall: end - start,
        sim_ops: pass_ops as u64,
        window: mark.delta(&before),
        mark,
        counters,
        run,
        pass,
        region: (region_start, recorded(stack)),
        solo_kops,
    }
}

/// Issues `requests` one at a time from this thread, each under its
/// shard's lock so that the shard clock can be read around it. That is
/// how a simulated latency is obtained where the timed region cannot
/// give one: a pool's clients have no clock of their own, and a
/// write-only trace has no GETs. Each request names the oracle (client)
/// it belongs to.
fn clocked_pass(
    stack: &mut Stack,
    requests: impl Iterator<Item = (usize, Request)>,
    oracles: &mut [Oracle],
) -> ClientRun {
    let mut run = ClientRun::new(false);
    for (client, req) in requests {
        let (class, failed, sim) = stack.target.on_shard_of(req.key, |c| {
            let t0 = c.now_ns();
            let (class, failed) = exec(c, req, &mut oracles[client]);
            (class, failed, (c.now_ns() - t0).min(u32::MAX as u64) as u32)
        });
        run.ops += 1;
        run.failed += u64::from(failed);
        if req.op == Op::Get {
            run.gets += 1;
            run.hits += u64::from(class != Class::GetMiss);
            run.get_sim.push(sim);
        } else {
            run.set_sim.push(sim);
        }
    }
    run
}

/// Verifies on-flash bytes of sampled keys and the structural
/// invariants of FTL and DRAM cache. Returns `(keys audited,
/// mismatches)`; an invariant violation panics.
fn audit(p: &mut Prepared) -> (u64, u64) {
    let persisted = p.stack.target.persisted_keys();
    let mut keys: Vec<u64> = if persisted.len() > AUDIT_KEYS {
        let stride = persisted.len() / AUDIT_KEYS;
        persisted.iter().step_by(stride).take(AUDIT_KEYS).copied().collect()
    } else {
        persisted
    };
    // Top up from the request stream: keys that are DRAM-only or gone
    // must verify as absent, never as a mismatch.
    let trace = &p.traces[0];
    if let Some(stride) = trace.len().checked_div(AUDIT_KEYS - keys.len()) {
        keys.extend(
            trace.iter().step_by(stride.max(1)).take(AUDIT_KEYS - keys.len()).map(|r| r.key),
        );
    }
    let mismatches =
        keys.iter().filter(|&&k| p.stack.target.verify(k) == FlashVerify::Mismatch).count();
    p.stack.ctrl.with_ftl(|f| f.check_invariants());
    p.stack.target.each_shard(|c| c.ram().check_invariants());
    (keys.len() as u64, mismatches as u64)
}

/// `fleet.route.p50_ns`: the cost of one `FleetRouter::route` call over
/// the key stream, on two small devices.
fn fleet_route_p50_ns(trace: &[Request]) -> f64 {
    const BATCH: usize = 16;
    let devices = (0..2)
        .map(|i| {
            let ctrl: SharedController = Arc::new(
                Controller::new(FtlConfig::tiny_test(), Box::new(MemStore::new()))
                    .expect("tiny_test validates"),
            );
            let config = CacheConfig {
                ram_bytes: 64 << 10,
                nvm: NvmConfig {
                    soc_fraction: 0.1,
                    region_bytes: 16 * 4096,
                    ..NvmConfig::default()
                },
                ..CacheConfig::default()
            };
            let pool =
                ConcurrentPool::new(&ctrl, &config, 1, 0.9, || Box::new(RoundRobinPolicy::new()))
                    .expect("tiny pool builds");
            FleetDevice { name: format!("dev{i}"), ctrl, pool }
        })
        .collect();
    let router = FleetRouter::new(devices, DEFAULT_VNODES, HealthConfig::default())
        .expect("two devices, non-zero vnodes");
    let mut per_call = Histogram::new();
    for batch in trace.chunks_exact(BATCH).take(8192) {
        let t = Instant::now();
        for r in batch {
            std::hint::black_box(router.route(std::hint::black_box(r.key)));
        }
        per_call.record(t.elapsed().as_nanos() as u64 / BATCH as u64);
    }
    per_call.p50() as f64
}

/// Theorem 1's DLWA for this workload's geometry: the SOC as uniform
/// random page writes over its own size plus the device OP when FDP
/// segregates it; without FDP the whole namespace shares the OP, so the
/// model's only available reading is uniform writes over all of it.
fn analytic_dlwa(w: &Workload, ftl: &FtlConfig) -> f64 {
    let namespace = stack::namespace_bytes(w, ftl) as f64;
    let raw = (ftl.geometry.total_pages() * BLOCK_BYTES as u64) as f64;
    let logical = if w.fdp { namespace * NvmConfig::default().soc_fraction } else { namespace };
    dlwa_theorem1(logical, logical + (raw - namespace)).unwrap_or(0.0)
}

/// Runs `w` once as `args` describes.
pub fn run(w: &Workload, args: &RunArgs) -> RunReport {
    if args.traced {
        run_traced(w, args)
    } else {
        run_untraced(w, args)
    }
}

struct Checked {
    measured: Measured,
    audited: u64,
    attempted: u64,
    failed: u64,
}

/// The measured region of a run as the command line describes it.
fn region(w: &Workload, args: &RunArgs, wall_timing: bool) -> Region {
    Region {
        n: quota(w, args.seconds),
        span: Duration::from_secs_f64(args.seconds),
        wall_timing,
        solo: false,
        pass_ops: ((PASS_OPS_PER_S * args.seconds) as usize).max(1),
    }
}

fn measure_and_check(p: &mut Prepared, w: &Workload, args: &RunArgs, wall_timing: bool) -> Checked {
    let measured = measure(p, region(w, args, wall_timing));
    let (audited, mismatches) = audit(p);
    let attempted = p.setup_ops + measured.ops + measured.pass.ops + audited;
    let failed = p.setup_failed + measured.run.failed + measured.pass.failed + mismatches;
    Checked { measured, audited, attempted, failed }
}

/// Virtual-time latency of one op kind, in microseconds.
struct SimLatency {
    mean: f64,
    p50: f64,
    p99: f64,
}

fn sim_latency(samples: &mut [u32]) -> Option<SimLatency> {
    let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64 / 1e3;
    Some(SimLatency {
        mean,
        p50: percentile(samples, 50.0)? as f64 / 1e3,
        p99: percentile(samples, 99.0)? as f64 / 1e3,
    })
}

/// The simulated GET and SET latencies and the hit ratio of a run: from
/// the timed region where it has them, else from the clocked pass.
fn sim_view(m: &mut Measured) -> (Option<SimLatency>, Option<SimLatency>, f64) {
    let (region, pass) = (&mut m.run, &mut m.pass);
    let gets = if region.get_sim.is_empty() { &mut pass.get_sim } else { &mut region.get_sim };
    let sets = if region.set_sim.is_empty() { &mut pass.set_sim } else { &mut region.set_sim };
    let stats = &m.window.cache;
    let hit_ratio =
        if stats.gets > 0 { stats.hit_ratio() } else { pass.hits as f64 / pass.gets.max(1) as f64 };
    (sim_latency(gets), sim_latency(sets), hit_ratio)
}

fn run_untraced(w: &Workload, args: &RunArgs) -> RunReport {
    let mut setups = Vec::new();
    let mut prepared = None;
    for i in 0..args.setups.max(1) {
        // Tear the previous stack down first: its slab is not part of
        // this set-up's cost or of the peak resident set.
        drop(prepared.take());
        let t0 = if i == 0 { args.process_start } else { Instant::now() };
        prepared = Some(prepare(w, args, false));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut p = prepared.expect("at least one set-up ran");
    let mut c = measure_and_check(&mut p, w, args, false);
    let (gets, sets, hit_ratio) = sim_view(&mut c.measured);
    let m = &c.measured;
    let mut missing = Vec::new();
    let mut need = |name: &str, v: Option<f64>| {
        v.unwrap_or_else(|| {
            missing.push(name.to_string());
            0.0
        })
    };
    let metrics = vec![
        ("setup_s".to_string(), median(&setups).expect("at least one set-up ran")),
        ("host_kops".to_string(), m.host_kops()),
        ("sim_kops".to_string(), m.sim_ops as f64 / (m.window.now_ns as f64 * 1e-9) / 1e3),
        ("sim_get_mean_us".to_string(), need("sim_get_mean_us", gets.map(|l| l.mean))),
        ("sim_set_mean_us".to_string(), need("sim_set_mean_us", sets.map(|l| l.mean))),
        ("dlwa".to_string(), m.window.dlwa()),
        ("alwa".to_string(), m.window.alwa()),
        ("hit_ratio".to_string(), hit_ratio),
        ("peak_rss_mib".to_string(), host::peak_rss_mib()),
    ];
    for name in &missing {
        eprintln!("{}: no sample for {name}", w.name);
    }
    RunReport {
        correct: c.failed == 0 && missing.is_empty(),
        attempted: c.attempted,
        failed: c.failed,
        metrics,
    }
}

fn run_traced(w: &Workload, args: &RunArgs) -> RunReport {
    let cpu0 = host::cpu_times();
    let mut p = prepare(w, args, true);
    let setup_sys_s = host::cpu_times().1 - cpu0.1;
    let mut traced = measure_and_check(&mut p, w, args, true);
    let (sim_gets, sim_sets, _) = sim_view(&mut traced.measured);
    let tm = &traced.measured;

    // Per-layer costs: the recorded stream, replayed at each boundary.
    let fleet_p50 = fleet_route_p50_ns(&p.traces[0]);
    let gen_ns_per_req = p.gen_ns_per_req;
    let cmds: Vec<Cmd> = p.stack.recorder.as_ref().expect("traced stack records").snapshot();
    let (namespaces, places) = stack::layout(&mut p.stack, w.fdp);
    let ftl = p.stack.ftl.clone();
    // The traced stack's slab goes before the replay builds its own.
    drop(p);
    let (region_start, region_end) = tm.region;
    let replay: ReplayCost = Recording {
        cmds: &cmds,
        region_start,
        region_end,
        ftl: &ftl,
        fdp: w.fdp,
        namespaces: &namespaces,
        places: &places,
    }
    .replay();
    let region_cmds = &cmds[region_start..region_end];

    // The same workload untraced, on a plain `MemStore`: what tracing
    // costs, and whether it changed anything simulated. One client need
    // only reach the op quota the simulated window ends at; a pool runs
    // half the region, after serving one client alone for a quarter of
    // it, for the 2-versus-1 scaling.
    let mut q = prepare(w, args, false);
    let full = region(w, args, false);
    let reference = measure(
        &mut q,
        if w.clients == 1 {
            Region { span: Duration::ZERO, ..full }
        } else {
            Region { n: full.n / 2, span: full.span / 2, solo: true, ..full }
        },
    );
    let (ref_ops, ref_failed) =
        (q.setup_ops + reference.ops, q.setup_failed + reference.run.failed);
    drop(q);
    let rm = &reference;
    let sim_match = tm.mark == rm.mark;

    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    put("workloads.gen.ns_per_req", gen_ns_per_req);
    put("fleet.route.p50_ns", fleet_p50);

    // Client ops by outcome class, under the entry point they went to.
    let wall = &tm.run.wall;
    let total_ns: u128 = wall.iter().map(Histogram::sum).sum();
    let mut class = |layer: &str, name: &str, members: &[Class], live: bool| {
        let mut h = Histogram::new();
        if live {
            for &m in members {
                h.merge(&wall[m as usize]);
            }
        }
        put(&format!("{layer}.{name}.count"), h.count() as f64);
        put(&format!("{layer}.{name}.p50_ns"), h.p50() as f64);
        put(&format!("{layer}.{name}.time_share"), h.sum() as f64 / total_ns.max(1) as f64);
    };
    let pool_members: [&[Class]; 4] = [
        &[Class::GetRam],
        &[Class::GetSoc, Class::GetLoc],
        &[Class::GetMiss],
        &[Class::PutRamOnly, Class::PutFlush],
    ];
    for (name, members) in POOL_CLASSES.iter().zip(pool_members) {
        class("pool", name, members, w.clients > 1);
    }
    let cache_members = [
        Class::GetRam,
        Class::GetSoc,
        Class::GetLoc,
        Class::GetMiss,
        Class::PutRamOnly,
        Class::PutFlush,
    ];
    for (name, member) in CACHE_CLASSES.iter().zip(cache_members) {
        class("cache", name, &[member], w.clients == 1);
    }
    put("pool.solo_kops", rm.solo_kops);
    put("pool.scaling_2v1", if rm.solo_kops > 0.0 { rm.host_kops() / rm.solo_kops } else { 0.0 });
    // Traced op time of the window's ops, less what the I/O manager and
    // everything under it cost on replay.
    let window_op_ns = total_ns as f64 * (tm.sim_ops as f64 / tm.ops.max(1) as f64);
    let io_ns = replay.io * region_cmds.len() as f64;
    put(
        "cache.self_ns_per_op",
        if w.clients == 1 { (window_op_ns - io_ns) / tm.sim_ops as f64 } else { 0.0 },
    );

    put("sim.get_p50_us", sim_gets.as_ref().map_or(0.0, |l| l.p50));
    put("sim.get_p99_us", sim_gets.as_ref().map_or(0.0, |l| l.p99));
    put("sim.set_p99_us", sim_sets.as_ref().map_or(0.0, |l| l.p99));
    let d = &tm.counters;
    put("ram.hit_ratio", d.cache.ram_hit_ratio());
    put("ram.evictions", (d.cache.nvm_insert_attempts + d.cache.shed_evictions) as f64);
    put("navy.insert_attempts", d.cache.nvm_insert_attempts as f64);
    put("navy.inserts", d.cache.nvm_inserts as f64);
    put("navy.app_bytes", d.cache.nvm_app_bytes as f64);
    put("soc.lookups", d.soc.lookups as f64);
    put("soc.hits", d.soc.hits as f64);
    put("soc.bloom_rejects", d.soc.bloom_rejects as f64);
    put("soc.rmw_reads", d.soc.rmw_reads as f64);
    put("soc.page_writes", d.soc.page_writes as f64);
    put("loc.lookups", d.loc.lookups as f64);
    put("loc.hits", d.loc.hits as f64);
    put("loc.seals", d.loc.seals as f64);
    put("loc.region_evictions", d.loc.region_evictions as f64);
    put("io.writes", d.io.writes as f64);
    put("io.reads", d.io.reads as f64);
    put("io.discards", d.io.discards as f64);
    put("io.bytes_written", d.io.bytes_written as f64);
    put("io.bytes_read", d.io.bytes_read as f64);
    put("io.replay_ns_per_cmd", replay.io);
    put("io.self_ns_per_cmd", replay.io - replay.controller);
    put("controller.replay_ns_per_cmd", replay.controller);
    put("controller.self_ns_per_cmd", replay.controller - replay.ftl - replay.datastore);
    put("controller.dlwa", d.dlwa());
    put("ftl.replay_ns_per_cmd", replay.ftl);
    put("ftl.gc_runs", d.ftl.gc_runs as f64);
    put("ftl.relocated_pages", d.ftl.relocated_pages as f64);
    put("ftl.rus_erased", d.ftl.rus_erased as f64);
    put("ftl.host_pages_written", d.ftl.host_pages_written as f64);
    put("ftl.nand_pages_written", d.ftl.nand_pages_written as f64);
    put("nand.pages_programmed", d.nand.pages_programmed as f64);
    put("nand.pages_read", d.nand.pages_read as f64);
    put("nand.superblock_erases", d.nand.superblock_erases as f64);

    let store_ns: u64 = region_cmds.iter().map(|c| c.ns as u64).sum();
    for (kind, name) in
        [CmdKind::Write, CmdKind::Read, CmdKind::Discard].into_iter().zip(STORE_KINDS)
    {
        let mut ns: Vec<u32> =
            region_cmds.iter().filter(|c| c.kind == kind).map(|c| c.ns).collect();
        let blocks: u64 =
            region_cmds.iter().filter(|c| c.kind == kind).map(|c| c.nblocks as u64).sum();
        let spent: u64 = ns.iter().map(|&v| v as u64).sum();
        put(&format!("datastore.{name}.calls"), ns.len() as f64);
        put(&format!("datastore.{name}.blocks"), blocks as f64);
        put(&format!("datastore.{name}.p50_ns"), percentile(&mut ns, 50.0).unwrap_or(0) as f64);
        put(&format!("datastore.{name}.time_share"), spent as f64 / store_ns.max(1) as f64);
    }
    put("datastore.replay_ns_per_cmd", replay.datastore);

    let analytic = analytic_dlwa(w, &ftl);
    put("model.dlwa_analytic", analytic);
    put("model.dlwa_rel_err", (analytic - d.dlwa()).abs() / d.dlwa());

    let cpu = host::cpu_times();
    let attempted = traced.attempted + ref_ops;
    let failed = traced.failed + ref_failed + replay.errors;
    put("harness.cpu_user_s", cpu.0 - cpu0.0);
    put("harness.cpu_sys_s", cpu.1 - cpu0.1);
    put("harness.setup_sys_s", setup_sys_s);
    put("harness.trace_overhead_share", rm.host_kops() / tm.host_kops() - 1.0);
    put("harness.sim_match", f64::from(u8::from(sim_match)));
    put("harness.audit_keys", traced.audited as f64);
    put("harness.failed_ops_share", failed as f64 / attempted as f64);

    if !sim_match {
        eprintln!(
            "{}: traced and untraced runs diverged\n traced:   {:?}\n untraced: {:?}",
            w.name, tm.mark, rm.mark
        );
    }
    RunReport { correct: failed == 0 && sim_match, attempted, failed, metrics: out }
}
