//! The five seeded traffic mixes and their request generators.
//!
//! Every request is generated from the run seed alone, together with the
//! canonical hash its response must carry, before the clock that
//! measures it starts. A connection serves one or more *lanes*: a lane
//! is an independent request sequence with its own bound on requests
//! outstanding (a delta chain, which must see each verdict before it
//! names that verdict's hash as its next base, is a lane of depth 1).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use rbs_core::lo_mode::minimal_x_density;
use rbs_core::DeltaOp;
use rbs_json::{Json, ToJson};
use rbs_model::{
    scaled_task_set, CanonicalTaskSet, Criticality, ImplicitTaskSpec, ScalingFactors, Task, TaskSet,
};
use rbs_partition::{Heuristic, Objective, PartitionSpec, PlatformCap};
use rbs_rng::Rng;
use rbs_timebase::Rational;

/// Connections driven per run; every connection has its own thread.
pub const CONNECTIONS: usize = 2;

/// Requests each connection keeps outstanding.
pub const DEPTH: usize = 4;

/// Distinct sets the `hit` workload primes and then draws from.
pub const HIT_SETS: usize = 64;

/// Resident fleets of the `delta_chain` workload, split evenly over the
/// connections (one lane each).
pub const CHAINS: usize = 8;

/// The traffic mixes, in the order the benchmark reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Primed sets drawn at random: every request is a cache hit.
    Hit,
    /// A fresh synthetic set per request: every request is analyzed.
    Miss,
    /// Admit/evict/replace deltas chained off the previous verdict.
    DeltaChain,
    /// A fresh `(y, s)` campaign grid per request.
    Sweep,
    /// A fresh 256-task fleet partitioned onto six cores per request.
    Partition,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::Hit,
        Kind::Miss,
        Kind::DeltaChain,
        Kind::Sweep,
        Kind::Partition,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Miss => "miss",
            Kind::DeltaChain => "delta_chain",
            Kind::Sweep => "sweep",
            Kind::Partition => "partition",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether a measured response must come from the result cache. The
    /// other mixes never repeat a request, so each of their responses
    /// must be a fresh analysis.
    #[must_use]
    pub const fn expects_cached(self) -> bool {
        matches!(self, Kind::Hit)
    }

    /// Responses per second to pregenerate warm-up requests for: about
    /// twice what a two-core host reaches. The measured window is then
    /// sized from the rate the warm-up achieved.
    const fn warmup_rate(self) -> f64 {
        match self {
            Kind::Hit => 0.0, // draws from the primed sets, nothing to pregenerate
            Kind::Miss => 4000.0,
            Kind::DeltaChain => 500.0,
            Kind::Sweep => 5000.0,
            Kind::Partition => 450.0,
        }
    }
}

/// One request line and what its response must carry.
#[derive(Debug)]
pub struct Req {
    /// The request line, newline included.
    pub line: String,
    /// The canonical hash the response must echo.
    pub hash: String,
    /// For chained deltas: the chain and the ops, so the inline-base
    /// form of the request can be rebuilt for in-process reference
    /// answers (a hash-keyed base only resolves inside the daemon that
    /// registered it).
    pub delta: Option<(usize, Vec<DeltaOp>)>,
}

impl Req {
    fn new(body: String, hash: String) -> Req {
        Req {
            line: body + "\n",
            hash,
            delta: None,
        }
    }

    /// The request body without its newline.
    #[must_use]
    pub fn body(&self) -> &str {
        self.line.trim_end_matches('\n')
    }
}

/// One independent request sequence on a connection.
#[derive(Debug)]
pub struct Lane {
    /// Requests this lane keeps outstanding.
    pub depth: usize,
    source: Source,
    queue: VecDeque<Arc<Req>>,
    /// Requests generated during the run because the pregenerated queue
    /// ran dry.
    pub late: u64,
}

#[derive(Debug)]
enum Source {
    /// Nothing beyond the queued requests.
    Fixed,
    /// Uniform draws from a fixed pool (the primed `hit` sets).
    Draw { pool: Arc<Vec<Arc<Req>>>, rng: Rng },
    /// Fresh harmonic task sets of 10 to 40 tasks.
    Miss { rng: Rng, seen: HashSet<u64> },
    /// One resident fleet churned by deltas.
    Chain(Box<Chain>),
    /// Fresh campaign grids over 10 harmonic specs.
    Sweep { rng: Rng },
    /// Fresh fleets to partition, alternating the two placement specs.
    Partition { rng: Rng, count: u64 },
}

impl Lane {
    fn new(depth: usize, source: Source) -> Lane {
        Lane {
            depth,
            source,
            queue: VecDeque::new(),
            late: 0,
        }
    }

    /// Pregenerates requests until `count` are queued (draws from a
    /// fixed pool cost nothing and are made as they are sent).
    pub fn fill(&mut self, count: usize) {
        if matches!(self.source, Source::Draw { .. }) {
            return;
        }
        while self.queue.len() < count {
            let Some(req) = self.source.generate() else {
                return;
            };
            self.queue.push_back(req);
        }
    }

    /// A lane that sends `reqs` once, in order (how a daemon is primed).
    #[must_use]
    pub fn fixed(depth: usize, reqs: Vec<Arc<Req>>) -> Lane {
        Lane {
            depth,
            source: Source::Fixed,
            queue: reqs.into(),
            late: 0,
        }
    }

    /// The next request to send; `None` once a fixed lane is done.
    pub fn next_request(&mut self) -> Option<Arc<Req>> {
        if let Some(req) = self.queue.pop_front() {
            return Some(req);
        }
        if !matches!(self.source, Source::Draw { .. } | Source::Fixed) {
            self.late += 1;
        }
        self.source.generate()
    }
}

impl Source {
    fn generate(&mut self) -> Option<Arc<Req>> {
        let req = match self {
            Source::Fixed => return None,
            Source::Draw { pool, rng } => {
                return Some(Arc::clone(&pool[rng.gen_range_usize(0, pool.len() - 1)]))
            }
            Source::Miss { rng, seen } => loop {
                let size = rng.gen_range_usize(10, 40);
                let set = harmonic_set(rng, size);
                let canonical = CanonicalTaskSet::of(&set);
                if seen.insert(canonical.content_hash()) {
                    break Req::new(rbs_json::to_string(&set), canonical.to_string());
                }
            },
            Source::Chain(chain) => chain.step(),
            Source::Sweep { rng } => sweep_request(rng),
            Source::Partition { rng, count } => {
                *count += 1;
                partition_request(rng.next_u64(), *count % 2 == 0)
            }
        };
        Some(Arc::new(req))
    }
}

/// A workload ready to run: the requests that prime a fresh daemon and
/// every connection's lanes.
#[derive(Debug)]
pub struct Workload {
    /// The mix.
    pub kind: Kind,
    /// Requests answered before the clock starts (the `hit` sets, the
    /// inline fleets of `delta_chain`).
    pub priming: Vec<Arc<Req>>,
    /// Lanes of each connection.
    pub conns: Vec<Vec<Lane>>,
    /// The fleets the delta chains start from (empty for other mixes).
    pub chain_bases: Vec<TaskSet>,
}

impl Workload {
    /// Generates the `kind` mix from `seed`, with warm-up requests for
    /// `warmup` seconds at the mix's warm-up rate.
    #[must_use]
    pub fn generate(kind: Kind, seed: u64, warmup: f64) -> Workload {
        let mut rng = Rng::seed_from_u64(seed ^ 0xE2E0_0000 ^ kind as u64);
        let mut priming = Vec::new();
        let mut chain_bases = Vec::new();
        let mut conns: Vec<Vec<Lane>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
        match kind {
            Kind::Hit => {
                let mut seen = HashSet::new();
                while priming.len() < HIT_SETS {
                    let set = harmonic_set(&mut rng, 20);
                    let canonical = CanonicalTaskSet::of(&set);
                    if seen.insert(canonical.content_hash()) {
                        priming.push(Arc::new(Req::new(
                            rbs_json::to_string(&set),
                            canonical.to_string(),
                        )));
                    }
                }
                let pool = Arc::new(priming.clone());
                for lanes in &mut conns {
                    let source = Source::Draw {
                        pool: Arc::clone(&pool),
                        rng: Rng::seed_from_u64(rng.next_u64()),
                    };
                    lanes.push(Lane::new(DEPTH, source));
                }
            }
            Kind::DeltaChain => {
                for id in 0..CHAINS {
                    let fleet = rbs_bench::fleet_set(256, rng.next_u64());
                    let (chain, first) = Chain::start(id, fleet.clone(), rng.next_u64());
                    chain_bases.push(fleet);
                    priming.push(Arc::new(first));
                    let lane = Lane::new(1, Source::Chain(Box::new(chain)));
                    conns[id * CONNECTIONS / CHAINS].push(lane);
                }
            }
            Kind::Miss | Kind::Sweep | Kind::Partition => {
                for lanes in &mut conns {
                    let rng = Rng::seed_from_u64(rng.next_u64());
                    let source = match kind {
                        Kind::Miss => Source::Miss {
                            rng,
                            seen: HashSet::new(),
                        },
                        Kind::Sweep => Source::Sweep { rng },
                        _ => Source::Partition { rng, count: 0 },
                    };
                    lanes.push(Lane::new(DEPTH, source));
                }
            }
        }
        let mut workload = Workload {
            kind,
            priming,
            conns,
            chain_bases,
        };
        workload.fill(kind.warmup_rate(), warmup);
        workload
    }

    /// Pregenerates requests for `seconds` of traffic at `rate` responses
    /// per second, spread evenly over every lane; each connection's lanes
    /// are filled on a thread of their own.
    pub fn fill(&mut self, rate: f64, seconds: f64) {
        let lanes: usize = self.conns.iter().map(Vec::len).sum();
        let per_lane = (rate * seconds / lanes as f64).ceil() as usize;
        std::thread::scope(|scope| {
            for lanes in &mut self.conns {
                scope.spawn(move || {
                    for lane in lanes {
                        lane.fill(per_lane);
                    }
                });
            }
        });
    }

    /// The inline-base form of a chained delta that followed `history`
    /// (the chain's earlier ops, in order) — what an in-process service
    /// that never saw the chain answers identically.
    #[must_use]
    pub fn inline_delta(&self, chain: usize, history: &[&[DeltaOp]], ops: &[DeltaOp]) -> String {
        let mut base = self.chain_bases[chain].clone();
        for op in history.iter().flat_map(|ops| ops.iter()) {
            op.apply_to(&mut base)
                .expect("chain ops were validated when generated");
        }
        delta_body(base.to_json(), ops)
    }
}

/// The wire form of a delta request.
fn delta_body(base: Json, ops: &[DeltaOp]) -> String {
    let ops = ops
        .iter()
        .map(|op| {
            let (kind, body) = match op {
                DeltaOp::Admit(task) => ("admit", task.to_json()),
                DeltaOp::Evict(id) => ("evict", Json::Str(id.clone())),
                DeltaOp::Replace { id, task } => (
                    "replace",
                    Json::Object(vec![
                        ("id".to_owned(), Json::Str(id.clone())),
                        ("task".to_owned(), task.to_json()),
                    ]),
                ),
            };
            Json::Object(vec![(kind.to_owned(), body)])
        })
        .collect();
    let delta = Json::Object(vec![
        ("base".to_owned(), base),
        ("ops".to_owned(), Json::Array(ops)),
    ]);
    Json::Object(vec![("delta".to_owned(), delta)]).render()
}

/// A resident fleet and the delta stream churning it. No state repeats
/// (a revisited set would answer from the cache and name a base the
/// registry may have retired), so every request is a fresh splice.
#[derive(Debug)]
struct Chain {
    id: usize,
    rng: Rng,
    set: TaskSet,
    hash: String,
    seen: HashSet<u64>,
    admitted: u64,
    /// The starting fleet's size.
    size: usize,
}

/// Harmonic period menu of `rbs_bench::fleet_set`: admitted tasks keep
/// the resident timebase, so splices stay in place.
const PERIOD_MENU: [i128; 10] = [256, 384, 512, 640, 768, 896, 1024, 1280, 1536, 1920];

impl Chain {
    /// The chain on `fleet` and its first request, which ships the fleet
    /// inline.
    fn start(id: usize, fleet: TaskSet, seed: u64) -> (Chain, Req) {
        let mut chain = Chain {
            id,
            rng: Rng::seed_from_u64(seed),
            set: fleet.clone(),
            hash: String::new(),
            seen: HashSet::from([CanonicalTaskSet::of(&fleet).content_hash()]),
            admitted: 0,
            size: fleet.len(),
        };
        let ops = chain.advance();
        let mut req = Req::new(delta_body(fleet.to_json(), &ops), chain.hash.clone());
        req.delta = Some((id, ops));
        (chain, req)
    }

    /// The next delta, keyed on the hash of the chain's current set.
    fn step(&mut self) -> Req {
        let base = Json::Str(self.hash.clone());
        let ops = self.advance();
        let mut req = Req::new(delta_body(base, &ops), self.hash.clone());
        req.delta = Some((self.id, ops));
        req
    }

    /// Draws ops (70 % one op, 30 % a batch of 8; admit, evict and
    /// replace in equal shares) until they lead to an unseen set, then
    /// moves the chain there.
    fn advance(&mut self) -> Vec<DeltaOp> {
        loop {
            let count = if self.rng.gen_bool(0.3) { 8 } else { 1 };
            let mut set = self.set.clone();
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let op = self.random_op(&set);
                op.apply_to(&mut set)
                    .expect("ops name live tasks and fresh admissions");
                ops.push(op);
            }
            let canonical = CanonicalTaskSet::of(&set);
            if self.seen.insert(canonical.content_hash()) {
                self.set = set;
                self.hash = canonical.to_string();
                return ops;
            }
        }
    }

    /// Admit, evict and replace in equal shares while the fleet holds its
    /// starting size; the admit/evict split leans against any drift, so
    /// fleets (and the reports and registry entries they fill memory
    /// with) stay near 256 tasks however long a run lasts.
    fn random_op(&mut self, set: &TaskSet) -> DeltaOp {
        let pick = |rng: &mut Rng| {
            let task = set
                .get(rng.gen_range_usize(0, set.len() - 1))
                .expect("in range");
            task.name().to_owned()
        };
        let drift = (set.len() as f64 - self.size as f64) / 32.0;
        let admit = (1.0 - drift.clamp(-1.0, 1.0)) / 3.0;
        let draw = self.rng.gen_f64();
        if draw < admit {
            self.admitted += 1;
            let name = format!("c{}a{}", self.id, self.admitted);
            DeltaOp::Admit(fleet_task(&mut self.rng, name))
        } else if draw < 2.0 / 3.0 {
            DeltaOp::Evict(pick(&mut self.rng))
        } else {
            let id = pick(&mut self.rng);
            let task = fleet_task(&mut self.rng, id.clone());
            DeltaOp::Replace { id, task }
        }
    }
}

/// One task drawn like the members of `rbs_bench::fleet_set`.
fn fleet_task(rng: &mut Rng, name: String) -> Task {
    let period = Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
    let wcet = period * Rational::new(rng.gen_range_i128(1, 3), 128);
    if rng.gen_bool(0.4) {
        Task::builder(name, Criticality::Hi)
            .period(period)
            .deadline_lo(period * Rational::new(1, 2))
            .deadline_hi(period)
            .wcet_lo(wcet)
            .wcet_hi(wcet * Rational::TWO)
            .build()
            .expect("fleet HI parameters satisfy eq. (1)")
    } else {
        Task::builder(name, Criticality::Lo)
            .period(period)
            .deadline(period)
            .wcet(wcet)
            .terminated()
            .build()
            .expect("fleet LO parameters satisfy eq. (2)")
    }
}

/// Degradation factors of every sweep grid.
fn sweep_ys() -> Vec<Rational> {
    [
        (1, 1),
        (5, 4),
        (3, 2),
        (7, 4),
        (2, 1),
        (5, 2),
        (3, 1),
        (4, 1),
    ]
    .iter()
    .map(|&(n, d)| Rational::new(n, d))
    .collect()
}

/// Speeds every sweep grid probes `Δ_R` at.
fn sweep_speeds() -> Vec<Rational> {
    [(1, 1), (5, 4), (3, 2), (2, 1), (3, 1)]
        .iter()
        .map(|&(n, d)| Rational::new(n, d))
        .collect()
}

/// Implicit-deadline specs on the fleet's harmonic period menu: 40 % HI
/// tasks whose HI budget doubles the LO one, each using 1/128 to 5/128
/// of a processor in LO mode.
///
/// The workloads draw from this menu rather than from
/// `rbs_bench::synthetic_set`, whose free-range periods exhaust the
/// default breakpoint budget on about half of its draws: a benchmark
/// workload must not fail, and analysis costs should not swing by three
/// orders of magnitude from one request to the next.
fn harmonic_specs(rng: &mut Rng, size: usize) -> Vec<ImplicitTaskSpec> {
    (0..size)
        .map(|i| {
            let period =
                Rational::integer(PERIOD_MENU[rng.gen_range_usize(0, PERIOD_MENU.len() - 1)]);
            let wcet = period * Rational::new(rng.gen_range_i128(1, 5), 128);
            if rng.gen_bool(0.4) {
                ImplicitTaskSpec::hi(format!("h{i}"), period, wcet, wcet * Rational::TWO)
            } else {
                ImplicitTaskSpec::lo(format!("l{i}"), period, wcet)
            }
        })
        .collect()
}

/// [`harmonic_specs`] prepared like `rbs_bench::synthetic_set`: the
/// minimal density-feasible `x` and `y = 2` (tasks are dropped from the
/// tail until such an `x` exists).
fn harmonic_set(rng: &mut Rng, size: usize) -> TaskSet {
    let mut specs = harmonic_specs(rng, size);
    loop {
        if let Some(x) = minimal_x_density(&specs) {
            let x = x.max(Rational::new(1, 1000)).min(Rational::ONE);
            let factors = ScalingFactors::new(x, Rational::TWO).expect("x in (0, 1], y = 2");
            return scaled_task_set(&specs, factors).expect("valid scaling");
        }
        specs.pop();
        assert!(
            !specs.is_empty(),
            "a single harmonic task is always feasible"
        );
    }
}

/// A sweep over 10 harmonic specs with `x` derived by the service.
fn sweep_request(rng: &mut Rng) -> Req {
    let mut specs = harmonic_specs(rng, 10);
    while minimal_x_density(&specs).is_none() {
        specs.pop();
    }
    let (ys, speeds) = (sweep_ys(), sweep_speeds());
    let canonical = CanonicalTaskSet::of_sweep(&specs, None, &ys, &speeds);
    let grid = Json::Object(vec![
        ("specs".to_owned(), specs.to_json()),
        ("ys".to_owned(), ys.to_json()),
        ("speeds".to_owned(), speeds.to_json()),
    ]);
    let body = Json::Object(vec![("sweep".to_owned(), grid)]).render();
    Req::new(body, canonical.to_string())
}

/// A `fleet_set(256, seed)` partition onto 6 cores capped at 2x: first
/// fit under the cap alone, or worst fit sharing a 15/2 overclock
/// budget.
fn partition_request(seed: u64, worst_fit: bool) -> Req {
    let set = rbs_bench::fleet_set(256, seed);
    let max_speedup = Rational::TWO;
    let budget = Rational::new(15, 2);
    let cap = PlatformCap::new(6, max_speedup);
    let (spec, heuristic, objective) = if worst_fit {
        let spec = PartitionSpec::new(cap, Heuristic::WorstFit)
            .with_objective(Objective::SharedBudget(budget));
        let objective = Json::Object(vec![("shared_budget".to_owned(), budget.to_json())]);
        (spec, "worst_fit", objective)
    } else {
        let spec = PartitionSpec::new(cap, Heuristic::FirstFit);
        (spec, "first_fit", Json::Str("cap_only".to_owned()))
    };
    let canonical = CanonicalTaskSet::of_partition(&set, &spec.canonical_detail());
    let request = Json::Object(vec![
        ("tasks".to_owned(), set.to_json()),
        ("cores".to_owned(), Json::Int(6)),
        ("max_speedup".to_owned(), max_speedup.to_json()),
        ("heuristic".to_owned(), Json::Str(heuristic.to_owned())),
        ("objective".to_owned(), objective),
    ]);
    let body = Json::Object(vec![("partition".to_owned(), request)]).render();
    Req::new(body, canonical.to_string())
}
