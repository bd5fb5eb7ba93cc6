//! `serve-zipf`: an in-process `bwb-serve` with the default
//! `ServerConfig` under a closed loop of two clients. Each client sends
//! its next job only after the reply to the previous one arrives, as a
//! caller blocking on a benchmark result does.
//!
//! Request bodies come from the workload seed: a job kind by the shares
//! of the repository's own load generator ([`kind_shares`]), then a draw
//! under that generator's Zipf skew over the kind's catalog. The catalogs are
//! large enough (about 6k distinct jobs) that cache misses continue to
//! the end of a run, so one run exercises both the read path (http,
//! parse, key, cache) and the write path (flight, shard, execute, insert).

use crate::stats::{ms, Report, Samples};
use bwb_machine::ShardPolicy;
use bwb_serve::http;
use bwb_serve::jobs::{ExecContext, Job, TraceStore};
use bwb_serve::key::machine_fingerprint;
use bwb_serve::loadgen::{self, zipf_cdf, LoadConfig};
use bwb_serve::server::{Server, ServerConfig, ServerState};
use bwb_serve::{fnv1a64, ResultCache, ShardPool};
use bwb_trace::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (= concurrent connections).
pub const CLIENTS: usize = 2;
/// Requests per client over which the exact distinct-key count is taken.
pub const KEY_PREFIX: usize = 10_000;
/// Server set-ups timed per run; the last one serves the load.
const SETUPS: usize = 200;
/// Distinct missed jobs per kind re-executed directly in traced runs.
const EXECUTE_SAMPLES: usize = 4;

/// Job kinds of the mix; `ranked` is a `benchmark` job with `ranks`.
pub const KINDS: [&str; 5] = ["benchmark", "ranked", "figure", "analyze", "trace"];

/// Share of `analyze` requests. The repository's load generator sends
/// none, so this share is an assumption, not derived from any traffic.
const ANALYZE_SHARE: f64 = 0.08;

/// Index in [`KINDS`] of a job body's kind.
fn kind_of(body: &str) -> Option<usize> {
    let j = json::parse(body).ok()?;
    let kind = match j.get("kind")?.as_str()? {
        "benchmark" if j.get("ranks").is_some() => "ranked",
        k => k,
    };
    KINDS.iter().position(|&k| k == kind)
}

fn kind_index(name: &str) -> usize {
    KINDS
        .iter()
        .position(|&k| k == name)
        .expect("a kind of the mix")
}

/// Request share of each kind in [`KINDS`]: its share of
/// `loadgen::default_catalog` drawn under `LoadConfig::default().zipf_s`,
/// scaled by 1 − [`ANALYZE_SHARE`]; `analyze` gets [`ANALYZE_SHARE`].
pub fn kind_shares() -> [f64; 5] {
    let jobs = loadgen::default_catalog();
    let cdf = zipf_cdf(jobs.len(), LoadConfig::default().zipf_s);
    let mut shares = [0.0; 5];
    let mut below = 0.0;
    for (body, c) in jobs.iter().zip(cdf) {
        let k = kind_of(body).expect("loadgen's catalog holds known kinds");
        shares[k] += (c - below) * (1.0 - ANALYZE_SHARE);
        below = c;
    }
    shares[kind_index("analyze")] += ANALYZE_SHARE;
    shares
}

/// splitmix64: a small seeded generator, so the request sequence depends
/// on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One kind's jobs in popularity order, with the Zipf CDF over them.
pub struct KindCatalog {
    pub bodies: Vec<String>,
    cdf: Vec<f64>,
}

/// Every job the generator can send, per kind.
pub struct Catalog {
    pub kinds: Vec<KindCatalog>,
    kind_cdf: Vec<f64>,
}

/// Single-rank benchmark jobs per app: edge sizes and iteration counts,
/// each sent serial and threaded. Sizes are capped so that a miss costs
/// at most about 15 ms. miniWeather is included with varying iterations
/// although its in-process driver ignores them (the duplicate work
/// `serve.duplicate_work_ratio` counts).
const BENCH_APPS: [(
    &str,
    std::ops::RangeInclusive<usize>,
    std::ops::RangeInclusive<usize>,
); 9] = [
    ("cloverleaf2d", 16..=55, 1..=12),
    ("cloverleaf3d", 6..=12, 1..=8),
    ("acoustic", 8..=31, 1..=12),
    ("opensbli-sa", 8..=15, 1..=4),
    ("opensbli-sn", 8..=15, 1..=4),
    ("mgcfd", 9..=33, 1..=5),
    ("volna", 8..=39, 4..=40),
    ("minibude", 16..=127, 1..=2),
    ("miniweather", 16..=32, 1..=16),
];

/// Two-rank jobs: the apps with a distributed driver (even edge sizes),
/// under the certified default placement and both explicit ones.
const RANKED_APPS: [(
    &str,
    std::ops::RangeInclusive<usize>,
    std::ops::RangeInclusive<usize>,
); 3] = [
    ("acoustic", 8..=32, 1..=10),
    ("cloverleaf2d", 16..=48, 1..=10),
    ("miniweather", 16..=32, 1..=4),
];

/// Apps with a declared loop chain: `analyze` answers them on the static
/// path without executing the app.
const ANALYZE_APPS: [&str; 8] = [
    "cloverleaf2d",
    "clover2d_dist",
    "cloverleaf3d",
    "acoustic",
    "acoustic_dist",
    "opensbli_sa",
    "opensbli_sn",
    "miniweather",
];

/// Traced jobs: a small catalog, requested in full before timing (see
/// [`run`]).
const TRACE_APPS: [(&str, [usize; 4], [usize; 4]); 4] = [
    ("cloverleaf2d", [16, 24, 32, 40], [1, 2, 3, 4]),
    ("acoustic", [12, 16, 20, 24], [1, 2, 3, 4]),
    ("mgcfd", [9, 13, 17, 25], [1, 2, 3, 4]),
    ("miniweather", [16, 20, 24, 32], [1, 2, 3, 4]),
];

fn draw(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

impl Catalog {
    /// The fixed catalog. Popularity order is a fixed shuffle, the same
    /// for every seed; the seed only drives the draws.
    pub fn new() -> Catalog {
        let mut bench = Vec::new();
        for (app, ns, iters) in BENCH_APPS {
            for n in ns {
                for it in iters.clone() {
                    for par in [false, true] {
                        let p = if par { ",\"parallel\":true" } else { "" };
                        bench.push(format!(
                            "{{\"kind\":\"benchmark\",\"app\":\"{app}\",\"n\":{n},\"iterations\":{it}{p}}}"
                        ));
                    }
                }
            }
        }
        let mut ranked = Vec::new();
        for (app, ns, iters) in RANKED_APPS {
            for n in ns.step_by(2) {
                for it in iters.clone() {
                    for pl in [
                        "",
                        ",\"placement\":\"packed\"",
                        ",\"placement\":\"one-per-numa\"",
                    ] {
                        ranked.push(format!(
                            "{{\"kind\":\"benchmark\",\"app\":\"{app}\",\"n\":{n},\"iterations\":{it},\"ranks\":2{pl}}}"
                        ));
                    }
                }
            }
        }
        let figure: Vec<String> = (3..=9)
            .map(|f| format!("{{\"kind\":\"figure\",\"figure\":{f}}}"))
            .collect();
        let analyze: Vec<String> = ANALYZE_APPS
            .iter()
            .map(|a| format!("{{\"kind\":\"analyze\",\"app\":\"{a}\"}}"))
            .collect();
        let mut trace = Vec::new();
        for (app, ns, iters) in TRACE_APPS {
            for n in ns {
                for it in iters {
                    trace.push(format!(
                        "{{\"kind\":\"trace\",\"app\":\"{app}\",\"n\":{n},\"iterations\":{it}}}"
                    ));
                }
            }
        }
        let skew = LoadConfig::default().zipf_s;
        let mut shuffle = Rng::new(0x5eed_ca7a_1095);
        let kinds = [bench, ranked, figure, analyze, trace]
            .into_iter()
            .map(|mut bodies| {
                for i in (1..bodies.len()).rev() {
                    bodies.swap(i, shuffle.below(i + 1));
                }
                KindCatalog {
                    cdf: zipf_cdf(bodies.len(), skew),
                    bodies,
                }
            })
            .collect();
        let mut acc = 0.0;
        let kind_cdf = kind_shares()
            .iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Catalog { kinds, kind_cdf }
    }

    pub fn len(&self) -> usize {
        self.kinds.iter().map(|k| k.bodies.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The request stream of client `client` under `seed`: (kind index,
    /// body index) pairs, endless and deterministic.
    pub fn stream(&self, seed: u64, client: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let total = self.kind_cdf[self.kind_cdf.len() - 1];
        std::iter::repeat_with(move || {
            let k = draw(&self.kind_cdf, rng.unit() * total);
            (k, draw(&self.kinds[k].cdf, rng.unit()))
        })
    }

    pub fn body(&self, kind: usize, idx: usize) -> &str {
        &self.kinds[kind].bodies[idx]
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

/// The cache key the server computes for `body`.
pub fn key_of(body: &str, machine: &str) -> Result<u64, String> {
    let j = json::parse(body)?;
    Ok(Job::parse(&j)?.cache_key(machine).0)
}

/// Distinct cache keys among the first `prefix` requests of every
/// client under `seed` — a function of the seed alone.
pub fn distinct_keys(cat: &Catalog, seed: u64, prefix: usize) -> Result<usize, String> {
    let machine = machine_fingerprint(&ServerConfig::default().platform);
    let mut keys = HashSet::new();
    for c in 0..CLIENTS {
        for (k, i) in cat.stream(seed, c).take(prefix) {
            keys.insert(key_of(cat.body(k, i), &machine)?);
        }
    }
    Ok(keys.len())
}

/// How the server answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Hit,
    Miss,
    Coalesced,
    Failed,
}

/// One request as the client saw it.
struct Sample {
    kind: usize,
    body: usize,
    latency_ms: f64,
    /// The request plus the client's recording of it: what
    /// `trace.overhead_pct` compares.
    span_ms: f64,
    disp: Disposition,
    key: u64,
    payload_hash: u64,
    payload_len: usize,
    /// Kept for misses of the collected half of a traced run (for the
    /// duplicate-work and cache timings) — the only work tracing adds to
    /// the request path.
    payload: Option<String>,
    collected: bool,
    error: Option<String>,
}

fn header_u64(resp: &http::ClientResponse, name: &str) -> u64 {
    resp.header(name)
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .unwrap_or(0)
}

/// Send job `idx` of kind `kind` and record how it was answered.
/// `keep` keeps a miss's payload.
fn send(cat: &Catalog, addr: &str, kind: usize, idx: usize, keep: bool) -> Sample {
    let text = cat.body(kind, idx);
    let t = Instant::now();
    let resp = http::request(addr, "POST", "/job", Some(text));
    let latency_ms = ms(t.elapsed().as_secs_f64());
    let mut s = Sample {
        kind,
        body: idx,
        latency_ms,
        span_ms: 0.0,
        disp: Disposition::Failed,
        key: 0,
        payload_hash: 0,
        payload_len: 0,
        payload: None,
        collected: keep,
        error: None,
    };
    match resp {
        Ok(r) if r.status == 200 => {
            s.disp = match r.header("X-Cache") {
                Some("hit") => Disposition::Hit,
                Some("miss") => Disposition::Miss,
                Some("coalesced") => Disposition::Coalesced,
                other => {
                    s.error = Some(format!("unexpected X-Cache {other:?}"));
                    Disposition::Failed
                }
            };
            s.key = header_u64(&r, "X-Cache-Key");
            // A fingerprint, so the benchmark holds no second copy of
            // every payload.
            s.payload_hash = fnv1a64(r.body.as_bytes());
            s.payload_len = r.body.len();
            if keep && s.disp == Disposition::Miss {
                s.payload = Some(r.body);
            }
        }
        Ok(r) => s.error = Some(format!("HTTP {} for {text}: {}", r.status, r.body)),
        Err(e) => s.error = Some(format!("request failed for {text}: {e}")),
    }
    s.span_ms = ms(t.elapsed().as_secs_f64());
    s
}

/// One client's closed loop until `deadline`. In traced runs every
/// other request keeps its miss payload (the collected half).
fn client(
    cat: &Catalog,
    addr: &str,
    seed: u64,
    id: usize,
    deadline: Instant,
    traced: bool,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for (i, (kind, idx)) in cat.stream(seed, id).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        out.push(send(cat, addr, kind, idx, traced && i % 2 == 1));
    }
    out
}

/// A server bound and answering `/healthz`.
struct Running {
    addr: String,
    state: Arc<ServerState>,
    thread: JoinHandle<()>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let server = Server::bind(ServerConfig::default()).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let state = server.state();
        let thread = std::thread::spawn(move || server.run());
        let t = Instant::now();
        loop {
            match http::request(&addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => break,
                _ if t.elapsed() > Duration::from_secs(10) => {
                    return Err("server never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok(Running {
            addr,
            state,
            thread,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.state.begin_shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

fn stats_num(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats;
    for p in path {
        match v.get(p) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Median of `f` timed over `items`, in microseconds.
fn time_us<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Samples {
    let mut s = Samples::new();
    for x in items {
        let t = Instant::now();
        f(x);
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::new();
    let cat = Catalog::new();
    r.info("catalog_jobs", cat.len());
    match distinct_keys(&cat, seed, KEY_PREFIX) {
        Ok(n) => {
            r.info("distinct_keys_prefix", KEY_PREFIX);
            if traced {
                r.metric(
                    "serve.distinct_keys",
                    n as f64,
                    "count",
                    CLIENTS * KEY_PREFIX,
                );
            }
        }
        Err(e) => r.check(Err(format!("generated job does not parse: {e}"))),
    }

    // Set-up: bind, start the accept loop, answer the first /healthz.
    let mut setup = crate::OpTimes::default();
    let mut server = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = match Running::start() {
            Ok(s) => s,
            Err(e) => {
                r.check(Err(e));
                return r;
            }
        };
        setup.raw.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            r.check(s.stop());
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    // Every traced job leaks a ~3 MB per-thread trace buffer in the
    // server, plus one for each thread that records while it runs. The
    // trace catalog is therefore requested once, by one client, before
    // timing: its leak then counts in `peak_rss_mb` at the same size on
    // every run, and the load's trace requests hit the cache.
    let trace_kind = kind_index("trace");
    let warm: Vec<Sample> = (0..cat.kinds[trace_kind].bodies.len())
        .map(|i| send(&cat, &server.addr, trace_kind, i, traced))
        .collect();

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (cat, addr) = (&cat, server.addr.as_str());
                sc.spawn(move || client(cat, addr, seed, id, deadline, traced))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();

    // Output checks: every request answered 200, every hit's payload
    // byte-identical to a miss payload stored under its key.
    let mut misses: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in warm.iter().chain(&samples) {
        if s.disp == Disposition::Miss {
            misses.entry(s.key).or_default().push(s.payload_hash);
        }
    }
    for s in warm.iter().chain(&samples) {
        r.check(match (s.disp, &s.error) {
            (_, Some(e)) => Err(e.clone()),
            (Disposition::Hit, _) => match misses.get(&s.key) {
                Some(h) if h.contains(&s.payload_hash) => Ok(()),
                Some(_) => Err(format!(
                    "hit payload for key {:016x} differs from its miss",
                    s.key
                )),
                None => Err(format!("hit for key {:016x} that never missed", s.key)),
            },
            _ => Ok(()),
        });
    }

    let mut all = crate::OpTimes::default();
    let (mut hit_ms, mut miss_ms) = (Samples::new(), Samples::new());
    let (mut plain, mut collected) = (Samples::new(), Samples::new());
    for s in &samples {
        all.raw.push(s.latency_ms);
        match s.disp {
            Disposition::Hit => hit_ms.push(s.latency_ms),
            Disposition::Miss => miss_ms.push(s.latency_ms),
            _ => {}
        }
        if traced {
            if s.collected {
                collected.push(s.span_ms);
            } else {
                plain.push(s.span_ms);
            }
        }
    }
    crate::op_metrics(&mut r, &all, &setup, false);
    r.metric(
        "serve.rps",
        samples.len() as f64 / wall,
        "1/s",
        samples.len(),
    );
    let count = |d: Disposition| samples.iter().filter(|s| s.disp == d).count();
    r.info("requests", samples.len());
    r.info("hits", count(Disposition::Hit));
    r.info("misses", count(Disposition::Miss));
    r.info("keys_missed", misses.len());
    r.info(
        "keys_missed_twice",
        misses.values().filter(|v| v.len() > 1).count(),
    );

    if traced {
        r.metric(
            "serve.req_ms_p99",
            all.raw.percentile(99.0),
            "ms",
            all.raw.len(),
        );
        r.metric("serve.miss_ms_p50", miss_ms.median(), "ms", miss_ms.len());
        traced_layers(&mut r, &cat, &server, &warm, &samples, &hit_ms);
        crate::overhead(&mut r, &plain, &collected);
    }
    r.check(server.stop());
    r
}

/// Per-layer metrics of the serve stack, from `/stats`, from the
/// requests the clients recorded, and from spans the benchmark records
/// around direct calls into each layer's public functions.
fn traced_layers(
    r: &mut Report,
    cat: &Catalog,
    server: &Running,
    warm: &[Sample],
    samples: &[Sample],
    hit_ms: &Samples,
) {
    match http::request(&server.addr, "GET", "/stats", None).map(|s| json::parse(&s.body)) {
        Ok(Ok(st)) => {
            let n = samples.len();
            r.metric(
                "serve.hit_ratio",
                stats_num(&st, &["cache", "hit_rate"]),
                "ratio",
                n,
            );
            r.metric(
                "serve.cache_entries",
                stats_num(&st, &["cache", "entries"]),
                "count",
                n,
            );
            r.metric(
                "serve.coalesced",
                stats_num(&st, &["flight", "coalesced"]),
                "count",
                n,
            );
            r.metric(
                "serve.rejected",
                stats_num(&st, &["flight", "rejected"]),
                "count",
                n,
            );
        }
        _ => r.check(Err("GET /stats failed".into())),
    }

    // Stored payloads: one per key (the first miss's, as the cache holds).
    let mut stored: BTreeMap<u64, &Sample> = BTreeMap::new();
    for s in warm
        .iter()
        .chain(samples)
        .filter(|s| s.disp == Disposition::Miss)
    {
        stored.entry(s.key).or_insert(s);
    }
    let bytes: usize = stored.values().map(|s| s.payload_len).sum();
    r.metric(
        "serve.cache_payload_mb",
        bytes as f64 / 1e6,
        "MB",
        stored.len(),
    );
    stored.retain(|_, s| s.payload.is_some());

    // Misses that repeat an earlier miss's work: same app, points,
    // iterations and validation under a different key (over the misses
    // whose payload the traced run keeps).
    let mut seen = HashSet::new();
    let (mut runs, mut dups) = (0usize, 0usize);
    for s in warm
        .iter()
        .chain(samples)
        .filter(|s| s.disp == Disposition::Miss)
    {
        let Some(p) = s.payload.as_deref().and_then(|p| json::parse(p).ok()) else {
            continue;
        };
        let Some(app) = p.get("app").and_then(Json::as_str) else {
            continue;
        };
        let num = |k: &str| p.get(k).and_then(Json::as_f64).map(f64::to_bits);
        let ident = (
            app.to_string(),
            num("points"),
            num("iterations"),
            num("validation"),
        );
        runs += 1;
        if !seen.insert(ident) {
            dups += 1;
        }
    }
    let ratio = if runs > 0 {
        dups as f64 / runs as f64
    } else {
        0.0
    };
    r.metric("serve.duplicate_work_ratio", ratio, "ratio", runs);

    // Read path: one span per layer call, on the run's own requests.
    let rtt = time_us(0..200, |_| {
        let _ = http::request(&server.addr, "GET", "/healthz", None);
    });
    r.metric("serve.http_rtt_us", rtt.median(), "us", rtt.len());
    let machine = machine_fingerprint(&ServerConfig::default().platform);
    let bodies: Vec<&str> = samples
        .iter()
        .take(2000)
        .map(|s| cat.body(s.kind, s.body))
        .collect();
    let parsed: Vec<Job> = bodies
        .iter()
        .filter_map(|b| json::parse(b).ok().and_then(|j| Job::parse(&j).ok()))
        .collect();
    let parse = time_us(&bodies, |b| {
        let j = json::parse(b).expect("generated bodies are JSON");
        std::hint::black_box(Job::parse(&j).ok());
    });
    r.metric("serve.parse_us", parse.median(), "us", parse.len());
    let key = time_us(&parsed, |j| {
        std::hint::black_box(j.cache_key(&machine));
    });
    r.metric("serve.key_us", key.median(), "us", key.len());
    let cache = ResultCache::new();
    let insert = time_us(stored.iter(), |(k, s)| {
        let payload = s.payload.clone().expect("retained payloads are kept");
        cache.insert(bwb_serve::CacheKey(*k), payload);
    });
    r.metric("serve.cache_insert_us", insert.median(), "us", insert.len());
    let hits = samples
        .iter()
        .filter(|s| s.disp == Disposition::Hit && stored.contains_key(&s.key));
    let get = time_us(hits.map(|s| s.key), |k| {
        std::hint::black_box(cache.get(bwb_serve::CacheKey(k)));
    });
    r.metric("serve.cache_get_us", get.median(), "us", get.len());
    let hit_us = hit_ms.median() * 1e3;
    let attributed = rtt.median() + parse.median() + key.median() + get.median();
    let unattributed = if hit_us > 0.0 {
        100.0 * (hit_us - attributed) / hit_us
    } else {
        0.0
    };
    r.metric("serve.unattributed_pct", unattributed, "%", hit_ms.len());

    // Write path: re-execute the first few distinct jobs of each kind.
    let platform = ServerConfig::default().platform;
    let ctx = ExecContext {
        shards: Arc::new(ShardPool::new(platform, 2, ShardPolicy::OnePerNuma)),
        traces: Arc::new(TraceStore::new()),
    };
    for (k, kind) in KINDS.iter().enumerate() {
        let mut picked = BTreeSet::new();
        let jobs: Vec<Job> = warm
            .iter()
            .chain(samples)
            .filter(|s| s.kind == k && picked.insert(s.body))
            .take(EXECUTE_SAMPLES)
            .filter_map(|s| {
                json::parse(cat.body(k, s.body))
                    .ok()
                    .and_then(|j| Job::parse(&j).ok())
            })
            .collect();
        let mut failed = None;
        let t = time_us(jobs.iter().enumerate(), |(i, j)| {
            if let Err(e) = j.execute(&ctx, i as u64 + 1) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            r.check(Err(format!("direct execute of a {kind} job failed: {e}")));
        }
        r.metric(
            format!("serve.execute_ms.{kind}"),
            t.median() / 1e3,
            "ms",
            t.len(),
        );
    }
}
