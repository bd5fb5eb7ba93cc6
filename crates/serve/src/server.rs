//! The HTTP front end: request routing, cache/admission orchestration,
//! graceful drain.
//!
//! Threading model: one plain thread per connection does the socket I/O
//! and, for a single-flight leader, the job's compute. Nothing is async:
//! a duplicate job parks on its key's condvar slot and a queued leader on
//! the FIFO ticket gate (see [`crate::flight`]). Every socket carries
//! read and write timeouts of [`IO_TIMEOUT`], so a stalled client cannot
//! pin its thread or hold up a drain, and a panicking job answers 500
//! without wedging its key.
//!
//! Routes:
//!
//! * `POST /job` — submit a job (see [`crate::jobs`] for body shapes).
//!   Responds with the payload JSON plus `X-Job-Id`, `X-Cache-Key`, and
//!   `X-Cache: hit|miss|coalesced`. `429 + Retry-After` when the
//!   admission queue is full; `503` while draining.
//! * `GET /stats` — cache, flight, shard, and uptime counters.
//! * `GET /trace/<job id>` — the Perfetto export of a trace job.
//! * `GET /healthz` — liveness.
//! * `POST /shutdown` — begin draining: in-flight jobs finish, new jobs
//!   are refused, and [`Server::run`] returns once idle.

use crate::cache::ResultCache;
use crate::flight::SingleFlight;
use crate::http::{self, read_request, Request, Response};
use crate::jobs::{ExecContext, Job, TraceStore};
use crate::key::machine_fingerprint;
use crate::shard::ShardPool;
use bwb_machine::{platforms, Platform, ShardPolicy};
use bwb_trace::json::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read and write timeout on every connection. A request that has not
/// arrived in full by then is answered 408 and the thread moves on.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker shards carved out of the platform topology.
    pub shards: usize,
    pub policy: ShardPolicy,
    /// Heavy jobs running concurrently (admission permits).
    pub max_concurrent: usize,
    /// Jobs waiting beyond that before 429s start.
    pub max_queue: usize,
    /// The modelled machine jobs run against (part of every cache key).
    pub platform: Platform,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            policy: ShardPolicy::OnePerNuma,
            max_concurrent: 2,
            max_queue: 8,
            platform: platforms::xeon_max_9480(),
        }
    }
}

pub struct ServerState {
    cache: ResultCache,
    flight: SingleFlight,
    ctx: ExecContext,
    machine: String,
    job_seq: AtomicU64,
    inflight: AtomicUsize,
    draining: AtomicBool,
    started: Instant,
}

impl ServerState {
    /// Start draining: refuse new jobs, let in-flight ones finish.
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub fn jobs_submitted(&self) -> u64 {
        self.job_seq.load(Ordering::Relaxed)
    }

    fn stats_json(&self) -> String {
        let c = self.cache.stats();
        let f = self.flight.stats();
        let shards: Vec<Json> = self
            .ctx
            .shards
            .stats()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("shard".into(), Json::Num(s.shard as f64)),
                    ("cores".into(), Json::Num(s.cores as f64)),
                    ("jobs".into(), Json::Num(s.jobs as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("machine".into(), Json::Str(self.machine.clone())),
            (
                "uptime_secs".into(),
                Json::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("draining".into(), Json::Bool(self.is_draining())),
            (
                "jobs_submitted".into(),
                Json::Num(self.jobs_submitted() as f64),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::Num(c.entries as f64)),
                    ("hits".into(), Json::Num(c.hits as f64)),
                    ("misses".into(), Json::Num(c.misses as f64)),
                    ("hit_rate".into(), Json::Num(c.hit_rate())),
                    ("oldest_age_secs".into(), Json::Num(c.oldest_age_secs)),
                ]),
            ),
            (
                "flight".into(),
                Json::Obj(vec![
                    ("executed".into(), Json::Num(f.executed as f64)),
                    ("coalesced".into(), Json::Num(f.coalesced as f64)),
                    ("rejected".into(), Json::Num(f.rejected as f64)),
                    ("running_now".into(), Json::Num(f.running_now as f64)),
                    ("queued_now".into(), Json::Num(f.queued_now as f64)),
                ]),
            ),
            (
                "shards".into(),
                Json::Obj(vec![
                    (
                        "policy".into(),
                        Json::Str(self.ctx.shards.policy().label().into()),
                    ),
                    ("pools".into(), Json::Arr(shards)),
                ]),
            ),
            (
                "traces_stored".into(),
                Json::Num(self.ctx.traces.len() as f64),
            ),
        ])
        .to_string()
    }
}

pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    local_addr: SocketAddr,
}

impl Server {
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let machine = machine_fingerprint(&cfg.platform);
        let state = Arc::new(ServerState {
            cache: ResultCache::new(),
            flight: SingleFlight::new(cfg.max_concurrent, cfg.max_queue),
            ctx: ExecContext {
                shards: Arc::new(ShardPool::new(cfg.platform, cfg.shards, cfg.policy)),
                traces: Arc::new(TraceStore::new()),
            },
            machine,
            job_seq: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            state,
            local_addr,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle for out-of-band control (tests, signal handlers).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accept loop. Returns after [`ServerState::begin_shutdown`] once all
    /// in-flight requests have drained.
    pub fn run(self) {
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    state.inflight.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        let _inflight = InFlight(&state.inflight);
                        handle_connection(&state, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.state.is_draining() && self.state.inflight.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    // Short poll: accept latency lands directly on every
                    // request's tail, so trade a little idle CPU for it.
                    std::thread::sleep(Duration::from_micros(300));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

/// Holds one count in `inflight` until dropped, unwinding included, so a
/// connection thread can never keep [`Server::run`] from returning.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    // Connection threads do blocking I/O, bounded by the timeouts.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(req) => panic::catch_unwind(AssertUnwindSafe(|| route(state, &req)))
            .unwrap_or_else(|_| Response::error(500, "job panicked")),
        Err(e) if e == http::TIMED_OUT => Response::error(408, &e),
        Err(e) => Response::error(400, &e),
    };
    let _ = response.write_to(&mut stream);
}

fn route(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/job") => handle_job(state, req),
        ("GET", "/stats") => Response::json(200, state.stats_json()),
        ("GET", "/healthz") => Response::json(200, "{\"ok\":true}"),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            Response::json(200, "{\"draining\":true}")
        }
        ("GET", path) if path.starts_with("/trace/") => {
            match path["/trace/".len()..].parse::<u64>().ok() {
                Some(id) => match state.ctx.traces.get(id) {
                    Some(chrome) => Response::json(200, chrome),
                    None => Response::error(404, "no trace under that job id"),
                },
                None => Response::error(400, "trace id must be a job id (integer)"),
            }
        }
        ("POST" | "GET", _) => Response::error(404, "unknown route"),
        _ => Response::error(405, "unsupported method"),
    }
}

fn handle_job(state: &ServerState, req: &Request) -> Response {
    if state.is_draining() {
        return Response::error(503, "server is draining").header("Retry-After", "5");
    }
    let body = match bwb_trace::json::parse(&req.body) {
        Ok(b) => b,
        Err(e) => return Response::error(400, &format!("body is not JSON: {e}")),
    };
    let job = match Job::parse(&body) {
        Ok(j) => j,
        Err(e) => return Response::error(400, &e),
    };
    let job_id = state.job_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let key = job.cache_key(&state.machine);

    if let Some(payload) = state.cache.get(key) {
        return Response::json(200, payload)
            .header("X-Cache", "hit")
            .header("X-Cache-Key", key.to_string())
            .header("X-Job-Id", job_id.to_string());
    }

    let flight = state
        .flight
        .run_or_join(key, || job.execute(&state.ctx, job_id));
    match flight {
        Err(full) => Response::error(429, "admission queue is full")
            .header("Retry-After", full.retry_after_secs.to_string()),
        Ok(outcome) => {
            let cache_state = if outcome.coalesced {
                "coalesced"
            } else {
                "miss"
            };
            match outcome.payload {
                Ok(payload) => {
                    if !outcome.coalesced {
                        state.cache.insert(key, payload.clone());
                    }
                    Response::json(200, payload)
                        .header("X-Cache", cache_state)
                        .header("X-Cache-Key", key.to_string())
                        .header("X-Job-Id", job_id.to_string())
                }
                Err(e) => Response::error(400, &e).header("X-Cache", cache_state),
            }
        }
    }
}
