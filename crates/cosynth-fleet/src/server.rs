//! The `fleetd` daemon core and its socket front-end
//! (`fleet --serve --listen <addr>`).
//!
//! `Core` is the one engine under both daemon front-ends: the resident
//! worker pool, its sharded admission queue (`ShardedQueue`, the one
//! the batch fleet uses too), the accounting lock, the telemetry
//! registry and the global drain ledger. A front-end drives
//! connections. Each connection has a reader that parses and admits
//! request lines (`ConnReader`) and a writer that folds the
//! connection's events into protocol lines (`ConnWriter`). Both
//! front-ends speak the same newline-JSON batch protocol:
//!
//! * **stdin** ([`serve`]) is one connection in lockstep. It admits a
//!   line, writes that line's events until its batch is done, and only
//!   then reads the next line.
//! * **socket** ([`serve_listener`]): a [`std::net::TcpListener`]
//!   accept loop spawns one reader/writer thread pair per client
//!   connection, and connections pipeline freely — a client may have
//!   any number of batches in flight, and batch requests may carry a
//!   `tag` that is echoed on the `{"event":"batch"}` line for
//!   attribution (the `loadgen` bin relies on this).
//!
//! ## Connection lifecycle
//!
//! * **accept** (socket) — the open-connections gauge rises; a reader
//!   thread parses request lines (20 ms read timeout so it can notice a
//!   server-wide drain), a writer thread owns the socket's write half.
//! * **admission** — under the accounting lock: the batch's jobs are
//!   admitted up to the queue's remaining **total** depth (the bound
//!   spans all shards and connections), the excess is shed with a
//!   typed `queue_full` reject, and the `submitted`/shed counters move
//!   together with the queue-depth gauge. Admitted jobs are then
//!   distributed round-robin across the per-worker shards. On stdin the
//!   queue is empty at every admission, so the shed is exactly
//!   `max(0, batch - depth)` whatever the worker scheduling.
//! * **completion** — workers run jobs from the shared queue, fold the
//!   global ledger and the global and per-tenant counters, and route
//!   each `Completion` back to its connection's writer, which streams
//!   the result line and, on the batch's last completion, the batch
//!   line.
//! * **EOF** — a socket writer waits out the connection's in-flight
//!   batches and ends the stream with a per-connection
//!   `{"event":"drain","scope":"connection",...}` ledger line. Stdin
//!   ends instead with the global drain line, after the pool has
//!   drained.
//!
//! ## Accounting under concurrency
//!
//! The drain ledger's conservation law must hold *mid-flight*: a
//! `GET /metrics` scrape can land while jobs sit in the queue or on a
//! worker. The exposed identity is therefore
//!
//! ```text
//! submitted = completed + shed_queue_full + shed_over_deadline
//!           + deadline_exceeded + quarantined
//!           + queue_depth + in_flight_sessions
//! ```
//!
//! and every transition that moves a job between those states happens
//! under one small `accounting` mutex, which the scrape also takes
//! while snapshotting — so `fleetd_accounted 1` is exact at any scrape
//! point, chaos or not. (Between stdin lines both gauges are zero, so
//! there it is the drain identity.)
//!
//! ## `/metrics`
//!
//! With `--metrics-addr`, a minimal HTTP responder serves the registry
//! in Prometheus text format ([`telemetry::prom`]): the ledger
//! counters, per-tier backend call/cost counters, per-tenant labeled
//! families, queue/in-flight/connection gauges, the session and
//! queue-wait histograms with cumulative buckets, plus `fleetd_accounted`,
//! `fleetd_cost_accounted`, and `fleetd_uptime_seconds` computed per
//! scrape.
//!
//! ## Graceful drain
//!
//! A `{"shutdown":true}` control line on any connection is acknowledged
//! with `{"event":"shutdown","draining":true}`, stops the accept loop,
//! lets every connection finish its in-flight batches (readers stop
//! taking new requests), closes the queue, joins the workers, and
//! returns the final [`ServeSummary`] — no session lost or counted
//! twice, which the regression tests pin.
//!
//! [`serve`]: crate::service::serve

use crate::service::{
    identities, metrics_json, parse_request, run_job, Completion, CompletionClass, Job, MetricIds,
    Request, ServeOptions, ServeSummary, ANONYMOUS_CLIENT,
};
use crate::{job_indices, lock_clean, spawn_workers, PoolCounters, ShardedQueue};
use cosynth::{VerdictMemo, VerifierContext};
use std::collections::HashMap;
use std::io::{self, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};
use telemetry::Registry;
use topo_model::json::ObjBuilder;

/// How often blocked accept/read loops wake to check the drain flag.
const POLL: Duration = Duration::from_millis(20);

/// One job on the shared queue, routed back to its connection.
struct SrvJob {
    job: Job,
    /// Connection-local batch sequence number (keys the writer's
    /// batch-state map).
    batch: u64,
    /// Tenant label the completion folds under.
    client: String,
    /// Admission instant, for the queue-wait histogram.
    enqueued: Instant,
    reply: mpsc::Sender<ConnEvent>,
}

/// What flows to a connection's writer.
pub(crate) enum ConnEvent {
    /// A pre-rendered protocol line from the reader (reject, ack,
    /// metrics snapshot, or an all-shed batch line).
    Line(String),
    /// One completion for the connection's batch `.0`.
    Done(u64, Box<Completion>),
    /// The reader is finished; drain in-flight batches and close.
    Eof,
}

/// Jobs-in-states guarded by the accounting lock (see module docs).
#[derive(Default)]
struct Accounting {
    queued: u64,
    in_flight: u64,
}

/// The daemon engine: everything the worker pool, the connections, and
/// the scrape loop share.
pub(crate) struct Core<'o> {
    opts: &'o ServeOptions,
    queue_depth: usize,
    /// Per-worker admission shards with work-stealing; `queue_depth`
    /// bounds **total** occupancy (tracked in `Accounting::queued`),
    /// not any single shard.
    queue: ShardedQueue<SrvJob>,
    pub(crate) reg: Registry,
    ids: MetricIds,
    /// Guards every multi-counter state transition plus the scrape's
    /// snapshot, making the extended accounting identity exact at any
    /// scrape point.
    accounting: Mutex<Accounting>,
    /// The global drain ledger, folded by the readers (admission) and
    /// the workers (completions).
    ledger: Mutex<ServeSummary>,
    /// The worker pool's verdict memo; a mid-run metrics snapshot reads
    /// its counters.
    pub(crate) memo: Arc<VerdictMemo>,
    counters: Mutex<PoolCounters>,
    /// Set by a `{"shutdown":true}` line: stop accepting connections
    /// and new requests, drain what's in flight.
    draining: AtomicBool,
    /// Set once the queue is closed; tells the scrape loop to exit.
    done: AtomicBool,
    open_conns: AtomicUsize,
    chaos_seq: AtomicU64,
    started: Instant,
}

impl<'o> Core<'o> {
    pub(crate) fn new(opts: &'o ServeOptions) -> Self {
        let threads = opts.threads.max(2);
        // Shard 0 belongs to the front-ends; workers get 1..=N.
        let mut reg = Registry::new(threads + 1);
        let ids = MetricIds::register(&mut reg);
        Core {
            opts,
            queue_depth: opts.queue_depth.max(1),
            queue: ShardedQueue::new(threads),
            memo: VerdictMemo::for_pool(threads),
            reg,
            ids,
            accounting: Mutex::new(Accounting::default()),
            ledger: Mutex::new(ServeSummary::default()),
            counters: Mutex::new(PoolCounters::default()),
            draining: AtomicBool::new(false),
            done: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            chaos_seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Runs the daemon: spawns the resident worker pool, runs
    /// `front_end` (which may spawn threads of its own on the scope),
    /// then closes the queue, joins every thread, and returns the
    /// global ledger with the pool counters.
    pub(crate) fn run<'env>(
        &'env self,
        front_end: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> io::Result<()>,
    ) -> io::Result<ServeSummary> {
        std::thread::scope(|scope| {
            spawn_workers(
                scope,
                &self.queue,
                &self.memo,
                &self.counters,
                move |w, sj, ctx| self.work(w, sj, ctx),
            );
            let result = front_end(scope);
            self.queue.close();
            self.done.store(true, Relaxed);
            result
        })?;
        let mut summary = lock_clean(&self.ledger).clone();
        summary.pool = *lock_clean(&self.counters);
        summary.pool.set_memo(self.memo.counters());
        Ok(summary)
    }

    /// One job on resident worker `w`: moves it from queued to in
    /// flight, runs it panic-contained, folds the registry and the
    /// global ledger, and routes the completion back to its connection.
    fn work(&self, w: usize, sj: SrvJob, ctx: &mut VerifierContext) {
        // Registry shards are 1-based (shard 0 belongs to the
        // front-ends); queue shards are 0-based per worker.
        let shard = w + 1;
        {
            let mut acc = lock_clean(&self.accounting);
            acc.queued -= 1;
            acc.in_flight += 1;
            self.mirror(&acc);
            self.reg.observe_ns(
                shard,
                self.ids.queue_wait,
                sj.enqueued.elapsed().as_nanos() as u64,
            );
        }
        let done = run_job(sj.job, ctx, &self.opts.tuning, self.opts.stream_traces);
        {
            // One critical section per completion: the outcome counter
            // and the in-flight gauge move together, so the scrape
            // identity never sees a job in zero or two states.
            let mut acc = lock_clean(&self.accounting);
            acc.in_flight -= 1;
            self.mirror(&acc);
            self.ids.record(&self.reg, shard, &sj.client, &done);
        }
        lock_clean(&self.ledger).record(&done);
        // The connection may already be gone (client hung up): the
        // completion is accounted above either way.
        let _ = sj.reply.send(ConnEvent::Done(sj.batch, Box::new(done)));
    }

    /// Mirrors the accounting fields into their registry gauges; call
    /// with the accounting lock held.
    fn mirror(&self, acc: &Accounting) {
        self.reg.gauge_set(self.ids.queue_depth, acc.queued);
        self.reg
            .gauge_set(self.ids.in_flight_sessions, acc.in_flight);
        self.reg.gauge_max(self.ids.queue_depth_hwm, acc.queued);
    }
}

/// Serves the socket front-end on an already-bound listener (tests bind
/// port 0 and pass the listener in; the CLI resolves `--listen`).
/// Returns after a graceful drain — a `{"shutdown":true}` line on any
/// connection — with the global ledger, exactly like stdin [`serve`]
/// returns at EOF.
///
/// [`serve`]: crate::service::serve
pub fn serve_listener(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    opts: &ServeOptions,
) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let core = &Core::new(opts);
    core.run(|scope| {
        if let Some(ml) = metrics_listener {
            scope.spawn(move || metrics_loop(ml, core));
        }
        let mut conn_id: u64 = 0;
        let accept_result = loop {
            if core.draining.load(Relaxed) {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Result/batch lines are tiny and latency-sensitive;
                    // Nagle would batch them against the client's ACKs.
                    let _ = stream.set_nodelay(true);
                    core.open_conns.fetch_add(1, Relaxed);
                    core.reg.gauge_add(core.ids.open_connections, 1);
                    let id = conn_id;
                    conn_id += 1;
                    scope.spawn(move || {
                        handle_conn(stream, core, id);
                        core.reg.gauge_sub(core.ids.open_connections, 1);
                        core.open_conns.fetch_sub(1, Relaxed);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    core.draining.store(true, Relaxed);
                    break Err(e);
                }
            }
        };
        drop(listener); // stop the OS backlog while connections drain
        while core.open_conns.load(Relaxed) > 0 {
            std::thread::sleep(POLL);
        }
        accept_result
    })
}

/// Per-batch bookkeeping shared between a connection's reader (inserts
/// before enqueue) and writer (folds completions, emits the batch
/// line).
struct BatchState {
    requested: usize,
    accepted: usize,
    /// Admission-time sheds (queue_full, expired deadline).
    shed: usize,
    /// Dequeue-time sheds (deadline expired in the queue).
    dequeue_shed: usize,
    failed: usize,
    remaining: usize,
    tag: Option<String>,
}

/// One connection's state, shared by its reader and its writer: the
/// batches in flight and the connection's ledger.
#[derive(Default)]
pub(crate) struct Conn {
    batches: Mutex<HashMap<u64, BatchState>>,
    ledger: Mutex<ServeSummary>,
}

impl Conn {
    /// Whether the connection has no batch in flight.
    pub(crate) fn idle(&self) -> bool {
        lock_clean(&self.batches).is_empty()
    }
}

/// One client connection: this thread reads and parses request lines;
/// a paired writer thread, scoped to this call, owns the socket's
/// write half and streams results, batch lines, and the per-connection
/// drain line.
fn handle_conn(stream: TcpStream, core: &Core<'_>, conn_id: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(Some(POLL));
    let conn = &Conn::default();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let writer = ConnWriter::new(BufWriter::new(write_half), conn);
        scope.spawn(move || writer_loop(writer, rx, conn_id));
        let mut reader = ConnReader::new(core, conn, tx);
        read_lines(stream, core, |line| reader.handle_line(line));
        reader.send(ConnEvent::Eof);
    });
}

/// Reads newline-delimited lines off the socket, polling the drain flag
/// every [`POLL`]; a line truncated by the peer's close is still handed
/// to `handle` (it becomes a typed `bad_json` reject, like stdin's
/// truncated final line). `handle` returns `false` to stop reading
/// (shutdown request).
fn read_lines(mut stream: TcpStream, core: &Core<'_>, mut handle: impl FnMut(&str) -> bool) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'outer: loop {
        if core.draining.load(Relaxed) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..pos]);
                    if !handle(&line) {
                        break 'outer;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // peer reset: same as EOF
        }
    }
    if !core.draining.load(Relaxed) && !buf.is_empty() {
        let line = String::from_utf8_lossy(&buf);
        if !line.trim().is_empty() {
            handle(&line);
        }
    }
}

/// A connection's reader half: parses request lines and admits batches
/// onto the core's queue.
pub(crate) struct ConnReader<'a, 'o> {
    core: &'a Core<'o>,
    conn: &'a Conn,
    tx: mpsc::Sender<ConnEvent>,
    next_batch: u64,
}

impl<'a, 'o> ConnReader<'a, 'o> {
    pub(crate) fn new(core: &'a Core<'o>, conn: &'a Conn, tx: mpsc::Sender<ConnEvent>) -> Self {
        ConnReader {
            core,
            conn,
            tx,
            next_batch: 0,
        }
    }

    fn send(&self, event: ConnEvent) {
        let _ = self.tx.send(event);
    }

    fn send_line(&self, line: String) {
        self.send(ConnEvent::Line(line));
    }

    /// Counts a bad request in every ledger and sends its typed
    /// `bad_request` reject.
    pub(crate) fn reject(&self, code: &str, message: &str) {
        let core = self.core;
        lock_clean(&self.conn.ledger).protocol_errors += 1;
        lock_clean(&core.ledger).protocol_errors += 1;
        core.reg.inc(0, core.ids.protocol_errors);
        self.send_line(
            ObjBuilder::event("reject")
                .str("reason", "bad_request")
                .str("code", code)
                .str("message", message)
                .finish(),
        );
    }

    /// Admits one request line. Returns `false` when the connection
    /// must stop reading (a shutdown request).
    pub(crate) fn handle_line(&mut self, line: &str) -> bool {
        if line.trim().is_empty() {
            return true;
        }
        let core = self.core;
        let request = match parse_request(line) {
            Ok(Request::Batch(r)) => r,
            Ok(Request::Metrics) => {
                let _acc = lock_clean(&core.accounting);
                self.send_line(metrics_json(&core.reg, &core.memo.counters(), None));
                return true;
            }
            Ok(Request::Shutdown) => {
                self.send_line(
                    ObjBuilder::event("shutdown")
                        .bool("draining", true)
                        .finish(),
                );
                core.draining.store(true, Relaxed);
                return false;
            }
            Err(err) => {
                self.reject(err.code(), &err.to_string());
                return true;
            }
        };

        let client = request
            .client
            .clone()
            .unwrap_or_else(|| ANONYMOUS_CLIENT.to_string());
        let families = request
            .families
            .as_deref()
            .or(core.opts.default_families.as_deref());
        // A daemon pinned to a large family has no rotation to filter:
        // every index runs the pinned family (mirrors batch `run_case`).
        let jobs: Vec<usize> = if core.opts.tuning.scenario_family.is_some() {
            (0..request.count).collect()
        } else {
            job_indices(request.count, families)
        };
        {
            let mut conn = lock_clean(&self.conn.ledger);
            conn.batches += 1;
            conn.submitted += jobs.len();
            let mut ledger = lock_clean(&core.ledger);
            ledger.batches += 1;
            ledger.submitted += jobs.len();
        }
        core.reg.inc(0, core.ids.batches);

        // Admission stage 1: an already-expired deadline sheds the
        // whole batch before it touches the queue.
        if request.deadline_ms == Some(0) {
            {
                let acc = lock_clean(&core.accounting);
                core.reg.add(0, core.ids.submitted, jobs.len() as u64);
                core.reg
                    .add(0, core.ids.shed_over_deadline, jobs.len() as u64);
                core.reg
                    .add_labeled(core.ids.tenant_shed, &client, jobs.len() as u64);
                drop(acc);
            }
            lock_clean(&self.conn.ledger).shed_over_deadline += jobs.len();
            lock_clean(&core.ledger).shed_over_deadline += jobs.len();
            self.send_line(
                ObjBuilder::event("reject")
                    .str("reason", "over_deadline")
                    .str("use_case", request.use_case.name())
                    .u64("shed", jobs.len() as u64)
                    .finish(),
            );
            self.send_line(batch_line(
                request.count,
                0,
                0,
                jobs.len(),
                request.tag.as_deref(),
            ));
            return true;
        }

        // Admission stage 2: the shared queue is bounded; pipelined
        // batches and concurrent connections compete for the remaining
        // depth, so the shed count depends on live occupancy — that is
        // the admission control working.
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let (accepted, shed) = {
            let mut acc = lock_clean(&core.accounting);
            let room = (self.core.queue_depth as u64).saturating_sub(acc.queued) as usize;
            let accepted = jobs.len().min(room);
            let shed = jobs.len() - accepted;
            acc.queued += accepted as u64;
            core.reg.add(0, core.ids.submitted, jobs.len() as u64);
            if shed > 0 {
                core.reg.add(0, core.ids.shed_queue_full, shed as u64);
                core.reg
                    .add_labeled(core.ids.tenant_shed, &client, shed as u64);
            }
            core.mirror(&acc);
            (accepted, shed)
        };
        if shed > 0 {
            lock_clean(&self.conn.ledger).shed_queue_full += shed;
            lock_clean(&core.ledger).shed_queue_full += shed;
            self.send_line(
                ObjBuilder::event("reject")
                    .str("reason", "queue_full")
                    .str("use_case", request.use_case.name())
                    .u64("shed", shed as u64)
                    .u64("queue_depth", core.queue_depth as u64)
                    .finish(),
            );
        }
        if jobs.len() < request.count {
            self.reject(
                "family_filter",
                &format!(
                    "only {} of {} requested sessions matched the family filter \
                     (known families: {:?})",
                    jobs.len(),
                    request.count,
                    crate::family_names()
                ),
            );
        }
        if accepted == 0 {
            self.send_line(batch_line(
                request.count,
                0,
                0,
                shed,
                request.tag.as_deref(),
            ));
            return true;
        }

        let seq = self.next_batch;
        self.next_batch += 1;
        lock_clean(&self.conn.batches).insert(
            seq,
            BatchState {
                requested: request.count,
                accepted,
                shed,
                dequeue_shed: 0,
                failed: 0,
                remaining: accepted,
                tag: request.tag.clone(),
            },
        );
        let enqueued = Instant::now();
        for &index in jobs.iter().take(accepted) {
            let directive = core
                .opts
                .chaos
                .as_ref()
                .map(|p| p.directive(core.chaos_seq.fetch_add(1, Relaxed)));
            core.queue.push(SrvJob {
                job: Job {
                    kind: request.use_case,
                    seed: request.seed,
                    index,
                    directive,
                    deadline,
                },
                batch: seq,
                client: client.clone(),
                enqueued,
                reply: self.tx.clone(),
            });
        }
        core.queue.notify();
        true
    }
}

fn batch_line(
    requested: usize,
    completed: usize,
    failed: usize,
    shed: usize,
    tag: Option<&str>,
) -> String {
    let mut b = ObjBuilder::event("batch")
        .u64("requested", requested as u64)
        .u64("completed", completed as u64)
        .u64("failed", failed as u64)
        .u64("shed", shed as u64);
    if let Some(tag) = tag {
        b = b.str("tag", tag);
    }
    b.finish()
}

/// A connection's writer half: folds the connection's events into
/// protocol lines on `out`. A write failure (the client hung up, or
/// stdout closed) is kept and switches the writer to sink mode: later
/// lines are dropped, but completions still fold so every batch
/// finishes and the connection's ledger stays balanced.
pub(crate) struct ConnWriter<'c, W> {
    out: W,
    conn: &'c Conn,
    failed: Option<io::Error>,
}

impl<'c, W: Write> ConnWriter<'c, W> {
    pub(crate) fn new(out: W, conn: &'c Conn) -> Self {
        ConnWriter {
            out,
            conn,
            failed: None,
        }
    }

    fn write(&mut self, line: &str) {
        if self.failed.is_none() {
            if let Err(e) = writeln!(self.out, "{line}").and_then(|()| self.out.flush()) {
                self.failed = Some(e);
            }
        }
    }

    /// Folds one event: a line is written as is; a completion folds
    /// into the connection's ledger and its batch, its result (and
    /// trace) line is written, and the batch's last completion writes
    /// the batch line and retires the batch.
    pub(crate) fn fold(&mut self, event: ConnEvent) {
        let conn = self.conn;
        match event {
            ConnEvent::Line(line) => self.write(&line),
            ConnEvent::Eof => {}
            ConnEvent::Done(seq, done) => {
                lock_clean(&conn.ledger).record(&done);
                self.write(&done.line);
                if let Some(trace_line) = &done.trace_line {
                    self.write(trace_line);
                }
                let mut map = lock_clean(&conn.batches);
                if let Some(state) = map.get_mut(&seq) {
                    match done.class {
                        CompletionClass::Shed => state.dequeue_shed += 1,
                        CompletionClass::Completed { ok: true } => {}
                        _ => state.failed += 1,
                    }
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        let line = batch_line(
                            state.requested,
                            state.accepted - state.dequeue_shed,
                            state.failed,
                            state.shed + state.dequeue_shed,
                            state.tag.as_deref(),
                        );
                        map.remove(&seq);
                        drop(map);
                        self.write(&line);
                    }
                }
            }
        }
    }

    /// The first write error, if any (and clears it).
    pub(crate) fn take_error(&mut self) -> io::Result<()> {
        self.failed.take().map_or(Ok(()), Err)
    }

    pub(crate) fn into_inner(self) -> W {
        self.out
    }
}

/// The socket connection's writer thread: folds every event until the
/// reader is done and no batch is in flight, then ends the stream with
/// the per-connection drain line.
fn writer_loop(
    mut writer: ConnWriter<'_, BufWriter<TcpStream>>,
    rx: mpsc::Receiver<ConnEvent>,
    conn_id: u64,
) {
    let mut eof = false;
    while !(eof && writer.conn.idle()) {
        let Ok(event) = rx.recv() else { break };
        eof |= matches!(event, ConnEvent::Eof);
        writer.fold(event);
    }
    let line = lock_clean(&writer.conn.ledger)
        .ledger_fields(
            ObjBuilder::event("drain")
                .str("scope", "connection")
                .u64("conn", conn_id),
        )
        .finish();
    writer.write(&line);
    if let Ok(stream) = writer.out.into_inner() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}

/// Computes the scrape-time identities and renders the full Prometheus
/// payload. Takes the accounting lock around the snapshot so the
/// extended conservation law is exact (see the module docs).
fn render_prometheus(core: &Core<'_>) -> String {
    use std::fmt::Write as _;
    let snap = {
        let _acc = lock_clean(&core.accounting);
        core.reg.snapshot()
    };
    let (accounted, cost_accounted) = identities(&snap);
    let mut out = snap.to_prometheus("fleetd_");
    let _ = writeln!(out, "# TYPE fleetd_accounted gauge");
    let _ = writeln!(out, "fleetd_accounted {}", accounted as u8);
    let _ = writeln!(out, "# TYPE fleetd_cost_accounted gauge");
    let _ = writeln!(out, "fleetd_cost_accounted {}", cost_accounted as u8);
    let _ = writeln!(out, "# TYPE fleetd_uptime_seconds gauge");
    let _ = writeln!(
        out,
        "fleetd_uptime_seconds {}",
        core.started.elapsed().as_secs_f64()
    );
    out
}

/// The `--metrics-addr` responder: a deliberately minimal HTTP/1.0
/// server (read the request head, answer one response, close). Only
/// `GET /metrics` exists; everything else is 404, non-GET is 405.
fn metrics_loop(listener: TcpListener, core: &Core<'_>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !core.done.load(Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = serve_scrape(&mut stream, core);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL);
            }
            Err(_) => break,
        }
    }
}

fn serve_scrape(stream: &mut TcpStream, core: &Core<'_>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (first line is all we route on; cap the
    // head at 8 KiB so a misbehaving client can't balloon memory).
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" {
        ("200 OK", render_prometheus(core))
    } else {
        ("404 Not Found", "only /metrics lives here\n".to_string())
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}
