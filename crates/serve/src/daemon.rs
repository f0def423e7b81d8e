//! The `netclustd` daemon: boot, HTTP workers, log follower, shutdown.
//!
//! [`Daemon::start`] loads (or recovers) the clustering state, binds the
//! listener and spawns the threads. The `--http-threads` workers accept
//! for themselves, taking the listener in turn and serving what they got
//! start to finish; at most that many connections are in service, the rest
//! wait in the kernel's listen queue. The follower tails the log: poll →
//! apply → publish, then a wait that a change to the log ends. The view is
//! made durable behind it, on the checkpointer thread ([`crate::checkpoint`]).
//!
//! **One wait.** Every blocking point is one `poll(2)` on its own
//! descriptor plus the daemon's stop [`Waker`]: the acceptor on the
//! listener, a worker on its connection, the follower on the log's change
//! notices ([`LogFollower::wait`]). So [`Daemon::shutdown`] ends every wait
//! at once: the workers finish the request they are in and are joined,
//! then the follower, then the checkpointer (an in-flight snapshot
//! completes), and only then is the final checkpoint written — the
//! snapshot a `--resume` boot continues from.

use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use netclust_core::{
    failpoints, FaultInjector, FaultPlan, StateStore, StreamingClustering, SwapPolicy,
    VerdictPolicy,
};
use netclust_obs::Obs;
use netclust_rtable::load_tables;
use netclust_sys::{Wake, Waker};
use netclust_weblog::follow::LogFollower;

use crate::checkpoint::{self, Checkpointer};
use crate::config::ServeConfig;
use crate::http::{self, HttpResponse, Parse, RequestParser};
use crate::json;
use crate::router::{self, AppState, ServeObs};

/// Why the daemon failed to boot or shut down cleanly.
#[derive(Debug)]
pub enum ServeError {
    /// A configuration-level problem: unreadable table, bad listen
    /// address, missing log.
    Config(String),
    /// A socket- or filesystem-level failure.
    Io(std::io::Error),
    /// The persistence layer refused (corrupt state dir, failed
    /// checkpoint).
    Persist(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "config: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Persist(msg) => write!(f, "persist: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A running `netclustd` instance. Dropping it (or calling
/// [`Daemon::shutdown`]) stops and joins every thread and writes the
/// final checkpoint.
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<Waker>,
    workers: Vec<JoinHandle<()>>,
    follower: Option<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
}

impl fmt::Debug for Daemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish()
    }
}

impl Daemon {
    /// Boots the daemon: loads or recovers state, binds the listener,
    /// spawns the HTTP workers, (when a log is configured) the follower
    /// and (when a state dir is configured) the checkpointer. Returns once
    /// the service is answering requests.
    pub fn start(config: ServeConfig) -> Result<Daemon, ServeError> {
        // The daemon always records metrics — `/metrics` is an endpoint,
        // not an opt-in — so a disabled RunConfig obs is upgraded here.
        let obs = if config.run.obs_handle().is_enabled() {
            config.run.obs_handle().clone()
        } else {
            Obs::enabled()
        };
        let state = Arc::new(build_state(&config, &obs)?);

        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| ServeError::Config(format!("bind {}: {e}", config.listen)))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if let Some(path) = &config.port_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }

        // An early return from here on drops `daemon`, which stops and
        // joins whatever was already spawned.
        let mut daemon = Daemon {
            addr,
            state: Arc::clone(&state),
            stop: Arc::new(Waker::new()?),
            workers: Vec::new(),
            follower: None,
            checkpointer: None,
        };

        // What the workers take turns on: the listener, and the
        // `serve.accept` injector under the same lock so shed decisions
        // are drawn in accept order.
        let acceptor = Arc::new(Mutex::new((listener, config.faults.injector())));
        for i in 0..config.http_threads {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&daemon.stop));
            let (acceptor, plan) = (Arc::clone(&acceptor), config.faults.clone());
            let thread = std::thread::Builder::new().name(format!("netclustd-http-{i}"));
            daemon.workers.push(thread.spawn(move || {
                while let Some(conn) = next_connection(&state, &acceptor, &stop) {
                    serve_connection(&state, conn, &plan, &stop, KEEP_ALIVE_IDLE);
                }
            })?);
        }

        if state.checkpointer.is_some() {
            let state = Arc::clone(&state);
            let thread = std::thread::Builder::new().name("netclustd-checkpoint".to_string());
            daemon.checkpointer = Some(thread.spawn(move || checkpoint::run(&state))?);
        }

        if let Some(path) = &config.log {
            // A restored stream carries the cursor its snapshot was
            // taken at; a fresh one starts at 0.
            let offset = state
                .stream
                .read()
                .map_err(|_| ServeError::Persist("state lock poisoned".to_string()))?
                .feed_pos();
            let follower = LogFollower::resume_at(path, offset);
            let (stop, interval) = (Arc::clone(&daemon.stop), config.poll_interval);
            let thread = std::thread::Builder::new().name("netclustd-follow".to_string());
            daemon.follower =
                Some(thread.spawn(move || follower_loop(state, follower, interval, stop))?);
        }

        Ok(daemon)
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (for in-process inspection in tests).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops accepting, drains in-flight requests, joins the workers, the
    /// follower and the checkpointer, and writes the final checkpoint.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.wind_down();
        checkpoint::final_checkpoint(&self.state).map_err(ServeError::Persist)
    }

    fn wind_down(&mut self) {
        self.stop.wake();
        for handle in self.workers.drain(..).chain(self.follower.take()) {
            let _ = handle.join();
        }
        if let Some(cp) = &self.state.checkpointer {
            cp.stop();
        }
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.wind_down();
        let _ = checkpoint::checkpoint_now(&self.state);
    }
}

/// Builds the shared state: recovered from the state directory, whose
/// snapshot's prefix lists are the table, or fresh from the table files.
fn build_state(config: &ServeConfig, obs: &Obs) -> Result<AppState, ServeError> {
    let run = config.run.clone().obs(obs.clone());

    let mut store = None;
    let mut feed_index = 0u64;
    let stream: StreamingClustering = match &config.state_dir {
        Some(dir) if config.resume => {
            let (mut recovered_store, snapshot, report) =
                StateStore::recover(dir, run.fsync_policy())
                    .map_err(|e| ServeError::Persist(format!("recover {}: {e}", dir.display())))?;
            recovered_store = recovered_store.obs(obs);
            let mut stream =
                StreamingClustering::restore(&snapshot, SwapPolicy::default(), obs.clone())
                    .map_err(|e| ServeError::Persist(format!("restore: {e}")))?;
            // Replay the journaled delta batches the crashed (or stopped)
            // process applied after its last snapshot.
            for batch in &report.batches {
                let _ = stream.apply_deltas(&batch.deltas);
                feed_index = feed_index.max(batch.feed_index + 1);
            }
            store = Some(recovered_store);
            stream
        }
        maybe_dir => {
            let table = load_tables(&config.tables, &config.dumps)
                .map_err(|e| ServeError::Config(e.to_string()))?;
            if table.sources().is_empty() {
                return Err(ServeError::Config(
                    "no serving table: give --table or --dump".to_string(),
                ));
            }
            let stream = run.streaming(table);
            if let Some(dir) = maybe_dir {
                let mut fresh = StateStore::create(dir, run.fsync_policy())
                    .map_err(|e| ServeError::Persist(format!("create {}: {e}", dir.display())))?
                    .obs(obs);
                // Generation 1 is the empty view. The checkpointer may not
                // snapshot a busy log for a long while; the journal a
                // delta reload appends to has to exist before that.
                fresh
                    .checkpoint_encoded(|to| stream.encode_state(to))
                    .map_err(|e| ServeError::Persist(format!("base snapshot: {e}")))?;
                store = Some(fresh);
            }
            stream
        }
    };

    // The store's `persist.*` failpoints arm once the boot snapshot or the
    // recovery is behind it: they model a disk failing under a daemon that
    // is serving, not one that cannot start.
    let store = store.map(|store| store.with_faults(config.faults.injector()));
    Ok(AppState {
        stream: RwLock::new(stream),
        checkpointer: store.map(|store| Checkpointer::new(config.checkpoint_bytes, store)),
        obs: obs.clone(),
        metrics: ServeObs::resolve(obs),
        deterministic: run.is_deterministic(),
        top_default: config.top_default,
        verdict: VerdictPolicy::default(),
        feed_index: AtomicU64::new(feed_index),
    })
}

/// The acceptor's wait on the stop alone after an `accept` error: out of
/// descriptors, the listener stays readable and waiting on it would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Takes the listener and waits on it until a connection arrives; `None`
/// once a stop is requested. Workers blocked on the lock meanwhile are
/// idle, and each finds the stop requested as soon as it gets its turn.
fn next_connection(
    state: &AppState,
    acceptor: &Mutex<(TcpListener, FaultInjector)>,
    stop: &Waker,
) -> Option<TcpStream> {
    // Nothing under the lock can be left half-updated by a panicked holder.
    let mut guard = acceptor.lock().unwrap_or_else(|p| p.into_inner());
    let (listener, injector) = &mut *guard;
    while !stop.is_woken() {
        match listener.accept() {
            Ok((conn, _)) => {
                if injector.should_fire(failpoints::SERVE_ACCEPT) {
                    // Injected overload: shed the connection before it is
                    // served. The client sees a closed socket, exactly
                    // like a listen-backlog drop.
                    state.metrics.accept_shed.inc();
                    continue;
                }
                let _ = conn.set_nodelay(true);
                return Some(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stop.wait_for(listener, None);
            }
            Err(_) => {
                state.metrics.accept_shed.inc();
                stop.wait(Some(ACCEPT_BACKOFF));
            }
        }
    }
    None
}

/// How long a connection has to deliver its next complete request,
/// counted from the previous response (from accept for the first one). An
/// idle keep-alive connection is closed after this long, and so is one
/// whose peer dribbles a request in: a worker is the accept capacity, and
/// no peer may hold it for longer.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(30);

/// How long after an answer (or the accept) a stop still waits for a
/// request on its way, so a peer that asks again at once is told
/// `Connection: close` instead of finding the connection gone.
const STOP_LINGER: Duration = Duration::from_millis(100);

/// One connection's request loop: incremental parse, route, respond,
/// keep-alive until close or until a request takes longer than `budget`
/// ([`KEEP_ALIVE_IDLE`] in production). Runs on an HTTP worker; never
/// panics, never propagates.
fn serve_connection(
    state: &AppState,
    mut conn: TcpStream,
    plan: &FaultPlan,
    stop: &Waker,
    budget: Duration,
) {
    let mut injector = plan.injector();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut parser = RequestParser::default();
    let mut scratch = [0u8; 16 * 1024];
    #[allow(
        clippy::disallowed_types,
        reason = "the clock only bounds how long a peer may take over one request; it never reaches an output."
    )]
    let clock = std::time::Instant::now();
    // `clock.elapsed()` at which the request being read has overstayed.
    let mut due = budget;
    loop {
        // Drain every complete pipelined request already buffered.
        loop {
            match parser.parse(&buf) {
                Parse::Complete { request, consumed } => {
                    buf.drain(..consumed);
                    if injector.should_fire(failpoints::SERVE_REQUEST_PARSE) {
                        // Injected wire corruption: treat the request as
                        // torn — 400 and close, like a real parse failure.
                        state.metrics.parse_errors.inc();
                        let resp = HttpResponse::json(
                            400,
                            json::error_body("request torn (injected parse fault)"),
                        );
                        let _ = conn.write_all(&http::encode_response(&resp, false));
                        return;
                    }
                    let resp = router::handle(state, &request);
                    // A peer that never pauses always has the next request
                    // ready for the wait below, so a stopping daemon says so
                    // here: this response is the connection's last.
                    let keep = request.keep_alive && !stop.is_woken();
                    if conn.write_all(&http::encode_response(&resp, keep)).is_err() {
                        return;
                    }
                    if !keep {
                        return;
                    }
                    due = clock.elapsed() + budget;
                }
                Parse::Partial => break,
                Parse::Invalid(msg) => {
                    state.metrics.parse_errors.inc();
                    let resp = HttpResponse::json(400, json::error_body(msg));
                    let _ = conn.write_all(&http::encode_response(&resp, false));
                    return;
                }
            }
        }
        let left = due.saturating_sub(clock.elapsed());
        if left.is_zero() {
            // Silence is an idle connection; bytes are a request cut off.
            if !buf.is_empty() {
                state.metrics.parse_errors.inc();
            }
            return;
        }
        match stop.wait_for(&conn, Some(left)) {
            Wake::Ready => {}
            Wake::TimedOut => continue,
            // The read below waits out the rest of the linger.
            Wake::Stopped => {
                let linger = (due - budget + STOP_LINGER).saturating_sub(clock.elapsed());
                if linger.is_zero() || conn.set_read_timeout(Some(linger)).is_err() {
                    return;
                }
            }
        }
        match conn.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(scratch.get(..n).unwrap_or_default()),
        }
    }
}

/// Tails the access log — poll → apply → publish, and nothing else: each
/// polled chunk (a poll reads at most
/// [`APPLY_SLICE`](netclust_weblog::follow::APPLY_SLICE)) goes through the
/// CLF parser into the live stream, cursor and counts together, in one
/// write-lock hold. The follower only *tells* the checkpointer what it
/// applied and whether the log is quiet; no export, file write or fsync
/// sits between a log line and its visibility. Between polls it waits for
/// the log to change or the stop ([`LogFollower::wait`]), never longer
/// than `interval`.
#[allow(
    clippy::disallowed_types,
    reason = "the clock only decides when the log counts as quiet and how long a wait may last; it never reaches an output."
)]
fn follower_loop(
    state: Arc<AppState>,
    mut follower: LogFollower,
    interval: Duration,
    stop: Arc<Waker>,
) {
    // When the last byte was applied: the log is quiet one full interval
    // after it.
    let mut applied_at = std::time::Instant::now();
    while !stop.is_woken() {
        let polled = follower.poll();
        let applied = matches!(polled, Ok(Some(_)));
        // A line longer than a poll returns nothing until its last slice is
        // read: the bytes already there are read without a wait.
        let more = applied || (polled.is_ok() && follower.has_unread());
        match polled {
            Ok(Some(chunk)) => {
                let Ok(mut stream) = state.stream.write() else {
                    state.metrics.follow_errors.inc();
                    eprintln!("netclustd: follower stopped: state lock poisoned");
                    return;
                };
                let _ = stream.push_clf_at(&chunk, follower.offset());
                if let Some(cp) = &state.checkpointer {
                    cp.note_applied(chunk.len() as u64);
                }
                drop(stream);
                state.metrics.follow_chunks.inc();
                state.metrics.follow_bytes.add(chunk.len() as u64);
                follower.recycle(chunk);
                applied_at = std::time::Instant::now();
            }
            Ok(None) => {}
            Err(_) => state.metrics.follow_errors.inc(),
        }
        state
            .metrics
            .follow_lag
            .set(follower.file_len().saturating_sub(follower.offset()));
        let idle = applied_at.elapsed();
        if let Some(cp) = &state.checkpointer {
            state.metrics.checkpoint_dirty.set(cp.dirty_bytes());
            if cp.consider(idle >= interval) {
                state.metrics.checkpoint_coalesced.inc();
            }
        }
        if !more {
            // Until the log counts as quiet, wake in time to report it.
            let bound = match interval.checked_sub(idle) {
                Some(left) if !left.is_zero() => left,
                _ => interval,
            };
            let wake = match follower.wait(bound, &stop) {
                Wake::Ready => &state.metrics.follow_notified,
                Wake::TimedOut => &state.metrics.follow_timed_out,
                Wake::Stopped => return,
            };
            wake.inc();
            state
                .metrics
                .follow_watching
                .set(u64::from(follower.is_watching()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_testkit::{Client, TempDir};

    /// A daemon state over a one-prefix table (its file gone once read),
    /// and a connected loopback pair: the peer's end and the end
    /// `serve_connection` takes.
    fn loopback(test: &str) -> (AppState, TcpStream, TcpStream) {
        let dir = TempDir::new(&format!("netclustd-{test}"));
        let table = dir.join("t.bgp");
        std::fs::write(&table, "10.0.0.0/8\n").expect("table file");
        let config = ServeConfig::new().tables(vec![table]);
        let state = build_state(&config, &Obs::enabled()).expect("state");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        (state, peer, conn)
    }

    /// A peer dribbling a request in a byte at a time — never a quiet
    /// moment — is cut off once the budget since the previous response is
    /// spent, and counted as a request that did not parse.
    #[test]
    fn a_dribbled_request_is_cut_off_at_the_budget() {
        let (state, mut peer, conn) = loopback("dribble");
        let budget = Duration::from_millis(300);
        let took = std::thread::scope(|scope| {
            // Before the peer starts its clock, so its 100 ms count in full.
            let accepted = std::time::Instant::now();
            scope.spawn(move || {
                // A whole request 100 ms in is answered and restarts the
                // budget; then comes a head that never ends.
                std::thread::sleep(Duration::from_millis(100));
                let _ = peer.write_all(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\n",
                );
                while peer.write_all(b"a").is_ok() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
            let (plan, stop) = (FaultPlan::disabled(), Waker::new().expect("waker"));
            serve_connection(&state, conn, &plan, &stop, budget);
            accepted.elapsed()
        });
        let ms = Duration::from_millis;
        assert!(took >= ms(400), "cut off early: {took:?}");
        assert!(took < ms(5_000), "held the worker for {took:?}");
        let m = &state.metrics;
        assert_eq!((m.requests.get(), m.parse_errors.get()), (1, 1));
    }

    /// A peer that sends its next request the moment a reply arrives — the
    /// benchmark's closed-loop client — always has a request ready when the
    /// worker waits; it is told `Connection: close` on the first response
    /// after stop instead.
    #[test]
    fn a_busy_keep_alive_peer_is_closed_at_the_first_response_after_stop() {
        let (state, peer, conn) = loopback("busy");
        let (plan, stop) = (FaultPlan::disabled(), Waker::new().expect("waker"));
        let ms = Duration::from_millis;
        let started = std::time::Instant::now();
        let (took, last_head) = std::thread::scope(|scope| {
            let client = scope.spawn(move || {
                let mut peer = Client::over(peer);
                let mut last_head = String::new();
                // Gives up after 3 s so a daemon that never closes fails
                // the test instead of hanging it.
                while started.elapsed() < ms(3_000)
                    && (peer.conn)
                        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                        .is_ok()
                {
                    let Some(reply) = peer.next_reply() else {
                        break;
                    };
                    last_head = reply.head;
                }
                last_head
            });
            scope.spawn(|| {
                std::thread::sleep(ms(100));
                stop.wake();
            });
            serve_connection(&state, conn, &plan, &stop, KEEP_ALIVE_IDLE);
            (started.elapsed(), client.join().expect("client"))
        });
        assert!(took >= ms(100), "returned before stop: {took:?}");
        assert!(took < ms(1_000), "outlasted stop by {took:?}");
        assert!(last_head.contains("Connection: close"), "{last_head}");
        assert!(state.metrics.requests.get() > 1);
    }
}
