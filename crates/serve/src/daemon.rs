//! The `matic serve` daemon: accept loop, per-connection dispatch, job
//! registry, and graceful drain.
//!
//! # Job lifecycle
//!
//! ```text
//! Submit ──admit──▶ queued ──first unit──▶ running ──last unit──▶ done
//!     │                 │                     │
//!     │ (bad spec /     │◀────── Cancel ─────▶│  stops at the next
//!     ▼  draining)      ▼                     ▼  cell boundary
//! rejected          cancelled             cancelled | failed
//! ```
//!
//! # Shutdown drain
//!
//! `Shutdown` flips the daemon into *draining*: new submissions are
//! answered with a structured `Rejected` event, every live job's cancel
//! token is flipped, and the handler waits for all jobs to reach a
//! terminal phase. Workers finish (and checkpoint, through the cache's
//! atomic writer) the cell they are on — nothing computed is lost — then
//! the queue closes (a submission that slipped past the drain flag ends
//! cancelled unrun), the workers join, and the socket file is removed.
//!
//! # Admission
//!
//! An accepted job joins the pool's round-robin queue in one push that
//! never blocks, so its connection streams progress from acceptance on.
//!
//! # Accepting connections
//!
//! Each listener (the Unix socket, and the HTTP address when one is
//! configured) has an accept loop that blocks in `accept()`, so a
//! connection is served the moment it arrives, on a thread of its own.
//! Each new connection first joins the connection threads that have
//! finished, which releases their stacks: the loop holds live
//! connections only. To stop, the `Shutdown` handler sets the stop flag
//! and then connects once to the daemon's own socket and to its bound
//! HTTP address. Each loop takes that connection, sees the flag, drops
//! the connection and exits after joining its live connection threads.

use crate::http::{read_body, read_head, ChunkWriter, MAX_BODY_BYTES, PROTOCOL_PATH};
use crate::job::{Job, JobWork};
use crate::pool::{run_one_unit, spawn_workers, SharedExec, WorkQueue};
use crate::protocol::{read_message, write_message, Event, JobStatusInfo, Request};
use matic_harness::SweepCache;
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Progress ticks are coalesced to this cadence per connection: a slow
/// client throttles only its own stream, never the workers.
const PROGRESS_TICK: Duration = Duration::from_millis(100);

/// A submit stream with nothing to say for this long sends a
/// `Heartbeat`, so client read timeouts never mistake a slow cell for
/// a dead daemon.
const HEARTBEAT_IDLE: Duration = Duration::from_secs(2);

/// How long a connection may take to deliver its request (a Unix request
/// line, or an HTTP head and body). A sender that stalls longer is
/// answered with an error and its thread is freed. The limit is lifted
/// before dispatch, so a long job's event stream is unaffected.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything `matic serve` needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Worker threads in the shared pool (>= 1).
    pub workers: usize,
    /// Persistent cell cache shared by every job, if any.
    pub cache_dir: Option<PathBuf>,
    /// Suppress the daemon's stderr narration.
    pub quiet: bool,
    /// Also listen for HTTP clients on this `host:port` (port 0 picks a
    /// free one; the bound address is published in `<socket>.http`).
    pub http: Option<String>,
}

impl ServeConfig {
    /// A config with the given socket and worker count, and no cache.
    pub fn new(socket: impl Into<PathBuf>, workers: usize) -> Self {
        ServeConfig {
            socket: socket.into(),
            workers,
            cache_dir: None,
            quiet: false,
            http: None,
        }
    }

    /// The file the bound HTTP address is published in while the daemon
    /// runs (`--http 127.0.0.1:0` binds an ephemeral port; scripts read
    /// the real one from here).
    pub fn http_addr_file(&self) -> PathBuf {
        let mut name = self.socket.as_os_str().to_os_string();
        name.push(".http");
        PathBuf::from(name)
    }
}

struct Daemon {
    cfg: ServeConfig,
    /// The address the HTTP listener is bound to, if there is one.
    http_addr: Option<SocketAddr>,
    exec: Arc<SharedExec>,
    queue: Arc<WorkQueue>,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
}

impl Daemon {
    fn note(&self, msg: std::fmt::Arguments<'_>) {
        if !self.cfg.quiet {
            eprintln!("serve: {msg}");
        }
    }

    /// Locks the job registry. Poison policy: the lock guards only one
    /// map insert, lookup or snapshot of `Arc` clones at a time, none of
    /// which can leave the map half-updated, so a poisoned registry is
    /// used as it stands.
    fn registry(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<Job>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.registry().get(&id).cloned()
    }

    fn job_snapshot(&self) -> Vec<Arc<Job>> {
        self.registry().values().cloned().collect()
    }
}

/// Runs the daemon until a `Shutdown` request drains it. Returns only
/// after workers joined and the socket file was removed.
pub fn serve(cfg: ServeConfig) -> Result<(), String> {
    if cfg.workers == 0 {
        return Err("the worker pool needs at least one thread".into());
    }
    let cache = cfg
        .cache_dir
        .as_ref()
        .map(|dir| {
            SweepCache::open(dir).map_err(|e| format!("opening sweep cache {}: {e}", dir.display()))
        })
        .transpose()?;
    // The HTTP listener binds first, so a bad address leaves no socket
    // file and no worker behind.
    let http = match &cfg.http {
        Some(addr) => {
            let tcp = TcpListener::bind(addr).map_err(|e| format!("binding http://{addr}: {e}"))?;
            let bound = tcp
                .local_addr()
                .map_err(|e| format!("resolving the bound http address: {e}"))?;
            Some((tcp, bound))
        }
        None => None,
    };
    let listener = bind_socket(&cfg.socket)?;

    let daemon = Arc::new(Daemon {
        cfg,
        http_addr: http.as_ref().map(|(_, bound)| *bound),
        exec: Arc::new(SharedExec {
            cache,
            inflight: Default::default(),
        }),
        queue: Arc::default(),
        jobs: Mutex::new(BTreeMap::new()),
        next_id: AtomicU64::new(1),
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    });
    let mut workers = Vec::with_capacity(daemon.cfg.workers);
    let served = spawn_workers(
        daemon.cfg.workers,
        &daemon.queue,
        &daemon.exec,
        &mut workers,
    )
    .map_err(|e| format!("spawning a worker thread: {e}"))
    .and_then(|()| run_listeners(&daemon, listener, http));

    // The shutdown handler closed the queue once every job had settled;
    // a start that failed part-way closes it here. Either way the
    // workers finish what is queued and exit.
    daemon.queue.close();
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(&daemon.cfg.socket);
    if served.is_ok() {
        daemon.note(format_args!("shut down cleanly"));
    }
    served
}

/// Accepts connections on the socket, and on the HTTP listener when
/// there is one, until a `Shutdown` stops both accept loops.
fn run_listeners(
    daemon: &Arc<Daemon>,
    listener: UnixListener,
    http: Option<(TcpListener, SocketAddr)>,
) -> Result<(), String> {
    daemon.note(format_args!(
        "listening on {} ({} workers, cache {})",
        daemon.cfg.socket.display(),
        daemon.cfg.workers,
        daemon
            .cfg
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "off".into()),
    ));

    // The optional HTTP listener runs its own accept loop on the same
    // daemon state; the dispatch below never knows which wire a request
    // arrived on.
    let http_accept = match http {
        Some((tcp, bound)) => {
            let addr_file = daemon.cfg.http_addr_file();
            std::fs::write(&addr_file, format!("{bound}\n"))
                .map_err(|e| format!("writing {}: {e}", addr_file.display()))?;
            daemon.note(format_args!(
                "http on {bound} (published in {})",
                addr_file.display()
            ));
            let daemon = Arc::clone(daemon);
            Some(
                std::thread::Builder::new()
                    .name("matic-serve-http".into())
                    .spawn(move || {
                        let accept = || tcp.accept().map(|(stream, _)| stream);
                        if let Err(e) = accept_loop(&daemon, accept, handle_http_connection) {
                            daemon.note(format_args!("http accept failed: {e}"));
                        }
                    })
                    .map_err(|e| format!("spawning the http accept thread: {e}"))?,
            )
        }
        None => None,
    };

    let accept = || listener.accept().map(|(stream, _)| stream);
    accept_loop(daemon, accept, handle_connection)
        .map_err(|e| format!("accepting on the serve socket: {e}"))?;
    if let Some(accept) = http_accept {
        let _ = accept.join();
        let _ = std::fs::remove_file(daemon.cfg.http_addr_file());
    }
    Ok(())
}

/// Serves every connection `accept` blocks for, each on a thread of its
/// own running `handle`, until a connection arrives after the stop flag
/// was set. Then joins the live connection threads. An accept error ends
/// the loop at once.
fn accept_loop<S: Send + 'static>(
    daemon: &Arc<Daemon>,
    mut accept: impl FnMut() -> io::Result<S>,
    handle: fn(&Arc<Daemon>, S),
) -> io::Result<()> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = accept()?;
        if daemon.stop.load(Ordering::Acquire) {
            break; // the shutdown wake-up (or a client too late to serve)
        }
        // A finished thread keeps its stack until it is joined.
        for done in connections.extract_if(.., |c| c.is_finished()) {
            if done.join().is_err() {
                daemon.note(format_args!("a connection thread panicked"));
            }
        }
        let conn = Arc::clone(daemon);
        match std::thread::Builder::new()
            .name("matic-serve-conn".into())
            .spawn(move || handle(&conn, stream))
        {
            Ok(thread) => connections.push(thread),
            Err(e) => daemon.note(format_args!("dropping a connection: {e}")),
        }
    }
    for c in connections {
        let _ = c.join();
    }
    Ok(())
}

/// Wakes the accept loops, blocked in `accept`, once the stop flag is
/// set: one connection to the daemon's own socket and one to its HTTP
/// address (loopback when it is bound to every interface).
fn wake_accept_loops(daemon: &Daemon) {
    if let Err(e) = UnixStream::connect(&daemon.cfg.socket) {
        daemon.note(format_args!("waking the socket accept loop: {e}"));
    }
    if let Some(mut addr) = daemon.http_addr {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        if let Err(e) = TcpStream::connect_timeout(&addr, REQUEST_READ_TIMEOUT) {
            daemon.note(format_args!("waking the http accept loop: {e}"));
        }
    }
}

/// Binds the socket, recovering a stale file from a dead daemon (a
/// leftover path nobody answers on) but refusing to evict a live one.
fn bind_socket(path: &std::path::Path) -> Result<UnixListener, String> {
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(format!(
                    "{} is already served by a running daemon",
                    path.display()
                ))
            }
            Err(_) => {
                // Nobody home: a previous daemon died without cleanup.
                std::fs::remove_file(path)
                    .map_err(|e| format!("removing stale socket {}: {e}", path.display()))?;
            }
        }
    }
    UnixListener::bind(path).map_err(|e| format!("binding {}: {e}", path.display()))
}

fn handle_connection(daemon: &Arc<Daemon>, stream: UnixStream) {
    let mut writer = stream;
    let request = match read_request(&writer, REQUEST_READ_TIMEOUT) {
        Ok(Some(req)) => req,
        Ok(None) => return, // client connected and hung up
        Err(e) => {
            let _ = write_message(
                &mut writer,
                &Event::Error {
                    reason: format!("unreadable request: {e}"),
                },
            );
            return;
        }
    };
    dispatch(daemon, &mut writer, request);
}

/// Reads one request line from a Unix connection, giving up once no byte
/// has arrived for `timeout`, then clears the timeout again. `Ok(None)`
/// when the client hung up without sending anything.
fn read_request(stream: &UnixStream, timeout: Duration) -> io::Result<Option<Request>> {
    stream.set_read_timeout(Some(timeout))?;
    let request = read_message(&mut BufReader::new(stream), MAX_BODY_BYTES)?;
    stream.set_read_timeout(None)?;
    Ok(request)
}

/// One HTTP exchange: parse the POSTed request line, stream the events
/// back as the chunked response body, terminate the chunked framing.
fn handle_http_connection(daemon: &Arc<Daemon>, stream: TcpStream) {
    if stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut raw_writer = stream;
    let parsed = read_head(&mut reader).and_then(|head| {
        let body = read_body(&mut reader, head.content_length()?)?;
        Ok((head, body))
    });
    let (head, body) = match parsed.and_then(|parts| {
        raw_writer.set_read_timeout(None)?;
        Ok(parts)
    }) {
        Ok(parts) => parts,
        Err(e) => {
            let _ = write!(
                raw_writer,
                "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            );
            daemon.note(format_args!("http request unreadable: {e}"));
            return;
        }
    };
    let post_ok = {
        let mut parts = head.line.split_whitespace();
        parts.next() == Some("POST") && parts.next() == Some(PROTOCOL_PATH)
    };
    if !post_ok {
        let _ = write!(
            raw_writer,
            "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        return;
    }
    if write!(
        raw_writer,
        "HTTP/1.1 200 OK\r\n\
         Content-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\n\
         Connection: close\r\n\r\n"
    )
    .is_err()
    {
        return;
    }
    let mut writer = ChunkWriter::new(raw_writer);
    let request = std::str::from_utf8(&body)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<Request>(text.trim()).map_err(|e| e.to_string()));
    match request {
        Ok(request) => dispatch(daemon, &mut writer, request),
        Err(e) => {
            let _ = write_message(
                &mut writer,
                &Event::Error {
                    reason: format!("unreadable request: {e}"),
                },
            );
        }
    }
    let _ = writer.finish();
}

/// Serves one request, whatever wire it came in on.
fn dispatch(daemon: &Arc<Daemon>, writer: &mut impl Write, request: Request) {
    match request {
        Request::Submit(spec) => handle_submit(daemon, writer, spec),
        Request::Status => {
            let jobs: Vec<JobStatusInfo> =
                daemon.job_snapshot().iter().map(|j| j.status()).collect();
            let _ = write_message(writer, &Event::Status { jobs });
        }
        Request::Cancel(id) => {
            let event = match daemon.job(id) {
                Some(job) => {
                    job.cancel.cancel();
                    daemon.note(format_args!("job {id} cancel requested"));
                    Event::CancelOk {
                        id,
                        phase: job.phase_name().to_string(),
                    }
                }
                None => Event::Error {
                    reason: format!("no job with id {id}"),
                },
            };
            let _ = write_message(writer, &event);
        }
        Request::Shutdown => handle_shutdown(daemon, writer),
    }
}

fn handle_submit(daemon: &Arc<Daemon>, writer: &mut impl Write, spec: crate::protocol::JobSpec) {
    if daemon.draining.load(Ordering::Acquire) {
        let _ = write_message(
            writer,
            &Event::Rejected {
                reason: "draining: the daemon is shutting down and accepts no new jobs".into(),
            },
        );
        return;
    }
    let id = daemon.next_id.fetch_add(1, Ordering::Relaxed);
    let work = match JobWork::new(spec, daemon.exec.cache.is_some()) {
        Ok(work) => Arc::new(work),
        Err(reason) => {
            let _ = write_message(writer, &Event::Rejected { reason });
            return;
        }
    };
    let job = Arc::new(Job::new(id, &work));
    daemon.registry().insert(id, Arc::clone(&job));
    let cells_total = job.cells_total;
    daemon.note(format_args!(
        "job {id} accepted ({cells_total} cells, {} units)",
        work.units.len()
    ));
    if write_message(writer, &Event::Accepted { id, cells_total }).is_err() {
        // Client vanished before we queued anything: nobody wants this.
        job.cancel.cancel();
    }
    if !daemon.queue.push(&job, &work) {
        // A shutdown closed the queue under us: end every unit
        // cancelled, so the job still terminates.
        job.cancel.cancel();
        for unit_idx in 0..work.units.len() {
            run_one_unit(&daemon.exec, &job, &work, unit_idx);
        }
    }
    // The queue and the workers hold the work from here on.
    drop(work);
    stream_progress(daemon, writer, &job);
}

/// Streams coalesced progress ticks (and idle heartbeats) until the
/// job settles, then the terminal event. A dead client cancels its own
/// job (the cache keeps everything already computed).
fn stream_progress(daemon: &Arc<Daemon>, writer: &mut impl Write, job: &Arc<Job>) {
    let id = job.id;
    let total = job.cells_total;
    let mut last_done = usize::MAX;
    let mut last_write = Instant::now();
    loop {
        if let Some(end) = job.take_terminal() {
            let (done, hits, deduped, misses) = job.progress.snapshot();
            let failure = match &end {
                Event::Failed { reason, .. } => format!(": {reason}"),
                _ => String::new(),
            };
            daemon.note(format_args!(
                "job {id} {} after {done}/{total} cells ({hits} hits, {deduped} deduped, \
                 {misses} misses){failure}",
                job.phase_name()
            ));
            let _ = write_message(writer, &end);
            return;
        }
        let (done, hits, deduped, misses) = job.progress.snapshot();
        let event = if done != last_done {
            last_done = done;
            Some(Event::Progress {
                id,
                done,
                total,
                hits,
                deduped,
                misses,
            })
        } else if last_write.elapsed() >= HEARTBEAT_IDLE {
            Some(Event::Heartbeat { id })
        } else {
            None
        };
        if let Some(event) = event {
            if write_message(writer, &event).is_err() {
                job.cancel.cancel();
                daemon.note(format_args!("job {id} client vanished; cancelling"));
                return;
            }
            last_write = Instant::now();
        }
        job.wait_changed(PROGRESS_TICK);
    }
}

fn handle_shutdown(daemon: &Arc<Daemon>, writer: &mut impl Write) {
    daemon.draining.store(true, Ordering::Release);
    let jobs = daemon.job_snapshot();
    let mut drained = 0usize;
    for job in &jobs {
        if !job.is_terminal() {
            job.cancel.cancel();
            drained += 1;
        }
    }
    daemon.note(format_args!("draining {drained} live jobs"));
    for job in &jobs {
        job.wait_terminal();
    }
    // A submission that slipped past the drain flag is refused from here.
    daemon.queue.close();
    let _ = write_message(
        writer,
        &Event::ShutdownOk {
            jobs_drained: drained,
        },
    );
    daemon.stop.store(true, Ordering::Release);
    wake_accept_loops(daemon);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    #[test]
    fn a_request_read_gives_up_on_a_stalled_sender_and_then_clears_its_timeout() {
        let timeout = Duration::from_millis(50);
        // Nothing sent, then half a line: each read gives up.
        for partial in [&b""[..], b"{\"Status\""] {
            let (mut client, server) = UnixStream::pair().unwrap();
            client.write_all(partial).unwrap();
            let start = Instant::now();
            let err = read_request(&server, timeout).expect_err("a stalled sender must time out");
            assert!(
                matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "{err:?}"
            );
            assert!(start.elapsed() < Duration::from_secs(5));
        }
        // A prompt request is read, and the stream is left without a
        // timeout for the events that follow.
        let (mut client, server) = UnixStream::pair().unwrap();
        write_message(&mut client, &Request::Shutdown).unwrap();
        let request = read_request(&server, timeout).unwrap();
        assert!(matches!(request, Some(Request::Shutdown)), "{request:?}");
        assert_eq!(server.read_timeout().unwrap(), None);
        // A client that hangs up without a byte is no request at all.
        let (client, server) = UnixStream::pair().unwrap();
        drop(client);
        assert!(read_request(&server, timeout).unwrap().is_none());
    }
}
