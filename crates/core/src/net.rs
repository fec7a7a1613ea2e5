//! Remote cache-store backend: a std-only, length-prefixed TCP
//! protocol sharing one [`CacheStore`] between many rewriting clients.
//!
//! # Wire protocol
//!
//! Every message — request or response — is one length-prefixed
//! checksummed frame: a `u32` little-endian byte count followed by
//! exactly one record frame in the store's segment encoding
//! (`tag u8 · key u64 · len u32 · checksum u64 · payload[len]`, see
//! `store.rs`). Reusing [`encode_frame`]/[`scan_frames`] means a torn
//! or bit-flipped response fails validation exactly like a damaged
//! segment would — and gets the same answer: quarantine the exchange
//! (a transport error), never trust the bytes.
//!
//! Requests: `GET` (key = record key, payload = stage tag + key
//! epoch), `PUT` (payload = stage tag + lease fence + record bytes),
//! `LEASE` (key = client nonce, payload = key epoch), `RENEW` /
//! `RELEASE` (key = lease token), `STATS`. Responses: `HIT`/`MISS`,
//! `OK`/`REJECTED`, `GRANT` (key = token, payload = fence + TTL ms) /
//! `BUSY`, `STATS` (JSON [`ServerStats`]), `ERR`.
//!
//! # Epoch-fenced leases
//!
//! The local store's advisory PID lock cannot span machines, so the
//! server arbitrates writers with **leases**: one writer at a time
//! holds a token and a monotonically increasing **fence** number,
//! bumped on every grant. Every `PUT` carries the writer's fence; the
//! server rejects any fence that is not the *current, unexpired* one —
//! so a paused writer whose lease lapsed (and was re-granted to
//! someone else) can never interleave stale writes, no matter how late
//! its packets arrive. A rejected `PUT` writes nothing.
//!
//! # Degradation ladder
//!
//! A dead or lying server must only ever cost cache misses — never
//! wrong bytes, never a hung run:
//!
//! 1. transient faults (timeout, refused connection, short read, torn
//!    frame, checksum mismatch, lost lease) get deterministically
//!    jittered bounded retries ([`RetryPolicy`]);
//! 2. a failed or missed read hedges to the read-only **local
//!    overflow store** (the `--cache-dir`, when one is given);
//! 3. enough *consecutive* transport failures trip the per-connection
//!    **circuit breaker**, degrading the client to fully-local
//!    operation for the rest of the run — pending records flush to the
//!    overflow store instead.

use crate::retry::{RetryPolicy, Transience};
use crate::store::{
    encode_frame, lock_timeout, scan_frames, CacheStore, FaultRng, RecordBytes, Stage,
    StoreBackend, StoreEvent, StoreEventKind, StoreFaults, StoreStats, FORMAT_VERSION, FRAME_LEN,
    KEY_EPOCH,
};
use crate::trace::{StoreOp, StoreSrc, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ----- message tags ------------------------------------------------------

const OP_GET: u8 = 0x10;
const OP_PUT: u8 = 0x11;
const OP_LEASE: u8 = 0x12;
const OP_RENEW: u8 = 0x13;
const OP_RELEASE: u8 = 0x14;
const OP_STATS: u8 = 0x15;

const RE_HIT: u8 = 0x20;
const RE_MISS: u8 = 0x21;
const RE_OK: u8 = 0x22;
const RE_GRANT: u8 = 0x23;
const RE_BUSY: u8 = 0x24;
const RE_REJECTED: u8 = 0x25;
const RE_STATS: u8 = 0x26;
const RE_ERR: u8 = 0x27;

/// Upper bound on one wire message (a corrupt length prefix must not
/// cause a huge allocation).
const MAX_MESSAGE: u32 = 260 << 20;

fn request_tag(tag: u8) -> bool {
    (OP_GET..=OP_STATS).contains(&tag)
}

fn response_tag(tag: u8) -> bool {
    (RE_HIT..=RE_ERR).contains(&tag)
}

// ----- framing -----------------------------------------------------------

/// Write one length-prefixed checksummed frame.
fn write_message(w: &mut impl std::io::Write, tag: u8, key: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
    encode_frame(&mut frame, tag, key, payload);
    w.write_all(&u32::try_from(frame.len()).expect("frame fits u32").to_le_bytes())?;
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame and validate it with the store's
/// segment scanner. Anything short, torn, over-long, checksum-bad or
/// carrying an unknown tag is an `InvalidData` error — the caller
/// treats it exactly like a connection fault.
fn read_message(
    r: &mut impl std::io::Read,
    valid_tag: impl Fn(u8) -> bool,
) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len < FRAME_LEN as u32 || len > MAX_MESSAGE {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("implausible message length {len}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    let mut scan = scan_frames(&buf, valid_tag);
    if scan.frames.len() != 1 || scan.corrupt != 0 || scan.truncated {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "torn or corrupt frame",
        ));
    }
    let (tag, key, range) = scan.frames.pop().expect("one frame");
    buf.copy_within(range.clone(), 0);
    buf.truncate(range.len());
    Ok((tag, key, buf))
}

// ----- store URLs --------------------------------------------------------

/// A parsed `icfgp://host:port` store URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreUrl {
    /// Server host (name or address; `[...]` for IPv6 literals).
    pub host: String,
    /// Server TCP port.
    pub port: u16,
}

impl std::fmt::Display for StoreUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "icfgp://{}:{}", self.host, self.port)
    }
}

/// Parse a store URL of the form `icfgp://host:port`.
///
/// The CLI validates `--store-url` / `ICFGP_STORE_URL` with this up
/// front and exits 64 (usage) on `Err`, matching the `ICFGP_THREADS`
/// contract.
///
/// # Errors
///
/// A usage message when the scheme is not `icfgp://`, the port is
/// missing or unparsable, or the host is empty or malformed.
pub fn parse_store_url(raw: &str) -> Result<StoreUrl, String> {
    let trimmed = raw.trim();
    let Some(rest) = trimmed.strip_prefix("icfgp://") else {
        return Err(format!(
            "store URL must use the icfgp://host:port scheme, got {raw:?}"
        ));
    };
    let rest = rest.strip_suffix('/').unwrap_or(rest);
    // IPv6 literals keep their colons inside brackets.
    let (host, port) = if let Some(v6) = rest.strip_prefix('[') {
        let Some((host, after)) = v6.split_once(']') else {
            return Err(format!("unterminated IPv6 literal in store URL {raw:?}"));
        };
        let Some(port) = after.strip_prefix(':') else {
            return Err(format!("store URL {raw:?} is missing a :port"));
        };
        (format!("[{host}]"), port)
    } else {
        let Some((host, port)) = rest.rsplit_once(':') else {
            return Err(format!("store URL {raw:?} is missing a :port"));
        };
        (host.to_string(), port)
    };
    let bare = host.trim_start_matches('[').trim_end_matches(']');
    if bare.is_empty()
        || !bare
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | ':'))
    {
        return Err(format!("store URL {raw:?} has an unparsable host"));
    }
    let port: u16 = port
        .parse()
        .map_err(|_| format!("store URL {raw:?} has an unparsable port (want 1-65535)"))?;
    if port == 0 {
        return Err(format!("store URL {raw:?} has an unparsable port (want 1-65535)"));
    }
    Ok(StoreUrl { host: bare.to_string(), port })
}

// ----- fault injection ---------------------------------------------------

/// Deterministic network fault injection for the remote-store
/// transport, armed by the [`FaultPlan`](crate::FaultPlan) `net_*`
/// knobs. Faults only ever damage the *transport* — the client's
/// retry/hedge/degrade ladder must absorb every one of them without
/// changing output bytes or hanging.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetFaults {
    /// PRNG seed for the fault draws.
    pub seed: u64,
    /// Probability an exchange is delayed before sending.
    pub delay: f64,
    /// How long an injected delay sleeps, in milliseconds.
    pub delay_ms: u64,
    /// Probability the connection drops before the request is sent.
    pub drop: f64,
    /// Probability the response arrives torn (truncated mid-frame,
    /// surfacing as the same error a real short read produces).
    pub torn_response: f64,
    /// Probability the response fails its frame checksum (a lying
    /// server or an on-path bit flip; caught by validation).
    pub bit_flip_reply: f64,
    /// Probability a `PUT`/`RENEW` reply is replaced by `REJECTED`,
    /// as if the lease expired under the writer.
    pub lease_expire: f64,
    /// Deterministic lease-expiry kill point: the Nth `PUT` of the run
    /// (1-based) is rejected regardless of probability; 0 disables.
    pub lease_expire_at: u64,
    /// Probability the server dies mid-`PUT`: the reply never arrives
    /// and (with an in-process server) every later connection is
    /// refused.
    pub kill_mid_put: f64,
}

impl NetFaults {
    /// Whether any fault class is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.delay > 0.0
            || self.drop > 0.0
            || self.torn_response > 0.0
            || self.bit_flip_reply > 0.0
            || self.lease_expire > 0.0
            || self.lease_expire_at > 0
            || self.kill_mid_put > 0.0
    }
}

// ----- transports --------------------------------------------------------

/// One request/response exchange with the store server.
/// Implementations own their connection state; an error invalidates
/// the connection and the next exchange reconnects.
pub trait Transport: Send {
    /// Send one request frame; receive one response frame.
    ///
    /// # Errors
    ///
    /// Any transport fault: connect/read/write failure, timeout, torn
    /// or checksum-invalid response. All are treated as transient by
    /// the client's retry policy.
    fn exchange(&mut self, tag: u8, key: u64, payload: &[u8])
        -> std::io::Result<(u8, u64, Vec<u8>)>;
}

/// The real TCP transport: one lazily-(re)connected stream with
/// connect/read/write timeouts so a dead server costs a bounded wait,
/// never a hang.
pub struct TcpTransport {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl TcpTransport {
    /// A transport to `addr` with the given per-operation timeout.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> TcpTransport {
        TcpTransport { addr, timeout, stream: None }
    }

    fn connected(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            let _ = s.set_nodelay(true);
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }
}

impl Transport for TcpTransport {
    fn exchange(
        &mut self,
        tag: u8,
        key: u64,
        payload: &[u8],
    ) -> std::io::Result<(u8, u64, Vec<u8>)> {
        let run = (|| {
            let s = self.connected()?;
            write_message(s, tag, key, payload)?;
            read_message(s, response_tag)
        })();
        if run.is_err() {
            // The stream may hold a half-written request or a
            // half-read reply; never reuse it.
            self.stream = None;
        }
        run
    }
}

/// A transport to a host that could not even be resolved: every
/// exchange fails immediately. The client's breaker degrades it to
/// fully-local operation after the usual budget.
struct UnresolvedTransport(String);

impl Transport for UnresolvedTransport {
    fn exchange(&mut self, _: u8, _: u64, _: &[u8]) -> std::io::Result<(u8, u64, Vec<u8>)> {
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unresolvable store host {}", self.0),
        ))
    }
}

/// A fault-injecting wrapper around any [`Transport`] (chaos
/// campaigns). Draws are deterministic in [`NetFaults::seed`].
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    faults: NetFaults,
    rng: FaultRng,
    puts_seen: u64,
    injected: Arc<AtomicU64>,
    kill: Option<Arc<AtomicBool>>,
}

impl FaultyTransport {
    /// Wrap `inner` with `faults`; `kill` is the in-process server's
    /// stop flag, set when a `kill_mid_put` fault fires (pass `None`
    /// for a real out-of-process server — the reply is still dropped).
    #[must_use]
    pub fn new(
        inner: Box<dyn Transport>,
        faults: NetFaults,
        kill: Option<Arc<AtomicBool>>,
    ) -> FaultyTransport {
        FaultyTransport {
            inner,
            rng: FaultRng(faults.seed ^ 0x0051_570F_4E45_5400_u64),
            faults,
            puts_seen: 0,
            injected: Arc::new(AtomicU64::new(0)),
            kill,
        }
    }

    /// Shared counter of faults injected so far (campaign reporting).
    #[must_use]
    pub fn injected_counter(&self) -> Arc<AtomicU64> {
        self.injected.clone()
    }

    fn inject(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
}

impl Transport for FaultyTransport {
    fn exchange(
        &mut self,
        tag: u8,
        key: u64,
        payload: &[u8],
    ) -> std::io::Result<(u8, u64, Vec<u8>)> {
        let f = self.faults;
        if self.rng.chance(f.delay) && f.delay_ms > 0 {
            self.inject();
            std::thread::sleep(Duration::from_millis(f.delay_ms));
        }
        if self.rng.chance(f.drop) {
            self.inject();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected connection drop",
            ));
        }
        let is_put = tag == OP_PUT;
        if is_put {
            self.puts_seen += 1;
        }
        if is_put && self.rng.chance(f.kill_mid_put) {
            self.inject();
            if let Some(k) = &self.kill {
                k.store(true, Ordering::SeqCst);
            }
            // The request may or may not have been applied; the reply
            // is gone either way.
            let _ = self.inner.exchange(tag, key, payload);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected server kill mid-PUT",
            ));
        }
        let reply = self.inner.exchange(tag, key, payload)?;
        if (is_put || tag == OP_RENEW)
            && ((is_put && f.lease_expire_at > 0 && self.puts_seen == f.lease_expire_at)
                || self.rng.chance(f.lease_expire))
        {
            self.inject();
            return Ok((RE_REJECTED, 0, Vec::new()));
        }
        if self.rng.chance(f.torn_response) {
            self.inject();
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "injected torn response",
            ));
        }
        if self.rng.chance(f.bit_flip_reply) {
            self.inject();
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "injected bit-flipped response (frame checksum mismatch)",
            ));
        }
        Ok(reply)
    }
}

// ----- server ------------------------------------------------------------

/// Server tuning knobs for [`serve`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long a granted lease lives without a renew.
    pub lease_ttl: Duration,
    /// Flush the backing store once this many PUTs are pending.
    pub flush_threshold: usize,
    /// Per-connection read timeout (idle connections poll the stop
    /// flag at this cadence).
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            lease_ttl: Duration::from_millis(2000),
            flush_threshold: 64,
            read_timeout: Duration::from_millis(250),
        }
    }
}

/// Server-side counters and store shape, JSON-encoded for `STATS`
/// responses and `icfgp cache stats --store-url`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests served (all kinds).
    pub requests: u64,
    /// `GET`s answered with a record.
    pub get_hits: u64,
    /// `GET`s answered with a miss.
    pub get_misses: u64,
    /// `PUT`s accepted under a valid lease fence.
    pub puts_accepted: u64,
    /// `PUT`s rejected (bad fence, expired or missing lease). A
    /// rejected `PUT` writes nothing.
    pub puts_rejected: u64,
    /// Leases granted (each bumps the fence).
    pub leases_granted: u64,
    /// Lease requests refused because another writer holds it.
    pub leases_busy: u64,
    /// Successful renews.
    pub renews: u64,
    /// Releases.
    pub releases: u64,
    /// Writes or renews that arrived after their lease expired.
    pub fences_expired: u64,
    /// Messages dropped for framing or checksum damage.
    pub bad_frames: u64,
    /// The current lease fence (0 when never granted).
    pub fence: u64,
    /// Segment files in the store directory.
    pub segments: u64,
    /// Usable records loaded.
    pub records: u64,
    /// Quarantined segment files kept for inspection.
    pub quarantined_files: u64,
    /// Bytes held by quarantined files.
    pub quarantined_bytes: u64,
    /// The server's key-derivation epoch.
    pub key_epoch: u64,
    /// The server's on-disk format version.
    pub format_version: u32,
    /// The backing store's own counters.
    pub store: StoreStats,
}

#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    get_hits: AtomicU64,
    get_misses: AtomicU64,
    puts_accepted: AtomicU64,
    puts_rejected: AtomicU64,
    leases_granted: AtomicU64,
    leases_busy: AtomicU64,
    renews: AtomicU64,
    releases: AtomicU64,
    fences_expired: AtomicU64,
    bad_frames: AtomicU64,
}

/// The single writer lease: token identifies the holder, fence is the
/// monotonic epoch PUTs are checked against.
#[derive(Default)]
struct LeaseSlot {
    token: u64,
    fence: u64,
    deadline: Option<Instant>,
    next_token: u64,
}

impl LeaseSlot {
    fn holder_alive(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now <= d)
    }
}

struct ServerShared {
    store: CacheStore,
    dir: PathBuf,
    lease: Mutex<LeaseSlot>,
    c: ServerCounters,
    opts: ServeOptions,
    stop: Arc<AtomicBool>,
}

impl ServerShared {
    fn stats(&self) -> ServerStats {
        let (qfiles, qbytes) = crate::store::quarantine_usage(&self.dir);
        let segments = std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        let n = e.file_name().to_string_lossy().into_owned();
                        n.starts_with("seg-") && n.ends_with(".seg")
                    })
                    .count() as u64
            })
            .unwrap_or(0);
        // Records the server can serve: durably flushed plus queued
        // (accepted PUTs are visible to GETs before the segment flush).
        let records = self.store.entry_counts().iter().map(|(_, n)| *n as u64).sum::<u64>()
            + self.store.pending_len() as u64;
        ServerStats {
            connections: self.c.connections.load(Ordering::Relaxed),
            requests: self.c.requests.load(Ordering::Relaxed),
            get_hits: self.c.get_hits.load(Ordering::Relaxed),
            get_misses: self.c.get_misses.load(Ordering::Relaxed),
            puts_accepted: self.c.puts_accepted.load(Ordering::Relaxed),
            puts_rejected: self.c.puts_rejected.load(Ordering::Relaxed),
            leases_granted: self.c.leases_granted.load(Ordering::Relaxed),
            leases_busy: self.c.leases_busy.load(Ordering::Relaxed),
            renews: self.c.renews.load(Ordering::Relaxed),
            releases: self.c.releases.load(Ordering::Relaxed),
            fences_expired: self.c.fences_expired.load(Ordering::Relaxed),
            bad_frames: self.c.bad_frames.load(Ordering::Relaxed),
            fence: self.lease.lock().expect("lease poisoned").fence,
            segments,
            records,
            quarantined_files: qfiles,
            quarantined_bytes: qbytes,
            key_epoch: KEY_EPOCH,
            format_version: FORMAT_VERSION,
            store: self.store.stats(),
        }
    }

    /// Dispatch one request; `None` closes the connection.
    fn handle(&self, tag: u8, key: u64, payload: &[u8]) -> Option<(u8, u64, Vec<u8>)> {
        self.c.requests.fetch_add(1, Ordering::Relaxed);
        match tag {
            OP_GET => {
                if payload.len() != 9 {
                    return Some((RE_ERR, 0, b"malformed GET".to_vec()));
                }
                let Some(stage) = Stage::from_tag(payload[0]) else {
                    return Some((RE_ERR, 0, b"unknown stage".to_vec()));
                };
                let epoch = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                if epoch != KEY_EPOCH {
                    return Some((
                        RE_ERR,
                        0,
                        format!("key epoch {epoch} (server has {KEY_EPOCH})").into_bytes(),
                    ));
                }
                match self.store.get_queued(stage, key) {
                    Some(p) => {
                        self.c.get_hits.fetch_add(1, Ordering::Relaxed);
                        Some((RE_HIT, key, p.to_vec()))
                    }
                    None => {
                        self.c.get_misses.fetch_add(1, Ordering::Relaxed);
                        Some((RE_MISS, key, Vec::new()))
                    }
                }
            }
            OP_PUT => {
                if payload.len() < 9 {
                    return Some((RE_ERR, 0, b"malformed PUT".to_vec()));
                }
                let Some(stage) = Stage::from_tag(payload[0]) else {
                    return Some((RE_ERR, 0, b"unknown stage".to_vec()));
                };
                let fence = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
                let accept = {
                    let lease = self.lease.lock().expect("lease poisoned");
                    let current = lease.fence == fence && fence != 0;
                    let alive = lease.holder_alive(Instant::now());
                    if current && !alive {
                        self.c.fences_expired.fetch_add(1, Ordering::Relaxed);
                    }
                    current && alive
                };
                if accept {
                    self.store.put(stage, key, payload[9..].to_vec());
                    self.c.puts_accepted.fetch_add(1, Ordering::Relaxed);
                    if self.store.pending_len() >= self.opts.flush_threshold {
                        self.store.flush();
                    }
                    Some((RE_OK, key, Vec::new()))
                } else {
                    // The fence is stale or the lease lapsed: write
                    // nothing — the client re-acquires and resends.
                    self.c.puts_rejected.fetch_add(1, Ordering::Relaxed);
                    Some((RE_REJECTED, key, Vec::new()))
                }
            }
            OP_LEASE => {
                if payload.len() != 8 {
                    return Some((RE_ERR, 0, b"malformed LEASE".to_vec()));
                }
                let epoch = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                if epoch != KEY_EPOCH {
                    return Some((
                        RE_ERR,
                        0,
                        format!("key epoch {epoch} (server has {KEY_EPOCH})").into_bytes(),
                    ));
                }
                let mut lease = self.lease.lock().expect("lease poisoned");
                let now = Instant::now();
                if lease.holder_alive(now) {
                    self.c.leases_busy.fetch_add(1, Ordering::Relaxed);
                    return Some((RE_BUSY, 0, Vec::new()));
                }
                // Expired or never granted: bump the fence and grant.
                lease.next_token += 1;
                lease.token = lease.next_token ^ (key << 16);
                lease.fence += 1;
                lease.deadline = Some(now + self.opts.lease_ttl);
                self.c.leases_granted.fetch_add(1, Ordering::Relaxed);
                let mut body = Vec::with_capacity(16);
                body.extend_from_slice(&lease.fence.to_le_bytes());
                body.extend_from_slice(
                    &(self.opts.lease_ttl.as_millis() as u64).to_le_bytes(),
                );
                Some((RE_GRANT, lease.token, body))
            }
            OP_RENEW => {
                let mut lease = self.lease.lock().expect("lease poisoned");
                let now = Instant::now();
                if lease.token == key && lease.holder_alive(now) {
                    lease.deadline = Some(now + self.opts.lease_ttl);
                    self.c.renews.fetch_add(1, Ordering::Relaxed);
                    Some((RE_OK, key, Vec::new()))
                } else {
                    if lease.token == key {
                        self.c.fences_expired.fetch_add(1, Ordering::Relaxed);
                    }
                    Some((RE_REJECTED, key, Vec::new()))
                }
            }
            OP_RELEASE => {
                let mut lease = self.lease.lock().expect("lease poisoned");
                if lease.token == key && lease.deadline.is_some() {
                    lease.deadline = None;
                    drop(lease);
                    self.c.releases.fetch_add(1, Ordering::Relaxed);
                    self.store.flush();
                    Some((RE_OK, key, Vec::new()))
                } else {
                    Some((RE_REJECTED, key, Vec::new()))
                }
            }
            OP_STATS => {
                let json = serde_json::to_vec(&self.stats()).unwrap_or_default();
                Some((RE_STATS, 0, json))
            }
            _ => Some((RE_ERR, 0, b"unknown request".to_vec())),
        }
    }
}

/// Handle to a running store server. Dropping it stops the server and
/// joins its threads.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with a `:0` ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `icfgp://` URL clients should use.
    #[must_use]
    pub fn url(&self) -> String {
        format!("icfgp://{}", self.addr)
    }

    /// The stop flag; setting it "kills" the server (stops accepting,
    /// closes connections). [`FaultyTransport`] takes this for
    /// `kill_mid_put`.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.shared.stop.clone()
    }

    /// Stop the server without waiting for in-flight connections.
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Current server-side stats (in-process view).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Block until the server is stopped (`kill`, or the stop flag set
    /// by a signal handler or fault).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.kill();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve the store directory `dir` over TCP at `addr` (e.g.
/// `127.0.0.1:0`). Returns a handle once the listener is bound; the
/// accept loop and per-connection handlers run on background threads.
///
/// # Errors
///
/// Binding the listener.
pub fn serve(addr: &str, dir: &Path, opts: ServeOptions) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let shared = Arc::new(ServerShared {
        store: CacheStore::open(dir),
        dir: dir.to_path_buf(),
        lease: Mutex::new(LeaseSlot::default()),
        c: ServerCounters::default(),
        opts,
        stop: Arc::new(AtomicBool::new(false)),
    });
    let accept_shared = shared.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !accept_shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    accept_shared.c.connections.fetch_add(1, Ordering::Relaxed);
                    let conn_shared = accept_shared.clone();
                    handlers.push(std::thread::spawn(move || {
                        serve_connection(&conn_shared, stream);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        // A clean stop persists what clients sent; a "kill" (flag set
        // by a fault or signal) leaves pending records unflushed, like
        // a real SIGKILL would.
    });
    Ok(ServeHandle { addr: bound, shared, accept_thread: Some(accept_thread) })
}

fn serve_connection(shared: &ServerShared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Killed: drop the connection mid-stream; clients see EOF
            // or a torn frame, both transient.
            return;
        }
        match read_message(&mut stream, request_tag) {
            Ok((tag, key, payload)) => {
                let Some((rtag, rkey, rbody)) = shared.handle(tag, key, &payload) else {
                    return;
                };
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if write_message(&mut stream, rtag, rkey, &rbody).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: poll the stop flag again.
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Torn or corrupt request: unrecoverable framing,
                // close so the client reconnects cleanly.
                shared.c.bad_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => break, // EOF or connection fault
        }
    }
    // Connection closed cleanly (or client died): make what this
    // client sent durable and visible to fresh loads.
    if !shared.stop.load(Ordering::SeqCst) {
        shared.store.flush();
    }
}

// ----- remote client -----------------------------------------------------

/// Client construction knobs for [`RemoteStore`].
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Local overflow store directory: hedged reads probe it, and a
    /// degraded client flushes into it. `None` means degrade to
    /// in-memory-only (every store lookup misses).
    pub overflow_dir: Option<PathBuf>,
    /// Per-exchange connect/read/write timeout.
    pub timeout: Duration,
    /// Consecutive transport failures before the circuit breaker
    /// trips and the client degrades to fully-local operation.
    pub breaker_threshold: u32,
    /// Retry policy for transient transport faults.
    pub retry: RetryPolicy,
    /// Emit onto an existing trace spine instead of a private one
    /// (chaos campaigns share one collector across clients).
    pub trace: Option<Arc<Trace>>,
}

impl Default for RemoteOptions {
    fn default() -> RemoteOptions {
        RemoteOptions {
            overflow_dir: None,
            timeout: Duration::from_millis(1000),
            breaker_threshold: 4,
            retry: RetryPolicy::default(),
            trace: None,
        }
    }
}

struct ClientLease {
    token: u64,
    fence: u64,
    /// When to renew (half the server TTL — well before expiry).
    renew_at: Instant,
}

fn op_name(tag: u8) -> &'static str {
    match tag {
        OP_GET => "get",
        OP_PUT => "put",
        OP_LEASE => "lease",
        OP_RENEW => "renew",
        OP_RELEASE => "release",
        OP_STATS => "stats",
        _ => "other",
    }
}

/// The remote store backend: a [`StoreBackend`] whose records live on
/// an `icfgp cache serve` server, with bounded retries, hedged local
/// reads and degrade-to-local (see the module docs for the ladder).
pub struct RemoteStore {
    url: String,
    transport: Mutex<Box<dyn Transport>>,
    /// Set once a fault transport is installed — campaigns that wrap
    /// the transport themselves (to wire the server kill flag) must
    /// not get double-wrapped by [`FaultPlan`](crate::FaultPlan)
    /// arming.
    net_armed: AtomicBool,
    retry: Mutex<RetryPolicy>,
    breaker_threshold: u32,
    consecutive: AtomicU32,
    degraded: AtomicBool,
    lease: Mutex<Option<ClientLease>>,
    nonce: u64,
    local: Option<Arc<CacheStore>>,
    pending: Mutex<Vec<(Stage, u64, Vec<u8>)>>,
    known: Mutex<HashSet<(Stage, u64)>>,
    /// Keys quarantined this run: never re-served from the server, so
    /// a poisoned record cannot hit-quarantine-hit forever.
    poisoned: Mutex<HashSet<(Stage, u64)>>,
    /// The unified trace spine; all counting is a registry projection
    /// (`StoreSrc::Remote` for this client, `StoreSrc::Hedge` for its
    /// local overflow store, which shares the same trace).
    trace: Arc<Trace>,
    events: Mutex<Vec<StoreEvent>>,
}

impl RemoteStore {
    /// Connect lazily to `url`. Never fails: an unresolvable host
    /// yields a client whose breaker trips on first use and degrades
    /// to the overflow store.
    #[must_use]
    pub fn connect(url: &StoreUrl, opts: RemoteOptions) -> RemoteStore {
        let transport: Box<dyn Transport> =
            match format!("{}:{}", url.host.trim_matches(['[', ']']), url.port)
                .to_socket_addrs()
                .ok()
                .and_then(|mut addrs| addrs.next())
            {
                Some(addr) => Box::new(TcpTransport::new(addr, opts.timeout)),
                None => Box::new(UnresolvedTransport(url.to_string())),
            };
        RemoteStore::build(transport, url.to_string(), opts, false)
    }

    /// A client over an explicit transport (chaos campaigns wrap a
    /// [`TcpTransport`] in a [`FaultyTransport`] here). The transport
    /// counts as caller-owned: a later
    /// [`StoreBackend::arm_net_faults`] will not wrap it again.
    #[must_use]
    pub fn with_transport(
        transport: Box<dyn Transport>,
        url: String,
        opts: RemoteOptions,
    ) -> RemoteStore {
        RemoteStore::build(transport, url, opts, true)
    }

    fn build(
        transport: Box<dyn Transport>,
        url: String,
        opts: RemoteOptions,
        net_armed: bool,
    ) -> RemoteStore {
        let trace = opts.trace.clone().unwrap_or_default();
        let local = opts.overflow_dir.as_deref().map(|d| {
            Arc::new(CacheStore::open_traced(
                d,
                lock_timeout(),
                Arc::clone(&trace),
                StoreSrc::Hedge,
            ))
        });
        let store = RemoteStore {
            url,
            transport: Mutex::new(transport),
            retry: Mutex::new(opts.retry),
            breaker_threshold: opts.breaker_threshold.max(1),
            consecutive: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            lease: Mutex::new(None),
            net_armed: AtomicBool::new(net_armed),
            nonce: u64::from(std::process::id()) ^ 0x004C_4541_5345_u64, // "LEASE"
            local,
            pending: Mutex::new(Vec::new()),
            known: Mutex::new(HashSet::new()),
            poisoned: Mutex::new(HashSet::new()),
            trace,
            events: Mutex::new(Vec::new()),
        };
        store.event(StoreEventKind::Opened, store.url.clone());
        store
    }

    /// Whether the circuit breaker has tripped (fully-local operation).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn event(&self, kind: StoreEventKind, detail: String) {
        let mut events = self.events.lock().expect("events poisoned");
        if events.len() >= 512 {
            events.remove(0);
        }
        events.push(StoreEvent { kind, detail });
    }

    fn emit(&self, op: StoreOp) {
        self.trace.emit(TraceEvent::Store { src: StoreSrc::Remote, op });
    }

    /// One request with bounded, jittered retries. Any `Err` has
    /// already been counted against the circuit breaker.
    fn request(&self, tag: u8, key: u64, payload: &[u8]) -> std::io::Result<(u8, u64, Vec<u8>)> {
        let policy = *self.retry.lock().expect("retry poisoned");
        let mut transport = self.transport.lock().expect("transport poisoned");
        let started = Instant::now();
        let (result, retries) = policy.run(
            |_e: &std::io::Error| Transience::Transient,
            |_| transport.exchange(tag, key, payload),
        );
        drop(transport);
        self.trace.emit(TraceEvent::RpcSpan {
            op: op_name(tag).to_string(),
            ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        for _ in 0..retries {
            self.emit(StoreOp::Retry);
        }
        match result {
            Ok(reply) => {
                self.consecutive.store(0, Ordering::SeqCst);
                Ok(reply)
            }
            Err(e) => {
                self.note_failure(&e);
                Err(e)
            }
        }
    }

    fn note_failure(&self, e: &std::io::Error) {
        self.emit(StoreOp::IoError);
        self.event(StoreEventKind::IoError, format!("{}: {e}", self.url));
        let failures = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.breaker_threshold && !self.degraded.swap(true, Ordering::SeqCst) {
            self.emit(StoreOp::BreakerTrip);
            self.event(
                StoreEventKind::LockTimeout,
                format!(
                    "circuit breaker tripped after {failures} consecutive transport \
                     failure(s); degraded to {}",
                    self.local
                        .as_ref()
                        .map_or_else(|| "in-memory only".to_string(), |s| {
                            StoreBackend::describe(&**s)
                        })
                ),
            );
        }
    }

    fn local_probe(&self, stage: Stage, key: u64) -> Option<RecordBytes> {
        self.local.as_ref().and_then(|s| s.get(stage, key))
    }

    /// Take (or renew) the writer lease. `Ok(Some)` is the current
    /// `(token, fence)`, `Ok(None)` means another writer holds it
    /// (defer the flush), `Err` is a transport fault.
    fn ensure_lease(&self) -> std::io::Result<Option<(u64, u64)>> {
        let mut lease = self.lease.lock().expect("lease poisoned");
        if let Some(l) = lease.as_ref() {
            if Instant::now() < l.renew_at {
                return Ok(Some((l.token, l.fence)));
            }
            match self.request(OP_RENEW, l.token, &[])? {
                (RE_OK, ..) => {
                    let l = lease.as_mut().expect("lease present");
                    l.renew_at = Instant::now() + Duration::from_millis(500);
                    return Ok(Some((l.token, l.fence)));
                }
                _ => {
                    // Expired under us (or fence re-granted): the old
                    // token is dead, acquire a fresh lease below.
                    self.event(
                        StoreEventKind::LockTimeout,
                        "lease lost; re-acquiring".to_string(),
                    );
                    *lease = None;
                }
            }
        }
        let mut epoch = Vec::with_capacity(8);
        epoch.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        match self.request(OP_LEASE, self.nonce, &epoch)? {
            (RE_GRANT, token, body) if body.len() == 16 => {
                let fence = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
                let ttl = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
                *lease = Some(ClientLease {
                    token,
                    fence,
                    renew_at: Instant::now() + Duration::from_millis((ttl / 2).max(1)),
                });
                self.emit(StoreOp::LeaseFence { fence });
                Ok(Some((token, fence)))
            }
            (RE_BUSY, ..) => Ok(None),
            (tag, _, body) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "unexpected lease reply {tag:#04x}: {}",
                    String::from_utf8_lossy(&body)
                ),
            )),
        }
    }

    /// Flush `records` into the degraded path: the local overflow
    /// store becomes the writer of record.
    fn flush_local(&self, records: Vec<(Stage, u64, Vec<u8>)>) -> usize {
        let Some(local) = &self.local else { return 0 };
        for (stage, key, payload) in records {
            local.put(stage, key, payload);
        }
        let n = local.flush();
        if n > 0 {
            self.emit(StoreOp::Flushed { records: n as u64 });
        }
        n
    }

    /// Send `records` to the server under the lease fence. Returns how
    /// many the server accepted; unsent or unacknowledged records go
    /// back to `pending`.
    fn flush_remote(&self, mut records: Vec<(Stage, u64, Vec<u8>)>) -> usize {
        match self.ensure_lease() {
            Ok(Some(_)) => {}
            Ok(None) => {
                // Another writer holds the lease: defer, exactly like
                // a local lock timeout.
                self.emit(StoreOp::LockTimeout);
                self.event(
                    StoreEventKind::LockTimeout,
                    "lease busy: flush deferred".to_string(),
                );
                self.pending.lock().expect("pending poisoned").extend(records);
                return 0;
            }
            Err(_) => {
                if self.is_degraded() {
                    return self.flush_local(records);
                }
                self.pending.lock().expect("pending poisoned").extend(records);
                return 0;
            }
        }
        let mut done = 0usize;
        let mut lease_retry = true;
        while let Some((stage, key, payload)) = records.first().cloned() {
            let fence = {
                let lease = self.lease.lock().expect("lease poisoned");
                match lease.as_ref() {
                    Some(l) => l.fence,
                    None => break,
                }
            };
            let mut body = Vec::with_capacity(9 + payload.len());
            body.push(stage.tag());
            body.extend_from_slice(&fence.to_le_bytes());
            body.extend_from_slice(&payload);
            match self.request(OP_PUT, key, &body) {
                Ok((RE_OK, ..)) => {
                    records.remove(0);
                    done += 1;
                }
                Ok((RE_REJECTED, ..)) => {
                    // Lease lost mid-write: the server wrote nothing.
                    // Re-acquire once per flush, then give up and keep
                    // the rest pending.
                    *self.lease.lock().expect("lease poisoned") = None;
                    self.event(
                        StoreEventKind::LockTimeout,
                        "PUT rejected: lease fence expired".to_string(),
                    );
                    if !lease_retry {
                        break;
                    }
                    lease_retry = false;
                    match self.ensure_lease() {
                        Ok(Some(_)) => {}
                        _ => break,
                    }
                }
                Ok(_) | Err(_) => break,
            }
        }
        if !records.is_empty() {
            if self.is_degraded() {
                done += self.flush_local(records);
            } else {
                self.pending.lock().expect("pending poisoned").extend(records);
            }
        }
        if done > 0 {
            self.emit(StoreOp::Flushed { records: done as u64 });
        }
        done
    }

    /// Fetch the server's stats (the `icfgp cache stats --store-url`
    /// path).
    ///
    /// # Errors
    ///
    /// Transport faults, or an unparsable reply.
    pub fn server_stats(&self) -> Result<ServerStats, String> {
        match self.request(OP_STATS, 0, &[]) {
            Ok((RE_STATS, _, body)) => serde_json::from_slice(&body)
                .map_err(|e| format!("unparsable server stats: {e}")),
            Ok((tag, ..)) => Err(format!("unexpected stats reply {tag:#04x}")),
            Err(e) => Err(format!("{}: {e}", self.url)),
        }
    }
}

impl StoreBackend for RemoteStore {
    fn get(&self, stage: Stage, key: u64) -> Option<RecordBytes> {
        self.emit(StoreOp::Lookup { stage });
        if self.poisoned.lock().expect("poisoned poisoned").contains(&(stage, key)) {
            self.emit(StoreOp::Miss { stage });
            return None;
        }
        if self.is_degraded() {
            self.emit(StoreOp::Degraded);
            return match self.local_probe(stage, key) {
                Some(p) => {
                    self.emit(StoreOp::Hit { stage });
                    Some(p)
                }
                None => {
                    self.emit(StoreOp::Miss { stage });
                    None
                }
            };
        }
        let mut body = Vec::with_capacity(9);
        body.push(stage.tag());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        let outcome = match self.request(OP_GET, key, &body) {
            Ok((RE_HIT, _, payload)) => {
                self.emit(StoreOp::RemoteHit);
                Some(RecordBytes::from(payload))
            }
            Ok((RE_MISS, ..)) => {
                self.emit(StoreOp::RemoteMiss);
                // Definite remote miss: hedge to the local overflow.
                self.local_probe(stage, key)
            }
            Ok((tag, _, why)) => {
                // A lying or incompatible server (epoch skew reports
                // here): count it against the breaker and hedge local.
                self.note_failure(&std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "unexpected GET reply {tag:#04x}: {}",
                        String::from_utf8_lossy(&why)
                    ),
                ));
                self.local_probe(stage, key)
            }
            Err(_) => self.local_probe(stage, key),
        };
        match outcome {
            Some(p) => {
                self.emit(StoreOp::Hit { stage });
                Some(p)
            }
            None => {
                self.emit(StoreOp::Miss { stage });
                None
            }
        }
    }

    fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        if !self.known.lock().expect("known poisoned").insert((stage, key)) {
            return;
        }
        self.pending.lock().expect("pending poisoned").push((stage, key, payload));
    }

    fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        self.poisoned.lock().expect("poisoned poisoned").insert((stage, key));
        self.emit(StoreOp::LookupQuarantine { stage });
        self.event(
            StoreEventKind::DecodeFailure,
            format!("{}:{key:#018x}: {why}", stage.name()),
        );
    }

    fn flush(&self) -> usize {
        let records = std::mem::take(&mut *self.pending.lock().expect("pending poisoned"));
        if records.is_empty() {
            return 0;
        }
        if self.is_degraded() {
            self.flush_local(records)
        } else {
            self.flush_remote(records)
        }
    }

    fn stats(&self) -> StoreStats {
        // The registry projection for this client's own source; the
        // hedge store's counters live under `StoreSrc::Hedge` on the
        // same trace and are reported by the hedge store itself.
        self.trace.registry().store_stats(StoreSrc::Remote)
    }

    fn events(&self) -> Vec<StoreEvent> {
        self.events.lock().expect("events poisoned").clone()
    }

    fn pending_len(&self) -> usize {
        self.pending.lock().expect("pending poisoned").len()
    }

    fn entry_counts(&self) -> Vec<(Stage, usize)> {
        self.local
            .as_ref()
            .map_or_else(|| Stage::ALL.iter().map(|s| (*s, 0)).collect(), |s| s.entry_counts())
    }

    fn describe(&self) -> String {
        if self.is_degraded() {
            match &self.local {
                Some(local) => {
                    format!("{} (degraded to {})", self.url, StoreBackend::describe(&**local))
                }
                None => format!("{} (degraded, no overflow store)", self.url),
            }
        } else {
            self.url.clone()
        }
    }

    fn arm_faults(&self, faults: StoreFaults) {
        if let Some(local) = &self.local {
            local.arm_faults(faults);
        }
    }

    fn arm_net_faults(&self, faults: NetFaults) {
        if !faults.any() || self.net_armed.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut transport = self.transport.lock().expect("transport poisoned");
        let inner = std::mem::replace(
            &mut *transport,
            Box::new(UnresolvedTransport(self.url.clone())),
        );
        *transport = Box::new(FaultyTransport::new(inner, faults, None));
    }

    fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock().expect("retry poisoned") = policy;
        if let Some(local) = &self.local {
            local.set_retry_policy(policy);
        }
    }

    fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    fn trace_src(&self) -> StoreSrc {
        StoreSrc::Remote
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        // Best-effort: persist what we computed, hand the lease back.
        StoreBackend::flush(self);
        let token = self.lease.lock().expect("lease poisoned").as_ref().map(|l| l.token);
        if let Some(token) = token {
            if !self.is_degraded() {
                let _ = self.request(OP_RELEASE, token, &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icfgp-net-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn client(handle: &ServeHandle, overflow: Option<PathBuf>) -> RemoteStore {
        let url = parse_store_url(&handle.url()).unwrap();
        RemoteStore::connect(
            &url,
            RemoteOptions {
                trace: None,
                overflow_dir: overflow,
                timeout: Duration::from_millis(500),
                breaker_threshold: 3,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::seeded(7) },
            },
        )
    }

    #[test]
    fn url_parsing_accepts_good_and_rejects_garbage() {
        let u = parse_store_url("icfgp://cache.example:9009").unwrap();
        assert_eq!((u.host.as_str(), u.port), ("cache.example", 9009));
        assert_eq!(u.to_string(), "icfgp://cache.example:9009");
        let v6 = parse_store_url("icfgp://[::1]:80").unwrap();
        assert_eq!((v6.host.as_str(), v6.port), ("::1", 80));
        for bad in [
            "http://host:1",
            "icfgp://host",
            "icfgp://:9009",
            "icfgp://ho st:9009",
            "icfgp://host:port",
            "icfgp://host:0",
            "icfgp://host:99999",
            "",
        ] {
            assert!(parse_store_url(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn roundtrip_and_warm_second_client() {
        let dir = tmp_dir("roundtrip");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        {
            let a = client(&server, None);
            assert_eq!(a.get(Stage::Func, 1), None, "cold lookup misses");
            a.put(Stage::Func, 1, b"alpha".to_vec());
            a.put(Stage::Emit, 2, b"beta".to_vec());
            assert_eq!(StoreBackend::flush(&a), 2);
            assert_eq!(a.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
            let s = a.stats();
            assert_eq!(s.hits + s.misses, 2, "lookup conservation");
            assert_eq!(s.remote_hits, 1);
            assert_eq!(s.breaker_trips, 0);
        }
        let b = client(&server, None);
        assert_eq!(b.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(b.get(Stage::Emit, 2).as_deref(), Some(&b"beta"[..]));
        let stats = server.stats();
        assert!(stats.puts_accepted == 2 && stats.puts_rejected == 0, "{stats:?}");
        assert_eq!(stats.fence, 1, "one lease granted");
    }

    #[test]
    fn dead_server_degrades_without_hanging() {
        // Port 1 on localhost: connection refused immediately.
        let url = parse_store_url("icfgp://127.0.0.1:1").unwrap();
        let store = RemoteStore::connect(
            &url,
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(100),
                breaker_threshold: 2,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::none() },
                overflow_dir: None,
            },
        );
        let start = Instant::now();
        for key in 0..8 {
            assert_eq!(store.get(Stage::Func, key), None);
        }
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(StoreBackend::flush(&store), 0, "nowhere to persist");
        assert!(store.is_degraded(), "breaker must trip");
        let s = store.stats();
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 8, "dead server only costs misses");
        assert!(s.degraded > 0, "post-trip lookups count as degraded");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded, no hang");
    }

    #[test]
    fn degraded_client_flushes_to_overflow_store() {
        let overflow = tmp_dir("overflow");
        let url = parse_store_url("icfgp://127.0.0.1:1").unwrap();
        {
            let store = RemoteStore::connect(
                &url,
                RemoteOptions {
                    trace: None,
                    timeout: Duration::from_millis(100),
                    breaker_threshold: 1,
                    retry: RetryPolicy::none(),
                    overflow_dir: Some(overflow.clone()),
                },
            );
            assert_eq!(store.get(Stage::Func, 5), None, "trips the breaker");
            store.put(Stage::Func, 5, b"local".to_vec());
            assert_eq!(StoreBackend::flush(&store), 1, "degraded flush goes local");
        }
        let reopened = CacheStore::open(&overflow);
        assert_eq!(reopened.get(Stage::Func, 5).as_deref(), Some(&b"local"[..]));
    }

    #[test]
    fn expired_fence_put_is_rejected_and_writes_nothing() {
        let dir = tmp_dir("fence");
        let server = serve(
            "127.0.0.1:0",
            &dir,
            ServeOptions { lease_ttl: Duration::from_millis(60), ..ServeOptions::default() },
        )
        .unwrap();
        let a = client(&server, None);
        // Acquire by flushing once.
        a.put(Stage::Func, 1, b"one".to_vec());
        assert_eq!(StoreBackend::flush(&a), 1);
        // Let the lease expire, then hand it to a second writer —
        // bumping the fence past A's.
        std::thread::sleep(Duration::from_millis(120));
        let b = client(&server, None);
        b.put(Stage::Func, 2, b"two".to_vec());
        assert_eq!(StoreBackend::flush(&b), 1, "expired lease re-grants to B");
        // A PUT carrying A's lapsed fence (1) must be rejected
        // server-side and write nothing. Drive it raw so the client's
        // own staleness check can't get in the way.
        let mut raw = TcpTransport::new(server.addr(), Duration::from_millis(500));
        let mut body = vec![Stage::Func.tag()];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(b"stale");
        let (tag, ..) = raw.exchange(OP_PUT, 3, &body).unwrap();
        assert_eq!(tag, RE_REJECTED, "stale fence must reject");
        let stats = server.stats();
        assert!(stats.puts_rejected >= 1, "stale fence must reject: {stats:?}");
        assert_eq!(stats.store.quarantined_records, 0, "rejections quarantine nothing");
        let mut probe = vec![Stage::Func.tag()];
        probe.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        let (tag, ..) = raw.exchange(OP_GET, 3, &probe).unwrap();
        assert_eq!(tag, RE_MISS, "rejected PUT must write nothing");
        // Meanwhile the well-behaved client A notices its lease lapsed
        // before writing: with B's lease live it defers to pending.
        a.put(Stage::Func, 3, b"three".to_vec());
        let n = StoreBackend::flush(&a);
        assert!(n == 1 || a.pending_len() == 1, "rejected PUT must stay pending");
    }

    #[test]
    fn second_writer_defers_while_lease_is_busy() {
        let dir = tmp_dir("busy");
        let server = serve(
            "127.0.0.1:0",
            &dir,
            ServeOptions { lease_ttl: Duration::from_secs(30), ..ServeOptions::default() },
        )
        .unwrap();
        let a = client(&server, None);
        a.put(Stage::Func, 1, b"one".to_vec());
        assert_eq!(StoreBackend::flush(&a), 1);
        let b = client(&server, None);
        b.put(Stage::Func, 2, b"two".to_vec());
        assert_eq!(StoreBackend::flush(&b), 0, "lease busy: defer");
        assert_eq!(b.pending_len(), 1, "deferred records stay pending");
        assert_eq!(b.stats().lock_timeouts, 1);
        assert_eq!(server.stats().leases_busy, 1);
    }

    #[test]
    fn killed_server_mid_run_costs_misses_only() {
        let dir = tmp_dir("kill");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let url = parse_store_url(&server.url()).unwrap();
        let addr = server.addr();
        let faults = NetFaults { seed: 3, kill_mid_put: 1.0, ..NetFaults::default() };
        let transport = FaultyTransport::new(
            Box::new(TcpTransport::new(addr, Duration::from_millis(200))),
            faults,
            Some(server.stop_flag()),
        );
        let store = RemoteStore::with_transport(
            Box::new(transport),
            url.to_string(),
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(200),
                breaker_threshold: 2,
                retry: RetryPolicy { base_delay_ms: 0, max_delay_ms: 0, ..RetryPolicy::none() },
                overflow_dir: None,
            },
        );
        assert_eq!(store.get(Stage::Func, 1), None, "works before the kill");
        store.put(Stage::Func, 1, b"doomed".to_vec());
        let start = Instant::now();
        assert_eq!(StoreBackend::flush(&store), 0, "kill mid-PUT persists nothing");
        for key in 10..14 {
            assert_eq!(store.get(Stage::Func, key), None);
        }
        assert!(store.is_degraded(), "dead server trips the breaker");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded");
    }

    #[test]
    fn torn_and_bitflipped_replies_are_transient() {
        let dir = tmp_dir("torn");
        let server = serve("127.0.0.1:0", &dir, ServeOptions::default()).unwrap();
        let url = parse_store_url(&server.url()).unwrap();
        let faults = NetFaults {
            seed: 11,
            torn_response: 0.4,
            bit_flip_reply: 0.3,
            drop: 0.2,
            ..NetFaults::default()
        };
        let transport = FaultyTransport::new(
            Box::new(TcpTransport::new(server.addr(), Duration::from_millis(500))),
            faults,
            None,
        );
        let store = RemoteStore::with_transport(
            Box::new(transport),
            url.to_string(),
            RemoteOptions {
                trace: None,
                timeout: Duration::from_millis(500),
                breaker_threshold: 1_000_000, // never trip: isolate retry behaviour
                retry: RetryPolicy {
                    max_attempts: 10,
                    base_delay_ms: 0,
                    max_delay_ms: 0,
                    seed: 11,
                },
                overflow_dir: None,
            },
        );
        store.put(Stage::Func, 1, b"payload".to_vec());
        while StoreBackend::flush(&store) == 0 && store.pending_len() > 0 {}
        let mut hits = 0;
        for _ in 0..12 {
            if store.get(Stage::Func, 1).as_deref() == Some(&b"payload"[..]) {
                hits += 1;
            }
        }
        assert!(hits > 0, "faulty transport still serves through retries");
        let s = store.stats();
        assert!(s.retries > 0, "faults must have caused retries: {s:?}");
        assert_eq!(s.hits + s.misses, 12, "conservation under faults");
    }
}
